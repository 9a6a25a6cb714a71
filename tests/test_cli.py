"""Tests for the command line front end."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import bordx
from bordx import bordclass, cli, genfactory, numbers, tower
from bordx.cli import main


def run_cli(args, capsys):
    code = main(args)
    out = capsys.readouterr()
    return code, out.out, out.err


def no_work(*args):
    """Stands in for a lemma or rank function that a refused size must not reach."""
    raise AssertionError("a refused size started work")


@pytest.fixture
def no_stage(monkeypatch):
    """The family path refuses before a stage is built."""
    monkeypatch.setattr(tower, "Stage", no_work)


class TestChern:
    def test_ltilde_table_ends_with_s(self, capsys):
        code, out, _ = run_cli(
            ["chern", "--family", "Ltilde", "--n1", "2", "--n2", "3"], capsys
        )
        assert code == 0
        assert out.strip().splitlines()[-1] == "s\t5"

    def test_ntilde21_s_zero(self, capsys):
        code, out, _ = run_cli(
            ["chern", "--family", "Ntilde", "--n1", "2", "--n2", "1"], capsys
        )
        assert code == 0
        assert out.strip().splitlines()[-1] == "s\t0"

    def test_empty_omega_is_the_point(self, capsys):
        point = run_cli(["chern", "--family", "L", "--n1", "0", "--n2", "0"], capsys)
        assert point == (0, "key\tvalue\nc_\t1\ns\t0\n", "")
        assert run_cli(["chern", "--family", "CPprod", "--omega", ""], capsys) == point

    def test_spec_json_cp3(self, tmp_path, capsys):
        spec = tmp_path / "cp3.json"
        spec.write_text(json.dumps({"base": [3], "stages": []}))
        code, out, _ = run_cli(["chern", "--spec", str(spec), "--format", "json"], capsys)
        assert code == 0
        data = json.loads(out)
        assert data["numbers"] == {"3": 4, "2,1": 24, "1,1,1": 64}
        assert data["s"] == 4

    def test_malformed_json(self, tmp_path, capsys):
        spec = tmp_path / "bad.json"
        spec.write_text("{not json")
        code, _, err = run_cli(["chern", "--spec", str(spec)], capsys)
        assert code == 2
        assert "error" in err

    @pytest.mark.parametrize("data", [
        {"base": 2}, {"stages": []}, {"base": [2], "stages": [{}]},
        {"base": [2], "stages": [{"lines": [0, 1]}]}, {"base": [2.0]}, [2],
    ])
    def test_malformed_spec_exits_2(self, data, tmp_path, capsys):
        spec = tmp_path / "bad.json"
        spec.write_text(json.dumps(data))
        code, out, err = run_cli(["chern", "--spec", str(spec)], capsys)
        assert code == 2 and out == ""
        assert err.startswith("error:") and err.count("\n") == 1

    @pytest.mark.parametrize("argv,message", [
        (["chern"], "need --family or --spec"),
        (["chern", "--family", "CPprod"], "CPprod needs --omega"),
        (["chern", "--family", "L", "--n1", "2"], "family needs --n1 and --n2"),
        (["gens", "--dim", "7", "--source", "cy"], "--dim must be even"),
        (["gens", "--dim", "4", "--source", "cy"],
         "the Calabi-Yau certification route is exposed for dimension >= 6"),
        (["ranks", "--max-dim", "-1"], "--max-dim must be between 0 and 4000, got -1"),
    ])
    def test_usage_error_is_one_line(self, argv, message, capsys):
        code, out, err = run_cli(argv, capsys)
        assert code == 2 and out == ""
        assert err == f"error: {message}\n"

    def test_invalid_family_params(self, capsys):
        code, _, err = run_cli(
            ["chern", "--family", "Ltilde", "--n1", "3", "--n2", "1"], capsys
        )
        assert code == 2
        assert "error" in err

    def test_cpprod_omega(self, capsys):
        code, out, _ = run_cli(
            ["chern", "--family", "CPprod", "--omega", "1,1", "--format", "json"],
            capsys,
        )
        assert code == 0
        data = json.loads(out)
        assert data["numbers"] == {"2": 4, "1,1": 8}

    def test_spec_not_an_object(self, tmp_path, capsys):
        spec = tmp_path / "list.json"
        spec.write_text("[1, 2]")
        code, out, err = run_cli(["chern", "--spec", str(spec)], capsys)
        assert code == 2 and out == ""
        assert err.startswith("error:")

    @pytest.mark.parametrize("data", [
        {"base": [1.7]},
        {"base": [2.9, 1]},
        {"base": ["2"]},
        {"base": [True]},
        {"base": [1, 1], "conjugate": [True]},
        {"base": [1, 1], "conjugate": [1, True]},
        {"base": [1], "stages": [{"lines": [[-1.0], [0]]}]},
        {"base": [1], "stages": [{"lines": [[-1], [0]], "conjugate": [2.0]}]},
    ])
    def test_spec_entries_not_integers(self, data, tmp_path, capsys):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps(data))
        code, out, err = run_cli(["chern", "--spec", str(spec)], capsys)
        assert code == 2 and out == ""
        assert err.startswith("error:")

    @pytest.mark.parametrize("data", [
        {"base": [1], "conjugate": [0, 0]},
        {"base": [1], "stages": [{"lines": [[-1], [0]], "conjugate": [2, 2]}]},
        {"base": [1], "stages": [{"lines": [[-1], [0]], "conjugate": [2]}],
         "conjugate": [2]},
    ])
    def test_conjugation_given_twice_exits_2(self, data, tmp_path, capsys):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps(data))
        code, out, err = run_cli(["chern", "--spec", str(spec)], capsys)
        assert code == 2 and out == ""
        assert err.startswith("error: a conjugation index is given twice")
        assert err.count("\n") == 1

    def test_repeated_key_in_spec_exits_2(self, tmp_path, capsys):
        spec = tmp_path / "spec.json"
        spec.write_text('{"base": [1], "base": [2]}')
        code, out, err = run_cli(["chern", "--spec", str(spec)], capsys)
        assert code == 2 and out == ""
        assert err.startswith("error:") and "given twice" in err
        assert err.count("\n") == 1

    def test_unwritable_output(self, tmp_path, capsys):
        path = tmp_path / "missing" / "out.tsv"
        code, out, err = run_cli(
            ["chern", "--family", "L", "--n1", "1", "--n2", "1",
             "--output", str(path)], capsys
        )
        assert code == 2 and out == ""
        assert err.startswith("error:") and not path.exists()

    def test_output_file(self, tmp_path, capsys):
        path = tmp_path / "out.tsv"
        code, out, _ = run_cli(
            ["chern", "--family", "L", "--n1", "1", "--n2", "1",
             "--output", str(path)], capsys
        )
        assert code == 0 and out == ""
        assert path.read_text().strip().splitlines()[-1].startswith("s\t")


class TestDimensionLimits:
    """A dimension above the largest exits 2 before any work starts."""

    @pytest.fixture
    def no_chern_work(self, monkeypatch):
        # where a tower's work starts: its blocks, its ring, and the partition walk
        for target, name in [(bordclass, "_walk"), (tower, "PresentedRing"),
                             (tower, "_blocks")]:
            monkeypatch.setattr(target, name, no_work)

    @staticmethod
    def assert_refused(code, out, err, largest):
        assert code == 2 and out == ""
        assert err.startswith("error:") and err.count("\n") == 1
        assert str(largest) in err and "Traceback" not in err

    @pytest.mark.parametrize("base", [[200], [bordclass.CHERN_MAX_DIM + 1],
                                      [bordclass.CHERN_MAX_DIM, 1], [10**9], [10**12]])
    def test_spec_above_largest(self, base, no_chern_work, tmp_path, capsys):
        # p(200) is about 4e12: only the limit check may run
        spec = tmp_path / "big.json"
        spec.write_text(json.dumps({"base": base}))
        code, out, err = run_cli(["chern", "--spec", str(spec)], capsys)
        self.assert_refused(code, out, err, bordclass.CHERN_MAX_DIM)

    def test_spec_stage_counts_toward_dimension(self, no_chern_work, tmp_path, capsys):
        # a stage of f + 1 lines adds f to the dimension
        spec = tmp_path / "stage.json"
        lines = [[-1]] + [[0]] * bordclass.CHERN_MAX_DIM
        spec.write_text(json.dumps({"base": [1], "stages": [{"lines": lines}]}))
        code, out, err = run_cli(["chern", "--spec", str(spec)], capsys)
        self.assert_refused(code, out, err, bordclass.CHERN_MAX_DIM)

    @pytest.mark.parametrize("argv", [
        ["--family", "CPprod", "--omega", "200"],
        ["--family", "CPprod", "--omega", f"{bordclass.CHERN_MAX_DIM},1"],
        ["--family", "CPprod", "--omega", str(10**9)],
        ["--family", "CPprod", "--omega", str(10**12)],
        ["--family", "L", "--n1", "2", "--n2", str(bordclass.CHERN_MAX_DIM - 1)],
        ["--family", "Ltilde", "--n1", "2", "--n2", str(bordclass.CHERN_MAX_DIM - 1)],
        ["--family", "Ntilde", "--n1", "2", "--n2", str(bordclass.CHERN_MAX_DIM - 2)],
        ["--family", "L", "--n1", "10", "--n2", str(10**12)],
    ])
    def test_family_above_largest(self, argv, no_chern_work, no_stage, capsys):
        code, out, err = run_cli(["chern"] + argv, capsys)
        self.assert_refused(code, out, err, bordclass.CHERN_MAX_DIM)

    @pytest.mark.parametrize("family,n1,n2", [
        ("L", 0, 5), ("L", 3, 0), ("L", 2, 3), ("Ltilde", 2, 3), ("Ltilde", 4, 1),
        ("Ntilde", 2, 1), ("Ntilde", 2, 3), ("Ntilde", 4, 5),
    ])
    def test_family_dimension_checked_before_build(self, family, n1, n2):
        # the check reads the dimension off n1 and n2; it must be the spec's
        assert tower.build_family(family, n1, n2).dim == n1 + n2 + (family == "Ntilde")

    def test_largest_chern_dimension_runs(self, capsys):
        code, out, _ = run_cli(["chern", "--family", "CPprod", "--omega",
                                str(bordclass.CHERN_MAX_DIM)], capsys)
        assert code == 0
        assert out.strip().splitlines()[-1] == f"s\t{bordclass.CHERN_MAX_DIM + 1}"

    @pytest.mark.parametrize("source", ["cy", "quasitoric"])
    def test_gens_above_largest(self, source, monkeypatch, capsys):
        for name in ("cy_generator_combo", "quasitoric_generator_odd",
                     "quasitoric_generator_even"):
            monkeypatch.setattr(genfactory, name, no_work)
        largest = cli.GENS_MAX_DIM[source]
        code, out, err = run_cli(
            ["gens", "--dim", str(largest + 2), "--source", source], capsys)
        self.assert_refused(code, out, err, largest)

    @pytest.mark.parametrize("source", ["cy", "quasitoric"])
    def test_gens_largest_is_admitted(self, source, monkeypatch):
        class Reached(Exception):
            pass

        def reached(*args):
            raise Reached

        for name in ("cy_generator_combo", "quasitoric_generator_odd",
                     "quasitoric_generator_even"):
            monkeypatch.setattr(genfactory, name, reached)
        with pytest.raises(Reached):
            main(["gens", "--dim", str(cli.GENS_MAX_DIM[source]), "--source", source])


class TestRankLimit:
    """A tower of cohomology rank above the largest exits 2 before any ring is built."""

    @pytest.fixture
    def no_ring(self, monkeypatch):
        for target, name in [(bordclass, "_walk"), (tower, "PresentedRing")]:
            monkeypatch.setattr(target, name, no_work)

    @pytest.mark.parametrize("omega", [
        [1] * 11, [2] * 10, [3] * 8, [1] * 24, [2] * 6 + [1] * 4, [8, 8, 7, 1],
    ])
    def test_omega_above_largest(self, omega, no_ring, no_stage, capsys):
        code, out, err = run_cli(["chern", "--family", "CPprod", "--omega",
                                  ",".join(map(str, omega))], capsys)
        TestDimensionLimits.assert_refused(code, out, err, tower.CHERN_MAX_RANK)

    @pytest.mark.parametrize("data", [
        {"base": [1] * 11},
        {"base": [3] * 5, "stages": [{"lines": [[0] * 5, [1, 0, 0, 0, 0]]}]},
        {"base": [1], "stages": [{"lines": [[0]] * 2}] + [
            {"lines": [[0] * (i + 2)] * 2} for i in range(10)]},
    ])
    def test_spec_above_largest(self, data, no_ring, tmp_path, capsys):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps(data))
        code, out, err = run_cli(["chern", "--spec", str(spec)], capsys)
        TestDimensionLimits.assert_refused(code, out, err, tower.CHERN_MAX_RANK)

    @pytest.mark.parametrize("omega", ["1,1,1,1,1,1,1,1,1,1", "3,3,3,3,3", "8,8,8",
                                       "10,10,4", "24"])
    def test_largest_ranks_are_admitted(self, omega, monkeypatch):
        class Reached(Exception):
            pass

        def reached(*args):
            raise Reached

        monkeypatch.setattr(tower, "chern_numbers", reached)
        with pytest.raises(Reached):
            main(["chern", "--family", "CPprod", "--omega", omega])

    def test_families_to_the_largest_dimension_are_admitted(self):
        instances = [("L", n1, n2) for n1 in range(bordclass.CHERN_MAX_DIM + 1)
                     for n2 in range(bordclass.CHERN_MAX_DIM + 1 - n1)]
        instances += [("Ltilde", n1, n2) for n1 in range(2, bordclass.CHERN_MAX_DIM, 2)
                      for n2 in range(1, bordclass.CHERN_MAX_DIM + 1 - n1, 2)]
        instances += [("Ntilde", n1, n2) for n1 in range(2, bordclass.CHERN_MAX_DIM, 2)
                      for n2 in range(1, bordclass.CHERN_MAX_DIM - n1, 2)]
        for name, n1, n2 in instances:
            spec = tower.build_family(name, n1, n2)
            assert spec.dim <= bordclass.CHERN_MAX_DIM
            assert spec.cohomology_rank <= tower.CHERN_MAX_RANK, (name, n1, n2)

    @pytest.mark.parametrize("omega", ["1_0", " 1", "1 ", "+1", "0", "1,,1", "1,", "2;1",
                                       "\u0661"])
    def test_omega_is_read_strictly(self, omega, no_ring, capsys):
        code, out, err = run_cli(["chern", "--family", "CPprod", "--omega", omega],
                                 capsys)
        assert code == 2 and out == ""
        assert err.startswith("error:") and err.count("\n") == 1


class TestVerify:
    def test_gcddif_count(self, capsys):
        code, out, _ = run_cli(
            ["verify", "--lemma", "gcddif", "--kmax", "30"], capsys
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "lemma\tinstance\tstatus\tdetail"
        assert len(lines) == 1 + 29
        assert all("pass" in line for line in lines[1:])

    def test_alphagcd_count(self, capsys):
        code, out, _ = run_cli(
            ["verify", "--lemma", "alphagcd", "--nmax", "12"], capsys
        )
        assert code == 0
        assert len(out.strip().splitlines()) == 1 + 10

    def test_algrel_passes(self, capsys):
        code, out, _ = run_cli(["verify", "--lemma", "algrel"], capsys)
        assert code == 0
        assert "fail" not in out

    def test_snl_json(self, capsys):
        code, out, _ = run_cli(
            ["verify", "--lemma", "snl", "--format", "json"], capsys
        )
        assert code == 0
        rows = json.loads(out)
        assert len(rows) == 25
        assert all(r["status"] == "pass" for r in rows)

    @pytest.mark.parametrize("argv", [
        ["--lemma", "gcddif", "--kmax", "0"],
        ["--lemma", "gcddif", "--kmax", "1"],
        ["--lemma", "nmod2", "--kmax", "2"],
        ["--lemma", "nmodp", "--kmax", "-3"],
        ["--lemma", "alphagcd", "--nmax", "2"],
    ])
    def test_size_below_minimum_exits_2(self, argv, capsys):
        code, out, err = run_cli(["verify"] + argv, capsys)
        assert code == 2 and out == ""
        assert err.startswith("error:")

    @pytest.mark.parametrize("argv, rows", [
        (["--lemma", "gcddif", "--kmax", "2"], 1),
        (["--lemma", "nmod2", "--kmax", "3"], 1),
        (["--lemma", "nmodp", "--kmax", "3"], 3),
        (["--lemma", "alphagcd", "--nmax", "3"], 1),
        (["--lemma", "gcddif"], 49),
    ])
    def test_least_and_default_sizes(self, argv, rows, capsys):
        code, out, _ = run_cli(["verify"] + argv, capsys)
        assert code == 0
        assert len(out.strip().splitlines()) == 1 + rows

    @pytest.mark.parametrize("kmax", [3, 30, 300])
    def test_nmodp_rows_match_a_primality_test_per_k_and_p(self, kmax):
        rows = []
        for k in range(3, kmax + 1):
            for p in range(3, 2 * k + 2, 2):
                if numbers.prime_power_base(p) == p:
                    power, ok = numbers.verify_nmod(k, p)
                    rows.append(cli._row("nmodp", f"k={k} p={p}", ok, f"power={power}"))
        assert json.dumps(cli.run_lemma("nmodp", kmax=kmax)) == json.dumps(rows)

    @pytest.mark.parametrize("lemma", ["gcddif", "nmod2", "nmodp", "alphagcd"])
    def test_size_above_largest_exits_2(self, lemma, monkeypatch, capsys):
        # the size check comes before any work: no lemma function may run
        for name in ("verify_gcddif", "verify_nmod", "verify_alpha_gcd"):
            monkeypatch.setattr(numbers, name, no_work)
        size_name, _, _, largest = cli._LEMMA_SUITES[lemma][1]
        code, out, err = run_cli(
            ["verify", "--lemma", lemma, f"--{size_name}", str(largest + 1)], capsys)
        assert code == 2 and out == ""
        assert err.startswith("error:") and err.count("\n") == 1
        assert str(largest) in err and "Traceback" not in err

    @pytest.mark.parametrize("lemma", cli.LEMMAS)
    def test_every_lemma_passes_at_its_default_size(self, lemma):
        rows = cli.run_lemma(lemma)
        assert rows
        assert [row for row in rows if row["status"] != "pass"] == []

    def test_wring_rows(self):
        rows = cli.run_lemma("wring")
        assert len(rows) == 34
        assert rows[1]["instance"] == "x1 * x1 = K"

    def test_unknown_lemma_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--lemma", "bogus"])
        assert exc.value.code == 2

    def test_snn_row_count(self, capsys):
        code, out, _ = run_cli(["verify", "--lemma", "snn"], capsys)
        assert code == 0
        assert len(out.strip().splitlines()) == 1 + 25


class TestGens:
    def test_cy_dim8(self, capsys):
        code, out, _ = run_cli(
            ["gens", "--dim", "8", "--source", "cy", "--format", "json"], capsys
        )
        assert code == 0
        data = json.loads(out)
        assert abs(data["s_value"]) == 20
        assert all(data["su_checks"].values())

    def test_quasitoric_dim8_rejected(self, capsys):
        code, _, err = run_cli(["gens", "--dim", "8", "--source", "quasitoric"], capsys)
        assert code == 2
        assert "null-bordant" in err

    def test_quasitoric_dim10(self, capsys):
        code, out, _ = run_cli(
            ["gens", "--dim", "10", "--source", "quasitoric", "--format", "json"],
            capsys,
        )
        assert code == 0
        data = json.loads(out)
        assert abs(data["s_value"]) == 5

    def test_quasitoric_dim12(self, capsys):
        code, out, _ = run_cli(
            ["gens", "--dim", "12", "--source", "quasitoric", "--format", "json"],
            capsys,
        )
        assert code == 0
        assert abs(json.loads(out)["s_value"]) == 14

    def test_odd_dim_rejected(self, capsys):
        code, _, err = run_cli(["gens", "--dim", "7", "--source", "cy"], capsys)
        assert code == 2

    @pytest.mark.parametrize("target,name,broken", [
        # the s-number misses its target
        (numbers, "g", lambda n: 7),
        # an SU check fails
        (genfactory, "_su_checks", lambda a: {"in_w": False}),
        # in_W's two criteria disagree
        (bordclass, "delta", lambda a: bordclass.cp(a.dim - 2)),
    ], ids=["s_number", "su_check", "in_w"])
    def test_inconsistency_exits_3(self, target, name, broken, monkeypatch, capsys):
        monkeypatch.setattr(target, name, broken)
        code, out, err = run_cli(["gens", "--dim", "6", "--source", "cy"], capsys)
        assert code == 3 and out == ""
        assert err.startswith("error:") and "Traceback" not in err


class TestErrorBoundary:
    @pytest.mark.parametrize("target,name,argv", [
        (numbers, "rank_table", ["ranks", "--max-dim", "4"]),
        (tower, "chern_numbers", ["chern", "--family", "L", "--n1", "2", "--n2", "3"]),
    ], ids=["ranks", "chern"])
    def test_value_error_exits_2(self, target, name, argv, monkeypatch, capsys):
        # main maps a ValueError from inside any command to exit 2
        def refuse(*args):
            raise ValueError("refused input")

        monkeypatch.setattr(target, name, refuse)
        code, out, err = run_cli(argv, capsys)
        assert code == 2 and out == ""
        assert err == "error: refused input\n"


class TestRanksAndCy:
    def test_ranks_row(self, capsys):
        code, out, _ = run_cli(["ranks", "--max-dim", "16", "--format", "json"], capsys)
        assert code == 0
        rows = {r["dimension"]: r for r in json.loads(out)}
        assert rows[8]["rank_omega_su"] == 2
        assert rows[8]["rank_omega_u"] == 5
        assert rows[4]["rank_w"] == 1

    def test_ranks_tsv_columns(self, capsys):
        code, out, _ = run_cli(["ranks", "--max-dim", "4"], capsys)
        assert code == 0
        header = out.splitlines()[0].split("\t")
        assert header == ["dimension", "rank_omega_u", "rank_w", "rank_omega_su",
                          "tors_rank", "hw_rank"]

    def test_max_dim_above_largest_exits_2(self, monkeypatch, capsys):
        monkeypatch.setattr(numbers, "rank_table", no_work)
        code, out, err = run_cli(
            ["ranks", "--max-dim", str(cli.RANKS_MAX_DIM + 1)], capsys)
        assert code == 2 and out == ""
        assert err.startswith("error:") and err.count("\n") == 1
        assert str(cli.RANKS_MAX_DIM) in err

    def test_max_dim_negative_exits_2(self, capsys):
        code, out, err = run_cli(["ranks", "--max-dim", "-2"], capsys)
        assert code == 2 and out == "" and err.startswith("error:")

    def test_cy3(self, capsys):
        code, out, _ = run_cli(
            ["cy3", "--h11", "20", "--h21", "20", "--format", "json"], capsys
        )
        assert code == 0
        assert json.loads(out)[0]["tag"] == "other"

    def test_cy4_y4(self, capsys):
        code, out, _ = run_cli(
            ["cy4", "--h11", "16", "--h21", "30", "--h31", "53", "--format", "json"],
            capsys,
        )
        assert code == 0
        assert json.loads(out)[0]["tag"] == "y4"

    def test_cy4_negative_input(self, capsys):
        code, _, err = run_cli(
            ["cy4", "--h11", "-1", "--h21", "0", "--h31", "0"], capsys
        )
        assert code == 2


def run_child(args, *, python_args=("-m", "bordx.cli")):
    """`python -m bordx.cli args` (or other interpreter arguments) in a fresh
    interpreter."""
    # the child imports the same bordx as this process, installed or not
    src = str(Path(bordx.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *python_args] + args,
                          capture_output=True, text=True, timeout=120, env=env)


class TestEntryPoint:
    def test_subprocess_smoke(self):
        proc = run_child(["chern", "--family", "L", "--n1", "1", "--n2", "1"])
        assert proc.returncode == 0
        assert proc.stdout.strip().splitlines()[-1].startswith("s\t")

    def test_import_leaves_heavy_stdlib_unloaded(self):
        # every CLI call and benchmark pass imports these three modules cold;
        # pytest has loaded the stdlib modules itself, so only a fresh
        # interpreter (without site, whose hooks are not bordx's) can tell
        code = "import sys, bordx, bordx.cli, bordx.genfactory; print(*sys.modules)"
        proc = run_child([], python_args=("-S", "-c", code))
        assert proc.returncode == 0, proc.stderr
        loaded = set(proc.stdout.split())
        assert "bordx.genfactory" in loaded
        assert not loaded & {"dataclasses", "inspect", "fractions", "decimal", "ast"}

    @pytest.mark.parametrize("text", ["[" * 3000 + "]" * 3000,
                                      '{"base": ' + "[" * 3000 + "]" * 3000 + "}"],
                             ids=["array", "in_object"])
    def test_deep_spec_exits_2(self, text, tmp_path):
        # one error line from main, not a RecursionError traceback with exit 1
        spec = tmp_path / "deep.json"
        spec.write_text(text)
        proc = run_child(["chern", "--spec", str(spec)])
        assert proc.returncode == 2 and proc.stdout == ""
        assert proc.stderr.startswith("error:") and proc.stderr.count("\n") == 1
        assert "Traceback" not in proc.stderr


class TestUnreadFlags:
    """A flag the command would not read exits 2 with one error line."""

    @pytest.mark.parametrize("argv,message", [
        (["verify", "--lemma", "gcddif", "--nmax", "5"],
         "--nmax is not read by lemma 'gcddif'"),
        (["verify", "--lemma", "algrel", "--kmax", "5"],
         "--kmax is not read by lemma 'algrel'"),
        (["verify", "--lemma", "alphagcd", "--kmax", "5"],
         "--kmax is not read by lemma 'alphagcd'"),
        (["chern", "--spec", "spec.json", "--family", "L"],
         "--family is not read with --spec"),
        (["chern", "--family", "CPprod", "--omega", "2,1", "--n1", "3"],
         "--n1 is not read by --family CPprod"),
        (["chern", "--family", "L", "--n1", "2", "--n2", "3", "--omega", "2"],
         "--omega is not read by --family L"),
    ])
    def test_unread_flag_exits_2(self, argv, message, monkeypatch, capsys):
        for name in ("verify_gcddif", "verify_alpha_gcd"):
            monkeypatch.setattr(numbers, name, no_work)
        monkeypatch.setattr(tower, "chern_numbers", no_work)
        code, out, err = run_cli(argv, capsys)
        assert code == 2 and out == ""
        assert err == f"error: {message}\n"

    def test_run_lemma_refuses_an_unread_size(self):
        with pytest.raises(ValueError, match="--nmax is not read"):
            cli.run_lemma("nmodp", nmax=5)
