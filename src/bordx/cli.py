"""Command-line front end: family sweeps, lemma verification, generator
certification, rank tables and Calabi-Yau classification.

Exit codes: 0 success / all checks pass, 1 verification failure, 2 usage or
input error, 3 mathematical inconsistency.
"""

from __future__ import annotations

import argparse
import bisect
import json
import sys

from . import bordclass, genfactory, numbers, tower
# the closed s-number forms of the two tower families (numbers owns them)
from .numbers import snl_closed_form, snn_closed_form

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_USAGE = 2
EXIT_INCONSISTENT = 3


# ---------------------------------------------------------------------------
# lemma suites (shared by the CLI and the test suite)
# ---------------------------------------------------------------------------

def sample_classes() -> list[tuple[str, bordclass.ChernVector]]:
    """The standard test set: cp(k) for k <= 5, K, V^4, small tower exports."""
    out = [(f"cp({k})", bordclass.cp(k)) for k in range(6)]
    out.append(("K", bordclass.k_class()))
    out.append(("V4", bordclass.v4()))
    for name, n1, n2 in [
        ("Ltilde", 2, 1),
        ("Ltilde", 2, 3),
        ("Ltilde", 4, 1),
        ("Ntilde", 2, 1),
        ("Ntilde", 2, 3),
    ]:
        spec = tower.build_family(name, n1, n2, convention="bordism")
        out.append((f"{name}({n1},{n2})", tower.chern_numbers(spec)))
    return out


def w_sample_classes() -> list[tuple[str, bordclass.ChernVector]]:
    return [(label, a) for label, a in sample_classes()
            if a.dim >= 1 and bordclass.in_W(a)]


def _row(lemma: str, instance: str, ok: bool, detail: str = "") -> dict:
    return {"lemma": lemma, "instance": instance,
            "status": "pass" if ok else "fail", "detail": detail}


def _suite_algrel() -> list[dict]:
    rows = []
    for label, a in sample_classes():
        n = a.dim
        if n >= 2:
            rows.append(_row("algrel", f"d d = 0 on {label}",
                             bordclass.boundary(bordclass.boundary(a)).is_zero()))
        if n >= 3:
            rows.append(_row("algrel", f"Delta d = 0 on {label}",
                             bordclass.delta(bordclass.boundary(a)).is_zero()))
        rows.append(_row("algrel", f"Delta Psi = id on {label}",
                         bordclass.delta(bordclass.psi(a)) == a))
        rows.append(_row("algrel", f"d Psi = 0 on {label}",
                         bordclass.boundary(bordclass.psi(a)).is_zero()))
        if n >= 1:
            da = bordclass.boundary(a)
            rows.append(_row("algrel", f"chi d = cp(1) d on {label}",
                             bordclass.chi(da) == bordclass.product(bordclass.cp(1), da)))
            rows.append(_row("algrel", f"d chi d = 2 d on {label}",
                             bordclass.boundary(bordclass.chi(da)) == da.scale(2)))
    return rows


def _w_pairs(max_total_dim: int = 9):
    ws = w_sample_classes()
    for i, (la, a) in enumerate(ws):
        for lb, b in ws[i:]:
            if a.dim + b.dim <= max_total_dim:
                yield la, a, lb, b


def _suite_deltaab() -> list[dict]:
    rows = []
    x1 = bordclass.cp(1)
    for la, a, lb, b in _w_pairs():
        ab = bordclass.product(a, b)
        da, db = bordclass.boundary(a), bordclass.boundary(b)
        lhs = bordclass.boundary(ab)
        rhs = (bordclass.product(a, db) + bordclass.product(da, b)
               - bordclass.product(x1, bordclass.product(da, db)))
        rows.append(_row("deltaab", f"d(a.b) Leibniz on ({la}, {lb})", lhs == rhs))
        if ab.dim >= 2:
            rows.append(_row(
                "deltaab", f"Delta(a.b) = -2 da db on ({la}, {lb})",
                bordclass.delta(ab) == bordclass.product(da, db).scale(-2)))
    return rows


def _suite_wring() -> list[dict]:
    rows = []
    x1 = bordclass.cp(1)
    rows.append(_row("wring", "d x1 = 2",
                     bordclass.boundary(x1) == bordclass.ChernVector.unit(2)))
    x1x1 = bordclass.twisted_mul(x1, x1)
    rows.append(_row("wring", "x1 * x1 = K", x1x1 == bordclass.k_class()))
    y2 = bordclass.boundary(bordclass.twisted_mul(x1x1, x1))
    rows.append(_row("wring", "s2(d(x1*x1*x1)) = -48", bordclass.s_num(y2) == -48))
    rows.append(_row("wring", "d(x1*x1*x1) = 2 x1*x1", y2 == x1x1.scale(2)))
    # s-number congruences of the b_i scaffolding
    for i in range(3, 9):
        b = genfactory.construct_b(i)
        s = bordclass.s_num(b)
        if i in (3, 4, 7, 8):  # i = 2^k - 1 or 2^(p+1)
            ok = s % 4 == 2
            want = "2 mod 4"
        else:
            ok = s % 2 == 1
            want = "1 mod 2"
        rows.append(_row("wring", f"s_{i}(b_{i}) = {want}", ok, f"s={s}"))
        rows.append(_row("wring", f"b_{i} in W", bordclass.in_W(b)))
    for la, a, lb, b in _w_pairs(max_total_dim=8):
        ab = bordclass.twisted_mul(a, b)
        da, db = bordclass.boundary(a), bordclass.boundary(b)
        lhs = bordclass.boundary(ab)
        rhs = (bordclass.twisted_mul(a, db) + bordclass.twisted_mul(da, b)
               - bordclass.twisted_mul(x1, bordclass.twisted_mul(da, db)))
        rows.append(_row("wring", f"d(a*b) Leibniz on ({la}, {lb})", lhs == rhs))
    return rows


_GRID = [(n1, n2) for n1 in (2, 4, 6, 8, 10) for n2 in (1, 3, 5, 7, 9)]


def _suite_family(name: str, closed_form) -> list[dict]:
    rows = []
    for n1, n2 in _GRID:
        got = tower.s_number(tower.build_family(name, n1, n2))
        want = closed_form(n1, n2)
        rows.append(_row(name.lower(), f"{name}({n1},{n2})", got == want,
                         f"s={got} closed={want}"))
    return rows


def _suite_gcddif(kmax: int) -> list[dict]:
    rows = []
    for k in range(2, kmax + 1):
        gcd, ok = numbers.verify_gcddif(k)
        rows.append(_row("gcddif", f"k={k}", ok, f"gcd={gcd}"))
    return rows


def _suite_alphagcd(nmax: int) -> list[dict]:
    rows = []
    for n in range(3, nmax + 1):
        gcd, ok = numbers.verify_alpha_gcd(n)
        rows.append(_row("alphagcd", f"n={n}", ok, f"gcd={gcd} |g|={abs(numbers.g(n))}"))
    return rows


def _suite_nmod2(kmax: int) -> list[dict]:
    rows = []
    for k in range(3, kmax + 1):
        power, ok = numbers.verify_nmod(k, 2)
        rows.append(_row("nmod2", f"k={k}", ok, f"power={power}"))
    return rows


def _suite_nmodp(kmax: int) -> list[dict]:
    primes = [p for p in range(3, 2 * kmax + 2, 2) if numbers.prime_power_base(p) == p]
    rows = []
    for k in range(3, kmax + 1):
        for p in primes[:bisect.bisect(primes, 2 * k + 1)]:
            power, ok = numbers.verify_nmod(k, p)
            rows.append(_row("nmodp", f"k={k} p={p}", ok, f"power={power}"))
    return rows


# lemma -> (suite, None or (size parameter it reads, default, least, largest))
_LEMMA_SUITES = {
    "algrel": (_suite_algrel, None),
    "deltaab": (_suite_deltaab, None),
    "gcddif": (_suite_gcddif, ("kmax", 50, 2, 1000)),
    "nmod2": (_suite_nmod2, ("kmax", 30, 3, 1000)),
    "nmodp": (_suite_nmodp, ("kmax", 30, 3, 300)),
    "alphagcd": (_suite_alphagcd, ("nmax", 16, 3, 40)),
    "snl": (lambda: _suite_family("Ltilde", snl_closed_form), None),
    "snn": (lambda: _suite_family("Ntilde", snn_closed_form), None),
    "wring": (_suite_wring, None),
}

# largest `ranks --max-dim`
RANKS_MAX_DIM = 4000
# largest `gens --dim` (real dimension) per source
GENS_MAX_DIM = {"cy": 30, "quasitoric": 44}

LEMMAS = tuple(_LEMMA_SUITES)


def _refuse_unread(given: dict, *read, where: str) -> None:
    """Refuse every option in `given` that is set but not among `read`."""
    for name, value in given.items():
        if value is not None and name not in read:
            raise ValueError(f"--{name} is not read {where}")


def run_lemma(lemma: str, kmax: int | None = None,
              nmax: int | None = None) -> list[dict]:
    if lemma not in _LEMMA_SUITES:
        raise ValueError(f"unknown lemma {lemma!r}")
    suite, size_rule = _LEMMA_SUITES[lemma]
    sizes = {"kmax": kmax, "nmax": nmax}
    size_name = size_rule[0] if size_rule else None
    _refuse_unread(sizes, size_name, where=f"by lemma {lemma!r}")
    if size_rule is None:
        return suite()
    _, default, least, largest = size_rule
    size = sizes[size_name]
    if size is None:
        size = default
    if not least <= size <= largest:
        raise ValueError(f"--{size_name} must be between {least} and {largest} "
                         f"for lemma {lemma!r}, got {size}")
    return suite(size)


# ---------------------------------------------------------------------------
# rendering
# ---------------------------------------------------------------------------

def _emit(text: str, output: str | None) -> None:
    if output:
        with open(output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _render_rows(rows: list[dict], columns: list[str], fmt: str,
                 output: str | None) -> None:
    if fmt == "json":
        _emit(json.dumps(rows, indent=2) + "\n", output)
        return
    lines = ["\t".join(columns)]
    for row in rows:
        lines.append("\t".join(str(row.get(c, "")) for c in columns))
    _emit("\n".join(lines) + "\n", output)


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def cmd_chern(args) -> int:
    given = {"family": args.family, "n1": args.n1, "n2": args.n2, "omega": args.omega}
    if args.spec:
        _refuse_unread(given, where="with --spec")
        with open(args.spec, encoding="utf-8") as fh:
            spec = tower.tower_from_json(fh.read())
        if args.convention:
            spec = spec.with_convention(args.convention)
    else:
        if not args.family:
            raise ValueError("need --family or --spec")
        if args.family == "CPprod":
            _refuse_unread(given, "family", "omega", where="by --family CPprod")
            if args.omega is None:
                raise ValueError("CPprod needs --omega")
            spec = tower.build_family("CPprod", bordclass.parse_partition(args.omega),
                                      convention=args.convention or "toric")
        else:
            _refuse_unread(given, "family", "n1", "n2", where=f"by --family {args.family}")
            if args.n1 is None or args.n2 is None:
                raise ValueError("family needs --n1 and --n2")
            spec = tower.build_family(args.family, args.n1, args.n2,
                                      convention=args.convention or "toric")
    vec = tower.chern_numbers(spec)
    s = tower.s_number(spec)
    if args.format == "json":
        payload = bordclass.chern_vector_to_json(vec)
        payload["s"] = s
        payload["convention"] = spec.convention
        _emit(json.dumps(payload, indent=2) + "\n", args.output)
    else:
        rows = [{"key": f"c_{bordclass._partition_key(w)}", "value": v}
                for w, v in sorted(vec.numbers.items())]
        rows.append({"key": "s", "value": s})
        _render_rows(rows, ["key", "value"], "tsv", args.output)
    return EXIT_OK


def cmd_verify(args) -> int:
    rows = run_lemma(args.lemma, kmax=args.kmax, nmax=args.nmax)
    _render_rows(rows, ["lemma", "instance", "status", "detail"],
                 args.format, args.output)
    return EXIT_OK if all(r["status"] == "pass" for r in rows) else EXIT_VERIFY_FAILED


def cmd_gens(args) -> int:
    dim = args.dim
    if dim % 2:
        raise ValueError("--dim must be even")
    if dim > GENS_MAX_DIM[args.source]:
        raise ValueError(f"--dim must be at most {GENS_MAX_DIM[args.source]} for "
                         f"--source {args.source}, got {dim}")
    if args.source == "cy":
        if dim < 6:
            raise ValueError("the Calabi-Yau certification route is exposed for "
                             "dimension >= 6")
        cert = genfactory.cy_generator_combo(dim // 2 + 1)
    else:
        # genfactory refuses every dim < 10: those manifolds are null-bordant
        i = dim // 2
        cert = (genfactory.quasitoric_generator_odd(i // 2) if i % 2
                else genfactory.quasitoric_generator_even(i // 2))
    if args.format == "json":
        _emit(json.dumps(cert.to_json(), indent=2) + "\n", args.output)
    else:
        rows = [{"key": f"coefficient[{src}]", "value": c}
                for c, src in cert.combination]
        rows.append({"key": "s_value", "value": cert.s_value})
        rows.append({"key": "target", "value": cert.target})
        for name, ok in cert.su_checks.items():
            rows.append({"key": f"su_check[{name}]", "value": ok})
        _render_rows(rows, ["key", "value"], "tsv", args.output)
    return EXIT_OK


def cmd_ranks(args) -> int:
    if not 0 <= args.max_dim <= RANKS_MAX_DIM:
        raise ValueError(f"--max-dim must be between 0 and {RANKS_MAX_DIM}, "
                         f"got {args.max_dim}")
    table = numbers.rank_table(args.max_dim)
    rows = table.to_json()
    _render_rows(rows, ["dimension", "rank_omega_u", "rank_w", "rank_omega_su",
                        "tors_rank", "hw_rank"], args.format, args.output)
    return EXIT_OK


def cmd_cy3(args) -> int:
    result = genfactory.cy3_criterion(args.h11, args.h21)
    _render_rows([result], ["chi", "s3", "tag"], args.format, args.output)
    return EXIT_OK


def cmd_cy4(args) -> int:
    result = genfactory.cy4_invariants(args.h11, args.h21, args.h31)
    _render_rows([result], ["chi1_neg", "c4", "c2sq", "s4", "tag"],
                 args.format, args.output)
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bordx",
        description="Exact-arithmetic workbench for complex and SU bordism",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("json", "tsv"), default="tsv")
    common.add_argument("--output", help="write to a file instead of stdout")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("chern", parents=[common],
                       help="Chern numbers and s-number of a family instance")
    p.add_argument("--family", choices=("L", "Ltilde", "Ntilde", "CPprod"))
    p.add_argument("--n1", type=int)
    p.add_argument("--n2", type=int)
    p.add_argument("--omega", help="comma-separated partition for CPprod")
    p.add_argument("--spec", help="path to a TowerSpec JSON file")
    p.add_argument("--convention", choices=("toric", "bordism"))
    p.set_defaults(func=cmd_chern)

    p = sub.add_parser("verify", parents=[common], help="run a lemma suite")
    p.add_argument("--lemma", required=True, choices=LEMMAS)
    p.add_argument("--kmax", type=int)
    p.add_argument("--nmax", type=int)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("gens", parents=[common],
                       help="certify a generator class in a given dimension")
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--source", choices=("cy", "quasitoric"), required=True)
    p.set_defaults(func=cmd_gens)

    p = sub.add_parser("ranks", parents=[common], help="rank table up to a dimension")
    p.add_argument("--max-dim", type=int, required=True)
    p.set_defaults(func=cmd_ranks)

    p = sub.add_parser("cy3", parents=[common],
                       help="classify a Calabi-Yau threefold by Hodge numbers")
    p.add_argument("--h11", type=int, required=True)
    p.add_argument("--h21", type=int, required=True)
    p.set_defaults(func=cmd_cy3)

    p = sub.add_parser("cy4", parents=[common],
                       help="classify a Calabi-Yau fourfold by Hodge numbers")
    p.add_argument("--h11", type=int, required=True)
    p.add_argument("--h21", type=int, required=True)
    p.add_argument("--h31", type=int, required=True)
    p.set_defaults(func=cmd_cy4)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (OSError, ValueError) as exc:  # a file, an argument or an input is bad
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except bordclass.InconsistencyError as exc:
        print(f"error: mathematical inconsistency: {exc}", file=sys.stderr)
        return EXIT_INCONSISTENT


if __name__ == "__main__":
    sys.exit(main())
