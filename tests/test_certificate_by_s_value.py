"""Certificates picked by s-values against the every-candidate route they replace.

`genfactory._gcd_certificate` reads the gcd combination off the candidates'
s-values (-alpha(omega) for the Calabi-Yau hypersurfaces, the signed closed
forms for the tower exports) and builds only the candidates it uses.  The
certificates are compared with the earlier route kept in
`certificate_reference`, up to the `gens` bounds; the builds are counted, and
a wrong s-value is caught by the s-number of the class it names.
"""

import pytest

from bordx import bordclass, cli, genfactory, numbers, tower
from bordx.bordclass import InconsistencyError
from bordx.exactalg import canonical_partition

import certificate_reference as reference

# every k the `gens` command reaches: real dimension 4k + 2 (odd) or 4k (even) <= 44
ODD_KS = range(2, (cli.GENS_MAX_DIM["quasitoric"] - 2) // 4 + 1)
EVEN_KS = range(3, cli.GENS_MAX_DIM["quasitoric"] // 4 + 1)


def quasitoric_builders():
    return ([(genfactory.quasitoric_generator_odd, reference.quasitoric_generator_odd, k)
             for k in ODD_KS]
            + [(genfactory.quasitoric_generator_even, reference.quasitoric_generator_even, k)
               for k in EVEN_KS])


def qt_gens_exports():
    """The 47 tower exports of real dimension 10..30 that the certificates draw on."""
    out = []
    for i in range(5, 16):
        if i % 2:
            out += [("Ltilde", n1, i - n1) for n1 in range(2, i, 2)]
        else:
            out += [("Ntilde", n1, i - 1 - n1) for n1 in range(2, i - 1, 2)]
    return out


def same_certificate(got, want):
    return got.to_json() == want.to_json() and got.chern_class == want.chern_class


class CallCounter:
    """Wraps a function and counts its calls."""

    def __init__(self, fn):
        self.fn = fn
        self.calls = 0

    def __call__(self, *args):
        self.calls += 1
        return self.fn(*args)


# ---------------------------------------------------------------------------
# the same certificates as the every-candidate route
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("n", range(3, 15))
def test_cy_matches_the_reference(n):
    assert same_certificate(genfactory.cy_generator_combo(n), reference.cy_generator_combo(n))


def test_quasitoric_k_ranges_reach_the_gens_bound():
    assert 4 * ODD_KS[-1] + 2 <= cli.GENS_MAX_DIM["quasitoric"] < 4 * (ODD_KS[-1] + 1) + 2
    assert 4 * EVEN_KS[-1] <= cli.GENS_MAX_DIM["quasitoric"] < 4 * (EVEN_KS[-1] + 1)


@pytest.mark.parametrize("build, ref, k", quasitoric_builders())
def test_quasitoric_matches_the_reference(build, ref, k):
    assert same_certificate(build(k), ref(k))


# ---------------------------------------------------------------------------
# only the members of the combination are built
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("n", range(3, 13))
def test_cy_builds_only_the_combination(n, monkeypatch):
    counter = CallCounter(genfactory.cy_hypersurface)
    monkeypatch.setattr(genfactory, "cy_hypersurface", counter)
    cert = genfactory.cy_generator_combo(n)
    assert counter.calls == len(cert.combination)
    assert counter.calls < len(numbers.phat(n)) or n <= 4


@pytest.mark.parametrize("build, ref, k", quasitoric_builders())
def test_quasitoric_builds_only_the_combination(build, ref, k, monkeypatch):
    counter = CallCounter(tower.chern_numbers)
    monkeypatch.setattr(tower, "chern_numbers", counter)
    cert = build(k)
    assert counter.calls == len(cert.combination)


# ---------------------------------------------------------------------------
# a wrong s-value is caught by the class it names
# ---------------------------------------------------------------------------

def perturb_alpha(monkeypatch, omega, delta):
    """numbers.alpha, off by delta at omega alone."""
    alpha = numbers.alpha
    monkeypatch.setattr(numbers, "alpha", lambda w: alpha(w) + (
        delta if canonical_partition(w) == omega else 0))


def combination_omegas(cert):
    return [tuple(int(i) for i in label[2:-1].split(",")) for _, label in cert.combination]


@pytest.mark.parametrize("n", range(3, 10))
@pytest.mark.parametrize("delta", [1, -1])
def test_a_perturbed_alpha_is_an_inconsistency(n, delta, monkeypatch):
    omegas = combination_omegas(genfactory.cy_generator_combo(n))
    for omega in omegas:
        with monkeypatch.context() as m:
            perturb_alpha(m, omega, delta)
            with pytest.raises(InconsistencyError, match="its closed form gives"):
                genfactory.cy_generator_combo(n)


def test_gens_exits_3_on_a_perturbed_alpha(monkeypatch, capsys):
    perturb_alpha(monkeypatch, (2, 2), 1)
    code = cli.main(["gens", "--dim", "6", "--source", "cy"])
    assert code == cli.EXIT_INCONSISTENT == 3
    assert "N(2,2) has s-number -486, its closed form gives -487" in capsys.readouterr().err


def test_a_wrong_tower_s_number_is_an_inconsistency(monkeypatch):
    chern_numbers = tower.chern_numbers
    monkeypatch.setattr(tower, "chern_numbers", lambda spec: chern_numbers(spec).scale(-1))
    with pytest.raises(InconsistencyError, match="Ntilde\\(2,3\\) has s-number"):
        genfactory.quasitoric_generator_even(3)


# ---------------------------------------------------------------------------
# the signed closed forms
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name, n1, n2", qt_gens_exports()
                         + [(name, n1, n2) for name in ("Ltilde", "Ntilde")
                            for n1, n2 in cli._GRID])
def test_signed_closed_form_is_the_bordism_s_number(name, n1, n2):
    spec = tower.build_family(name, n1, n2, convention="bordism")
    signed = (-1) ** len(spec.conjugations) * genfactory._CLOSED_FORMS[name](n1, n2)
    assert signed == tower.s_number(spec)


def test_qt_gens_has_47_exports():
    assert len(qt_gens_exports()) == 47


def test_cli_keeps_the_closed_form_names():
    assert cli.snl_closed_form is numbers.snl_closed_form
    assert cli.snn_closed_form is numbers.snn_closed_form
    assert genfactory._CLOSED_FORMS == {"Ltilde": numbers.snl_closed_form,
                                        "Ntilde": numbers.snn_closed_form}


# ---------------------------------------------------------------------------
# input checked before any work
# ---------------------------------------------------------------------------

def no_work(*args):
    raise AssertionError("a refused input started work")


@pytest.mark.parametrize("n", [bordclass.CHERN_MAX_DIM + 1, 50, 10 ** 6])
def test_cy_dimension_bound_comes_before_phat(n, monkeypatch):
    monkeypatch.setattr(numbers, "phat", no_work)
    monkeypatch.setattr(numbers, "alpha", no_work)
    with pytest.raises(ValueError, match="complex dimension at most 24"):
        genfactory.cy_generator_combo(n)


def test_cy_dimension_bound_admits_its_largest_n(monkeypatch):
    # the largest admitted n gets as far as listing phat(n)
    monkeypatch.setattr(numbers, "phat", no_work)
    with pytest.raises(AssertionError, match="started work"):
        genfactory.cy_generator_combo(bordclass.CHERN_MAX_DIM)


@pytest.mark.parametrize("bad", [True, False, 3.0, 4.0, "x", "5", None])
@pytest.mark.parametrize("build", [genfactory.cy_generator_combo,
                                   genfactory.quasitoric_generator_odd,
                                   genfactory.quasitoric_generator_even])
def test_non_int_input_is_refused(build, bad):
    with pytest.raises(ValueError, match="must be an integer"):
        build(bad)
