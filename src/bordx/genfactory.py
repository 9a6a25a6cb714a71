"""Construction and certification of SU-bordism generator classes.

Calabi-Yau hypersurface combinations, quasitoric combinations built from the
two tower families, the b_i scaffolding behind the structure of the ring W,
and the Hodge-number criteria of Calabi-Yau 3- and 4-folds.  The paper's
low-dimensional examples (y_2 = 2K, the 6-sphere, the twisted Grassmannian)
are read by no command; `tests/paper_examples_reference.py` holds them.
"""

from __future__ import annotations

import functools
import types
from collections import namedtuple

from . import bordclass, numbers, tower
from .bordclass import ChernVector, InconsistencyError
from .exactalg import canonical_partition, ext_gcd_combo, strict_int


# ---------------------------------------------------------------------------
# certificates
# ---------------------------------------------------------------------------

class GeneratorCertificate(namedtuple(
        "GeneratorCertificate",
        "dimension combination chern_class s_value target su_checks")):
    """A certified generator class: the combination as (coefficient, source)
    pairs, its ChernVector, s-number and target, and the SU checks as a
    read-only mapping."""

    __slots__ = ()

    def to_json(self) -> dict:
        return {
            "dimension": self.dimension,
            "combination": [
                {"coefficient": c, "source": src} for c, src in self.combination
            ],
            "class": bordclass.chern_vector_to_json(self.chern_class),
            "s_value": self.s_value,
            "target": self.target,
            "su_checks": dict(self.su_checks),
        }


def _su_checks(a: ChernVector) -> dict:
    c1_vanish = all(v == 0 for w, v in a.numbers.items() if w and w[-1] == 1)
    return {
        "c1_numbers_vanish": c1_vanish,
        "in_w": bordclass.in_W(a),
        "in_ker_boundary": bordclass.in_ker_boundary(a),
    }


def _gcd_certificate(dimension, labels, s_values, build, target) -> GeneratorCertificate:
    """Certify the combination of the candidates whose s-number is their gcd.

    The Bezout coefficients come from the candidates' s-values alone, so only
    a candidate with a nonzero coefficient has its ChernVector built, as
    build(i); the s-number of each built class must equal its s-value.
    """
    _, coeffs = ext_gcd_combo(s_values)
    cls = ChernVector(dimension // 2)
    combination = []
    for i, coeff in enumerate(coeffs):
        if coeff:
            c = build(i)
            if bordclass.s_num(c) != s_values[i]:
                raise InconsistencyError(
                    f"{labels[i]} has s-number {bordclass.s_num(c)}, "
                    f"its closed form gives {s_values[i]}")
            cls = cls + c.scale(coeff)
            combination.append((coeff, labels[i]))
    return _certify(dimension, combination, cls, target)


def _certify(dimension, combination, cls, target) -> GeneratorCertificate:
    s_value = bordclass.s_num(cls)
    if abs(s_value) != abs(target):
        raise InconsistencyError(
            f"certificate s-number {s_value} does not match target {target}"
        )
    if s_value != target:  # flip the representative so the s-number hits target
        cls = -cls
        s_value = -s_value
        combination = [(-c, src) for c, src in combination]
    checks = _su_checks(cls)
    if not all(checks.values()):
        raise InconsistencyError(f"certificate failed SU checks: {checks}")
    return GeneratorCertificate(
        dimension=dimension,
        combination=tuple(combination),
        chern_class=cls,
        s_value=s_value,
        target=target,
        su_checks=types.MappingProxyType(checks),
    )


# ---------------------------------------------------------------------------
# Calabi-Yau hypersurfaces in products of projective spaces
# ---------------------------------------------------------------------------

def cp_product_class(omega) -> ChernVector:
    """The bordism class of CP^{i_1} x ... x CP^{i_k}."""
    return _cp_product(canonical_partition(omega))


@functools.lru_cache(maxsize=1024)  # every prefix of phat(n), n <= 16: 912 with ()
def _cp_product(omega) -> ChernVector:
    """CP^omega[:-1] x CP^omega[-1], for a canonical omega (ChernVector is immutable)."""
    if not omega:
        return ChernVector.unit()
    return bordclass.product(_cp_product(omega[:-1]), bordclass.cp(omega[-1]))


def cy_hypersurface(omega) -> ChernVector:
    """The anticanonical Calabi-Yau hypersurface N_omega = boundary of CP^omega."""
    omega = canonical_partition(omega)
    if not omega:
        raise ValueError("need a nonempty partition")
    return bordclass.boundary(cp_product_class(omega))


def _omega_label(omega) -> str:
    return f"N({bordclass._partition_key(omega)})"


def cy_generator_combo(n: int) -> GeneratorCertificate:
    """Integer combination of the N_omega, omega in phat(n), with |s| = |g(n)|.

    s_{n-1}[N_omega] = -alpha(omega) picks the combination; only its members
    are built.  An n that is not an int, or above CHERN_MAX_DIM, is refused
    before phat(n) is listed.
    """
    n = strict_int(n, "n")
    if n < 3:
        raise ValueError("n must be >= 3")
    bordclass.check_dim(n)
    omegas = numbers.phat(n)
    return _gcd_certificate(2 * (n - 1), [_omega_label(w) for w in omegas],
                            [-numbers.alpha(w) for w in omegas],
                            lambda i: cy_hypersurface(omegas[i]), numbers.g(n))


# ---------------------------------------------------------------------------
# quasitoric generators
# ---------------------------------------------------------------------------

# the toric-convention s-number of each family, in closed form
_CLOSED_FORMS = {"Ltilde": numbers.snl_closed_form, "Ntilde": numbers.snn_closed_form}


def _tower_certificate(name: str, instances, target) -> GeneratorCertificate:
    """Certify a gcd combination of the family's bordism-convention exports.

    The closed forms, signed by `tower._sign` as each export is, pick the
    combination; only its towers are evaluated.
    """
    specs = [tower.build_family(name, n1, n2, convention="bordism")
             for n1, n2 in instances]
    closed_form = _CLOSED_FORMS[name]
    return _gcd_certificate(2 * specs[0].dim,
                            [f"{name}({n1},{n2})" for n1, n2 in instances],
                            [tower._sign(spec) * closed_form(n1, n2)
                             for spec, (n1, n2) in zip(specs, instances)],
                            lambda i: tower.chern_numbers(specs[i]), target)


def quasitoric_generator_odd(k: int) -> GeneratorCertificate:
    """Combination of the odd-dimensional towers with |s| = m_{2k+1} m_{2k}."""
    k = strict_int(k, "k")
    if k <= 1:
        raise ValueError("quasitoric SU-manifolds of dimension < 10 are null-bordant, "
                         f"got dimension {4 * k + 2}")
    i = 2 * k + 1
    return _tower_certificate("Ltilde", [(n1, i - n1) for n1 in range(2, i, 2)],
                              numbers.m(i) * numbers.m(i - 1))


def quasitoric_generator_even(k: int) -> GeneratorCertificate:
    """Combination of the even-dimensional towers with |s| = 2 m_{2k} m_{2k-1}."""
    k = strict_int(k, "k")
    if k <= 2:
        raise ValueError("quasitoric SU-manifolds of dimension < 10 are null-bordant, "
                         f"got dimension {4 * k}")
    i = 2 * k
    return _tower_certificate("Ntilde", [(n1, i - 1 - n1) for n1 in range(2, i - 1, 2)],
                              2 * numbers.m(i) * numbers.m(i - 1))


# ---------------------------------------------------------------------------
# the b_i scaffolding of the ring W
# ---------------------------------------------------------------------------

def construct_b(i: int) -> ChernVector:
    """The classes b_i in W from Stong projections of products of CP's.

    b_1 = [CP^1]; for even i, b_i is pi[CP^{2^p} x CP^{2^{p+1} q}] with
    i = 2^p (2q+1) or pi[CP^{2^p} x CP^{2^p}] with i = 2^{p+1}; for odd
    i >= 3, b_i = boundary(b_{i+1}).  There is no b_2.  An i that is not an
    int (a bool or float included) is refused.
    """
    i = strict_int(i, "b's index")
    if i < 1:
        raise ValueError("i must be positive")
    if i == 2:
        raise ValueError("b_2 is not defined")
    if i == 1:
        return bordclass.cp(1)
    if i % 2:
        return bordclass.boundary(construct_b(i + 1))
    p = (i & -i).bit_length() - 1  # 2-adic valuation
    odd = i >> p
    if odd == 1:
        half = i // 2
        return bordclass.stong_pi(bordclass.product(bordclass.cp(half), bordclass.cp(half)))
    q = (odd - 1) // 2
    return bordclass.stong_pi(
        bordclass.product(bordclass.cp(2 ** p), bordclass.cp(2 ** (p + 1) * q))
    )


# ---------------------------------------------------------------------------
# Calabi-Yau criteria from Hodge numbers
# ---------------------------------------------------------------------------

def cy3_criterion(h11: int, h21: int) -> dict:
    """Euler characteristic and generator tag of a Batyrev Calabi-Yau 3-fold."""
    h11, h21 = (strict_int(h, "a Hodge number") for h in (h11, h21))
    if h11 < 0 or h21 < 0:
        raise ValueError("Hodge numbers must be nonnegative")
    chi = 2 * (h11 - h21)
    s3 = 3 * chi
    tag = "y3" if chi == 2 else "minus_y3" if chi == -2 else "other"
    return {"chi": chi, "s3": s3, "tag": tag}


def cy4_invariants(h11: int, h21: int, h31: int) -> dict:
    """Chern numbers of a Batyrev Calabi-Yau 4-fold via Hirzebruch-Riemann-Roch.

    With chi_0 = 2: 720 chi_0 = -c_4 + 3 c_2^2 and 180 chi_1 = -31 c_4 + 3 c_2^2
    give c_4 = 48 - 6 chi_1 and c_2^2 = (1440 + c_4)/3; then s_4 = 2 c_2^2 - 4 c_4.
    """
    h11, h21, h31 = (strict_int(h, "a Hodge number") for h in (h11, h21, h31))
    if min(h11, h21, h31) < 0:
        raise ValueError("Hodge numbers must be nonnegative")
    chi1_neg = h11 - h21 + h31
    c4 = 48 + 6 * chi1_neg
    c2sq = (1440 + c4) // 3  # exact: 1440 + c_4 = 3 (496 - 2 chi_1)
    s4 = 2 * c2sq - 4 * c4
    tag = "y4" if s4 == 20 else "minus_y4" if s4 == -20 else "other"
    return {"chi1_neg": chi1_neg, "c4": c4, "c2sq": c2sq, "s4": s4, "tag": tag}
