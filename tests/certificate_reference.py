"""The earlier every-candidate certificate route, kept as the reference the tests compare against.

`_gcd_certificate` here takes the ChernVector of every candidate and reads
the s-numbers off them, so `cy_generator_combo` builds every N_omega of
phat(n) and `_tower_certificate` evaluates every tower export.  Nothing in
bordx uses this module; ``bordx.genfactory`` picks the combination from the
candidates' s-values and builds only its members.
"""

from __future__ import annotations

from bordx import bordclass, numbers, tower
from bordx.bordclass import ChernVector
from bordx.exactalg import ext_gcd_combo
from bordx.genfactory import GeneratorCertificate, _certify, _omega_label, cy_hypersurface


def _gcd_certificate(dimension, labels, classes, target) -> GeneratorCertificate:
    """Certify the combination of the classes whose s-number is their gcd."""
    _, coeffs = ext_gcd_combo([bordclass.s_num(c) for c in classes])
    cls = ChernVector(dimension // 2)
    combination = []
    for coeff, label, c in zip(coeffs, labels, classes):
        if coeff:
            cls = cls + c.scale(coeff)
            combination.append((coeff, label))
    return _certify(dimension, combination, cls, target)


def cy_generator_combo(n: int) -> GeneratorCertificate:
    """Integer combination of the N_omega, omega in phat(n), with |s| = |g(n)|."""
    if n < 3:
        raise ValueError("n must be >= 3")
    omegas = numbers.phat(n)
    return _gcd_certificate(2 * (n - 1), [_omega_label(w) for w in omegas],
                            [cy_hypersurface(w) for w in omegas], numbers.g(n))


def _tower_certificate(name: str, instances, target) -> GeneratorCertificate:
    """Certify a gcd combination of the family's bordism-convention exports."""
    specs = [tower.build_family(name, n1, n2, convention="bordism")
             for n1, n2 in instances]
    return _gcd_certificate(2 * specs[0].dim,
                            [f"{name}({n1},{n2})" for n1, n2 in instances],
                            [tower.chern_numbers(spec) for spec in specs], target)


def quasitoric_generator_odd(k: int) -> GeneratorCertificate:
    """Combination of the odd-dimensional towers with |s| = m_{2k+1} m_{2k}."""
    if k <= 1:
        raise ValueError("quasitoric SU-manifolds of dimension < 10 are null-bordant, "
                         f"got dimension {4 * k + 2}")
    i = 2 * k + 1
    return _tower_certificate("Ltilde", [(n1, i - n1) for n1 in range(2, i, 2)],
                              numbers.m(i) * numbers.m(i - 1))


def quasitoric_generator_even(k: int) -> GeneratorCertificate:
    """Combination of the even-dimensional towers with |s| = 2 m_{2k} m_{2k-1}."""
    if k <= 2:
        raise ValueError("quasitoric SU-manifolds of dimension < 10 are null-bordant, "
                         f"got dimension {4 * k}")
    i = 2 * k
    return _tower_certificate("Ntilde", [(n1, i - 1 - n1) for n1 in range(2, i - 1, 2)],
                              2 * numbers.m(i) * numbers.m(i - 1))
