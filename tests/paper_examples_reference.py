"""The paper's low-dimensional examples, kept as a test reference.

No command and no benchmark reads them, so they left `bordx.genfactory`
(and `s_polynomial` left `bordx.bordclass` with them): the generator y_2 =
2K of Omega^SU_4, the 6-sphere, and s_4 of the Grassmannian Gr_2(C^4) with
its SU-amended structure.  They are built from the program's public
operations, so the tests that pin their numbers still check the program.
"""

from __future__ import annotations

from bordx import bordclass, genfactory
from bordx.bordclass import ChernVector
from bordx.cohomring import PresentedRing, evaluate_top
from bordx.exactalg import GradedPoly
from series_reference import graded_part


def y2_class() -> genfactory.GeneratorCertificate:
    """The generator y_2 = 2K of Omega^SU_4 (s_2 = -48, Todd genus 2)."""
    cls = bordclass.k_class().scale(2)
    return genfactory._certify(4, [(2, "K")], cls, -48)


def s6_class() -> ChernVector:
    """The 6-sphere with its G_2-invariant almost complex structure."""
    return ChernVector(3, {(3,): 2})


def s_polynomial(n: int, chern_classes) -> GradedPoly:
    """Power sum s_n of the Chern roots in the Chern classes c_1, c_2, ...

    The Girard-Waring row of `bordclass.s_num` with c_lambda = prod_{i in
    lambda} c_i; classes past the end of `chern_classes` are zero.
    """
    total = chern_classes[0].scale(0)
    for lam, coeff in zip(bordclass._basis(n)[0], bordclass._girard_waring_row(n)):
        if coeff and lam[0] <= len(chern_classes):
            term = chern_classes[lam[0] - 1].scale(coeff)
            for i in lam[1:]:
                term = term * chern_classes[i - 1]
            total = total + term
    return total


def grassmann_ring() -> PresentedRing:
    """H*(Gr_2(C^4)) = Z[c1, c2] / (c1^3 - 2 c1 c2, c2^2 - c1^2 c2)."""
    degrees = (2, 4)
    c1 = GradedPoly.generator(degrees, 0)
    c2 = GradedPoly.generator(degrees, 1)
    relations = [c1.pow(3) - (c1 * c2).scale(2), c2 * c2 - c1 * c1 * c2]
    return PresentedRing(degrees, relations, 8, (2, 1))


def grassmann_s4() -> int:
    """s_4 of the Grassmannian Gr_2(C^4) with the SU-amended structure 2 conj(g) + 2 g - conj(g) g."""
    ring = grassmann_ring()
    c1, c2 = (GradedPoly.generator(ring.degrees, j) for j in range(2))
    # rank-2 tautological bundle and its conjugate
    s4_gamma = s_polynomial(4, [c1, c2])
    s4_gamma_bar = s_polynomial(4, [-c1, c2])
    # conj(gamma) tensor gamma: c = 1 - c1^2 + 4 c2
    s4_gg = s_polynomial(4, [c1.scale(0), c2.scale(4) - c1 * c1])
    total = s4_gamma_bar.scale(2) + s4_gamma.scale(2) - s4_gg
    return evaluate_top(ring, graded_part(total, 8))
