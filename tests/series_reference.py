"""Truncated geometric series and graded pieces over GradedPoly, kept as a
test reference.

`bordx.bordclass._projective_dual` once formed fibre * nu^-1 with
`inverse_one_plus`; it now divides an integer table by the linear factors
of nu, and nothing in bordx uses these helpers.  The references in
`projective_dual_reference.py` and `test_walker.py` still expand the
operations' series with them.  `graded_part` was `GradedPoly.graded_part`;
only the tests read a total Chern class degree by degree.
"""

from __future__ import annotations

from bordx.exactalg import GradedPoly, strict_int


def geometric_series(x: GradedPoly, cap: int) -> GradedPoly:
    """1 + x + x^2 + ... truncated at degree cap; x must have zero constant term.

    The cap must be a nonnegative int: without one, x^k never vanishes and
    the series never ends, so None or a negative cap is refused up front.
    """
    if strict_int(cap, "a series cap") < 0:
        raise ValueError(f"a series cap must be nonnegative, got {cap}")
    if x.terms.get((0,) * len(x.degrees), 0):
        raise ValueError("series inverse needs zero constant term")
    one = GradedPoly.constant(x.degrees, 1)
    result = one
    power = one
    while True:
        power = power.mul(x, cap)
        if power.is_zero():
            return result
        result = result + power


def graded_part(x: GradedPoly, degree: int) -> GradedPoly:
    """The terms of x of the given degree."""
    return GradedPoly(x.degrees, {e: c for e, c in x.terms.items()
                                  if x.term_degree(e) == degree})


def inverse_one_plus(x: GradedPoly, cap: int) -> GradedPoly:
    """(1 + x)^(-1) truncated at degree cap (a nonnegative int, as for the series)."""
    return geometric_series(-x, cap)
