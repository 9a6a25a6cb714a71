"""Cross-validation of the two independent routes to family Chern numbers.

Route 1 (tower): the projectivisation presentation with the fiber-bundle
relation, roster conjugations, triangular evaluation.

Route 2 (quasitoric, built here from scratch): cohomology generated by one
degree-2 class per facet with non-face products and the linear relations
from the characteristic matrix rows; stable tangent bundle a sum of the
facet line bundles, so c = prod(1 + v_i); evaluation through the lattice
backend after eliminating the linear relations.

The two fundamental-class conventions may differ by one global sign, so
vectors are compared up to a single common sign.
"""

import pytest

from bordx import bordclass, cohomring, tower
from bordx.cohomring import PresentedRing, lattice_evaluate
from bordx.exactalg import GradedPoly, partitions
from series_reference import graded_part


def _eliminate_linear(M):
    """Solve the linear rows of the characteristic matrix for pivot facets.

    Returns (free columns, substitution) where substitution maps each pivot
    column to its expression as {free column: coefficient}.
    """
    rows = [list(r) for r in M.matrix.entries]
    m = M.matrix.cols
    pivots = {}
    for row in rows:
        pick = None
        for j in range(m - 1, -1, -1):
            if abs(row[j]) == 1 and j not in pivots:
                pick = j
                break
        if pick is None:
            raise AssertionError("no unit pivot available in a matrix row")
        pivots[pick] = (row[pick], row)
    free = [j for j in range(m) if j not in pivots]
    # v_pick = -sign * sum(other coefficients * v_other); iterate until the
    # expressions involve free columns only
    expr = {}
    for pick, (sign, row) in pivots.items():
        expr[pick] = {j: -sign * c for j, c in enumerate(row) if c and j != pick}
    changed = True
    while changed:
        changed = False
        for pick in expr:
            new = {}
            for j, c in expr[pick].items():
                if j in expr:
                    changed = True
                    for jj, cc in expr[j].items():
                        new[jj] = new.get(jj, 0) + c * cc
                else:
                    new[j] = new.get(j, 0) + c
            expr[pick] = {j: c for j, c in new.items() if c}
    return free, expr


def _facet_classes(M):
    """Each facet class as a GradedPoly in the free generators."""
    free, expr = _eliminate_linear(M)
    index = {j: i for i, j in enumerate(free)}
    degrees = (2,) * len(free)
    classes = []
    for j in range(M.matrix.cols):
        if j in index:
            classes.append(GradedPoly.generator(degrees, index[j]))
        else:
            p = GradedPoly.zero(degrees)
            for jj, c in expr[j].items():
                p = p + GradedPoly.generator(degrees, index[jj]).scale(c)
            classes.append(p)
    return free, classes


def quasitoric_chern_numbers(M):
    """Chern numbers straight from the characteristic matrix (lattice backend).

    The overall sign is pinned only up to the orientation of the fundamental
    class; callers compare up to one global sign.
    """
    n = M.matrix.rows
    cap = 2 * n
    free, classes = _facet_classes(M)
    degrees = (2,) * len(free)
    # non-face relations: the product of all facets of one simplex factor
    relations = []
    for block in M.facet_blocks():
        rel = GradedPoly.constant(degrees, 1)
        for j in block:
            rel = rel.mul(classes[j], cap)
        relations.append(rel)
    # fundamental monomial: maximal powers of the free generators
    exponents = [0] * len(free)
    remaining = n
    for i, j in enumerate(free):
        # the free generator of a block can appear up to (block dim) times
        block = next(b for b in M.facet_blocks() if j in b)
        exponents[i] = len(block) - 1
        remaining -= exponents[i]
    assert remaining == 0
    ring = PresentedRing(degrees, relations, cap, tuple(exponents), backend="lattice")
    total = GradedPoly.constant(degrees, 1)
    for cls in classes:
        total = total.mul(GradedPoly.constant(degrees, 1) + cls, cap)
    parts = {i: graded_part(total, 2 * i) for i in range(1, n + 1)}
    numbers = {}
    for omega in partitions(n):
        poly = GradedPoly.constant(degrees, 1)
        for i in omega:
            poly = poly.mul(parts[i], cap)
            if poly.is_zero():
                break
        numbers[omega] = lattice_evaluate(ring, poly)
    return bordclass.ChernVector(n, numbers)


def _equal_up_to_sign(a, b):
    return a == b or a == -b


CASES = [
    ("Ltilde", 2, 1),
    ("Ltilde", 2, 3),
    ("Ltilde", 4, 1),
    ("Ltilde", 4, 3),
    ("Ntilde", 2, 1),
    ("Ntilde", 2, 3),
    ("Ntilde", 4, 1),
    ("Ntilde", 2, 5),
    ("Ntilde", 4, 3),
]


@pytest.mark.parametrize("name,n1,n2", CASES)
def test_char_matrix_reproduces_tower_chern_numbers(name, n1, n2):
    spec = tower.build_family(name, n1, n2)
    via_tower = tower.chern_numbers(spec)
    via_matrix = quasitoric_chern_numbers(tower.char_matrix(name, n1, n2))
    assert _equal_up_to_sign(via_matrix, via_tower), (name, n1, n2)


@pytest.mark.parametrize("name,n1,n2", CASES)
def test_char_matrix_first_chern_vanishes(name, n1, n2):
    M = tower.char_matrix(name, n1, n2)
    free, classes = _facet_classes(M)
    total = GradedPoly.zero((2,) * len(free))
    for cls in classes:
        total = total + cls
    assert total.is_zero(), (name, n1, n2)


def test_l_family_standard_structure():
    # the plain toric L(2,3): facet product equals the complex tangent class
    spec = tower.build_family("L", 2, 3)
    via_tower = tower.chern_numbers(spec)
    via_matrix = quasitoric_chern_numbers(tower.char_matrix("L", 2, 3))
    assert _equal_up_to_sign(via_matrix, via_tower)


def test_cp_products():
    for omega in [(2,), (3,), (2, 1), (1, 1, 1)]:
        via_tower = tower.chern_numbers(tower.build_family("CPprod", omega))
        via_matrix = quasitoric_chern_numbers(tower.char_matrix("CPprod", omega))
        assert _equal_up_to_sign(via_matrix, via_tower), omega
