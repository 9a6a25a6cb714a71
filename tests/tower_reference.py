"""The tower data as it was written before every tower became one list of blocks.

Here a base factor CP^(n_i) and a projectivisation stage are two cases: the
base gives the relation g_i^(n_i + 1), n_i + 1 roster copies of g_i and a
block of n_i + 1 empty weight vectors in the characteristic matrix; a stage
gives its lines through `_stage_lines`.  `tower` now reads both from
`tower._blocks`, a base factor being CP(C^(n_i + 1)), n_i + 1 lines of weight
0.  Nothing in bordx uses this module; the tests compare `tower` with it.
`presented_ring` is the old function without its cache, and `dim`,
`roster_size` and `cohomology_rank` are the old `TowerSpec` members.
`line_bundle_s_number` is the old s-number loop, one reduced multiply by x
per degree, where `cohomring` now squares.
"""

from __future__ import annotations

import math

from bordx import bordclass
from bordx.cohomring import PresentedRing, _coded_lines
from bordx.exactalg import GradedPoly, IntMatrix, _accumulate
from bordx.tower import CHERN_MAX_RANK, CharMatrix, TowerSpec


def dim(spec: TowerSpec) -> int:
    """Complex dimension n of the manifold."""
    return sum(spec.base) + sum(len(s.lines) - 1 for s in spec.stages)


def roster_size(spec: TowerSpec) -> int:
    return sum(x + 1 for x in spec.base) + sum(len(s.lines) for s in spec.stages)


def cohomology_rank(spec: TowerSpec) -> int:
    """Rank of H*(M) by Leray-Hirsch: prod (n_i + 1) times the line counts."""
    return math.prod(x + 1 for x in spec.base) * math.prod(
        len(s.lines) for s in spec.stages)


def _stage_lines(spec: TowerSpec, degrees) -> list[list[GradedPoly]]:
    """First Chern classes v + sum_j w_j g_j of each stage's line bundles."""
    gens = [GradedPoly.generator(degrees, j) for j in range(spec.generator_count)]
    out = []
    for s, stage in enumerate(spec.stages):
        v = gens[len(spec.base) + s]
        lines = []
        for w in stage.lines:
            line = v
            for j, wj in enumerate(w):
                if wj:
                    line = line + gens[j].scale(wj)
            lines.append(line)
        out.append(lines)
    return out


def presented_ring(spec: TowerSpec) -> PresentedRing:
    """Cohomology presentation of the tower (triangular by construction)."""
    bordclass.check_dim(dim(spec))
    if cohomology_rank(spec) > CHERN_MAX_RANK:
        raise ValueError(f"bordx handles towers of cohomology rank at most "
                         f"{CHERN_MAX_RANK}, got {cohomology_rank(spec)}")
    degrees = (2,) * spec.generator_count
    relations = [GradedPoly.generator(degrees, i, n_i + 1)
                 for i, n_i in enumerate(spec.base)]
    for lines in _stage_lines(spec, degrees):
        rel = GradedPoly.constant(degrees, 1)
        for line in lines:
            rel = rel * line
        relations.append(rel)
    fundamental = list(spec.base) + [len(stage.lines) - 1 for stage in spec.stages]
    return PresentedRing(degrees, relations, 2 * dim(spec), fundamental)


def line_bundle_s_number(ring: PresentedRing, lines) -> int:
    """The sum of x^n over the `lines`, each x and its conjugates raised
    once with coefficient a + (-1)^n b, by n multiplies each reduced."""
    total: dict = {}
    n = ring.top_degree // 2
    for x, plus, minus in _coded_lines(ring, lines, "line_bundle_s_number"):
        count = plus - minus if n % 2 else plus + minus
        if not count:
            continue
        power = {0: count}
        for _ in range(n):
            power = ring._mul_reduce(power, x)
            if not power:
                break
        _accumulate(total, power, 1)
    return ring._fundamental_coefficient(total) if n else 0


def roster(spec: TowerSpec) -> list[GradedPoly]:
    """First Chern classes of the stable-tangent line summands, unconjugated."""
    degrees = (2,) * spec.generator_count
    out = []
    for i, n_i in enumerate(spec.base):
        out.extend([GradedPoly.generator(degrees, i)] * (n_i + 1))
    for lines in _stage_lines(spec, degrees):
        out.extend(lines)
    return out


def _tower_char_matrix(spec: TowerSpec) -> CharMatrix:
    """The characteristic matrix of a tower: one column per roster summand.

    The facets are the roster summands in roster order, in blocks: each base
    factor (n_i + 1 summands of class g_i), then each stage (its lines, of
    class v + w_l g).  Each generator is written through the last summand of
    its block, g_i = D_last and v = D_last - w_last g, and every other summand
    l of a block gives the relation D_l - D_last - (w_l - w_last) g = 0.  The
    column of a conjugated summand is negated, and each row signed so that
    its own column reads +1.  Refused above CHERN_MAX_DIM before any row.
    """
    bordclass.check_dim(dim(spec))
    m = roster_size(spec)
    sign = [-1 if j in spec.conjugations else 1 for j in range(m)]
    blocks = [((),) * (n_i + 1) for n_i in spec.base] + [s.lines for s in spec.stages]
    gens: list[list[int]] = []  # each generator through the last summands
    rows = []

    def minus(w) -> list[int]:
        """-sum_j w_j g_j as a row over the facets."""
        return [-sum(wj * g[c] for wj, g in zip(w, gens)) for c in range(m)]

    last = -1
    for lines in blocks:
        first, last = last + 1, last + len(lines)
        for own, w in enumerate(lines[:-1], first):
            row = minus([a - b for a, b in zip(w, lines[-1])])
            row[own] += 1
            row[last] -= 1
            rows.append([x * s * sign[own] for x, s in zip(row, sign)])
        g = minus(lines[-1])
        g[last] += 1
        gens.append(g)
    polytope = tuple(spec.base) + tuple(len(s.lines) - 1 for s in spec.stages)
    return CharMatrix(IntMatrix.from_rows(rows, cols=m), polytope)
