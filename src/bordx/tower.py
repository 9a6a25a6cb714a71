"""Projectivisation towers and quasitoric data for the manifold families.

A TowerSpec records a product of projective spaces (the base) and a sequence
of projectivisation stages, each stage a sum of line bundles given by weight
vectors over the generators defined so far.  It is read as one list of
blocks, `_blocks`, as a generalized Bott tower: each step projectivises a sum
of lines over the step before, starting from a point, and a base factor
CP^(n_i) is CP(C^(n_i + 1)).  The stable tangent bundle splits as a roster of
line summands, the lines of every block; conjugating a summand negates its
first Chern class in the total Chern class and flips the induced orientation.

Two evaluation conventions are carried explicitly: "toric" pairs against the
fundamental class of the underlying toric manifold (the convention of the
closed s-number formulas), "bordism" multiplies by (-1)^(#conjugations) so
that exported Chern vectors obey the bordism-operation identities.
"""

from __future__ import annotations

import functools
import itertools
import math
from collections import Counter, namedtuple

from . import bordclass
from .bordclass import ChernVector
from .cohomring import PresentedRing, line_bundle_numbers, line_bundle_s_number
from .exactalg import (
    GradedPoly,
    IntMatrix,
    canonical_partition,
    hermite_form,
    in_row_lattice,
    json_field,
    json_object,
    strict_int,
)

class _Checked:
    """Mixin of the records that check their fields in `__new__`: `_make`,
    and with it `_replace`, goes through those checks too."""

    __slots__ = ()

    @classmethod
    def _make(cls, iterable):
        return cls(*super()._make(iterable))


class Stage(_Checked, namedtuple("Stage", "lines")):
    """One projectivisation stage: a list of line-bundle weight vectors."""

    __slots__ = ()

    def __new__(cls, lines):
        lines = tuple(tuple(strict_int(x, "a line weight") for x in w) for w in lines)
        if not lines:
            raise ValueError("a stage needs at least one line bundle")
        return super().__new__(cls, lines)


class TowerSpec(_Checked, namedtuple("TowerSpec", "base stages conjugations convention")):
    """A base product of projective spaces (a tuple of ints), its stages, the
    set of conjugated roster indices and the evaluation convention."""

    __slots__ = ()

    def __new__(cls, base, stages=(), conjugations=frozenset(), convention="toric"):
        base = tuple(strict_int(x, "a base factor") for x in base)
        stages = tuple(stages)
        if not all(isinstance(s, Stage) for s in stages):
            raise ValueError("each stage must be a Stage")
        listed = [strict_int(i, "a conjugation index") for i in conjugations]
        conjugations = frozenset(listed)
        if len(conjugations) < len(listed):
            raise ValueError(f"a conjugation index is given twice in {listed}")
        if any(x < 1 for x in base):
            raise ValueError("base factors must be positive")
        if convention not in ("toric", "bordism"):
            raise ValueError(f"unknown convention {convention!r}")
        for gens, stage in enumerate(stages, len(base)):
            for w in stage.lines:
                if len(w) != gens:
                    raise ValueError(
                        f"weight vector {w} must reference the {gens} prior generators"
                    )
        self = super().__new__(cls, base, stages, conjugations, convention)
        size = self.roster_size()
        for i in conjugations:
            if not 0 <= i < size:
                raise ValueError(f"conjugation index {i} outside roster of size {size}")
        return self

    # -- structure -----------------------------------------------------------

    @property
    def dim(self) -> int:
        """Complex dimension n of the manifold: each block adds its size - 1."""
        sizes = _block_sizes(self)
        return sum(sizes) - len(sizes)

    @property
    def generator_count(self) -> int:
        return len(self.base) + len(self.stages)

    def roster_size(self) -> int:
        return sum(_block_sizes(self))

    @property
    def cohomology_rank(self) -> int:
        """Rank of H*(M) by Leray-Hirsch: the product of the block sizes."""
        return math.prod(_block_sizes(self))

    def with_convention(self, convention: str) -> "TowerSpec":
        return TowerSpec(self.base, self.stages, self.conjugations, convention)


# ---------------------------------------------------------------------------
# derived data
# ---------------------------------------------------------------------------

def _blocks(spec: TowerSpec) -> list[tuple[tuple[int, ...], ...]]:
    """The weight vectors of each step's lines, over the generators before it.

    Base factor i is the block of n_i + 1 lines of weight 0 over the i
    generators before it; each stage is its own lines.
    """
    return [((0,) * i,) * (n_i + 1) for i, n_i in enumerate(spec.base)] + [
        s.lines for s in spec.stages]


def _block_sizes(spec: TowerSpec) -> list[int]:
    """The number of lines in each of the `_blocks`, read without building them,
    so a size check does no work in proportion to a base factor."""
    return [n_i + 1 for n_i in spec.base] + [len(s.lines) for s in spec.stages]


@functools.lru_cache(maxsize=16)
def _lines(base, stages) -> tuple[tuple[GradedPoly, ...], ...]:
    """First Chern classes g_i + sum_j w_j g_j of the lines of each block i
    of the tower on `base` and `stages`.

    Built once per (base, stages), all they depend on, for `presented_ring`
    and the rosters, whatever the conjugations and convention; the 16 most
    recent are kept, as by `presented_ring`.  A dimension above
    `bordclass.CHERN_MAX_DIM` is refused before a line is built.
    """
    spec = TowerSpec(base, stages)
    bordclass.check_dim(spec.dim)
    gens = [GradedPoly.generator((2,) * spec.generator_count, j)
            for j in range(spec.generator_count)]
    return tuple(tuple(sum((gens[j].scale(wj) for j, wj in enumerate(w) if wj), g)
                       for w in block)
                 for g, block in zip(gens, _blocks(spec)))


# largest cohomology rank of a tower, which the dimension does not bound
CHERN_MAX_RANK = 1024


def _check_rank(rank: int) -> None:
    """Refuse a cohomology rank above CHERN_MAX_RANK with ValueError."""
    if rank > CHERN_MAX_RANK:
        raise ValueError(f"bordx handles cohomology rank at most {CHERN_MAX_RANK}, "
                         f"got {rank}")


def presented_ring(spec: TowerSpec) -> PresentedRing:
    """Cohomology presentation of the tower (triangular by construction).

    One ring per base and stages, all it reads, shared by `chern_numbers`,
    `s_number` (its line-bundle numbers) and `ring_backend_pair` in either
    convention and under any conjugations, so its rewrite rules and
    memoised normal forms are built once; the 16 most recent are kept.  Its
    lines come from `_lines`, cached the same way, which the rosters read.
    A spec above `bordclass.CHERN_MAX_DIM` or of cohomology rank above
    CHERN_MAX_RANK is refused before its ring is built.
    """
    return _presented_ring(spec.base, spec.stages)


@functools.lru_cache(maxsize=16)
def _presented_ring(base, stages) -> PresentedRing:
    """`presented_ring` of the tower on `base` and `stages`."""
    spec = TowerSpec(base, stages)
    bordclass.check_dim(spec.dim)
    _check_rank(spec.cohomology_rank)
    degrees = (2,) * spec.generator_count
    # one relation per block, the product of its lines, each distinct line
    # raised once: a base block gives g_i^(n_i + 1)
    relations = [functools.reduce(GradedPoly.mul, [x.pow(k) for x, k in Counter(lines).items()])
                 for lines in _lines(base, stages)]
    return PresentedRing(degrees, relations, 2 * spec.dim,
                         [size - 1 for size in _block_sizes(spec)])


def roster(spec: TowerSpec) -> list[GradedPoly]:
    """First Chern classes of the stable-tangent line summands, unconjugated."""
    return [line for lines in _lines(spec.base, spec.stages) for line in lines]


def signed_roster(spec: TowerSpec) -> list[GradedPoly]:
    """Roster with conjugated summands negated."""
    return [
        -c if i in spec.conjugations else c for i, c in enumerate(roster(spec))
    ]


def total_chern(spec: TowerSpec) -> GradedPoly:
    """Product of (1 + c_1(line)) over the roster, truncated at the top degree.

    Equal summands are grouped: one factor (1 + x)^count per distinct signed
    roster class.
    """
    cap = 2 * spec.dim
    degrees = (2,) * spec.generator_count
    c = GradedPoly.constant(degrees, 1)
    for cls, count in Counter(signed_roster(spec)).items():
        c = c.mul((cls + 1).pow(count, cap), cap)
    return c


def _sign(spec: TowerSpec) -> int:
    if spec.convention == "bordism" and len(spec.conjugations) % 2:
        return -1
    return 1


def chern_numbers(spec: TowerSpec) -> ChernVector:
    """All Chern numbers of the tower under its orientation convention: the
    `line_bundle_numbers` of its signed roster in its ring, signed by `_sign`."""
    numbers = line_bundle_numbers(presented_ring(spec), signed_roster(spec))
    return -numbers if _sign(spec) < 0 else numbers


def s_number(spec: TowerSpec) -> int:
    """Milnor s-number; the toric convention matches the closed family formulas."""
    return _sign(spec) * line_bundle_s_number(presented_ring(spec), signed_roster(spec))


# ---------------------------------------------------------------------------
# families
# ---------------------------------------------------------------------------

def _check_parities(name: str, n1: int, n2: int) -> None:
    if n1 <= 0 or n1 % 2:
        raise ValueError(f"{name} needs even n1 > 0, got n1={n1}")
    if n2 <= 0 or n2 % 2 == 0:
        raise ValueError(f"{name} needs odd n2 > 0, got n2={n2}")


def build_family(name: str, *params, convention: str = "toric") -> TowerSpec:
    """Construct one of the named families as a TowerSpec.

    L(n1, n2): projectivisation of (tautological + trivial^n2) over CP^n1.
    Ltilde(n1, n2): L(n1, n2) with the SU-amended stably complex structure.
    Ntilde(n1, n2): the 3-generator quasitoric SU family over CP^1 x CP^n1.
    CPprod(omega): the product of projective spaces CP^omega.

    L, Ltilde and Ntilde refuse an n1 or n2 that is not an int, and a dimension
    above CHERN_MAX_DIM, before a stage is built.  CPprod refuses an omega
    that is not a list or tuple of ints; () and [] give the point.
    """
    if name == "CPprod":
        (omega,) = params
        if not isinstance(omega, (list, tuple)):
            raise ValueError(f"CPprod's omega must be a list or tuple of parts, got {omega!r}")
        return TowerSpec(canonical_partition(omega), (), frozenset(), convention)

    if name not in ("L", "Ltilde", "Ntilde"):
        raise ValueError(f"unknown family {name!r}")
    n1, n2 = params
    n1, n2 = strict_int(n1, f"{name}'s n1"), strict_int(n2, f"{name}'s n2")
    bordclass.check_dim(n1 + n2 + (name == "Ntilde"))

    if name == "L":
        if n1 < 0 or n2 < 0:
            raise ValueError("L needs n1, n2 >= 0")
        if n1 == 0 or n2 == 0:  # CP^(n1 + n2)
            return build_family("CPprod", (n1 + n2,) if n1 + n2 else (),
                                convention=convention)
        stage = Stage(((-1,),) + ((0,),) * n2)
        return TowerSpec((n1,), (stage,), frozenset(), convention)

    if name == "Ltilde":
        _check_parities("Ltilde", n1, n2)
        stage = Stage(((-1,),) + ((0,),) * n2)
        # base summands 0..n1 (class u), stage summands n1+1..n1+n2+1
        conj = set(range(1, n1, 2))  # n1/2 of the u-summands
        fiber0 = n1 + 2  # first of the n2 bare-gamma summands
        conj.update(fiber0 + j for j in range(1, n2 - 1, 2))  # (n2-1)/2 of them
        conj.add(fiber0 + n2 - 1)  # and the final one
        return TowerSpec((n1,), (stage,), frozenset(conj), convention)

    # Ntilde
    _check_parities("Ntilde", n1, n2)
    if n2 == 1:
        # CP(eta^2 + L_v) over CP^1 x CP^n1; relation (w - 2u)(w + v) = 0
        stage = Stage(((-2, 0), (0, 1)))
        conj = set(range(3, n1 + 2, 2))  # n1/2 of the v-summands
        conj.add(2 + n1 + 1 + 1)  # the (w + v) summand
        return TowerSpec((1, n1), (stage,), frozenset(conj), convention)
    stage = Stage(((-1, 0), (-1, 0), (0, 1)) + ((0, 0),) * (n2 - 2))
    conj = {1}  # one u-summand: (1+u)(1-u) = 1 since u^2 = 0
    conj.update(range(3, n1 + 2, 2))  # n1/2 of the n1+1 v-summands
    fiber0 = 2 + n1 + 1  # roster index of the first stage summand
    conj.add(fiber0 + 1)  # one of the two (w - u) summands
    conj.add(fiber0 + 2)  # the (w + v) summand
    conj.update(fiber0 + 3 + j for j in range(1, n2 - 2, 2))  # (n2-3)/2 w-summands
    return TowerSpec((1, n1), (stage,), frozenset(conj), convention)


# ---------------------------------------------------------------------------
# characteristic matrices
# ---------------------------------------------------------------------------

class CharMatrix(_Checked, namedtuple("CharMatrix", "matrix polytope")):
    """Characteristic matrix of a quasitoric manifold over a product of simplices."""

    __slots__ = ()

    def __new__(cls, matrix, polytope):
        polytope = tuple(strict_int(d, "a simplex dimension") for d in polytope)
        if any(d < 0 for d in polytope):
            raise ValueError(f"simplex dimensions must be non-negative, got {polytope}")
        # every entry checked once, not at every vertex
        matrix = IntMatrix.from_rows(matrix.entries, matrix.cols)
        n = sum(polytope)
        m = n + len(polytope)
        if matrix.rows != n or matrix.cols != m:
            raise ValueError(
                f"expected a {n}x{m} matrix over {polytope}, "
                f"got {matrix.rows}x{matrix.cols}"
            )
        return super().__new__(cls, matrix, polytope)

    def facet_blocks(self) -> list[range]:
        out = []
        start = 0
        for d in self.polytope:
            out.append(range(start, start + d + 1))
            start += d + 1
        return out

    def validate_vertices(self) -> None:
        """det = +-1 for the n columns at every vertex of the polytope.

        The n x n matrix of those columns has det +-1 exactly when its rows
        span Z^n, that is when their Hermite form is the n x n identity.
        """
        blocks = self.facet_blocks()
        n = self.matrix.rows
        for dropped in itertools.product(*blocks):
            chosen = [j for b in blocks for j in b if j not in dropped]
            h = hermite_form({k: row[j] for k, j in enumerate(chosen) if row[j]}
                             for row in self.matrix.entries)
            if h != [{k: 1} for k in range(n)]:
                raise ValueError(f"vertex columns {chosen} have determinant != +-1")


def _tower_char_matrix(spec: TowerSpec) -> CharMatrix:
    """The characteristic matrix of a tower: one column per roster summand.

    The facets are the roster summands in roster order, in the `_blocks` of
    the tower: block i holds its lines, of class g_i + w_l g (w_l = 0 in a
    base factor).  Each generator is written through the last summand of its
    block, g_i = D_last - w_last g, and every other summand l of a block
    gives the relation D_l - D_last - (w_l - w_last) g = 0.  The
    column of a conjugated summand is negated, and each row signed so that
    its own column reads +1.  Refused above CHERN_MAX_DIM before any row.
    """
    bordclass.check_dim(spec.dim)
    m = spec.roster_size()
    sign = [-1 if j in spec.conjugations else 1 for j in range(m)]
    blocks = _blocks(spec)
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
    return CharMatrix(IntMatrix.from_rows(rows, cols=m), [len(b) - 1 for b in blocks])


def char_matrix(name: str, *params) -> CharMatrix:
    """The characteristic matrix of `build_family(name, *params)`, which checks them."""
    return _tower_char_matrix(build_family(name, *params))


def su_check(M: CharMatrix) -> bool:
    """True iff an integer functional takes value 1 on every column: the
    all-ones row lies in the row lattice of the matrix."""
    return in_row_lattice(({j: x for j, x in enumerate(r) if x} for r in M.matrix.entries),
                          dict.fromkeys(range(M.matrix.cols), 1))


# ---------------------------------------------------------------------------
# JSON
# ---------------------------------------------------------------------------

def tower_from_json(data) -> TowerSpec:
    """The TowerSpec a JSON object gives; every malformed input raises ValueError."""
    data = json_object(data, "a tower spec")
    stages = json_field(data, "stages", list, "a tower spec", [], each=dict)
    # a list, not a set, so TowerSpec sees every index: true is refused rather
    # than merged with 1, and an index given twice rather than collapsed
    conj = json_field(data, "conjugate", list, "a tower spec", []) + [
        i for s in stages for i in json_field(s, "conjugate", list, "a stage", [])]
    return TowerSpec(
        tuple(json_field(data, "base", list, "a tower spec")),
        tuple(Stage(tuple(map(tuple, json_field(s, "lines", list, "a stage", each=list))))
              for s in stages),
        conj,
        json_field(data, "convention", str, "a tower spec", "toric"),
    )


def char_matrix_from_json(data) -> CharMatrix:
    """The CharMatrix a JSON object gives, refused with ValueError unless it
    is of a quasitoric manifold within the bounds: after the shape, the
    dimension sum d_i and the vertex count prod (d_i + 1), its cohomology
    rank, are checked before `validate_vertices` takes a vertex."""
    data = json_object(data, "a characteristic matrix")
    M = CharMatrix(
        IntMatrix.from_rows(
            json_field(data, "lambda", list, "a characteristic matrix", each=list)),
        tuple(json_field(data, "simplex_dims", list, "a characteristic matrix")),
    )
    bordclass.check_dim(sum(M.polytope))
    _check_rank(math.prod(d + 1 for d in M.polytope))
    M.validate_vertices()
    return M


def ring_backend_pair(spec: TowerSpec):
    """The presentation twice, hinted at each backend (for cross-validation)."""
    ring = presented_ring(spec)
    alt = PresentedRing(ring.degrees, ring.relations, ring.top_degree,
                        ring.fundamental_monomial, backend="lattice")
    return ring, alt
