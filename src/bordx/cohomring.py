"""Evaluation against the fundamental class of a presented graded ring.

A PresentedRing is a graded ring given by generators, homogeneous relations,
a top degree 2n and a fundamental monomial pairing to +1.  It is built in
Python from GradedPoly relations (`tower.presented_ring`); bordx reads no
ring from text.  Two backends compute the pairing: a triangular rewriting
backend (fast path, needs every relation to be monic in a pure generator
power) and a lattice backend that quotients the free abelian group on
top-degree monomials by all relation multiples (ground truth).

The triangular backend memoises the normal form of every monomial it
rewrites, once per ring, so evaluating many products in one ring rewrites
each monomial only once.  A monomial met again on its own rewrite path is a
cycle, so rewriting terminates; a normal form that would rewrite more than
`_REWRITE_STEP_LIMIT` monomials is refused (ring too large).  It works on
coded monomials, private to this module: x^e is the int sum e_j R^j with R =
top_degree // min(degrees) + 1.  At or below the top degree every exponent
is below R, so the code is one-to-one there and the product of two monomials
whose product stays at or below the top is one addition of their codes.  A
monomial with an exponent of R or more lies above the top, and its code
would be that of another monomial, so it is dropped before it is encoded.
The Chern numbers of a sum of line bundles (`line_bundle_numbers`) are read
through them too.

The lattice backend first eliminates the unit monomial relations, those
that are one monomial with coefficient +-1 (a face ring's Stanley-Reisner
monomials, a tower's base relations g_i^(n_i+1)): each of their multiples is
a unit row, so the quotient is free on the standard monomials, those no such
relation divides, modulo the other relation multiples restricted to them
(Cox, Little and O'Shea, *Ideals, Varieties, and Algorithms*, 2.9 and 5.3).
It reads everything off the Hermite form (`exactalg.hermite_form`) of
those top-degree rows: the rank, and a kernel vector by exact back
substitution, which is the vector of signed maximal minors of the
relation lattice.  The content of that vector (the gcd
of the maximal minors) is the order of the torsion of the quotient (Newman,
*Integral Matrices*, II), so the quotient is Z exactly when the content is 1,
and the vector is then the functional itself, 0 on every killed monomial.
The relation rows are sparse and their columns found by monomial code: the
lattice backend uses `encode` and nothing else of the triangular one.  The
lattice models are bounded: a degree with more than LATTICE_MAX_MONOMIALS
standard monomials or LATTICE_MAX_ROWS multiples of the other relations is
refused, and the walk that lists them stops after limit + 1 of them.
"""

from __future__ import annotations

import math
import operator
from collections import Counter

from . import bordclass
from .bordclass import ChernVector
from .exactalg import GradedPoly, _accumulate, hermite_form, strict_int

_REWRITE_STEP_LIMIT = 2_000_000

# a lattice model has one column per standard monomial of its degree and one
# row per multiple of a relation that is not a unit monomial; a larger one is
# refused once its walk passes the limit
LATTICE_MAX_MONOMIALS = 2_000
LATTICE_MAX_ROWS = 4_000
_DEAD_END_LIMIT = 100_000


class PresentationError(ValueError):
    """Structural problem with a ring presentation."""


class NonTriangularError(PresentationError):
    """Relation set unusable for rewriting; caller should use the lattice backend."""


class PresentedRing:
    """Graded ring presentation with a distinguished top-degree pairing."""

    def __init__(
        self,
        degrees,
        relations,
        top_degree: int,
        fundamental_monomial,
        backend: str = "triangular",
    ):
        self.degrees = GradedPoly.zero(degrees).degrees  # strict, positive, even
        if backend not in ("triangular", "lattice"):
            raise PresentationError(f"unknown backend {backend!r}")
        self.backend = backend
        if strict_int(top_degree, "top_degree") < 0 or top_degree % 2:
            raise PresentationError("top_degree must be a nonnegative even integer")
        self.top_degree = top_degree
        rels = []
        for r in relations:
            if not isinstance(r, GradedPoly):
                raise PresentationError(f"a relation must be a GradedPoly, got {type(r).__name__}")
            if r.degrees != self.degrees:
                raise PresentationError("relation degrees do not match generators")
            if not r.is_homogeneous():
                raise PresentationError(f"relation {r.terms} is not homogeneous")
            if not r.is_zero():
                rels.append(r)
        self.relations = tuple(rels)
        self.fundamental_monomial = tuple(
            strict_int(e, "a fundamental-monomial exponent") for e in fundamental_monomial)
        if len(self.fundamental_monomial) != len(self.degrees):
            raise PresentationError("fundamental monomial length mismatch")
        if any(e < 0 for e in self.fundamental_monomial):
            raise PresentationError("negative exponent in the fundamental monomial")
        mu_degree = sum(e * d for e, d in zip(self.fundamental_monomial, self.degrees))
        if mu_degree != self.top_degree:
            raise PresentationError(
                f"fundamental monomial has degree {mu_degree}, expected {self.top_degree}"
            )
        # the coding of monomials, see the module docstring
        self.radix = top_degree // min(self.degrees) + 1 if self.degrees else 1
        self._places = tuple(self.radix ** j for j in range(len(self.degrees)))
        self._mu = self.encode(self.fundamental_monomial)  # its code, once per ring
        self._rules = None  # built on first use; a failed build keeps nothing
        self._nf_memo: dict[int, dict] = {}  # code -> coded normal form
        self._lattice_phi = None  # the top-degree functional, built on first use

    # -- monomials ------------------------------------------------------------

    def _monomial_walk(self, degree: int, units=()):
        """Monomials of `degree` in lexicographic order, and None for each dead end.

        An odometer runs over the exponents of every generator but the last,
        whose exponent is read off by division; a dead end is a setting that
        leaves a remainder the last degree does not divide.  Given `units`,
        the exponents of the unit monomial relations, it yields only the
        standard monomials: a pure power x_j^d caps exponent j at d - 1 (a
        last exponent past its cap is a dead end), and a monomial another
        unit divides is a dead end.  When every generator after one is
        capped, its exponent starts at the least value that leaves them room
        for the remainder, and a generator no value of which fits is one
        dead end.
        """
        caps = [None] * len(self.degrees)
        kills = []
        for u in units:
            powers = [(j, d) for j, d in enumerate(u) if d]
            if len(powers) == 1:
                (j, d), = powers
                caps[j] = d - 1 if caps[j] is None else min(caps[j], d - 1)
            else:
                kills.append(u)

        def standard(mono):
            return not any(all(map(operator.ge, mono, u)) for u in kills)

        if not self.degrees:
            if degree == 0:
                yield () if standard(()) else None
            return
        *head, last = self.degrees
        # room[i]: the largest degree the generators after i can take, None
        # when one of them is uncapped
        room = [None] * len(head)
        after = None if caps[-1] is None else caps[-1] * last
        for i in reversed(range(len(head))):
            room[i] = after
            after = None if after is None or caps[i] is None else after + caps[i] * head[i]
        exp = [0] * len(head)
        remaining = degree
        i = 0  # exp[i:] are 0 and still to be set
        while True:
            while i < len(head):
                least = 0 if room[i] is None else max(0, -((room[i] - remaining) // head[i]))
                if least * head[i] > remaining or caps[i] is not None and least > caps[i]:
                    break
                exp[i] = least
                remaining -= least * head[i]
                i += 1
            if i < len(head):
                yield None  # no exponent of generator i fits
            elif remaining % last or caps[-1] is not None and remaining // last > caps[-1]:
                yield None
            else:
                mono = (*exp, remaining // last)
                yield mono if standard(mono) else None
            i -= 1
            while i >= 0 and (remaining < head[i] or exp[i] == caps[i]):
                remaining += exp[i] * head[i]
                exp[i] = 0
                i -= 1
            if i < 0:
                return
            exp[i] += 1
            remaining -= head[i]
            i += 1

    def _bounded_monomials(self, degree: int, limit: int, units=()) -> list[tuple[int, ...]]:
        """The monomials of `degree` in walk order, stopping at limit + 1 of them.

        Dead ends come from generator degrees that do not divide one another
        and, given `units`, from the caps and the monomials the units kill; a
        capped walk takes no more steps than the uncapped one, whose
        monomials were at most `limit`.  Past _DEAD_END_LIMIT + limit dead
        ends the degree is refused, so the walk takes a bounded number of
        steps whatever the degrees and units.
        """
        found = []
        dead = 0
        for mono in self._monomial_walk(degree, units):
            if mono is not None:
                found.append(mono)
                if len(found) > limit:
                    break
            else:
                dead += 1
                if dead > _DEAD_END_LIMIT + limit:
                    raise PresentationError(
                        f"degree {degree} takes more than {_DEAD_END_LIMIT} dead ends "
                        "to count its monomials (lattice model too large)"
                    )
        return found

    def __repr__(self):
        return (
            f"PresentedRing(degrees={self.degrees}, top_degree={self.top_degree}, "
            f"{len(self.relations)} relations)"
        )

    # -- triangular backend --------------------------------------------------

    def encode(self, exp) -> int:
        """The code of the monomial x^exp; one-to-one on exponents below `radix`."""
        return sum(map(operator.mul, exp, self._places))

    def decode(self, code: int) -> tuple[int, ...]:
        """The exponents of the monomial with code `code`."""
        exp = []
        for _ in self._places:
            code, e = divmod(code, self.radix)
            exp.append(e)
        return tuple(exp)

    def _coded(self, x: GradedPoly) -> dict:
        """{code: coefficient} over the terms of x at or below the top; an x
        over other generator degrees is refused."""
        _check_degrees(self, x, "_coded")
        top, degrees = self.top_degree, self.degrees
        return {self.encode(exp): c for exp, c in x.terms.items()
                if sum(map(operator.mul, exp, degrees)) <= top}

    def _build_rules(self):
        """Rewrite rules x_j^d -> rhs, one per relation, highest generator first.

        A rule is (R^j, d, d R^j, coded rhs items): it applies to a code whose
        digit j is at least d, and rewrites it by subtracting d R^j and adding
        each code of the rhs.  A rule whose x_j^d lies above the top never
        applies at or below it, so the rhs terms above the top are dropped.
        Each rhs is its relation as given: a tower's relations lead with pure
        powers of distinct generators, a Groebner basis (Buchberger's first
        criterion), so the order of the rewrites does not change the result.
        """
        if self.backend != "triangular":
            raise NonTriangularError("ring is marked for the lattice backend")
        rules: dict[int, tuple[int, dict]] = {}
        for rel in self.relations:
            candidates = []
            for exp, c in rel.terms.items():
                nz = [(i, e) for i, e in enumerate(exp) if e]
                if len(nz) == 1 and abs(c) == 1:
                    candidates.append((nz[0][0], nz[0][1], c, exp))
            if not candidates:
                raise NonTriangularError(
                    f"relation {rel.terms} has no monic pure-power term; "
                    "use the lattice backend"
                )
            candidates.sort(reverse=True)
            j, d, c, exp = candidates[0]
            if j in rules:
                raise NonTriangularError(
                    f"two relations lead on generator {j}; "
                    "use the lattice backend"
                )
            rest = rel - GradedPoly.monomial(self.degrees, exp, c)
            rules[j] = (d, self._coded(rest.scale(-c)))  # x_j^d = -c * rest, c = +-1
        places = self._places
        return tuple((places[j], d, d * places[j], tuple(rhs.items()))
                     for j, (d, rhs) in sorted(rules.items(), reverse=True))

    def reduce(self, x: GradedPoly) -> GradedPoly:
        """Triangular normal form of x over the ring's degrees, terms above the top dropped."""
        _check_degrees(self, x, "reduce")
        out = self._reduce_codes(self._coded(x))
        return GradedPoly._trusted(self.degrees, {self.decode(k): c for k, c in out.items()})

    def _mul_reduce(self, a: dict, b: dict) -> dict:
        """Coded normal form of a * b, for coded elements a and b.

        a and b are {code: coefficient} over monomials at or below the top,
        and every product of a term of a with one of b must stay at or below
        the top (a and b homogeneous of total degree at most the top), so
        each product is one addition of codes.
        """
        product: dict[int, int] = {}
        get = product.get
        for kb, cb in b.items():
            for ka, ca in a.items():
                key = ka + kb
                product[key] = get(key, 0) + ca * cb
        return self._reduce_codes(product)

    def _fundamental_coefficient(self, reduced: dict) -> int:
        """Coefficient of the fundamental monomial in a coded, reduced top-degree
        element; any other monomial left means the rules do not reduce to it."""
        if len(reduced) > (self._mu in reduced):
            raise PresentationError(
                "reduction left top-degree monomials other than the fundamental one"
            )
        return reduced.get(self._mu, 0)

    def _reduce_codes(self, terms: dict) -> dict:
        """The one way into the memo: sum c * NF(m) over coded terms c*m at or below the top."""
        rules = self._rules
        if rules is None:
            rules = self._rules = self._build_rules()
        memo = self._nf_memo
        out: dict[int, int] = {}
        get = out.get
        for code, c in terms.items():
            if not c:
                continue
            nf = memo.get(code)
            if nf is None:
                nf = self._monomial_nf(code, rules, memo)
            for e, k in nf.items():
                out[e] = get(e, 0) + c * k
        return {e: c for e, c in out.items() if c} if 0 in out.values() else out

    def _monomial_nf(self, root, rules, memo) -> dict:
        """Normal form of the coded monomial `root`, and of each monomial below it.

        Depth first: a monomial's rewrite (under the rule of its highest
        generator with a rule that applies) lists its children, and its
        normal form is stored in `memo` once every child has one.  Rules are
        homogeneous, so children keep the degree of their parent, and their
        codes stay one-to-one.  A child already on the current path is a
        rewrite cycle; one merely waiting in an ancestor's list is not.
        """
        path: set = set()
        stack: list[tuple] = []  # (monomial, children, iterator over children)
        mono, steps = root, 0
        while True:
            if mono is not None:
                children = self._rewrite(mono, rules)
                if children is None:
                    memo[mono] = {mono: 1}
                else:
                    steps += 1
                    if steps > _REWRITE_STEP_LIMIT:
                        raise PresentationError(
                            f"the normal form of one monomial rewrites more than "
                            f"{_REWRITE_STEP_LIMIT} monomials (ring too large)"
                        )
                    path.add(mono)
                    stack.append((mono, children, iter(children)))
            if not stack:
                return memo[root]
            parent, children, waiting = stack[-1]
            mono = next((child for child, _ in waiting if child not in memo), None)
            if mono is None:
                nf: dict[int, int] = {}
                for child, c in children:
                    _accumulate(nf, memo[child], c)
                memo[parent] = nf
                path.discard(parent)
                stack.pop()
            elif mono in path:
                raise NonTriangularError("rewriting cycles; use the lattice backend")

    def _rewrite(self, code: int, rules):
        """(child, coefficient) pairs of one rewrite of a code, or None if none applies."""
        radix = self.radix
        for place, d, shift, rhs in rules:
            if code // place % radix >= d:
                base = code - shift
                return [(base + e, c) for e, c in rhs]
        return None

    # -- lattice backend -----------------------------------------------------

    def _lattice_model(self, degree: int):
        """(column by monomial code, sparse relation rows) for a degree.

        A relation that is one monomial with coefficient +-1, a unit monomial
        relation, makes every multiple of it a unit row e_c; these are
        eliminated first, a unimodular step.  So the columns are the standard
        monomials of the degree, those no unit divides, in walk order with
        the fundamental monomial's last at the top (unless a unit kills it);
        each multiple of another relation by a standard monomial is one row
        {column: coefficient} over its standard terms, the code of x^e x^m
        being encode(e) + encode(m) at or below the top, and an empty row is
        dropped.  Each walk stops one monomial past what is left of its limit.
        """
        units = [e for e in map(_unit_exponent, self.relations) if e is not None]
        monomials = self._bounded_monomials(degree, LATTICE_MAX_MONOMIALS, units)
        if len(monomials) > LATTICE_MAX_MONOMIALS:
            raise PresentationError(
                f"degree {degree} has more than {LATTICE_MAX_MONOMIALS} standard monomials "
                "(lattice model too large)"
            )
        encode = self.encode
        codes = [encode(m) for m in monomials]
        if degree == self.top_degree and self._mu in codes:
            # the fundamental monomial's column last, as the evaluator wants
            codes.remove(self._mu)
            codes.append(self._mu)
        index = {code: i for i, code in enumerate(codes)}
        rows_left = LATTICE_MAX_ROWS
        rows = []
        for rel in self.relations:
            shift = degree - rel.degree()
            if shift >= 0 and _unit_exponent(rel) is None:
                multipliers = self._bounded_monomials(shift, rows_left, units)
                rows_left -= len(multipliers)
                if rows_left < 0:
                    raise PresentationError(
                        f"degree {degree} has more than {LATTICE_MAX_ROWS} relation "
                        "multiples (lattice model too large)"
                    )
                terms = [(encode(e), c) for e, c in rel.terms.items()]
                for m in multipliers:
                    k = encode(m)
                    row = {index[e + k]: c for e, c in terms if e + k in index}
                    if row:
                        rows.append(row)
        return index, rows

    def _lattice_evaluator(self):
        """Primitive functional phi on top-degree monomials with phi(mu) = 1.

        The model puts mu's column last, and the Hermite form of the
        relation rows gives the three checks in turn.  The quotient
        rank is the number of columns without a pivot, a row's pivot being
        its least column.  With one free column f, v_f = prod(pivots) and
        back substitution over each row's entries (every division exact, by
        Cramer's rule) give the signed maximal minors v of the relation
        lattice; their content is the torsion order of the quotient, and
        when it is 1, mu generates exactly when v_mu = 1, and then phi = v.
        Returns (column index by monomial code, phi by column).
        """
        if self._lattice_phi is not None:
            return self._lattice_phi
        index, rows = self._lattice_model(self.top_degree)
        m = len(index)
        form = hermite_form(rows)
        if len(form) != m - 1:
            raise PresentationError(
                f"top-degree quotient has rank {m - len(form)}, expected 1 "
                "(bad presentation)"
            )
        pivots = [min(row) for row in form]
        (free,) = set(range(m)).difference(pivots)
        v = [0] * m
        v[free] = math.prod(row[p] for row, p in zip(form, pivots))
        for row, p in zip(reversed(form), reversed(pivots)):
            # v[p] is still 0
            v[p] = -sum(c * v[j] for j, c in row.items()) // row[p]
        if math.gcd(*v) != 1:
            raise PresentationError(
                "top-degree quotient has torsion (bad presentation)"
            )
        # v_mu is 0 when mu's column has a pivot, else the product of the
        # (positive) pivots, so no sign is left to fix; a killed mu has no column
        if v[-1] != 1 or self._mu not in index:
            raise PresentationError(
                "fundamental monomial does not generate the top-degree quotient"
            )
        self._lattice_phi = (index, v)
        return self._lattice_phi


def _unit_exponent(rel: GradedPoly):
    """The exponent of a relation that is one monomial with coefficient +-1, else None."""
    if len(rel.terms) == 1:
        ((exp, c),) = rel.terms.items()
        if abs(c) == 1:
            return exp
    return None


# ---------------------------------------------------------------------------
# module-level operations
# ---------------------------------------------------------------------------

def _check_degrees(ring: PresentedRing, x: GradedPoly, name: str) -> None:
    if not isinstance(x, GradedPoly):
        raise ValueError(f"{name} expects a GradedPoly, got {type(x).__name__}")
    if x.degrees != ring.degrees:
        raise ValueError(f"{name} expects an element over the generator degrees "
                         f"{ring.degrees}, got {x.degrees}")


def normal_form(ring: PresentedRing, x: GradedPoly) -> GradedPoly:
    """Fixed point of the triangular rewriting rules, top-degree truncated.

    Public API: the checked entry to `PresentedRing.reduce`, which refuses an
    element over other generator degrees or an inhomogeneous one (the rules
    build refuses a lattice-backend ring).
    """
    _check_degrees(ring, x, "normal_form")
    if not x.is_homogeneous():
        raise ValueError("normal_form expects a homogeneous (or zero) element")
    return ring.reduce(x)


def _nonzero_of_degree(ring: PresentedRing, x: GradedPoly, degree: int, name: str) -> bool:
    """Whether x is nonzero; any other x not homogeneous of `degree` over the
    ring's generator degrees is refused in the words of `name`.  Nothing of
    the ring is built, so zero pairs to 0 on any ring."""
    _check_degrees(ring, x, name)
    degrees = ring.degrees
    for e in x.terms:
        if sum(map(operator.mul, e, degrees)) != degree:
            raise ValueError(f"{name} expects a homogeneous element of degree {degree}")
    return bool(x.terms)


def evaluate_top(ring: PresentedRing, x: GradedPoly) -> int:
    """Pairing of a top-degree element against the fundamental class."""
    if not _nonzero_of_degree(ring, x, ring.top_degree, "evaluate_top"):
        return 0
    if ring.backend == "lattice":
        return _lattice_pair(ring, x)
    return ring._fundamental_coefficient(ring._reduce_codes(ring._coded(x)))


def lattice_evaluate(ring: PresentedRing, x: GradedPoly) -> int:
    """Pairing via the quotient of the free abelian group on top-degree monomials."""
    if not _nonzero_of_degree(ring, x, ring.top_degree, "lattice_evaluate"):
        return 0
    return _lattice_pair(ring, x)


def _lattice_pair(ring: PresentedRing, x: GradedPoly) -> int:
    """The lattice pairing of a checked top-degree element."""
    index, phi = ring._lattice_evaluator()
    total = 0
    for e, c in x.terms.items():
        i = index.get(ring.encode(e))
        if i is not None:  # a monomial a unit relation kills pairs to 0
            total += c * phi[i]
    return total


def _coded_lines(ring: PresentedRing, lines, name: str) -> list[tuple[dict, int]]:
    """(coded class, count) of each distinct line; a line not of degree 2 (or
    zero) is refused, as its products could pass the top, where codes clash."""
    for x in lines:
        _nonzero_of_degree(ring, x, 2, name)
    return [(ring._coded(x), count) for x, count in Counter(lines).items()]


def line_bundle_numbers(ring: PresentedRing, lines) -> ChernVector:
    """All Chern numbers of the sum of line bundles with first Chern classes
    `lines` over the ring's manifold, of complex dimension top_degree / 2.

    c_0, ..., c_n: (1 + x) multiplied in once per line, the equal lines
    grouped, each product reduced as it is formed.  Then one partition walk
    over them, reducing every prefix product, so a leaf reads the fundamental
    coefficient; a tail of ones takes c_1 once per one, and a zero prefix
    product leaves its partitions out, at 0.
    """
    coded = _coded_lines(ring, lines, "line_bundle_numbers")
    n = ring.top_degree // 2
    bordclass.check_dim(n)
    classes = [{0: 1}] + [{} for _ in range(n)]
    for x, count in coded:
        for _ in range(count):
            for i in range(n, 0, -1):
                if classes[i - 1]:
                    _accumulate(classes[i], ring._mul_reduce(classes[i - 1], x), 1)

    def step(terms: dict, part: int, rest: int) -> dict | None:
        return ring._mul_reduce(terms, classes[part]) or None

    def ones(terms: dict, r: int) -> dict | None:
        for _ in range(r):  # c_1 = 0 on an SU manifold ends this at once
            terms = ring._mul_reduce(terms, classes[1])
            if not terms:
                return None
        return terms

    return ChernVector._of_values(
        n, bordclass._walk(n, {0: 1}, step, ones, ring._fundamental_coefficient, 0))


def line_bundle_s_number(ring: PresentedRing, lines) -> int:
    """Milnor s-number of the sum of line bundles: the sum of x^n over the
    `lines`, each distinct x raised once, reducing after every multiply.  In
    dimension 0 it is 0, as in `bordclass.s_num`, not the count of lines."""
    total: dict = {}
    n = ring.top_degree // 2
    for x, count in _coded_lines(ring, lines, "line_bundle_s_number"):
        power = {0: count}
        for _ in range(n):
            power = ring._mul_reduce(power, x)
        _accumulate(total, power, 1)
    return ring._fundamental_coefficient(total) if n else 0


def graded_rank(ring: PresentedRing, degree: int) -> int:
    """Rank of the graded piece as an abelian group."""
    if strict_int(degree, "the degree") > ring.top_degree:
        raise ValueError("degree exceeds top_degree")
    if degree < 0 or degree % 2:  # every generator degree is even
        return 0
    index, rows = ring._lattice_model(degree)
    return len(index) - len(hermite_form(rows))
