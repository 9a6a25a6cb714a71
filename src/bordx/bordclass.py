"""U-bordism classes in Chern-number coordinates and the geometric operations.

A class of complex dimension n is the map {partitions of n} -> Z of its
Chern numbers; this is a complete invariant, so products and the operations
d (boundary), d_k, Delta, chi, Psi_(k1,k2), the twisted product on the
Conner-Floyd group W, and the projections rho and pi are all computed as
exact transforms of Chern-number vectors.

Vectors and operations are coordinates and integer tables over one cached
basis, `_basis(n)`: the product the Whitney split table, the s-number the
Girard-Waring row, Todd a row built from those rows by Newton's identity on
its logarithm, and d_k, Delta, Psi_(k1,k2) and pi a sparse matrix each,
built by one routine, `_projective_dual`.  It reads the characteristic
numbers of the submanifold dual to a bundle nu inside a projective bundle P
over M (P = M for d_k and Delta, CP^1 x M for pi, the projectivisation
CP(conj det TM + C^k) for Psi) off H*(M)[x]/(x^k (x - eps c_1)) in one
walk of the partition walker `_walk`, which closes each tail of ones in one
product, with one matrix row per leaf.  A monomial x^a c_1^e_1 ... c_n^e_n
of that walk is one int, its exponents the digits of radix n + k + 1; no
digit carries, since no exponent of a product of degree at most 2(n + k)
exceeds n + k, so a monomial product is one addition.  A call is then one
sparse product.  The operations share one cache of at most
`MATRIX_CACHE_SIZE` matrices, on `_projective_dual`.

One bound holds for the whole library: `check_dim` refuses a complex
dimension above `CHERN_MAX_DIM` where each partition-indexed object starts
(the basis, a product's split table, an operation's target and, in `tower`,
a tower's ring), before any partition is listed.
"""

from __future__ import annotations

import functools
import math
import operator
from collections import Counter
from collections.abc import Mapping
from types import MappingProxyType

from .exactalg import (
    GradedPoly,
    Partition,
    canonical_partition,
    partitions,
    strict_int,
)

# Largest complex dimension of any class, table or tower bordx builds: its
# Chern numbers are indexed by the p(n) partitions of n, p(24) = 1,575.
CHERN_MAX_DIM = 24


def check_dim(n: int) -> None:
    """Refuse a complex dimension above CHERN_MAX_DIM with ValueError."""
    if n > CHERN_MAX_DIM:
        raise ValueError(f"bordx handles complex dimension at most {CHERN_MAX_DIM}, "
                         f"got {n}")


@functools.cache
def _basis(n: int) -> tuple[tuple[Partition, ...], MappingProxyType]:
    """The partitions of n, largest-first lex order, and the index of each."""
    check_dim(n)
    basis = tuple(partitions(n))
    return basis, MappingProxyType({omega: i for i, omega in enumerate(basis)})


def _coordinate(n: int, omega) -> int:
    """The index of omega in `_basis(n)`; ValueError unless omega has weight n."""
    omega = canonical_partition(omega)
    if sum(omega) != n:
        raise ValueError(f"partition {omega} does not have weight {n}")
    return _basis(n)[1][omega]


class ChernVector:
    """A bordism class of dimension 2n as the map {partitions of n} -> Z.

    It is built from a mapping {omega: c_omega} or from (omega, c_omega)
    pairs; two keys naming one partition, such as (1, 2) and (2, 1), are
    refused.  `values` holds the Chern numbers in `_basis(dim)` order;
    `numbers` is the same map as a read-only dict keyed in that order.
    """

    __slots__ = ("dim", "values")

    def __init__(self, dim: int, numbers=None):
        # _basis refuses dim < 0 and dim > CHERN_MAX_DIM
        values = [0] * len(_basis(strict_int(dim, "a dimension"))[0])
        given = set()
        for omega, value in numbers.items() if isinstance(numbers, Mapping) else numbers or ():
            i = _coordinate(dim, omega)
            if i in given:
                raise ValueError(f"the Chern number of {_basis(dim)[0][i]} is given twice")
            given.add(i)
            values[i] = strict_int(value, "a Chern number")
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "values", tuple(values))

    @classmethod
    def _of_values(cls, dim: int, values) -> "ChernVector":
        """The class of Chern numbers computed inside bordx, in `_basis(dim)` order."""
        vec = object.__new__(cls)
        object.__setattr__(vec, "dim", dim)
        object.__setattr__(vec, "values", tuple(values))
        return vec

    def __setattr__(self, name, value):
        raise AttributeError("ChernVector is immutable")

    @property
    def numbers(self):
        return MappingProxyType(dict(zip(_basis(self.dim)[0], self.values)))

    @classmethod
    def unit(cls, value: int = 1) -> "ChernVector":
        return cls(0, {(): value})

    def number(self, omega) -> int:
        return self.values[_coordinate(self.dim, omega)]

    def is_zero(self) -> bool:
        return not any(self.values)

    # -- additive structure ---------------------------------------------------

    def _check_dim(self, other: "ChernVector") -> None:
        if self.dim != other.dim:
            raise ValueError(f"dimension mismatch: {self.dim} vs {other.dim}")

    def __add__(self, other: "ChernVector") -> "ChernVector":
        self._check_dim(other)
        return ChernVector._of_values(
            self.dim, map(operator.add, self.values, other.values))

    def __sub__(self, other: "ChernVector") -> "ChernVector":
        self._check_dim(other)
        return ChernVector._of_values(
            self.dim, map(operator.sub, self.values, other.values))

    def __neg__(self) -> "ChernVector":
        return ChernVector._of_values(self.dim, map(operator.neg, self.values))

    def scale(self, k: int) -> "ChernVector":
        strict_int(k, "a scale factor")
        return ChernVector._of_values(self.dim, (k * v for v in self.values))

    def __mul__(self, other):
        if isinstance(other, int):
            return self.scale(other)
        if isinstance(other, ChernVector):
            return product(self, other)
        return NotImplemented

    def __rmul__(self, other):
        if isinstance(other, int):
            return self.scale(other)
        return NotImplemented

    def __eq__(self, other):
        return (
            isinstance(other, ChernVector)
            and self.dim == other.dim
            and self.values == other.values
        )

    def __hash__(self):
        return hash((self.dim, self.values))

    def __repr__(self):
        nz = {w: v for w, v in self.numbers.items() if v}
        return f"ChernVector(dim={self.dim}, {nz})"

    def pair(self, poly: GradedPoly) -> int:
        """<poly, [M]> for poly in the formal classes c_1..c_n; terms of degree
        other than 2n pair to zero.  Traced by name in `perfbench/spans.py`."""
        return sum(coeff * self.number(_exp_to_partition(exp))
                   for exp, coeff in poly.terms.items()
                   if poly.term_degree(exp) == 2 * self.dim)


def _exp_to_partition(exp) -> Partition:
    """The partition with exp[i] parts i + 1, largest first."""
    return tuple(i + 1 for i in reversed(range(len(exp))) for _ in range(exp[i]))


def _walk(n: int, start, step, ones, evaluate, zero) -> list:
    """evaluate(start * prod_{i in omega} piece_i) for each partition omega of
    n, in `_basis(n)` order, and `zero` where that product is zero.

    `start` is None when it is zero.  `step(value, part, rest)` returns value
    * piece_part for a part of 2 or more, or None when that product is zero;
    `rest` is what the partition still has to take after `part`.
    `ones(value, r)` closes a tail of r ones in one call: it returns value *
    piece_1^r, or None when that is zero.  Partitions are walked depth-first
    in `_basis(n)` order, so partitions sharing a prefix share its product, a
    zero prefix leaves its whole subtree at `zero`, and only the products on
    the current path are held.
    """
    index = _basis(n)[1]
    leaves = [zero] * len(index)
    prefix: list[int] = []

    def walk(value, remaining: int, largest: int) -> None:
        for part in range(min(largest, remaining), 1, -1):
            child = step(value, part, remaining - part)
            if child is None:
                continue
            prefix.append(part)
            walk(child, remaining - part, part)
            prefix.pop()
        if remaining:  # the prefix and `remaining` ones
            value = ones(value, remaining)
            if value is None:
                return
        leaves[index[(*prefix, *(1,) * remaining)]] = evaluate(value)

    if start is not None:
        walk(start, n, n)
    del walk  # the closure refers to itself: drop the cycle now, not at gc
    return leaves


# ---------------------------------------------------------------------------
# basic classes
# ---------------------------------------------------------------------------

def cp(n: int) -> ChernVector:
    """The class of CP^n: c_omega = prod binomial(n+1, i_j)."""
    n = strict_int(n, "n")
    return ChernVector._of_values(  # _basis refuses n < 0 and n > CHERN_MAX_DIM
        n, (math.prod(math.comb(n + 1, i) for i in w) for w in _basis(n)[0]))


def v4() -> ChernVector:
    """CP^2 with one conjugated summand; equals [CP^1 x CP^1] - [CP^2]."""
    return ChernVector(2, {(1, 1): -1, (2,): 1})


def k_class() -> ChernVector:
    """The generator K = 9 [CP^1]^2 - 8 [CP^2] of W_4 (c_1^2 = 0, c_2 = 12)."""
    return cp(1) * cp(1) * 9 - cp(2) * 8


@functools.cache
def _split_table(na: int, nb: int):
    """The Whitney split table of products of dimensions na and nb, built once.

    By c_k(MxN) = sum_{i+j=k} c_i(M) c_j(N), c_omega[MxN] = sum T^omega_{tau
    sigma} c_tau[M] c_sigma[N], T^omega_{tau sigma} the number of ways to split
    the parts k of omega, one by one, as i + (k - i) so that the nonzero i
    form tau (|tau| = na) and the nonzero k - i form sigma: the coproduct of
    e_omega (Macdonald, *Symmetric Functions*, I.5).  One row per omega of
    `_basis(na + nb)`, of triples (count, index of tau in `_basis(na)`, index
    of sigma in `_basis(nb)`).  A depth-first walk in `_basis` order shares
    each prefix's splits {|tau|: {key: count}}; a key holds the part counts
    of tau, then of sigma, as digits of radix na + nb + 1, so a split is one
    addition.  A tail of r ones gives tau its last t = na - |tau| in C(r, t) ways.
    """
    n = na + nb
    check_dim(n)
    shift = (n + 1) ** na  # every tau code is below it
    unit = [0] + [(n + 1) ** (p - 1) for p in range(1, n + 1)]  # the digit of part p
    tau_index, sigma_index = ({sum(unit[p] for p in w): i for i, w in enumerate(_basis(m)[0])}
                              for m in (na, nb))
    table = []

    def walk(splits: dict, remaining: int, largest: int) -> None:
        for part in range(min(largest, remaining), 1, -1):
            grown: dict = {}
            for ta, keys in splits.items():
                room = remaining - na + ta  # what sigma can still take
                for i in range(max(0, part - room), min(part, na - ta) + 1):
                    step = unit[i] + unit[part - i] * shift
                    bucket = grown.setdefault(ta + i, {})
                    for key, count in keys.items():
                        key += step
                        bucket[key] = bucket.get(key, 0) + count
            walk(grown, remaining - part, part)
        row: dict = {}  # omega = the prefix and `remaining` ones
        for ta, keys in splits.items():
            t = na - ta
            ways, step = math.comb(remaining, t), t + (remaining - t) * shift  # unit[1] = 1
            for key, count in keys.items():
                key += step
                row[key] = row.get(key, 0) + ways * count
        table.append(tuple((count, tau_index[key % shift], sigma_index[key // shift])
                           for key, count in row.items()))

    walk({0: {0: 1}}, n, n)
    del walk  # as in `_walk`
    return tuple(table)


def product(a: ChernVector, b: ChernVector) -> ChernVector:
    """Chern numbers of the product manifold: the split table applied to a and b.

    M x N = N x M, so the larger dimension goes first and one table serves
    both orders.
    """
    if a.dim < b.dim:
        a, b = b, a
    av, bv = a.values, b.values
    return ChernVector._of_values(a.dim + b.dim, [
        sum(count * av[i] * bv[j] for count, i, j in row)
        for row in _split_table(a.dim, b.dim)
    ])


# ---------------------------------------------------------------------------
# genera
# ---------------------------------------------------------------------------

@functools.cache
def _girard_waring_row(n: int) -> tuple[int, ...]:
    """s_n in the Chern basis, one coefficient per partition of `_basis(n)`.

    Girard-Waring: s_n = sum_{lambda |- n} (-1)^(n - l) n (l - 1)! /
    prod_i m_i(lambda)! c_lambda, with l the length of lambda and m_i its
    multiplicities.
    """
    if n == 0:
        return (0,)  # s_0 is taken as 0
    return tuple(
        (-1) ** (n - len(lam)) * n * math.factorial(len(lam) - 1)
        // math.prod(map(math.factorial, Counter(lam).values()))
        for lam in _basis(n)[0]
    )


def s_num(a: ChernVector) -> int:
    """Milnor s-number; additive, vanishing on decomposable classes."""
    return sum(map(operator.mul, _girard_waring_row(a.dim), a.values))


@functools.cache
def _todd_row(n: int) -> tuple[Fraction, ...]:
    """Todd in the Chern basis: K_n of K = exp(sum_k a_k s_k), by Newton's identity.

    sum_k q_k x^k = x / (1 - e^-x) inverts sum_k (-x)^k / (k + 1)!, and its
    logarithm sum_k a_k x^k has k a_k = k q_k - sum_(j<k) j a_j q_(k-j) (x d/dx
    of log Q).  Then n K_n = sum_k k a_k s_k K_(n-k), s_k the Girard-Waring row
    and c_lambda c_kappa = c_(lambda u kappa) (Hirzebruch, *Topological Methods
    in Algebraic Geometry*, 1).
    """
    basis, index = _basis(n)  # refuses n above CHERN_MAX_DIM before any series
    from fractions import Fraction  # on first use, so `import bordx` need not load it

    if n == 0:
        return (Fraction(1),)
    q, ka = [Fraction(1)], [Fraction(0)]  # ka[k] = k a_k
    for k in range(1, n + 1):
        q.append(-sum(q[k - j] * Fraction((-1) ** j, math.factorial(j + 1))
                      for j in range(1, k + 1)))
        ka.append(k * q[k] - sum(ka[j] * q[k - j] for j in range(1, k)))
    row = [Fraction(0)] * len(basis)
    for k in range(1, n + 1):
        if ka[k]:  # a_k = 0 for odd k >= 3
            for kappa, t in zip(_basis(n - k)[0], _todd_row(n - k)):
                if t:
                    w = ka[k] * t / n
                    for lam, g in zip(_basis(k)[0], _girard_waring_row(k)):
                        row[index[tuple(sorted(lam + kappa, reverse=True))]] += g * w
    return tuple(row)


def todd(a: ChernVector) -> Fraction:
    """Todd genus: the Todd row applied to the Chern numbers."""
    from fractions import Fraction

    return sum(map(operator.mul, _todd_row(a.dim), a.values), Fraction(0))


# ---------------------------------------------------------------------------
# the operations d_k, Delta, Psi, chi, pi
# ---------------------------------------------------------------------------

# The operation matrices share one cache of this many.  Measured traffic:
# `test_ops_sized_key_set_evicts_nothing` draws 74 distinct matrices (28 d_k,
# 11 Delta, 26 Psi, 9 pi), and over seeds 1-10 one benchmark pass builds at
# most 56 on `ops`, 22 on `qt_gens`, 19 on `cy_gens` and none on `sweeps`.
MATRIX_CACHE_SIZE = 128


@functools.lru_cache(maxsize=MATRIX_CACHE_SIZE)
def _projective_dual(n: int, k: int = 0, fibre=(), nu=(), eps: int = 0,
                     sign: int = 1) -> tuple:
    """The matrix of M -> N, N the submanifold dual to a bundle nu in a
    projective bundle P over M of dimension n.

    H*(P) = H*(M)[x]/(x^k (x - eps c_1)), c(TP) = c(M) * fibre and
    <x^k c_tau, [P]> = c_tau[M] for M of class a.  `fibre` and `nu` are
    tuples of linear factors (alpha, beta, e), each the total Chern class
    (1 + alpha x + beta c_1)^e; beta is dropped when n = 0, as c_1 is 0 on a
    point.  e(nu) is the product of the linear parts (alpha x + beta c_1)^e,
    its rank is the sum of their e, and c_omega[N] = sign * <e(nu)
    c_omega(TP - nu), [P]>; a rank above n + k is refused with ValueError.

    The series s = fibre * nu^-1 is one integer table S[d][a], the
    coefficient of x^a c_1^(d-a) for d <= m = n + k - rank and a <= k, with
    x^(k+j) folded to (eps c_1)^j x^k as each entry is formed: a factor
    multiplies the table degree by degree from the top down and divides it
    from the bottom up, each in O(m k).  e(nu) is one row of the same kind.

    The walk runs over coded monomials: x^a c_1^e_1 ... c_n^e_n is the int
    with digits a, e_1, ..., e_n in radix R = n + k + 1, x at digit 0 and
    c_i at digit i, so multiplying two monomials is one addition.  No digit
    carries: every walk product has degree at most 2(n + k) and every
    generator degree at least 2, so no exponent exceeds n + k.  The degree-2i
    piece of c(TP - nu) is sum_j c_j S_(i-j), the entry S[i-j][a] at code
    digit(c_j) + a + (i - j - a) R.  Every product is reduced by x^(k+j) =
    (eps c_1)^j x^k, which moves j from digit 0 to digit 1, so the x^k layer
    pairs with a and the lower powers of x pair to zero; a term whose x
    exponent cannot reach k in the parts still to come is dropped.  A tail
    of r ones is one product by piece_1^r and one reduction.  piece_1 is
    linear in x and c_1, and its powers are built once per matrix and kept
    reduced, so each has at most k + 1 terms; the product stays within
    degree 2(n + k), so no digit carries there either.  So a leaf holds the
    x^k layer alone, and one dict takes its codes to the indices of
    `_basis(n)`, giving the row {index of tau: coefficient of c_tau[M]}.
    The matrix is (dimension of N, rows in `_basis` order), each row a pair
    (indices, coefficients).  The cache keys on the arguments as passed.
    """
    if not n:  # c_1 is 0 on a point, so beta adds nothing to the rank
        nu = [(alpha, 0, e) for alpha, _, e in nu]
    rank = sum(e for alpha, beta, e in nu if alpha or beta)
    if rank > n + k:
        raise ValueError(f"nu of rank {rank} exceeds the dimension {n + k} of P")
    m = n + k - rank
    check_dim(m)  # the source n has passed it as a vector
    lift = eps if n else 0

    def raised(row: list, alpha: int, beta: int) -> list:
        """row * (alpha x + beta c_1), one degree up, x^(k+1) folded to eps c_1 x^k."""
        out = [beta * c for c in row]
        for a in range(k):
            out[a + 1] += alpha * row[a]
        out[k] += alpha * lift * row[k]
        return out

    series = [[1] + [0] * k] + [[0] * (k + 1) for _ in range(m)]
    for alpha, beta, e in fibre:  # times (1 + alpha x + beta c_1)^e, from the top
        for _ in range(e):
            for d in range(m, 0, -1):
                series[d] = list(map(operator.add, series[d],
                                     raised(series[d - 1], alpha, beta)))
    euler = [1] + [0] * k  # e(nu)
    for alpha, beta, e in nu:  # divided by (1 + alpha x + beta c_1)^e, from the bottom
        for _ in range(e):
            for d in range(1, m + 1):
                series[d] = list(map(operator.sub, series[d],
                                     raised(series[d - 1], alpha, beta)))
            if alpha or beta:
                euler = raised(euler, alpha, beta)

    radix = n + k + 1
    digit = [0] + [radix ** i for i in range(1, n + 1)]  # the code of c_i, c_0 = 1
    shift = radix - 1  # x^j -> c_1^j: digit 0 down by j, digit 1 up by j

    def reduce(terms: dict, rest: int) -> dict | None:
        """The nonzero terms in normal form whose x exponent can still reach k."""
        out = {}
        for key, coeff in terms.items():
            a = key % radix
            if a > k:
                coeff *= lift ** (a - k)
                key += (a - k) * shift
            elif a + rest < k:
                continue
            if coeff:
                coeff += out.get(key, 0)
                if coeff:
                    out[key] = coeff
                else:
                    del out[key]
        return out or None

    pieces = [None]  # x^a c_1^(d-a) has the code d R - a (R - 1)
    for i in range(1, m + 1):
        piece: dict = {}
        for j in range(min(i, n) + 1):
            base = digit[j] + (i - j) * radix
            for a, coeff in enumerate(series[i - j]):
                if coeff:
                    key = base - a * shift
                    piece[key] = piece.get(key, 0) + coeff
        pieces.append({key: c for key, c in piece.items() if c})

    def times(terms: dict, piece: dict) -> dict:
        out: dict = {}
        get = out.get
        for kb, cb in piece.items():
            for ka, ca in terms.items():
                key = ka + kb
                out[key] = get(key, 0) + ca * cb
        return out

    def step(terms: dict, part: int, rest: int) -> dict | None:
        return reduce(times(terms, pieces[part]), rest)

    tails = [{0: 1}]  # piece_1^r in normal form, x exponents at most k

    def ones(terms: dict, r: int) -> dict | None:
        if not pieces[1]:  # as for d_1, where c_1 + s_2 = 0
            return None
        while len(tails) <= r:
            tails.append(reduce(times(tails[-1], pieces[1]), k) or {})
        return reduce(times(terms, tails[r]), 0)

    index = {k + sum(map(digit.__getitem__, tau)): i
             for i, tau in enumerate(_basis(n)[0])}

    def row(terms: dict) -> tuple:
        return tuple(map(index.__getitem__, terms)), tuple(sign * c for c in terms.values())

    start = reduce({rank * radix - a * shift: c for a, c in enumerate(euler) if c}, m)
    return m, tuple(_walk(m, start, step, ones, row, ((), ())))


def _apply(matrix: tuple, a: ChernVector) -> ChernVector:
    """The class whose Chern numbers are the matrix rows applied to a's."""
    m, rows = matrix
    at = a.values.__getitem__
    return ChernVector._of_values(
        m, [sum(map(operator.mul, coeffs, map(at, idx))) for idx, coeffs in rows])


def boundary_k(a: ChernVector, k: int) -> ChernVector:
    """d_k: the class of the submanifold dual to (det TM)^k, nu = (1+c_1)^k."""
    if strict_int(k, "k") < 1:
        raise ValueError("k must be positive")
    if a.dim < k:  # `_projective_dual` gives c_1 rank 0 on a point, so it would not refuse
        raise ValueError(f"need dim >= {k}, got {a.dim}")
    return _apply(_projective_dual(a.dim, nu=((0, 1, k),)), a)


def boundary(a: ChernVector) -> ChernVector:
    """The boundary operation d, sending [M] to the class dual to c_1(M)."""
    return boundary_k(a, 1)


def delta(a: ChernVector) -> ChernVector:
    """Delta: the class dual to -c_1^2, nu = 1 - c_1^2."""
    if a.dim < 2:
        raise ValueError(f"Delta needs dim >= 2, got {a.dim}")
    return _apply(_projective_dual(a.dim, nu=((0, 1, 1), (0, -1, 1))), a)


def psi_k1k2(a: ChernVector, k1: int, k2: int) -> ChernVector:
    """Psi_(k1,k2): the projectivisation CP(conj det TM + C^(k1+k2)).

    Raises dimension by k = k1+k2; H*(P) = H*(M)[x]/(x^(k+1) = c_1 x^k) with
    fibre share (1+x-c_1)(1+x)^k1 (1-x)^k2 and overall sign (-1)^k2 (the
    conjugated fibre summands flip the orientation; calibrated so that
    Delta Psi = id).
    """
    if strict_int(k1, "k1") < 0 or strict_int(k2, "k2") < 0 or k1 + k2 < 1:
        raise ValueError("need k1, k2 >= 0 with k1 + k2 >= 1")
    return _apply(_projective_dual(a.dim, k1 + k2, fibre=((1, -1, 1), (1, 0, k1), (-1, 0, k2)),
                                   eps=1, sign=-1 if k2 % 2 else 1), a)


def chi(a: ChernVector) -> ChernVector:
    """chi = Psi_(1,0): projectivisation raising dimension by 1."""
    return psi_k1k2(a, 1, 0)


def psi(a: ChernVector) -> ChernVector:
    """Psi = Psi_(1,1): the right inverse of Delta."""
    return psi_k1k2(a, 1, 1)


def stong_pi(a: ChernVector) -> ChernVector:
    """Stong's projection onto W: the submanifold of CP^1 x M dual to
    (hyperplane bundle) tensor det TM, nu = 1 + x + c_1 with x^2 = 0."""
    return _apply(_projective_dual(a.dim, 1, fibre=((1, 0, 2),), nu=((1, 1, 1),)), a)


def rho(a: ChernVector) -> ChernVector:
    """Conner-Floyd projection rho = id - Psi Delta (identity below dimension 2)."""
    if a.dim < 2:
        return a
    return a - psi(delta(a))


# ---------------------------------------------------------------------------
# the group W and its twisted product
# ---------------------------------------------------------------------------

class InconsistencyError(Exception):
    """Two routes to the same exact result disagree: a mathematical inconsistency."""


def in_W(a: ChernVector) -> bool:
    """Membership in W = Ker Delta.

    Checks that every Chern number with a c_1^2 factor vanishes and, when
    Delta is defined, that Delta(a) = 0; the two criteria must agree.
    """
    by_numbers = all(
        not v for w, v in zip(_basis(a.dim)[0], a.values) if w[-2:] == (1, 1))
    if a.dim >= 2:
        by_delta = delta(a).is_zero()
        if by_delta != by_numbers:
            raise InconsistencyError(
                "c_1^2-number criterion and Delta disagree; invalid Chern vector"
            )
    return by_numbers


def in_ker_boundary(a: ChernVector) -> bool:
    """Whether the boundary operation vanishes on the class."""
    if a.dim < 1:
        return True
    return boundary(a).is_zero()


class WMembershipError(ValueError):
    """Operand of the twisted product lies outside W."""


def twisted_mul(a: ChernVector, b: ChernVector) -> ChernVector:
    """The Conner-Floyd twisted product a*b = ab + 2 V^4 da db on W."""
    if not in_W(a):
        raise WMembershipError("left operand is not in W")
    if not in_W(b):
        raise WMembershipError("right operand is not in W")
    result = product(a, b)
    if a.dim >= 1 and b.dim >= 1:
        correction = product(v4(), product(boundary(a), boundary(b))).scale(2)
        result = result + correction
    return result


# ---------------------------------------------------------------------------
# JSON
# ---------------------------------------------------------------------------

def chern_vector_to_json(a: ChernVector) -> dict:
    return {
        "dim": a.dim,
        "numbers": {_partition_key(w): v for w, v in a.numbers.items() if v},
    }


def _partition_key(omega) -> str:
    """omega written as `parse_partition` reads it: "" or "3,1,1"."""
    return ",".join(map(str, omega))


def parse_partition(key: str) -> Partition:
    """The partition written as "" or comma-separated decimal parts, e.g. "3,1,1"."""
    if not isinstance(key, str):
        raise ValueError(f"a partition is written as a string, got {type(key).__name__}")
    parts = key.split(",") if key else []
    if not all(part.isascii() and part.isdigit() for part in parts):
        raise ValueError(f"a partition is written as comma-separated decimal parts, "
                         f"got {key!r}")
    return canonical_partition(tuple(map(int, parts)))
