"""The earlier operation-matrix route, kept as the reference the tests compare against.

`projective_dual` is the `_projective_dual` of bordx before it walked
radix-coded monomials: it forms the total Chern class in a free GradedPoly
ring on x, c_1, ..., c_n, reduces every walk product by
x^(k+j) = (eps c_1)^j x^k, and reads the x^k layer of each leaf.  `_walk` and
`_exp_to_partition` are the GradedPoly walker and the exponent reader it
used.  Nothing in bordx uses this module; ``bordx.bordclass._projective_dual``
replaces it.
"""

from __future__ import annotations

from bordx.bordclass import _basis
from bordx.exactalg import GradedPoly, Partition
from series_reference import graded_part, inverse_one_plus


def _exp_to_partition(exp) -> Partition:
    """The partition with exp[i] parts i + 1, largest first."""
    return tuple(i + 1 for i in reversed(range(len(exp))) for _ in range(exp[i]))


def _walk(n: int, total: GradedPoly, evaluate, start=None, reduce=None) -> dict:
    """{omega: evaluate(start * prod_{i in omega} total_{2i})} over the partitions
    omega of n whose product is nonzero.

    total_{2i} is the graded part of degree 2i of `total`; `start` defaults to
    1.  Partitions are walked depth-first in `_basis(n)` order, so
    partitions sharing a prefix share its product, a zero prefix leaves its
    whole subtree out, and only the products on the current path are held.
    Each product is homogeneous of degree deg(start) + 2|prefix|, so no
    degree cap is needed.  `reduce`, if given, is applied after every
    multiplication (a relation the formal ring does not encode).
    """
    if start is None:
        start = GradedPoly.constant(total.degrees, 1)
    pieces = [None] + [graded_part(total, 2 * i) for i in range(1, n + 1)]
    leaves = {}
    prefix: list[int] = []

    def walk(poly: GradedPoly, remaining: int, largest: int) -> None:
        if remaining == 0:
            leaves[tuple(prefix)] = evaluate(poly)
            return
        for part in range(min(largest, remaining), 0, -1):
            child = poly.mul(pieces[part])
            if reduce is not None:
                child = reduce(child)
            if child.is_zero():
                continue
            prefix.append(part)
            walk(child, remaining - part, part)
            prefix.pop()

    walk(start, n, n)
    return leaves


def projective_dual(n: int, k: int = 0, fibre=lambda x, c1: 1,
                     nu=lambda x, c1: 1, eps: int = 0, sign: int = 1) -> tuple:
    """The matrix of M -> N, N the submanifold dual to a bundle nu in a
    projective bundle P over M of dimension n.

    H*(P) = H*(M)[x]/(x^k (x - eps c_1)), c(TP) = c(M) * fibre and
    <x^k c_tau, [P]> = c_tau[M] for M of class a.  `fibre` and `nu` map the
    formal classes x and c_1 to total Chern classes; e(nu) is the top graded
    part of nu, its rank is half its degree, and
    c_omega[N] = sign * <e(nu) c_omega(TP - nu), [P]>.  At every k, k = 0
    included, e(nu), the total class and every product are reduced by
    x^(k+j) = (eps c_1)^j x^k, so the x^k layer pairs with a and the lower
    powers of x pair to zero.  The walk emits, for each omega, the
    row {index of tau in `_basis(n)`: coefficient of c_tau[M]}; the matrix
    is (dimension of N, rows in `_basis` order), each row a pair (indices,
    coefficients).
    """
    degrees = (2,) + tuple(2 * i for i in range(1, n + 1))  # generator 0 is x
    zero = GradedPoly.zero(degrees)
    x = GradedPoly.generator(degrees, 0)
    c1 = GradedPoly.generator(degrees, 1) if n else zero
    chern = 1 + GradedPoly(degrees, {  # c(M) = 1 + c_1 + ... + c_n
        (0,) * i + (1,) + (0,) * (n - i): 1 for i in range(1, n + 1)})
    lift = eps if n else 0  # eps c_1 is 0 when M is a point
    index = _basis(n)[1]
    slots: dict = {}  # exponent tuple -> index of its partition, once per build

    def reduce(poly: GradedPoly) -> GradedPoly:
        out = {}
        for exp, coeff in poly.terms.items():
            j = exp[0] - k
            if j > 0:
                coeff *= lift ** j
                if not coeff:
                    continue
                exp = (k, exp[1] + j) + exp[2:]
            coeff += out.get(exp, 0)
            if coeff:
                out[exp] = coeff
            else:
                del out[exp]
        return GradedPoly._trusted(degrees, out)

    def row(poly: GradedPoly) -> tuple:
        idx, coeffs = [], []
        for exp, coeff in poly.terms.items():
            if exp[0] == k:
                slot = slots.get(exp)
                if slot is None:
                    slot = slots[exp] = index[_exp_to_partition(exp[1:])]
                idx.append(slot)
                coeffs.append(sign * coeff)
        return tuple(idx), tuple(coeffs)

    nu = zero + nu(x, c1)  # `zero +` lifts a constant into the ring
    rank = nu.degree() // 2
    m = n + k - rank
    cap = 2 * m
    total = chern.mul(zero + fibre(x, c1), cap).mul(inverse_one_plus(nu - 1, cap), cap)
    rows = _walk(m, reduce(total), row, start=reduce(graded_part(nu, 2 * rank)),
                 reduce=reduce)
    return m, tuple(rows.get(omega, ((), ())) for omega in _basis(m)[0])
