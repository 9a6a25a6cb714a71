"""The e -> m transition, and the s-numbers and Todd row read off it.

The table counts 0-1 matrices with given row and column sums and inverts
the unitriangular count matrix by one forward substitution.  `s_omega`
applies one row of it, and `_todd_row` is the Todd row as it was first
built, sum_lambda q_lambda m_lambda over the whole table.  Nothing in bordx
uses this module; ``bordx.bordclass._todd_row`` builds the same Todd row
from the power sums by Newton's identity, with no e -> m table.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from collections import Counter
from fractions import Fraction

from bordx.bordclass import ChernVector, _basis, _coordinate
from bordx.exactalg import Partition


def _conjugate(lam: Partition) -> Partition:
    """The conjugate partition: its i-th part counts the parts of lam above i."""
    return tuple(sum(1 for part in lam if part > i) for i in range(lam[0] if lam else 0))


@functools.cache
def _monomial_table(n: int) -> tuple[tuple[int, ...], ...]:
    """m_omega in the Chern basis (e_lambda pairs to c_lambda), one row per omega.

    e_lambda = sum_mu M_(lambda, mu) m_mu, M_(lambda, mu) the number of 0-1
    matrices with row sums lambda and column sums mu (Macdonald, *Symmetric
    Functions*, I.6): zero unless lambda' dominates mu, and 1 at mu =
    lambda'.  So N_(lambda, nu) = M_(lambda, nu') is lower unitriangular in
    `_basis` order, and one forward substitution solves e = N f for
    f_lambda = m_lambda'.
    """
    basis, index = _basis(n)

    @functools.cache
    def count(rows: Partition, cols: Partition) -> int:
        """M_(rows, cols): the first row puts a 1 in j of the k columns of each
        sum v, in C(k, j) ways."""
        if not rows:
            return 1
        groups = Counter(cols)
        total = 0
        for picks in itertools.product(*(range(k + 1) for k in groups.values())):
            if sum(picks) == rows[0]:
                rest = []
                for (v, k), j in zip(groups.items(), picks):
                    rest += [v - 1] * j + [v] * (k - j)
                total += math.prod(map(math.comb, groups.values(), picks)) * count(
                    rows[1:], tuple(sorted(filter(None, rest), reverse=True)))
        return total

    f = []
    for i, lam in enumerate(basis):
        row = [0] * len(basis)
        row[i] = 1
        for j in range(i):
            c = count(lam, _conjugate(basis[j]))
            if c:
                row = [x - c * y for x, y in zip(row, f[j])]
        f.append(row)
    return tuple(tuple(f[index[_conjugate(omega)]]) for omega in basis)



def s_omega(a: ChernVector, omega) -> int:
    """Characteristic number of the monomial symmetric function m_omega."""
    row = _monomial_table(a.dim)[_coordinate(a.dim, omega)]
    return sum(map(operator.mul, row, a.values))


@functools.cache
def _todd_row(n: int) -> tuple[Fraction, ...]:
    """Todd in the Chern basis: sum_lambda prod_i q_(lambda_i) m_lambda, where
    sum_k q_k x^k = x / (1 - e^-x) inverts sum_k (-x)^k / (k + 1)!."""
    q = [Fraction(1)]
    for k in range(1, n + 1):
        q.append(-sum(q[k - j] * Fraction((-1) ** j, math.factorial(j + 1))
                      for j in range(1, k + 1)))
    terms = [(math.prod(q[i] for i in lam), row)
             for lam, row in zip(_basis(n)[0], _monomial_table(n))]
    return tuple(sum(w * row[i] for w, row in terms if w) for i in range(len(terms)))
