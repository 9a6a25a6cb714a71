"""Number theory for the bordism ring: m_i, g(n), alpha(omega), gcd lemmas,
and the rank tables of the free, torsion and homology pieces.
"""

from __future__ import annotations

import math
from collections import namedtuple

from .exactalg import Partition, canonical_partition, multinomial, partitions, strict_int


def prime_power_base(n: int) -> int | None:
    """p if n = p^k for a prime p and k >= 1, else None (trial division)."""
    if strict_int(n, "n") < 2:
        return None
    for p in range(2, math.isqrt(n) + 1):
        if n % p == 0:
            while n % p == 0:
                n //= p
            return p if n == 1 else None
    return n  # n itself is prime


def m(i: int) -> int:
    """m_i = p when i+1 is a prime power p^k, else 1."""
    if strict_int(i, "i") < 1:
        raise ValueError("i must be positive")
    p = prime_power_base(i + 1)
    return p if p is not None else 1


def g(n: int) -> int:
    """Minimal s-number of an SU generator in dimension 2(n-1)."""
    if strict_int(n, "n") < 3:
        raise ValueError("g(n) is defined for n >= 3")
    if n == 3:
        return -48
    if n % 2:
        return 2 * m(n - 1) * m(n - 2)
    return m(n - 1) * m(n - 2)


def alpha(omega) -> int:
    """alpha(omega) = multinomial(n, omega) * prod (i_j + 1)^(i_j)."""
    omega = canonical_partition(omega)
    if not omega:
        raise ValueError("alpha needs a nonempty partition")
    n = sum(omega)
    value = multinomial(n, omega)
    for i in omega:
        value *= (i + 1) ** i
    return value


def snl_closed_form(n1: int, n2: int) -> int:
    """s-number of Ltilde(n1, n2) in the toric convention: the sum of
    (-1)^j C(n, j) over 0 < j <= n1, with n = n1 + n2."""
    n = strict_int(n1, "n1") + strict_int(n2, "n2")
    return sum((-1) ** j * math.comb(n, j) for j in range(1, n1 + 1))


def snn_closed_form(n1: int, n2: int) -> int:
    """s-number of Ntilde(n1, n2) in the toric convention: twice the sum of
    (-1)^j C(n, j) over 0 < j <= n1, less n1, with n = n1 + n2 + 1."""
    n = strict_int(n1, "n1") + strict_int(n2, "n2") + 1
    return 2 * (sum((-1) ** j * math.comb(n, j) for j in range(1, n1 + 1)) - n1)


def phat(n: int) -> list[Partition]:
    """Partitions of n with all parts <= n-2: all but (n) and (n-1,1), the first two."""
    if strict_int(n, "n") < 3:
        raise ValueError("phat(n) is defined for n >= 3")
    return partitions(n)[2:]


def _valuation(v: int, p: int) -> int:
    """Exponent of the prime p in the nonzero integer v."""
    e = 0
    while v % p == 0:
        v //= p
        e += 1
    return e


def verify_alpha_gcd(n: int) -> tuple[int, bool]:
    """gcd of alpha over phat(n), compared against |g(n)|, one prime at a time.

    alpha(omega) = n! prod (i+1)^i / i! over the parts i of omega, so
    v_p(alpha(omega)) = v_p(n!) + sum c_p(i) with c_p(i) = i v_p(i+1) - v_p(i!),
    and the gcd is the product of p^(v_p(n!) + min sum c_p(i)).  The minimum
    over phat(n) is an unbounded min-plus knapsack over the parts 1..n-2 with
    exact total n.  Only primes p <= n occur, as alpha(1^n) = n! 2^n.
    """
    if strict_int(n, "n") < 3:
        raise ValueError("n must be >= 3")
    acc = 1
    for p in range(2, n + 1):
        if prime_power_base(p) != p:
            continue
        cost = [0]  # cost[i] = c_p(i)
        fact = 0  # v_p(i!), and v_p(n!) after the loop
        for i in range(1, n + 1):
            fact += _valuation(i, p)
            cost.append(i * _valuation(i + 1, p) - fact)
        least = [0] * (n + 1)  # least[t]: the minimum over partitions of t
        for t in range(1, n + 1):
            least[t] = min(least[t - i] + cost[i] for i in range(1, min(t, n - 2) + 1))
        acc *= p ** (fact + least[n])
    return acc, acc == abs(g(n))


def verify_gcddif(k: int) -> tuple[int, bool]:
    """gcd{ T_i : 0 < i <= k } against m_{2k+1} m_{2k}, T_i = C(n, 2i) - C(n, 2i-1).

    With n = 2k+1, C(n, j) = C(n, n - j) reflects the terms, T_(k+1-i) = -T_i,
    so the gcd runs over i <= ceil(k/2) only, and it stops once it reaches 1.
    The binomials are stepped: C(n, j+1) = C(n, j) (n - j) / (j + 1).
    """
    if strict_int(k, "k") <= 1:
        raise ValueError("k must be > 1")
    n = 2 * k + 1
    acc = 0
    odd = n  # C(n, 2i - 1)
    for j in range(1, k + 1, 2):  # j = 2i - 1 for i <= ceil(k/2)
        even = odd * (n - j) // (j + 1)
        acc = math.gcd(acc, even - odd)
        if acc == 1:
            break
        odd = even * (n - j - 1) // (j + 2)
    return acc, acc == m(2 * k + 1) * m(2 * k)


def _n_family(k: int):
    """Yield a_i = -C(2k,1) + C(2k,2) - ... + C(2k,2i) - 2i for 0 < i < k.

    The alternating sum telescopes (Graham-Knuth-Patashnik, Concrete
    Mathematics, (5.16)), so a_i = C(2k-1, 2i) - 1 - 2i; the binomials are
    stepped two places at a time, and only as far as the caller reads.
    """
    n = 2 * k - 1
    c = 1  # C(n, 2i)
    for i in range(1, k):
        c = c * (n - 2 * i + 2) * (n - 2 * i + 1) // ((2 * i - 1) * (2 * i))
        yield c - 1 - 2 * i


def largest_common_prime_power(values, p: int) -> int:
    """Largest power of the prime p dividing every value (1 if some value is a p-unit).

    p is checked before any value is read.  Zeros, which every power divides,
    are skipped; the scan stops at the first p-unit, since no later value can
    lower its power 1.
    """
    if prime_power_base(strict_int(p, "p")) != p:
        raise ValueError(f"{p} is not prime")
    least = None
    for v in values:
        if v:
            e = _valuation(v, p)
            if e == 0:
                return 1
            least = e if least is None else min(least, e)
    if least is None:
        raise ValueError("all values are zero")
    return p ** least


def verify_nmod(k: int, p: int) -> tuple[int, bool]:
    """Largest power of the prime p dividing every a_i, 0 < i < k.

    The expected answer is p exactly when 2k = 2^s (for p = 2) or
    2k + 1 = p^s (for odd p), and 1 otherwise.
    """
    if strict_int(k, "k") <= 2:
        raise ValueError("k must be > 2")
    power = largest_common_prime_power(_n_family(k), p)
    if p == 2:
        expected = 2 if prime_power_base(2 * k) == 2 else 1
    else:
        expected = p if prime_power_base(2 * k + 1) == p else 1
    return power, power == expected


# ---------------------------------------------------------------------------
# rank tables
# ---------------------------------------------------------------------------

def _count_table(top: int, parts) -> list[int]:
    """table[t] = number of ways to write t <= top as a sum of the given parts,
    one part size at a time (the part-by-part recurrence)."""
    table = [1] + [0] * top
    for part in parts:
        for t in range(part, top + 1):
            table[t] += table[t - part]
    return table


RankRow = namedtuple(
    "RankRow", "dimension rank_omega_u rank_w rank_omega_su tors_rank hw_rank")


class RankTable(namedtuple("RankTable", "rows")):
    """The RankRow of every even dimension, in increasing order."""

    __slots__ = ()

    def to_json(self) -> list[dict]:
        return [r._asdict() for r in self.rows]


def rank_table(max_dim: int) -> RankTable:
    """Ranks per even dimension 2n <= max_dim.

    rank Omega^U_{2n} = p(n); rank W_{2n} = p(n) - p(n-2); rank of the free
    part of Omega^SU_{2n} = p(n) - p(n-1), the partitions with no part 1; the
    Z_2-torsion rank is p(k) in dimensions 8k+2 (and 8k+1, outside this even
    table); hw_rank is the rank of H(W, d) in that dimension.  All columns
    come from two count tables built once per call.
    """
    if strict_int(max_dim, "max_dim") < 0:
        raise ValueError("max_dim must be nonnegative")
    top = max_dim // 2
    p = _count_table(top, range(1, top + 1))
    # H(W, d): monomials in w_2 (degree 4) and w_4k, k >= 2 (degree 8k)
    hw = _count_table(max_dim, [4] + list(range(16, max_dim + 1, 8)))
    rows = []
    for dim in range(0, max_dim + 1, 2):
        n = dim // 2
        rows.append(
            RankRow(
                dimension=dim,
                rank_omega_u=p[n],
                rank_w=p[n] - (p[n - 2] if n >= 2 else 0),
                rank_omega_su=p[n] - (p[n - 1] if n >= 1 else 0),
                tors_rank=p[(dim - 2) // 8] if dim % 8 == 2 else 0,
                hw_rank=hw[dim],
            )
        )
    return RankTable(tuple(rows))
