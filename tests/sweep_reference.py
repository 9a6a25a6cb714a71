"""The earlier lemma-sweep routes, kept as the reference the tests compare against.

`verify_alpha_gcd` walks every member of phat(n) depth first, `verify_gcddif`
steps through all k binomial differences, and `largest_common_prime_power`
scans every value.  Nothing in bordx uses this module; the prime-by-prime
routes in ``bordx.numbers`` replace it.
"""

from __future__ import annotations

import math

from bordx.numbers import g, m


def verify_alpha_gcd(n: int) -> tuple[int, bool]:
    """gcd of alpha over phat(n), compared against |g(n)|.

    alpha(omega) = n! prod (i+1)^i / i! over the parts i of omega, carried
    as an integer partial quotient down a depth-first walk over the parts
    2..n-2.  A part 1 contributes 2^1 / 1! = 2, so a prefix with r left is
    the one member of phat(n) that r ones complete, of alpha value << r.
    """
    if n < 3:
        raise ValueError("n must be >= 3")
    powers = [(i + 1) ** i for i in range(n - 1)]
    factorials = [math.factorial(i) for i in range(n - 1)]
    acc = 0

    def walk(value: int, remaining: int, largest: int) -> None:
        nonlocal acc
        acc = math.gcd(acc, value << remaining)
        for i in range(min(largest, remaining), 1, -1):
            walk(value // factorials[i] * powers[i], remaining - i, i)

    walk(math.factorial(n), n, n - 2)
    del walk  # the closure refers to itself: drop the cycle now, not at gc
    return acc, acc == abs(g(n))


def verify_gcddif(k: int) -> tuple[int, bool]:
    """gcd{ C(2k+1, 2i) - C(2k+1, 2i-1) : 0 < i <= k } against m_{2k+1} m_{2k}.

    The binomials are stepped: C(n, j+1) = C(n, j) (n - j) / (j + 1).
    """
    if k <= 1:
        raise ValueError("k must be > 1")
    n = 2 * k + 1
    acc = 0
    odd = n  # C(n, 2i - 1)
    for j in range(1, n - 1, 2):
        even = odd * (n - j) // (j + 1)
        acc = math.gcd(acc, even - odd)
        odd = even * (n - j - 1) // (j + 2)
    return acc, acc == m(2 * k + 1) * m(2 * k)


def largest_common_prime_power(values, p: int) -> int:
    """Largest power of p dividing every value (1 if some value is a p-unit)."""
    best = None
    for v in values:
        if v == 0:
            continue
        power = 1
        while v % p == 0:
            power *= p
            v //= p
        best = power if best is None else min(best, power)
    if best is None:
        raise ValueError("all values are zero")
    return best
