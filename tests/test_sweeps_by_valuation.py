"""The lemma sweeps by prime valuations against the routes they replace.

`numbers.verify_alpha_gcd` (a min-plus knapsack per prime), `verify_gcddif`
(half the terms, by the reflection, and a stop at 1) and
`largest_common_prime_power` (a stop at the first p-unit) are compared with
the earlier routes kept in `sweep_reference`, up to the CLI bounds.  Exact
equality only.
"""

import itertools
import math

import pytest

from bordx import numbers
from bordx.numbers import largest_common_prime_power, prime_power_base

import sweep_reference as reference


def primes_up_to(n):
    return [p for p in range(2, n + 1) if prime_power_base(p) == p]


@pytest.mark.parametrize("n", range(3, 41))  # through alphagcd's --nmax bound
def test_alpha_gcd_matches_the_walk(n):
    assert numbers.verify_alpha_gcd(n) == reference.verify_alpha_gcd(n)


def test_gcddif_matches_the_full_range():
    for k in range(2, 1001):  # through gcddif's --kmax bound
        assert numbers.verify_gcddif(k) == reference.verify_gcddif(k), k


def test_nmod_matches_the_full_scan():
    for k in range(3, 121):
        values = tuple(numbers._n_family(k))
        for p in primes_up_to(2 * k + 1):
            want = reference.largest_common_prime_power(values, p)
            assert numbers.verify_nmod(k, p)[0] == want, (k, p)


def test_gcddif_terms_reflect():
    for k in range(2, 201):
        n = 2 * k + 1
        terms = [math.comb(n, 2 * i) - math.comb(n, 2 * i - 1) for i in range(1, k + 1)]
        for i in range(1, k + 1):
            assert terms[k - i] == -terms[i - 1], (k, i)


def test_valuation():
    assert numbers._valuation(1, 2) == 0
    assert numbers._valuation(-48, 2) == 4
    assert numbers._valuation(3 ** 40 * 7, 3) == 40
    assert numbers._valuation(10, 7) == 0


class TestLargestCommonPrimePower:
    @pytest.mark.parametrize("values", [[], [0], [0, 0, 0]])
    def test_all_zeros_raise(self, values):
        with pytest.raises(ValueError, match="all values are zero"):
            largest_common_prime_power(values, 2)

    def test_zeros_are_skipped(self):
        assert largest_common_prime_power([0, 12, 0, 8], 2) == 4

    @pytest.mark.parametrize("values,p", [
        ([3, 0], 2), ([0, 3, 0], 2), ([9, 5], 3), ([-3, 0], 2), ([-8, -9], 2),
    ])
    def test_a_unit_gives_one(self, values, p):
        assert largest_common_prime_power(values, p) == 1

    @pytest.mark.parametrize("p", [1, 0, -2, 4, True, 2.0])
    def test_p_that_is_not_a_prime_is_refused_before_any_value(self, p):
        # p = 1 looped forever, 0 divided by zero, 4 and -2 gave 4 for [4, 8]
        def values():
            raise AssertionError("a value was read")
            yield

        with pytest.raises(ValueError):
            largest_common_prime_power(values(), p)
        with pytest.raises(ValueError):
            largest_common_prime_power([4, 8], p)

    def test_negative_values(self):
        assert largest_common_prime_power([-8, 24, -16], 2) == 8
        assert largest_common_prime_power([-27, -9], 3) == 9

    def test_scan_stops_at_the_first_unit(self):
        def values():
            yield 8
            yield 5  # a 2-unit: nothing after it is read
            raise AssertionError("read past the first unit")

        assert largest_common_prime_power(values(), 2) == 1

    def test_matches_the_full_scan(self):
        pool = [0, 1, -1, 2, -4, 6, 8, 9, -12, 16, 18, 27, 32, 45, -54, 81]
        for values in itertools.combinations(pool, 3):
            for p in (2, 3, 5):
                try:
                    want = reference.largest_common_prime_power(values, p)
                except ValueError:
                    with pytest.raises(ValueError):
                        largest_common_prime_power(values, p)
                    continue
                assert largest_common_prime_power(values, p) == want, (values, p)
