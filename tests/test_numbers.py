"""Tests for the number-theoretic lemmas and rank tables."""

import itertools
import math

import pytest

from bordx import numbers
from bordx.exactalg import partitions
from bordx.numbers import (
    alpha,
    g,
    m,
    phat,
    prime_power_base,
    rank_table,
    verify_alpha_gcd,
    verify_gcddif,
    verify_nmod,
)

from test_exactalg import partition_count_recurrence


class TestM:
    def test_values(self):
        assert m(1) == 2
        assert m(2) == 3
        assert m(4) == 5
        assert m(5) == 1
        assert m(6) == 7
        assert m(7) == 2  # 8 = 2^3
        assert m(8) == 3  # 9 = 3^2

    def test_one_iff_two_prime_factors(self):
        def distinct_prime_factors(n):
            out = set()
            d = 2
            while d * d <= n:
                while n % d == 0:
                    out.add(d)
                    n //= d
                d += 1
            if n > 1:
                out.add(n)
            return out

        for i in range(1, 200):
            assert (m(i) == 1) == (len(distinct_prime_factors(i + 1)) >= 2)


class TestG:
    def test_values(self):
        assert g(3) == -48
        assert g(4) == 6
        assert g(5) == 20

    def test_parity_shape(self):
        for n in range(4, 30):
            expected = m(n - 1) * m(n - 2) * (2 if n % 2 else 1)
            assert g(n) == expected

    def test_domain(self):
        with pytest.raises(ValueError):
            g(2)


class TestAlphaPhat:
    def test_alpha_values(self):
        assert alpha((1, 1, 1)) == 48
        assert alpha((2, 2)) == 486
        assert alpha((1, 2, 2)) == 4860

    def test_phat3(self):
        assert phat(3) == [(1, 1, 1)]

    def test_phat4(self):
        assert phat(4) == [(2, 2), (2, 1, 1), (1, 1, 1, 1)]

    def test_phat5_members(self):
        members = set(phat(5))
        assert (2, 2, 1) in members
        assert (3, 1, 1) in members
        assert (5,) not in members
        assert (4, 1) not in members

    def test_phat_is_the_partitions_with_parts_at_most_n_minus_2(self):
        for n in range(3, 25):
            assert phat(n) == [w for w in partitions(n) if w[0] <= n - 2]


class TestGcdLemmas:
    def test_alpha_gcd_small(self):
        assert verify_alpha_gcd(3) == (48, True)
        assert verify_alpha_gcd(4) == (6, True)
        gcd5, ok5 = verify_alpha_gcd(5)
        assert (gcd5, ok5) == (20, True)

    def test_alpha_gcd_sweep(self):
        for n in range(3, 17):
            gcd, ok = verify_alpha_gcd(n)
            assert ok, (n, gcd, g(n))

    def test_gcddif_k2(self):
        assert verify_gcddif(2) == (5, True)

    def test_gcddif_k3(self):
        gcd, ok = verify_gcddif(3)
        assert gcd == m(7) * m(6) == 14 and ok

    def test_gcddif_sweep(self):
        for k in range(2, 51):
            gcd, ok = verify_gcddif(k)
            assert ok, (k, gcd)

    def test_nmod_examples(self):
        assert verify_nmod(4, 2) == (2, True)   # 2k = 8 = 2^3
        assert verify_nmod(4, 3) == (3, True)   # 2k+1 = 9 = 3^2
        assert verify_nmod(5, 7) == (1, True)   # 11 is not a 7-power

    def test_nmod_sweep(self):
        primes = [p for p in range(2, 62) if prime_power_base(p) == p]
        for k in range(3, 31):
            for p in primes:
                if p > 2 * k + 1:
                    continue
                power, ok = verify_nmod(k, p)
                assert ok, (k, p, power)

    def test_nmod_rejects_composite(self):
        with pytest.raises(ValueError):
            verify_nmod(5, 6)

    @pytest.mark.parametrize("p", [6, 4, 1, 0, -2])
    def test_nmod_says_p_is_not_prime(self, p):
        with pytest.raises(ValueError, match="is not prime"):
            verify_nmod(5, p)

    @pytest.mark.parametrize("p", [True, 2.0, "2"])
    def test_nmod_rejects_a_non_integer_p(self, p):
        with pytest.raises(ValueError, match="must be an integer"):
            verify_nmod(5, p)


@pytest.mark.parametrize("size", [5.0, True, "5"])
@pytest.mark.parametrize("call", [
    lambda size: verify_nmod(size, 2),
    verify_alpha_gcd,
    verify_gcddif,
    rank_table,
    phat,
], ids=["verify_nmod", "verify_alpha_gcd", "verify_gcddif", "rank_table", "phat"])
def test_size_argument_must_be_an_int(call, size):
    with pytest.raises(ValueError, match="must be an integer"):
        call(size)


@pytest.mark.parametrize("value", [2.5, 4.0, True, "3"])
@pytest.mark.parametrize("call", [
    m,
    g,
    prime_power_base,
    lambda value: numbers.snl_closed_form(value, 3),
    lambda value: numbers.snl_closed_form(3, value),
    lambda value: numbers.snn_closed_form(value, 3),
    lambda value: numbers.snn_closed_form(3, value),
], ids=["m", "g", "prime_power_base", "snl_n1", "snl_n2", "snn_n1", "snn_n2"])
def test_entry_argument_must_be_an_int(call, value):
    # m(True) used to read as m(1) = 2, and 2.5 reached math.isqrt or range
    with pytest.raises(ValueError, match="must be an integer"):
        call(value)


class TestRankTable:
    def test_row_of_dimension_d_is_row_d_over_2(self):
        table = rank_table(17)
        assert type(table) is tuple and all(type(row) is numbers.RankRow for row in table)
        assert [row.dimension for row in table] == list(range(0, 17, 2))

    def test_omega_u(self):
        table = rank_table(16)
        assert table[8 // 2].rank_omega_u == 5  # p(4)

    def test_w4(self):
        assert rank_table(8)[4 // 2].rank_w == 1

    def test_omega_su8(self):
        assert rank_table(8)[8 // 2].rank_omega_su == 2

    def test_su_sequence(self):
        table = rank_table(24)
        got = [table[n].rank_omega_su for n in range(13)]
        # partitions with parts >= 2: 1,0,1,1,2,2,4,4,7,8,12,14,21
        assert got == [1, 0, 1, 1, 2, 2, 4, 4, 7, 8, 12, 14, 21]

    def test_torsion(self):
        table = rank_table(40)
        assert table[10 // 2].tors_rank == 1   # 8*1+2, p(1)
        assert table[18 // 2].tors_rank == 2   # 8*2+2, p(2)
        assert table[26 // 2].tors_rank == 3
        assert table[34 // 2].tors_rank == 5
        assert table[12 // 2].tors_rank == 0

    def test_hw_matches_partition_count(self):
        # rank H_{8k}(W) = rank H_{8k+4}(W) = p(k), the torsion count of
        # Omega^SU in dimensions 8k+1 and 8k+2
        table = rank_table(54)

        def p(n):
            from bordx.exactalg import partitions

            return len(partitions(n))

        for k in range(1, 7):
            assert table[4 * k].hw_rank == p(k), k
            assert table[4 * k + 2].hw_rank == p(k), k

    def test_hw_profile(self):
        table = rank_table(24)
        got = [table[d // 2].hw_rank for d in range(0, 25, 4)]
        # degrees 0,4,8,...: monomials in deg-4 and deg-16, deg-24 generators
        assert got == [1, 1, 1, 1, 2, 2, 3]

    def test_internal_consistency(self):
        table = rank_table(40)
        for row in table:
            assert row.rank_w >= row.rank_omega_su >= 0
            n = row.dimension // 2
            if n >= 2:
                prev = table[row.dimension // 2 - 2].rank_omega_u
                assert row.rank_w == row.rank_omega_u - prev


# ---------------------------------------------------------------------------
# the closed forms and count tables against their direct definitions
# ---------------------------------------------------------------------------

def a_family_by_definition(k, i):
    """a_i = -C(2k,1) + C(2k,2) - ... + C(2k,2i) - 2i, summed term by term."""
    return sum((-1) ** j * math.comb(2 * k, j) for j in range(1, 2 * i + 1)) - 2 * i


def p_adic_power(values, p):
    """Largest power of p dividing every nonzero value."""
    power = None
    for v in values:
        if v:
            q = 1
            while v % (q * p) == 0:
                q *= p
            power = q if power is None else min(power, q)
    return power


class TestClosedFormsAgainstDefinitions:
    def test_a_family(self):
        for k in range(3, 60):
            want = tuple(a_family_by_definition(k, i) for i in range(1, k))
            assert tuple(numbers._n_family(k)) == want, k

    def test_nmod_power(self):
        for k in range(3, 60):
            values = [a_family_by_definition(k, i) for i in range(1, k)]
            for p in range(2, 2 * k + 2):
                if prime_power_base(p) == p:
                    assert verify_nmod(k, p)[0] == p_adic_power(values, p), (k, p)

    def test_gcddif(self):
        for k in range(2, 121):
            n = 2 * k + 1
            want = 0
            for i in range(1, k + 1):
                want = math.gcd(want, math.comb(n, 2 * i) - math.comb(n, 2 * i - 1))
            assert verify_gcddif(k)[0] == want, k

    def test_alpha_gcd(self):
        for n in range(3, 33):  # through the benchmark's --nmax
            want = 0
            for omega in phat(n):
                want = math.gcd(want, alpha(omega))
            assert verify_alpha_gcd(n)[0] == want, n

    def test_rank_table_against_pentagonal_recurrence(self):
        table = rank_table(400)
        assert [r.dimension for r in table] == list(range(0, 401, 2))
        p = [partition_count_recurrence(n) for n in range(201)]
        for row in table:
            dim, n = row.dimension, row.dimension // 2
            assert row.rank_omega_u == p[n], dim
            assert row.rank_w == p[n] - (p[n - 2] if n >= 2 else 0), dim
            assert row.rank_omega_su == p[n] - (p[n - 1] if n >= 1 else 0), dim
            assert row.tors_rank == (p[(dim - 2) // 8] if dim % 8 == 2 else 0), dim

    def test_omega_su_counts_partitions_without_part_one(self):
        table = rank_table(50)
        for n in range(26):
            want = sum(1 for omega in partitions(n) if 1 not in omega)
            assert table[n].rank_omega_su == want, n

    def test_hw_rank_counts_monomials(self):
        # monomials w_2^e0 w_8^e1 w_12^e2 ... of degree dim, with deg w_2 = 4
        # and deg w_4k = 8k for k >= 2
        table = rank_table(64)
        for dim in range(0, 65, 2):
            degrees = [4] + list(range(16, dim + 1, 8))
            want = sum(
                1 for exps in itertools.product(*[range(dim // d + 1) for d in degrees])
                if sum(e * d for e, d in zip(exps, degrees)) == dim
            )
            assert table[dim // 2].hw_rank == want, dim
