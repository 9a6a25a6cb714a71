"""Tests for partitions, gcd combinations, graded polynomials and lattice algebra."""

import math
import random
import time

import pytest

from bordx import exactalg
from bordx.exactalg import (
    GradedPoly,
    IntMatrix,
    ext_gcd,
    ext_gcd_combo,
    hermite_form,
    in_row_lattice,
    multinomial,
    partitions,
)
from bordx.genfactory import cp_product_class
from lattice_reference import (
    bareiss_abs_det,
    dense_matrix,
    in_row_span,
    lattice_rank_kernel,
    reference_hnf,
    saturation_kernel_basis,
)
from series_reference import geometric_series, graded_part, inverse_one_plus


def partition_count_recurrence(n):
    """Independent oracle: Euler's pentagonal-number recurrence for p(n)."""
    p = [1] + [0] * n
    for m in range(1, n + 1):
        total = 0
        k = 1
        while True:
            g1 = k * (3 * k - 1) // 2
            g2 = k * (3 * k + 1) // 2
            if g1 > m and g2 > m:
                break
            sign = -1 if k % 2 == 0 else 1
            if g1 <= m:
                total += sign * p[m - g1]
            if g2 <= m:
                total += sign * p[m - g2]
            k += 1
        p[m] = total
    return p[n]


class TestPartitions:
    def test_zero(self):
        assert partitions(0) == [()]

    def test_four(self):
        assert len(partitions(4)) == 5

    def test_descending_order(self):
        assert partitions(4) == [(4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1)]

    def test_counts_match_recurrence(self):
        # the big invariant sweep: enumeration count equals p(n) up to n = 60
        for n in range(61):
            assert len(partitions(n)) == partition_count_recurrence(n)

    def test_parts_sorted(self):
        for omega in partitions(9):
            assert list(omega) == sorted(omega, reverse=True)
            assert all(p >= 1 for p in omega)

    def test_negative(self):
        with pytest.raises(ValueError):
            partitions(-1)

    def test_matches_recursive_enumeration(self):
        # independent route: the plain recursion, largest part first
        def recursive(n, cap):
            if n == 0:
                return [()]
            return [(part,) + rest for part in range(min(cap, n), 0, -1)
                    for rest in recursive(n - part, part)]

        for n in range(21):
            assert partitions(n) == recursive(n, n)


class TestMultinomial:
    def test_examples(self):
        assert multinomial(3, (1, 1, 1)) == 6
        assert multinomial(5, (1, 2, 2)) == 30
        assert multinomial(4, (4,)) == 1

    def test_weight_mismatch(self):
        with pytest.raises(ValueError):
            multinomial(4, (1, 1, 1))


class TestExtGcdCombo:
    def test_examples(self):
        assert ext_gcd_combo([5, -5]) == (5, [1, 0])
        g, coeffs = ext_gcd_combo([486, 432, 384])
        assert g == 6
        assert sum(c * v for c, v in zip(coeffs, [486, 432, 384])) == 6
        assert ext_gcd_combo([7]) == (7, [1])
        # leading zeros and a negative first value take the general step
        assert ext_gcd_combo([0, -6, 4]) == (2, [0, -1, -1])
        assert ext_gcd_combo([-9, 6]) == (3, [-1, -1])
        assert ext_gcd_combo([0, 0, -5]) == (5, [0, 0, -1])

    def test_all_zero(self):
        with pytest.raises(ValueError):
            ext_gcd_combo([0, 0])

    def test_bezout_random(self):
        rng = random.Random(7)
        for _ in range(200):
            values = [rng.randint(-10**6, 10**6) for _ in range(rng.randint(1, 6))]
            if all(v == 0 for v in values):
                continue
            g, coeffs = ext_gcd_combo(values)
            assert g > 0
            assert sum(c * v for c, v in zip(coeffs, values)) == g
            assert all(v % g == 0 for v in values)


def _random_poly(rng, degrees, max_exp=3, nterms=4):
    terms = {}
    for _ in range(nterms):
        exp = tuple(rng.randint(0, max_exp) for _ in degrees)
        terms[exp] = rng.randint(-5, 5)
    return GradedPoly(degrees, terms)


class TestGradedPoly:
    def test_difference_of_squares(self):
        deg = (2,)
        u = GradedPoly.generator(deg, 0)
        one = GradedPoly.constant(deg, 1)
        assert (one + u) * (one - u) == one - u * u

    def test_binomial_capped(self):
        deg = (2,)
        u = GradedPoly.generator(deg, 0)
        one = GradedPoly.constant(deg, 1)
        got = (one + u).pow(4, cap=4)
        assert got == one + u.scale(4) + (u * u).scale(6)

    def test_times_zero(self):
        deg = (2, 4)
        p = GradedPoly(deg, {(1, 1): 3})
        assert p.mul(GradedPoly.zero(deg)).is_zero()

    def test_no_zero_coefficients_stored(self):
        deg = (2,)
        u = GradedPoly.generator(deg, 0)
        assert not (u - u).terms

    def test_incompatible_generators(self):
        with pytest.raises(ValueError):
            GradedPoly.generator((2,), 0) * GradedPoly.generator((2, 2), 0)

    def test_term_degrees_even(self):
        deg = (2, 4)
        p = GradedPoly(deg, {(1, 2): 1})
        assert p.degree() == 10

    def test_associative_commutative_capped(self):
        rng = random.Random(11)
        deg = (2, 2, 4)
        for _ in range(40):
            a = _random_poly(rng, deg)
            b = _random_poly(rng, deg)
            c = _random_poly(rng, deg)
            cap = rng.choice([4, 8, 12, 20])
            assert a.mul(b, cap) == b.mul(a, cap)
            left = a.mul(b, cap).mul(c, cap)
            right = a.mul(b.mul(c, cap), cap)
            assert left == right

    def test_graded_part(self):
        deg = (2,)
        u = GradedPoly.generator(deg, 0)
        one = GradedPoly.constant(deg, 1)
        p = (one + u).pow(3)
        assert graded_part(p, 4) == (u * u).scale(3)

    def test_mul_input_domain(self):
        # exponents and caps are arbitrary-precision ints, past any machine word
        deg = (2, 4)
        a = GradedPoly(deg, {(2**63, 0): 3, (0, 1): -1})
        b = GradedPoly(deg, {(1, 2**63): 5, (0, 0): 1})
        assert a.mul(b).terms == {
            (2**63 + 1, 2**63): 15, (2**63, 0): 3, (1, 2**63 + 1): -5, (0, 1): -1,
        }
        c = GradedPoly((2,), {(2**69,): 1, (1,): 2, (0,): 1})
        # x^(2^69) has degree exactly 2^70 and stays; its products with x and
        # with itself are above the cap and go
        assert c.mul(c, 2**70).terms == {(2**69,): 2, (2,): 4, (1,): 4, (0,): 1}
        # a cap is an int: a bool or a float is refused, as `pow` refuses it
        x = GradedPoly((2,), {(0,): 1, (1,): 1})
        for cap in (True, 2.5):
            with pytest.raises(ValueError) as refused:
                x.mul(x, cap)
            assert str(refused.value) == f"a degree cap must be an integer, got {cap!r}"


    @pytest.mark.parametrize("degrees,terms", [
        ((2,), {(1.7,): 2}),
        ((2,), {(1,): 2.9}),
        ((2,), {(1.7,): 2.9}),
        ((2.0,), {(1,): 1}),
        ((2,), {(1.0,): 1}),
        ((2,), {(1,): 1.0}),
        ((2,), {(True,): 1}),
        ((2,), {(1,): True}),
        ((True,), {}),
        (("2",), {}),
        ((2,), {("1",): 1}),
        ((2,), {(1,): "1"}),
        ((2, 2), {"ab": 1}),
        ((2,), {(1,): 0.0}),
    ])
    def test_public_constructor_refuses_non_integers(self, degrees, terms):
        with pytest.raises(ValueError):
            GradedPoly(degrees, terms)

    @pytest.mark.parametrize("factor", [1.5, 2.0, True, "2"])
    def test_scale_refuses_non_integers(self, factor):
        with pytest.raises(ValueError):
            GradedPoly.generator((2,), 0).scale(factor)

    def test_internal_results_are_clean(self):
        # the trusted constructor behind arithmetic stores no zero terms and
        # the same exponent tuples the checked constructor would
        rng = random.Random(5)
        deg = (2, 4)
        for _ in range(30):
            a, b = _random_poly(rng, deg), _random_poly(rng, deg)
            for x in (a + b, a - b, -a, a.scale(3), a.scale(0), a * b):
                assert x == GradedPoly(deg, x.terms)
                assert all(x.terms.values())
                assert all(type(e) is tuple and len(e) == 2 for e in x.terms)


def _reference_mul(a, b, cap):
    """Every pair, then the terms above the cap dropped, then the zeros."""
    pairs = {}
    for ea, ca in a.terms.items():
        for eb, cb in b.terms.items():
            key = tuple(x + y for x, y in zip(ea, eb))
            pairs[key] = pairs.get(key, 0) + ca * cb
    if cap is not None and cap >= 0:
        pairs = {e: c for e, c in pairs.items()
                 if sum(x * d for x, d in zip(e, a.degrees)) <= cap}
    return {e: c for e, c in pairs.items() if c}


class TestKernelAgainstReference:
    """`mul` and `pow` against the product kept above, on seeded random input."""

    DEGREES = (2, 4, 6)

    def _operands(self, rng):
        # unequal sizes, small exponents and unit coefficients, so that
        # products collide and cancel
        a = _random_poly(rng, self.DEGREES, max_exp=2, nterms=rng.randint(0, 9))
        b = GradedPoly(self.DEGREES, {
            tuple(rng.randint(0, 2) for _ in self.DEGREES): rng.choice((-1, 1))
            for _ in range(rng.randint(1, 4))})
        return a, b

    def _caps(self, a, b):
        degrees = {sum(x * d for x, d in zip(e, self.DEGREES))
                   for e in _reference_mul(a, b, None)}
        # None and -1 mean no cap; then 0, every term degree and the odd
        # values between term degrees
        return [None, -1, 0] + sorted(degrees | {d + 1 for d in degrees})

    def test_mul_matches_reference(self):
        rng = random.Random(23)
        cancelled = 0
        for _ in range(150):
            a, b = self._operands(rng)
            keys = {tuple(x + y for x, y in zip(ea, eb)) for ea in a.terms for eb in b.terms}
            cancelled += len(keys) - len(_reference_mul(a, b, None))
            for cap in self._caps(a, b):
                want = _reference_mul(a, b, cap)
                assert a.mul(b, cap).terms == want, (a, b, cap)
                assert b.mul(a, cap).terms == want, (b, a, cap)
        assert cancelled  # the sweep did reach terms that cancel

    POW_CAPS = (None, -1, 0, 4, 7, 12)

    # (terms of a sparse base, its most `mul` calls for the k-th power)
    SPARSE_BASES = [
        ({(1, 0, 2): -3}, lambda k: 0),  # a monomial
        ({(0, 0, 0): 2}, lambda k: 0),  # constants and zero
        ({(0, 0, 0): -1}, lambda k: 0),
        ({}, lambda k: 0),
        ({(1, 0, 0): 1, (0, 1, 0): -1}, lambda k: 0),  # binomials, in closed form
        ({(0, 0, 0): 1, (0, 0, 1): 2}, lambda k: 0),
        ({(2, 0, 0): 1, (0, 1, 0): 1}, lambda k: 0),  # both terms of one degree
        ({(1, 1, 0): -2, (0, 0, 0): 3}, lambda k: 0),
    ]

    def _bases(self, rng):
        yield from (self._operands(rng)[0] for _ in range(40))
        yield from (GradedPoly(self.DEGREES, terms) for terms, _ in self.SPARSE_BASES)
        # the largest term, of degree 18, lies above every cap but None
        yield GradedPoly(self.DEGREES, {(0, 0, 3): 1, (1, 0, 0): 2, (0, 0, 0): 1})

    def test_pow_matches_repeated_reference(self):
        rng = random.Random(29)
        for base in self._bases(rng):
            for cap in self.POW_CAPS:
                want = {(0, 0, 0): 1}
                for k in range(13):
                    assert base.pow(k, cap).terms == want, (base, k, cap)
                    want = _reference_mul(GradedPoly(self.DEGREES, want), base, cap)

    @pytest.mark.parametrize("terms,most", SPARSE_BASES)
    def test_pow_of_a_sparse_base_multiplies_little(self, monkeypatch, terms, most):
        base = GradedPoly(self.DEGREES, terms)
        calls = []
        real = GradedPoly.mul
        monkeypatch.setattr(GradedPoly, "mul",
                            lambda a, b, cap=None: calls.append(1) or real(a, b, cap))
        for cap in self.POW_CAPS:
            for k in range(13):
                calls.clear()
                base.pow(k, cap)
                assert len(calls) <= most(k), (base, k, cap)

    def test_first_power_is_the_capped_base_without_a_multiply(self, monkeypatch):
        bases = list(self._bases(random.Random(29)))

        def refuse(*args, **kwargs):
            raise AssertionError("a multiply ran")

        monkeypatch.setattr(GradedPoly, "mul", refuse)
        for base in bases:
            for cap in self.POW_CAPS:
                want = {e: c for e, c in base.terms.items()
                        if cap is None or cap < 0
                        or sum(x * d for x, d in zip(e, self.DEGREES)) <= cap}
                assert base.pow(1, cap).terms == want, (base, cap)

    @pytest.mark.parametrize("k,cap", [(True, None), (2.0, None), ("2", None),
                                       (2, 2.5), (2, True), (2, "4")])
    def test_pow_refuses_a_power_or_cap_that_is_no_int(self, k, cap):
        with pytest.raises(ValueError, match="must be an integer"):
            GradedPoly.generator(self.DEGREES, 0).pow(k, cap)


class TestPowerAtScale:
    """`pow` at exponent 256, with coefficients of hundreds of bits."""

    def test_binomial_coefficients_pass_2_to_the_250(self):
        p = (1 + GradedPoly.generator((2,), 0)).pow(256)
        assert len(p.terms) == 257
        assert p.terms.get((128,), 0) == math.comb(256, 128) > 2 ** 250

    def test_trinomial_is_multinomial_within_two_seconds(self):
        u, v = (GradedPoly.generator((2, 2), i) for i in range(2))
        start = time.perf_counter()
        p = (1 + u + v).pow(256)
        assert time.perf_counter() - start < 2.0
        f = math.factorial
        for a, b in [(0, 0), (1, 0), (0, 256), (128, 0), (85, 85), (100, 56), (3, 250)]:
            assert p.terms.get((a, b), 0) == f(256) // (f(a) * f(b) * f(256 - a - b)), (a, b)


class TestSeriesCap:
    @pytest.mark.parametrize("series", [geometric_series, inverse_one_plus])
    @pytest.mark.parametrize("cap", [-1, None, -8, 2.0, True, "4"])
    def test_refuses_missing_cap_before_any_multiply(self, monkeypatch, series, cap):
        def refuse(*args, **kwargs):
            raise AssertionError("a multiply ran")

        # with `mul` patched to fail, no unbounded loop can run
        monkeypatch.setattr(GradedPoly, "mul", refuse)
        with pytest.raises(ValueError):
            series(GradedPoly.generator((2,), 0), cap)

    def test_bounded_caps(self):
        u = GradedPoly.generator((2,), 0)
        one = GradedPoly.constant((2,), 1)
        assert geometric_series(u, 0) == one
        assert geometric_series(u, 7) == one + u + u * u + u.pow(3)
        assert inverse_one_plus(u, 6) == one - u + u * u - u.pow(3)


class TestLatticeAlgebra:
    @pytest.mark.parametrize("entry", [1.5, 2.0, True, "1", None])
    def test_from_rows_refuses_non_integers(self, entry):
        with pytest.raises(ValueError):
            IntMatrix.from_rows([[1, 0], [0, entry]])

    def test_identity(self):
        M = IntMatrix.from_rows([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
        rank, kernel = lattice_rank_kernel(M)
        assert rank == 3 and kernel == []

    def test_zero(self):
        M = IntMatrix.from_rows([[0, 0, 0], [0, 0, 0]], cols=3)
        rank, kernel = lattice_rank_kernel(M)
        assert rank == 0 and len(kernel) == 3

    def test_rank_one(self):
        M = IntMatrix.from_rows([[2, 4], [1, 2]])
        rank, kernel = lattice_rank_kernel(M)
        assert rank == 1
        assert kernel == [[2, -1]]

    def test_rank_plus_kernel_random(self):
        rng = random.Random(3)
        for _ in range(100):
            rows = rng.randint(1, 5)
            cols = rng.randint(1, 5)
            M = IntMatrix.from_rows(
                [[rng.randint(-6, 6) for _ in range(cols)] for _ in range(rows)]
            )
            rank, kernel = lattice_rank_kernel(M)
            assert rank + len(kernel) == cols
            for vec in kernel:
                for row in M.entries:
                    assert sum(a * b for a, b in zip(row, vec)) == 0

    @staticmethod
    def _sparse(rows):
        return [{j: x for j, x in enumerate(r) if x} for r in rows]

    @staticmethod
    def _dense(rows, cols):
        return [list(r) for r in dense_matrix(rows, cols).entries]

    def test_hnf_membership(self):
        rows = self._sparse([[2, 0, 1], [0, 3, 1]])
        assert in_row_lattice(rows, {0: 2, 1: 3, 2: 2})
        assert not in_row_lattice(rows, {0: 1})

    def test_hnf_canonical(self):
        rng = random.Random(5)
        for _ in range(50):
            rows = [[rng.randint(-4, 4) for _ in range(4)] for _ in range(3)]
            h1 = hermite_form(self._sparse(rows))
            # a different generating set of the same lattice
            rows2 = [
                [a + b for a, b in zip(rows[0], rows[1])],
                rows[1],
                [a - 2 * b for a, b in zip(rows[2], rows[0])],
            ]
            assert hermite_form(self._sparse(rows2)) == h1
            assert self._dense(h1, 4) == reference_hnf(IntMatrix.from_rows(rows))

    @staticmethod
    def _random_matrices(seed, count):
        rng = random.Random(seed)
        for _ in range(count):
            rows, cols = rng.randint(1, 7), rng.randint(1, 6)
            bound = rng.choice((1, 3, 12))
            yield IntMatrix.from_rows(
                [[rng.randint(-bound, bound) * (rng.random() < 0.6) for _ in range(cols)]
                 for _ in range(rows)], cols=cols)

    def test_echelon_form_against_reference(self):
        for M in self._random_matrices(11, 400):
            e = hermite_form(self._sparse(M.entries))
            assert len(e) == lattice_rank_kernel(M)[0]
            # the unique reduced form of the row lattice of M itself
            assert self._dense(e, M.cols) == reference_hnf(M)

    def test_hnf_unchanged(self):
        # six targets per matrix: three integer combinations of the rows, which
        # are members, and three random vectors
        rng = random.Random(13)
        cases = members = 0
        for M in self._random_matrices(12, 400):
            rows = self._sparse(M.entries)
            h = reference_hnf(M)
            for combine in (True,) * 3 + (False,) * 3:
                if combine:
                    coeffs = [rng.randint(-3, 3) for _ in range(M.rows)]
                    t = [sum(c * r[j] for c, r in zip(coeffs, M.entries))
                         for j in range(M.cols)]
                else:
                    t = [rng.randint(-4, 4) for _ in range(M.cols)]
                member = in_row_lattice(rows, {j: x for j, x in enumerate(t) if x})
                assert member == in_row_span(h, t)
                assert member or not combine
                cases += 1
                members += member
        assert cases == 2400 and 1200 <= members < cases

    @staticmethod
    def _tall_sparse_matrices(seed, count):
        """Relation-matrix-like shapes up to 60 x 40: unit singletons, zero and
        duplicate rows, and two leads 4 and 6 in one column, which only an
        ext-gcd combination turns into one pivot."""
        rng = random.Random(seed)
        for _ in range(count):
            cols = rng.randint(8, 40)
            rows = []
            for _ in range(rng.randint(cols, 60) - 2):
                row = [0] * cols
                kind = rng.random()
                if kind < 0.45:
                    row[rng.randrange(cols)] = rng.choice((1, -1))
                elif kind < 0.55:
                    pass
                elif kind < 0.65 and rows:
                    row = list(rng.choice(rows))
                else:
                    lead = rng.randrange(cols)
                    for j in rng.sample(range(lead, cols), min(4, cols - lead)):
                        row[j] = rng.choice((-6, -4, -3, -2, -1, 1, 2, 3, 4, 6))
                    row[lead] = row[lead] or 1
                rows.append(row)
            col = rng.randrange(cols - 1)
            for lead in (4, 6):
                row = [0] * cols
                row[col] = lead
                row[rng.randrange(col + 1, cols)] = rng.randint(-5, 5)
                rows.insert(rng.randrange(len(rows) + 1), row)
            yield IntMatrix.from_rows(rows, cols=cols)

    def test_echelon_form_at_model_scale(self, monkeypatch):
        combined = []
        monkeypatch.setattr(exactalg, "ext_gcd",
                            lambda a, b: combined.append((a, b)) or ext_gcd(a, b))
        for M in self._tall_sparse_matrices(19, 80):
            sparse = [{j: x for j, x in enumerate(r) if x} for r in M.entries]
            given = [dict(r) for r in sparse]
            e = hermite_form(sparse)
            assert sparse == given  # the rows given are not changed
            assert len(e) == lattice_rank_kernel(M)[0]
            assert self._dense(e, M.cols) == reference_hnf(M)
        assert combined

    def test_hermite_form_is_reduced_whatever_the_row_order(self):
        # echelon rows with entries above their pivots far outside [0, pivot),
        # shuffled among zero rows: the form is the reference's, in any order
        rng = random.Random(23)
        for _ in range(50):
            cols = rng.randint(2, 30)
            leads = sorted(rng.sample(range(cols), rng.randint(1, cols)))
            rows = []
            for lead in leads:
                row = [0] * cols
                row[lead] = rng.randint(1, 9)
                for j in range(lead + 1, cols):
                    row[j] = rng.randint(-50, 50) * (rng.random() < 0.5)
                rows.append(row)
            shuffled = rows + [[0] * cols] * rng.randint(0, 3)
            rng.shuffle(shuffled)
            form = hermite_form(self._sparse(shuffled))
            assert self._dense(form, cols) == reference_hnf(IntMatrix.from_rows(shuffled))
            rng.shuffle(shuffled)
            assert hermite_form(self._sparse(shuffled)) == form
            assert hermite_form(self._sparse(rows[::-1])) == form

    def test_cp_product_lattice_is_bounded_by_the_lattice(self):
        # the rows [CP^lambda], lambda a partition of 8: 22 x 22 with entries
        # of at most 26 bits, whose unreduced elimination took 10 s
        rows = [cp_product_class(lam).values for lam in partitions(8)]
        start = time.perf_counter()
        form = hermite_form(self._sparse(rows))
        assert time.perf_counter() - start < 1.0
        h = self._dense(form, len(rows))
        # index equal to |det| and every row a member: the lattices are equal
        det = bareiss_abs_det(rows)
        assert det > 0
        assert len(form) == len(rows)
        assert math.prod(row[min(row)] for row in form) == det
        assert all(in_row_span(h, row) for row in rows)
        for k, row in enumerate(form):  # reduced above each pivot
            assert all(0 <= r.get(min(row), 0) < row[min(row)] for r in form[:k])

    def test_saturation_kernel(self):
        basis = saturation_kernel_basis([3, -2, 1])
        assert len(basis) == 2
        for vec in basis:
            assert 3 * vec[0] - 2 * vec[1] + vec[2] == 0
