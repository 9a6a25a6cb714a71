"""Tests for the Chern-number operation calculus."""

from collections import Counter, defaultdict
from fractions import Fraction
import itertools
import json
import random

from hypothesis import given, settings
from hypothesis import strategies as st
import pytest

from bordx import bordclass as bc, cli
from bordx.bordclass import (
    ChernVector,
    boundary,
    boundary_k,
    chern_vector_to_json,
    chi,
    cp,
    delta,
    in_W,
    in_ker_boundary,
    parse_partition,
    product,
    psi,
    psi_k1k2,
    rho,
    s_num,
    stong_pi,
    todd,
    twisted_mul,
)
from bordx.cli import sample_classes, w_sample_classes
from bordx.exactalg import IntMatrix, multinomial, partitions
from bordx.numbers import rank_table
from lattice_reference import lattice_rank_kernel
import monomial_table_reference
from operation_matrix import operation_matrix


class TestCp:
    def test_cp0(self):
        assert cp(0) == ChernVector.unit(1)

    def test_cp1(self):
        assert cp(1).number((1,)) == 2

    def test_cp2(self):
        assert cp(2).numbers == {(2,): 3, (1, 1): 9}


class TestCoordinates:
    def test_numbers_follow_the_basis(self):
        a = cp(4) - cp(2) * cp(2)
        assert list(a.numbers) == partitions(4)
        assert tuple(a.numbers.values()) == a.values
        assert a == ChernVector(4, dict(a.numbers))

    def test_equality_reads_every_coordinate(self):
        assert cp(2) != cp(1) * cp(1)
        assert ChernVector(3, {(2, 1): 1}) != ChernVector(3, {(1, 1, 1): 1})
        assert ChernVector(2) != ChernVector(3)
        assert hash(cp(3) - cp(3)) == hash(ChernVector(3))

    def test_numbers_are_read_only(self):
        with pytest.raises(TypeError):
            cp(2).numbers[(2,)] = 0
        with pytest.raises(AttributeError):
            cp(2).values = (0, 0)

    @pytest.mark.parametrize("omega", [(2,), (2, 2), (), (1, 1, 1, 1)])
    def test_number_of_wrong_weight(self, omega):
        with pytest.raises(ValueError):
            cp(3).number(omega)

    def test_scale_refuses_non_integers(self):
        for k in (1.5, 0.0, True, "2"):
            with pytest.raises(ValueError):
                cp(2).scale(k)

    @pytest.mark.parametrize("dim,omega", [
        (3, (1.5, 1.5)), (3, ("3",)), (1, (True,)), (2, (1, 1.0)), (0, (None,)),
    ])
    def test_partition_parts_are_ints(self, dim, omega):
        # (1.5, 1.5) was a KeyError, ("3",) a TypeError and (True,) was read as (1,)
        with pytest.raises(ValueError, match="a partition part must be an integer"):
            ChernVector(dim, {omega: 1})
        with pytest.raises(ValueError, match="a partition part must be an integer"):
            ChernVector(dim, [(omega, 1)])

    @pytest.mark.parametrize("dim,numbers", [
        (1, {(1,): 2.7}), (1, {(1,): 2.0}), (1, {(1,): True}), (1, {(1,): "2"}),
        (1.0, {(1,): 2}), (True, {(1,): 2}), ("1", {(1,): 2}), (2, {(1,): 2}),
    ])
    def test_dimension_numbers_and_weights_are_checked(self, dim, numbers):
        with pytest.raises(ValueError):
            ChernVector(dim, numbers)

    def test_number_of_a_string_part(self):
        with pytest.raises(ValueError, match="a partition part must be an integer"):
            cp(3).number(("3",))


class TestProduct:
    def test_cp1_squared(self):
        sq = product(cp(1), cp(1))
        assert sq.numbers == {(2,): 4, (1, 1): 8}

    def test_k_class(self):
        K = product(cp(1), cp(1)).scale(9) - cp(2).scale(8)
        assert K.numbers == {(2,): 12, (1, 1): 0}
        assert K == bc.k_class()

    def test_unit(self):
        a = cp(3)
        assert product(a, cp(0)) == a
        assert product(cp(0), a) == a

    def test_commutative_associative(self):
        a, b, c = cp(1), cp(2), bc.k_class()
        assert product(a, b) == product(b, a)
        assert product(product(a, b), c) == product(a, product(b, c))


def reference_split_table(na, nb):
    """The split table built omega by omega: equal parts of omega are split
    together, a multiset of m splits of the part k arising in
    m! / prod(multiplicities)! ways."""
    tau_index, sigma_index = bc._basis(na)[1], bc._basis(nb)[1]
    group_splits = {}  # (k, m) -> [(tau parts, sigma parts, ways)]
    table = []
    for omega in bc._basis(na + nb)[0]:
        # (tau, sigma) -> number of ways, over the parts of omega split so far
        splits = {((), ()): 1}
        for k, m in Counter(omega).items():
            if (k, m) not in group_splits:
                group_splits[(k, m)] = [
                    (tuple(i for i in chosen if i), tuple(k - i for i in chosen if i < k),
                     multinomial(m, Counter(chosen).values()))
                    for chosen in itertools.combinations_with_replacement(range(k + 1), m)
                ]
            grown = defaultdict(int)
            for tau_parts, sigma_parts, ways in group_splits[(k, m)]:
                for (tau, sigma), count in splits.items():
                    tau_new, sigma_new = tau + tau_parts, sigma + sigma_parts
                    if sum(tau_new) <= na and sum(sigma_new) <= nb:
                        key = (tuple(sorted(tau_new, reverse=True)),
                               tuple(sorted(sigma_new, reverse=True)))
                        grown[key] += count * ways
            splits = grown
        table.append(tuple((count, tau_index[tau], sigma_index[sigma])
                           for (tau, sigma), count in splits.items()))
    return tuple(table)


class TestSplitTable:
    def test_one_table_serves_both_orders(self):
        bc._split_table.cache_clear()
        assert bc.product(bc.cp(2), bc.cp(9)) == bc.product(bc.cp(9), bc.cp(2))
        assert bc._split_table.cache_info().currsize == 1

    @pytest.mark.parametrize("n", range(0, 15))
    def test_matches_per_omega_reference(self, n):
        for na in range(n + 1):
            table = bc._split_table(na, n - na)
            want = reference_split_table(na, n - na)
            assert len(table) == len(want) == len(bc._basis(n)[0])
            for omega, row, want_row in zip(bc._basis(n)[0], table, want):
                assert Counter(row) == Counter(want_row), (na, omega)
                assert len({(i, j) for _, i, j in row}) == len(row), (na, omega)
                assert all(count > 0 for count, _, _ in row), (na, omega)


class TestSNumber:
    def test_s2_of_2k(self):
        assert s_num(bc.k_class().scale(2)) == -48

    def test_s3_cp3(self):
        # Newton identity on (1+u)^4: 4^3 - 3*4*6 + 3*4
        assert s_num(cp(3)) == 64 - 72 + 12

    def test_vanishes_on_decomposables(self):
        for a, b in [(cp(1), cp(1)), (cp(1), cp(2)), (cp(2), cp(2)),
                     (cp(1), bc.k_class())]:
            assert s_num(product(a, b)) == 0

    def test_additive(self):
        a = cp(3)
        b = product(cp(1), cp(2))
        assert s_num(a + b) == s_num(a) + s_num(b)


class TestTodd:
    def test_projective_spaces(self):
        for n in range(5):
            assert todd(cp(n)) == 1

    def test_k(self):
        assert todd(bc.k_class()) == 1
        assert todd(bc.k_class().scale(2)) == 2

    def test_v4(self):
        # td(V^4) = (c1^2 + c2)/12 = 0
        assert todd(bc.v4()) == 0

    def test_projective_spaces_in_every_dimension(self):
        for n in range(13):
            assert todd(cp(n)) == 1

    def test_row_matches_the_closed_forms(self):
        # the hand-typed table the row replaced: td_n in the Chern numbers, n <= 4
        closed = {
            0: {(): Fraction(1)},
            1: {(1,): Fraction(1, 2)},
            2: {(1, 1): Fraction(1, 12), (2,): Fraction(1, 12)},
            3: {(2, 1): Fraction(1, 24)},
            4: {
                (1, 1, 1, 1): Fraction(-1, 720),
                (2, 1, 1): Fraction(4, 720),
                (2, 2): Fraction(3, 720),
                (3, 1): Fraction(1, 720),
                (4,): Fraction(-1, 720),
            },
        }
        for n, coeffs in closed.items():
            assert bc._todd_row(n) == tuple(coeffs.get(w, 0) for w in partitions(n))
            rng = random.Random(n)
            a = ChernVector(n, {w: rng.randint(-10**6, 10**6) for w in partitions(n)})
            assert todd(a) == sum(c * a.number(w) for w, c in coeffs.items())

    def test_returns_exact_fraction(self):
        assert todd(cp(1) * 3) == Fraction(3)

    @pytest.mark.parametrize("n", range(15))
    def test_row_matches_the_e_to_m_table(self, n):
        # sum_lambda q_lambda m_lambda over the 0-1 matrix table, row for row
        assert bc._todd_row(n) == monomial_table_reference._todd_row(n)

    def test_projective_spaces_up_to_the_bound(self):
        for n in range(bc.CHERN_MAX_DIM + 1):
            assert todd(cp(n)) == 1, n

    def test_multiplicative_on_products(self):
        # through the Whitney split table, a route that does not read the row
        rng = random.Random(33)
        for total in range(13):
            for da in range(total + 1):
                a = ChernVector(da, {w: rng.randint(-99, 99) for w in partitions(da)})
                b = ChernVector(total - da, {w: rng.randint(-99, 99)
                                             for w in partitions(total - da)})
                assert todd(product(a, b)) == todd(a) * todd(b), (da, total - da)


class TestBoundary:
    def test_cp1(self):
        assert boundary(cp(1)) == ChernVector.unit(2)

    def test_cp2(self):
        assert boundary(cp(2)).is_zero()

    def test_k(self):
        assert boundary(bc.k_class()).is_zero()

    def test_boundary_squared_zero(self):
        for _, a in sample_classes():
            if a.dim >= 2:
                assert boundary(boundary(a)).is_zero()

    def test_boundary_cp3_is_k3(self):
        n = boundary(cp(3))
        assert n.numbers == {(2,): 24, (1, 1): 0}

    def test_boundary_lands_in_w(self):
        for _, a in sample_classes():
            if a.dim >= 1 and in_W(a):
                assert in_W(boundary(a))


class TestBoundaryK:
    def test_d2_cp2(self):
        assert boundary_k(cp(2), 2) == ChernVector.unit(9)

    def test_d1_is_boundary(self):
        for _, a in sample_classes():
            if a.dim >= 1:
                assert boundary_k(a, 1) == boundary(a)

    def test_dk_vanishes_on_w(self):
        for _, a in w_sample_classes():
            for k in range(2, a.dim + 1):
                assert boundary_k(a, k).is_zero()


class TestDelta:
    def test_cp2(self):
        assert delta(cp(2)) == ChernVector.unit(-9)

    def test_k(self):
        assert delta(bc.k_class()).is_zero()

    def test_cp1_squared(self):
        assert delta(product(cp(1), cp(1))) == ChernVector.unit(-8)

    def test_delta_boundary_zero(self):
        for _, a in sample_classes():
            if a.dim >= 3:
                assert delta(boundary(a)).is_zero()


class TestPsi:
    def test_psi_unit_is_v4(self):
        assert psi(ChernVector.unit()) == bc.v4()

    def test_psi_cp1_values(self):
        p = psi(cp(1))
        assert p.number((1, 1, 1)) == -2
        assert p.number((3,)) == 2

    def test_delta_psi_identity(self):
        for a in (cp(1), cp(2), bc.k_class()):
            assert delta(psi(a)) == a

    def test_boundary_psi_zero(self):
        for _, a in sample_classes():
            assert boundary(psi(a)).is_zero()

    def test_psi01_is_null_bordant(self):
        for a in (ChernVector.unit(), cp(1), cp(2)):
            assert psi_k1k2(a, 0, 1).is_zero()

    def test_chi_unit_is_cp1(self):
        assert chi(ChernVector.unit()) == cp(1)


class TestTwistedProduct:
    def test_square_of_x1_is_k(self):
        assert twisted_mul(cp(1), cp(1)) == bc.k_class()

    def test_plain_product_when_boundary_vanishes(self):
        K = bc.k_class()
        for a in (cp(1), K):
            assert twisted_mul(a, K) == product(a, K)

    def test_associative(self):
        K = bc.k_class()
        x1 = cp(1)
        triples = [(x1, x1, x1), (x1, x1, K), (x1, K, K)]
        for a, b, c in triples:
            left = twisted_mul(twisted_mul(a, b), c)
            right = twisted_mul(a, twisted_mul(b, c))
            assert left == right

    def test_commutative(self):
        K = bc.k_class()
        assert twisted_mul(cp(1), K) == twisted_mul(K, cp(1))

    def test_rejects_non_w_operand(self):
        with pytest.raises(ValueError):
            twisted_mul(cp(2), cp(1))

    def test_unit(self):
        one = ChernVector.unit()
        assert twisted_mul(one, cp(1)) == cp(1)


class TestProjections:
    def test_rho_cp3(self):
        assert rho(cp(3)).number((3,)) == 68

    def test_rho_k(self):
        assert rho(bc.k_class()) == bc.k_class()

    def test_rho_kills_psi_image(self):
        for a in (ChernVector.unit(), cp(1), cp(2)):
            assert rho(psi(a)).is_zero()

    def test_pi_cp3(self):
        assert stong_pi(cp(3)).number((3,)) == -60

    def test_pi_psi_cp1(self):
        p = stong_pi(psi(cp(1)))
        assert p.number((3,)) == 4

    def test_projections_idempotent(self):
        for _, a in sample_classes():
            if a.dim >= 2:
                assert rho(rho(a)) == rho(a)
            assert stong_pi(stong_pi(a)) == stong_pi(a)

    def test_images_in_w(self):
        for _, a in sample_classes():
            assert in_W(stong_pi(a))
            if a.dim >= 2:
                assert in_W(rho(a))

    def test_agree_on_products_from_w(self):
        pairs = [(cp(1), cp(1)), (cp(1), bc.k_class())]
        for a, b in pairs:
            ab = product(a, b)
            assert rho(ab) == stong_pi(ab)

    def test_differ_on_psi_cp1(self):
        p = psi(cp(1))
        assert rho(p).number((3,)) == 0
        assert stong_pi(p).number((3,)) == 4

    def test_boundary_commutes_with_rho(self):
        for _, a in sample_classes():
            if a.dim >= 2:
                assert boundary(rho(a)) == boundary(a)
                if a.dim >= 3:
                    assert rho(boundary(a)) == boundary(a)


class TestMembership:
    def test_in_w(self):
        assert in_W(cp(1))
        assert not in_W(product(cp(1), cp(1)))
        assert in_W(bc.k_class())

    @pytest.mark.parametrize("n", range(2, 9))
    def test_each_c1_squared_number_leaves_w(self, n):
        # one nonzero Chern number with a c_1^2 factor puts a class outside W
        for omega in partitions(n):
            if omega[-2:] == (1, 1):
                assert not in_W(ChernVector(n, {omega: 1})), omega

    def test_in_ker_boundary(self):
        assert in_ker_boundary(bc.k_class())
        assert not in_ker_boundary(cp(1))
        assert in_ker_boundary(bc.k_class().scale(2))


class TestPrimePowerDivisibility:
    def test_s_number_of_su_class_in_prime_power_dimension(self):
        # s_n of a class with vanishing c_1-numbers is divisible by p when
        # n = p^k; checked on boundaries and the tower exports
        from bordx.numbers import prime_power_base

        candidates = [(label, a) for label, a in sample_classes()
                      if a.dim >= 2 and in_W(a) and in_ker_boundary(a)]
        for i in range(3, 9):
            candidates.append((f"N(cp({i}))", boundary(cp(i))))
        for label, a in candidates:
            p = prime_power_base(a.dim)
            if p is not None:
                assert s_num(a) % p == 0, (label, a.dim)


class TestOperatorSuite:
    def test_algrel_suite_passes(self):
        from bordx.cli import run_lemma

        rows = run_lemma("algrel")
        failures = [r for r in rows if r["status"] != "pass"]
        assert not failures, failures

    def test_deltaab_suite_passes(self):
        from bordx.cli import run_lemma

        rows = run_lemma("deltaab")
        failures = [r for r in rows if r["status"] != "pass"]
        assert not failures, failures


# ---------------------------------------------------------------------------
# the operator identities as matrix identities over all of Z^p(n)
# ---------------------------------------------------------------------------

MATRIX_DIMS = range(13)


def dense(matrix, n):
    """A sparse operation matrix on Z^p(n) as a list of rows."""
    _, rows = matrix
    out = []
    for idx, coeffs in rows:
        row = [0] * len(partitions(n))
        for i, c in zip(idx, coeffs):
            row[i] += c
        out.append(row)
    return out


def matmul(a, b):
    cols = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col)) for col in cols] for row in a]


def identity(n):
    size = len(partitions(n))
    return [[int(i == j) for j in range(size)] for i in range(size)]


def zeros(rows, n):
    return [[0] * len(partitions(n)) for _ in range(rows)]


def psi_dense(n):
    return dense(operation_matrix(psi, n), n)


def d_dense(n):
    return dense(operation_matrix(boundary, n), n)


def delta_dense(n):
    return dense(operation_matrix(delta, n), n)


class TestMatrixIdentities:
    """Z^p(n), every integer Chern vector, strictly contains Omega^U_2n (the
    Hattori-Stong conditions), so only identities and ranks carry over."""

    @pytest.mark.parametrize("n", MATRIX_DIMS)
    def test_delta_psi_is_identity(self, n):
        assert matmul(delta_dense(n + 2), psi_dense(n)) == identity(n)

    @pytest.mark.parametrize("n", MATRIX_DIMS)
    def test_d_psi_is_zero(self, n):
        assert matmul(d_dense(n + 2), psi_dense(n)) == zeros(len(partitions(n + 1)), n)

    @pytest.mark.parametrize("n", [n for n in MATRIX_DIMS if n >= 2])
    def test_d_d_is_zero(self, n):
        assert matmul(d_dense(n - 1), d_dense(n)) == zeros(len(partitions(n - 2)), n)

    @pytest.mark.parametrize("n", [n for n in MATRIX_DIMS if n >= 2])
    def test_delta_rho_is_zero(self, n):
        delta_n = delta_dense(n)
        psi_delta = matmul(psi_dense(n - 2), delta_n)
        rho_n = [[i - j for i, j in zip(r, s)] for r, s in zip(identity(n), psi_delta)]
        assert matmul(delta_n, rho_n) == zeros(len(partitions(n - 2)), n)

    @pytest.mark.parametrize("n", [n for n in MATRIX_DIMS if n >= 2])
    def test_rank_ker_delta_is_rank_w(self, n):
        rank, kernel = lattice_rank_kernel(IntMatrix.from_rows(delta_dense(n)))
        assert rank == len(partitions(n - 2))
        assert len(kernel) == rank_table(2 * n)[n].rank_w
        # each kernel vector passes both W criteria (they must agree)
        for vec in kernel:
            assert in_W(ChernVector(n, dict(zip(partitions(n), vec))))

    @pytest.mark.parametrize("n", [6, 9, 11, 12])
    def test_matrices_match_the_operations_on_random_vectors(self, n):
        rng = random.Random(n)
        a = ChernVector(n, {w: rng.randint(-10**6, 10**6) for w in partitions(n)})
        values = list(a.numbers.values())
        for op, m, matrix in [(psi, n + 2, psi_dense(n)), (boundary, n - 1, d_dense(n)),
                              (delta, n - 2, delta_dense(n))]:
            got = [sum(x * y for x, y in zip(row, values)) for row in matrix]
            assert list(op(a).numbers.values()) == got
            assert op(a).dim == m


# ---------------------------------------------------------------------------
# the matrix cache
# ---------------------------------------------------------------------------

MATRIX_CACHE = bc._projective_dual


@pytest.fixture
def count_walks(monkeypatch):
    """Count the walks run by the operations, starting from an empty cache."""
    MATRIX_CACHE.cache_clear()
    walks = []
    real = bc._walk

    def counting(n, *args, **kwargs):
        walks.append(n)
        return real(n, *args, **kwargs)

    monkeypatch.setattr(bc, "_walk", counting)
    return walks


class TestMatrixCache:
    OPS = [boundary, delta, psi, stong_pi, lambda a: psi_k1k2(a, 2, 1),
           lambda a: boundary_k(a, 2)]

    def test_one_walk_per_key(self, count_walks):
        a = bc.cp(4) * 3 - bc.cp(2) * bc.cp(2)
        first = [op(a) for op in self.OPS]
        assert len(count_walks) == len(self.OPS)
        for _ in range(3):
            assert [op(a) for op in self.OPS] == first
            for op in self.OPS:
                op(bc.cp(4))
        assert len(count_walks) == len(self.OPS)
        # another dimension is another key
        boundary(bc.cp(5))
        assert len(count_walks) == len(self.OPS) + 1

    def test_results_unchanged_when_cache_cleared(self, count_walks):
        a = bc.cp(3) * bc.cp(2) - bc.cp(5) * 2
        cached = [op(a) for op in self.OPS]
        again = []
        for op in self.OPS:
            MATRIX_CACHE.cache_clear()
            again.append(op(a))
        assert again == cached
        assert len(count_walks) == 2 * len(self.OPS)

    def test_rho_reuses_delta_and_psi(self, count_walks):
        a = bc.cp(4)
        rho(a)
        rho(a - bc.cp(2) * bc.cp(2))
        assert count_walks == [2, 4]  # one walk each: Delta 4 -> 2, Psi 2 -> 4

    @pytest.mark.parametrize("call", [
        lambda: boundary_k(bc.cp(2), 0),
        lambda: boundary_k(bc.cp(2), 3),
        lambda: delta(bc.cp(1)),
        lambda: psi_k1k2(bc.cp(2), 0, 0),
        lambda: psi_k1k2(bc.cp(2), -1, 2),
    ])
    def test_argument_errors_come_before_the_cache(self, count_walks, call):
        with pytest.raises(ValueError):
            call()
        assert count_walks == []
        assert MATRIX_CACHE.cache_info().currsize == 0


class TestMatrixCacheBound:
    def test_size_is_pinned(self):
        assert bc.MATRIX_CACHE_SIZE == 128
        assert MATRIX_CACHE.cache_info().maxsize == bc.MATRIX_CACHE_SIZE

    def test_ops_sized_key_set_evicts_nothing(self):
        """Every key of a pass of the `ops` operations, for every (k1, k2) and
        k it may draw, is built once and stays cached: 74 matrices, 28 d_k,
        11 Delta, 26 Psi and 9 pi (the partner's and one per dimension)."""
        MATRIX_CACHE.cache_clear()
        partner = stong_pi(cp(2) - cp(1) * cp(1))

        def ops_pass():
            for n in range(4, 12):
                a = cp(n) * 2 - cp(n - 2) * cp(2)
                p = psi(a)
                delta(p), boundary(p), boundary(boundary(a))
                for k1, k2 in [(2, 0), (1, 1), (0, 2)]:
                    psi_k1k2(a, k1, k2)
                for k in (2, 3):
                    boundary_k(a, k)
                pi_a = stong_pi(a)
                in_W(rho(a)), in_W(twisted_mul(pi_a, partner))

        ops_pass()
        built = MATRIX_CACHE.cache_info()
        assert built.misses == built.currsize == 74 <= bc.MATRIX_CACHE_SIZE
        ops_pass()
        assert MATRIX_CACHE.cache_info().misses == built.misses


class TestOperationLimit:
    """Above `CHERN_MAX_DIM` the operations refuse before any matrix is built."""

    @pytest.fixture
    def no_walk(self, monkeypatch):
        MATRIX_CACHE.cache_clear()

        def fail(*args, **kwargs):
            raise AssertionError("a matrix was built")

        monkeypatch.setattr(bc, "_walk", fail)

    @pytest.mark.parametrize("call", [
        lambda: psi_k1k2(cp(1), 25, 25),
        lambda: psi_k1k2(ChernVector(bc.CHERN_MAX_DIM), 1, 0),
        lambda: psi(ChernVector(bc.CHERN_MAX_DIM - 1)),
        lambda: boundary(ChernVector(bc.CHERN_MAX_DIM + 1)),
        lambda: boundary_k(ChernVector(bc.CHERN_MAX_DIM + 1), bc.CHERN_MAX_DIM),
        lambda: delta(ChernVector(bc.CHERN_MAX_DIM + 1)),
        lambda: stong_pi(ChernVector(bc.CHERN_MAX_DIM + 1)),
        lambda: in_W(ChernVector(bc.CHERN_MAX_DIM + 1)),
        lambda: rho(ChernVector(bc.CHERN_MAX_DIM + 1)),
    ])
    def test_refused_before_any_walk(self, no_walk, call):
        with pytest.raises(ValueError, match=str(bc.CHERN_MAX_DIM)):
            call()
        assert MATRIX_CACHE.cache_info().currsize == 0

    def test_limit_covers_the_quasitoric_gens_checks(self):
        from bordx.cli import GENS_MAX_DIM
        assert bc.CHERN_MAX_DIM >= GENS_MAX_DIM["quasitoric"] // 2

    def test_operations_run_at_the_limit(self):
        a = ChernVector(bc.CHERN_MAX_DIM, {(bc.CHERN_MAX_DIM,): 1})
        assert delta(a).dim == bc.CHERN_MAX_DIM - 2
        assert boundary(a).dim == bc.CHERN_MAX_DIM - 1
        assert psi(ChernVector(bc.CHERN_MAX_DIM - 2, {(bc.CHERN_MAX_DIM - 2,): 1})
                   ).dim == bc.CHERN_MAX_DIM


def _written_numbers(data) -> dict:
    """The Chern numbers a written Chern-vector document lists, keys read by
    `parse_partition`."""
    return {parse_partition(key): v for key, v in data["numbers"].items()}


def _nonzero_numbers(a: ChernVector) -> dict:
    return {omega: v for omega, v in a.numbers.items() if v}


class TestJson:
    def test_round_trip(self):
        a = bc.k_class()
        data = chern_vector_to_json(a)
        assert data["dim"] == a.dim and _written_numbers(data) == _nonzero_numbers(a)

    def test_dim_zero(self):
        a = ChernVector.unit(5)
        data = chern_vector_to_json(a)
        assert data == {"dim": 0, "numbers": {"": 5}}
        assert _written_numbers(data) == _nonzero_numbers(a)

    def test_key_format(self):
        a = cp(3)
        data = chern_vector_to_json(a)
        assert set(data["numbers"]) == {"3", "2,1", "1,1,1"}

    @pytest.mark.parametrize("key", [
        "1_0", " 1", "1 ", "+1", "\u0661", "2, 1", "-1", "0", "1,", ",1", "1,,1", "1;1", "a",
        "1.0", "0x1",
    ])
    def test_parse_partition_refuses_bad_keys(self, key):
        with pytest.raises(ValueError):
            parse_partition(key)

    def test_key_is_what_parse_partition_reads(self):
        for n in range(7):
            for omega in partitions(n):
                assert parse_partition(bc._partition_key(omega)) == omega

    def test_chern_tsv_writes_the_json_keys(self, capsys):
        a = cp(1) * cp(2)
        assert cli.main(["chern", "--family", "CPprod", "--omega", "2,1",
                         "--format", "tsv"]) == 0
        keys = [line.split("\t")[0] for line in capsys.readouterr().out.splitlines()[1:]]
        assert keys == [f"c_{key}" for key in sorted(
            chern_vector_to_json(a)["numbers"], key=parse_partition)] + ["s"]

    def test_keys_in_any_part_order(self):
        assert parse_partition("1,2") == parse_partition("2,1") == (2, 1)


COORDINATES = st.one_of(st.just(0), st.integers(-300, 300),
                        st.integers(-10**60, 10**60))


@st.composite
def chern_vectors(draw):
    n = draw(st.integers(0, 8))
    basis = partitions(n)
    values = draw(st.lists(COORDINATES, min_size=len(basis), max_size=len(basis)))
    return ChernVector(n, dict(zip(basis, values)))


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(chern_vectors())
def test_json_writer_on_drawn_vectors(a):
    data = json.loads(json.dumps(chern_vector_to_json(a)))
    assert data["dim"] == a.dim
    assert _written_numbers(data) == _nonzero_numbers(a)


class TestStrictParameters:
    """cp and the operations take n, k, k1 and k2 as ints only."""

    @pytest.mark.parametrize("bad", [True, False, 1.0, 2.0])
    def test_cp_refuses_bool_and_float(self, bad):
        with pytest.raises(ValueError, match="must be an integer"):
            cp(bad)

    @pytest.mark.parametrize("bad", [True, 1.0])
    def test_boundary_k_refuses_bool_and_float(self, bad):
        with pytest.raises(ValueError, match="must be an integer"):
            boundary_k(cp(2), bad)

    @pytest.mark.parametrize("k1,k2", [(True, 0), (1.0, 0), (0, True), (1, 0.0)])
    def test_psi_k1k2_refuses_bool_and_float(self, k1, k2):
        with pytest.raises(ValueError, match="must be an integer"):
            psi_k1k2(cp(2), k1, k2)

    def test_cp_json_keeps_an_int_dimension(self):
        data = chern_vector_to_json(cp(1))
        assert type(data["dim"]) is int and data["dim"] == 1
        assert _written_numbers(data) == _nonzero_numbers(cp(1))
