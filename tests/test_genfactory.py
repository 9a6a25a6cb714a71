"""Tests for generator construction and certification."""

import functools
import itertools
import math
import random
from collections import Counter

import pytest

from bordx import bordclass as bc
from bordx import numbers, tower
from bordx.exactalg import GradedPoly, partitions

from monomial_table_reference import _monomial_table, s_omega
from paper_examples_reference import (
    grassmann_ring,
    grassmann_s4,
    s6_class,
    s_polynomial,
    y2_class,
)
from series_reference import graded_part
from test_walker import random_class
from bordx.genfactory import (
    GeneratorCertificate,
    _cp_product,
    construct_b,
    cp_product_class,
    cy3_criterion,
    cy4_invariants,
    cy_generator_combo,
    cy_hypersurface,
    quasitoric_generator_even,
    quasitoric_generator_odd,
)


class TestCyHypersurface:
    def test_quartic_k3(self):
        n = cy_hypersurface((3,))
        assert bc.s_num(n) == -48
        assert n.number((2,)) == 24
        assert n.number((1, 1)) == 0

    def test_multidegree_222(self):
        assert bc.s_num(cy_hypersurface((1, 1, 1))) == -48

    def test_22(self):
        assert bc.s_num(cy_hypersurface((2, 2))) == -486

    def test_matches_minus_alpha(self):
        for n in range(3, 11):
            for omega in numbers.phat(n):
                assert bc.s_num(cy_hypersurface(omega)) == -numbers.alpha(omega), omega

    def test_classes_are_su(self):
        for omega in [(3,), (2, 2), (2, 1, 1)]:
            n = cy_hypersurface(omega)
            assert bc.in_W(n)
            assert bc.in_ker_boundary(n)


class TestCpProduct:
    @pytest.mark.parametrize("n", range(1, 9))
    def test_matches_tower_route(self, n):
        for omega in partitions(n):
            spec = tower.build_family("CPprod", omega)
            assert cp_product_class(omega) == tower.chern_numbers(spec), omega

    def test_order_of_factors(self):
        want = cp_product_class((4, 2, 2, 1))
        for omega in set(itertools.permutations((4, 2, 2, 1))):
            assert cp_product_class(omega) == want, omega
        assert cp_product_class([1, 2, 2, 4]) == want

    def test_cold_and_warm_calls_agree(self):
        _cp_product.cache_clear()
        cold = [cp_product_class(w) for w in numbers.phat(7)]
        assert _cp_product.cache_info().hits > 0  # phat(7) shares prefixes
        assert [cp_product_class(w) for w in numbers.phat(7)] == cold
        _cp_product.cache_clear()
        assert [cp_product_class(w) for w in reversed(numbers.phat(7))] == cold[::-1]

    def test_memo_is_bounded(self):
        assert _cp_product.cache_info().maxsize == 1024


class TestCyCombo:
    def test_paper_combination_dim6(self):
        assert 15 * bc.s_num(cy_hypersurface((2, 2))) - 19 * bc.s_num(
            cy_hypersurface((1, 1, 1, 1))
        ) == 6

    def test_paper_combination_dim8(self):
        assert 56 * bc.s_num(cy_hypersurface((3, 1, 1))) - 59 * bc.s_num(
            cy_hypersurface((2, 2, 1))
        ) == 20

    def test_n3_single_term(self):
        cert = cy_generator_combo(3)
        assert cert.s_value == -48 == cert.target
        assert cert.combination == ((1, "N(1,1,1)"),)

    def test_targets_to_n12(self):
        for n in range(3, 13):
            cert = cy_generator_combo(n)
            assert cert.s_value == numbers.g(n), n
            assert cert.dimension == 2 * (n - 1)
            assert all(cert.su_checks.values())

    def test_certificate_checks(self):
        cert = cy_generator_combo(5)
        assert bc.s_num(cert.chern_class) == cert.s_value
        assert bc.in_W(cert.chern_class)
        assert bc.in_ker_boundary(cert.chern_class)


class TestQuasitoricGenerators:
    def test_odd_k2(self):
        cert = quasitoric_generator_odd(2)
        assert abs(cert.s_value) == 5 == numbers.m(5) * numbers.m(4)

    def test_odd_k3(self):
        cert = quasitoric_generator_odd(3)
        assert abs(cert.s_value) == numbers.m(7) * numbers.m(6) == 14

    def test_odd_k7(self):
        cert = quasitoric_generator_odd(7)
        assert abs(cert.s_value) == numbers.m(15) * numbers.m(14)

    def test_even_k3(self):
        cert = quasitoric_generator_even(3)
        assert abs(cert.s_value) == 2 * numbers.m(6) * numbers.m(5) == 14
        assert cert.combination == ((1, "Ntilde(2,3)"),)

    def test_even_k4(self):
        cert = quasitoric_generator_even(4)
        assert abs(cert.s_value) == 2 * numbers.m(8) * numbers.m(7) == 12

    def test_even_k5(self):
        cert = quasitoric_generator_even(5)
        assert abs(cert.s_value) == 2 * numbers.m(10) * numbers.m(9)

    def test_low_dimension_rejected(self):
        with pytest.raises(ValueError):
            quasitoric_generator_odd(1)
        with pytest.raises(ValueError):
            quasitoric_generator_even(2)

    def test_su_checks(self):
        for cert in (quasitoric_generator_odd(2), quasitoric_generator_even(3)):
            assert all(cert.su_checks.values())


class TestConstructB:
    def test_b1(self):
        assert construct_b(1) == bc.cp(1)

    def test_b2_undefined(self):
        with pytest.raises(ValueError):
            construct_b(2)

    def test_congruences(self):
        # s_i(b_i) = 2 mod 4 for i = 2^k - 1 and i = 2^(p+1), else odd
        assert bc.s_num(construct_b(3)) % 4 == 2
        assert bc.s_num(construct_b(4)) % 4 == 2
        assert bc.s_num(construct_b(5)) % 2 == 1
        assert bc.s_num(construct_b(6)) % 2 == 1
        assert bc.s_num(construct_b(7)) % 4 == 2
        assert bc.s_num(construct_b(8)) % 4 == 2

    def test_b_in_w(self):
        for i in (1, 3, 4, 5, 6, 7, 8):
            assert bc.in_W(construct_b(i)), i

    def test_odd_b_are_su(self):
        for i in (3, 5, 7):
            b = construct_b(i)
            assert bc.in_ker_boundary(b)
            assert all(v == 0 for w, v in b.numbers.items() if w and w[-1] == 1)

    def test_s_22_of_b4_odd(self):
        assert s_omega(construct_b(4), (2, 2)) % 2 == 1

    def test_s_44_of_b8_odd(self):
        assert s_omega(construct_b(8), (4, 4)) % 2 == 1

    def test_s_number_multiple_of_m(self):
        # s_i(b_i) is an odd multiple of m_i m_{i-1} for i >= 3
        for i in (3, 4, 5, 6, 7, 8):
            s = bc.s_num(construct_b(i))
            target = numbers.m(i) * numbers.m(i - 1)
            assert s % target == 0
            assert (s // target) % 2 == 1


@functools.cache
def cy_certificates():
    """The Calabi-Yau generator certificates of real dimension 4..20 (n = 3..11)."""
    return [cy_generator_combo(n) for n in range(3, 12)]


@functools.cache
def quasitoric_certificates():
    """The quasitoric generator certificates of real dimension 10..30."""
    return ([quasitoric_generator_odd(k) for k in range(2, 8)]
            + [quasitoric_generator_even(k) for k in range(3, 8)])


class TestToddOnCertificates:
    """Necessary conditions on every certified class: td is an integer, td = 0
    on the quasitoric ones, and td = A-hat (every c_1-number vanishes) is even
    in real dimension 8k + 4, as for every spin manifold."""

    def test_integer_on_every_certificate(self):
        certs = cy_certificates() + quasitoric_certificates()
        assert [c.dimension for c in certs] == (
            list(range(4, 21, 2)) + list(range(10, 31, 4)) + list(range(12, 29, 4)))
        for cert in certs:
            assert bc.todd(cert.chern_class).denominator == 1, cert.dimension

    def test_zero_on_quasitoric_certificates(self):
        for cert in quasitoric_certificates():
            assert bc.todd(cert.chern_class) == 0, cert.dimension

    def test_even_in_real_dimension_8k_plus_4(self):
        td = {c.dimension: bc.todd(c.chern_class) for c in cy_certificates()}
        assert td[4] == 2
        assert td[12] == -16094518
        assert 9.2e25 < td[20] < 9.3e25
        for dim in (4, 12, 20):
            assert td[dim] % 2 == 0, dim


class TestLowDimensional:
    """The paper's low-dimensional examples, built in `paper_examples_reference`."""

    def test_y2(self):
        cert = y2_class()
        assert cert.s_value == -48
        assert bc.todd(cert.chern_class) == 2
        assert bc.in_ker_boundary(cert.chern_class)
        assert cert.chern_class == bc.k_class().scale(2)

    def test_s6(self):
        s6 = s6_class()
        assert s6.number((3,)) == 2
        assert bc.s_num(s6) == 6
        assert bc.in_W(s6)

    def test_grassmann(self):
        assert grassmann_s4() == -20

    def test_grassmann_pieces(self):
        from bordx.cohomring import evaluate_top

        ring = grassmann_ring()
        zero = GradedPoly.zero(ring.degrees)
        c1, c2 = (GradedPoly.generator(ring.degrees, j) for j in range(2))
        s4_gamma = s_polynomial(4, [c1, c2])
        assert evaluate_top(ring, graded_part(s4_gamma, 8)) == 0
        s4_gg = s_polynomial(4, [zero, c2.scale(4) - c1 * c1, zero, zero])
        assert evaluate_top(ring, graded_part(s4_gg, 8)) == 20


class TestCy3:
    def test_y3(self):
        assert cy3_criterion(16, 15) == {"chi": 2, "s3": 6, "tag": "y3"}

    def test_minus_y3(self):
        assert cy3_criterion(15, 16) == {"chi": -2, "s3": -6, "tag": "minus_y3"}

    def test_other(self):
        assert cy3_criterion(3, 3)["tag"] == "other"

    def test_negative_input(self):
        with pytest.raises(ValueError):
            cy3_criterion(-1, 0)

    @pytest.mark.parametrize("bad", [True, False, 1.0, 0.5, "1", None])
    def test_non_integer_input(self, bad):
        for args in ((bad, 0), (0, bad)):
            with pytest.raises(ValueError, match="a Hodge number must be an integer"):
                cy3_criterion(*args)


class TestCy4:
    def test_y4(self):
        out = cy4_invariants(16, 30, 53)
        assert out == {"chi1_neg": 39, "c4": 282, "c2sq": 574, "s4": 20, "tag": "y4"}

    def test_minus_y4(self):
        out = cy4_invariants(17, 45, 69)
        assert out == {"chi1_neg": 41, "c4": 294, "c2sq": 578, "s4": -20,
                       "tag": "minus_y4"}

    def test_interpolated_other(self):
        out = cy4_invariants(17, 30, 53)  # h11 - h21 + h31 = 40
        assert out["s4"] == 0 and out["tag"] == "other"

    @pytest.mark.parametrize("bad", [True, 1.5, 2.0, "1", None])
    def test_non_integer_input(self, bad):
        for args in ((bad, 0, 0), (0, bad, 0), (0, 0, bad)):
            with pytest.raises(ValueError, match="a Hodge number must be an integer"):
                cy4_invariants(*args)

    def test_consistency_check_exists(self):
        # for integer Hodge input with chi_0 = 2 the divisibility always holds
        for h11, h21, h31 in [(16, 30, 53), (1, 2, 3), (0, 0, 0)]:
            out = cy4_invariants(h11, h21, h31)
            assert (1440 + out["c4"]) % 3 == 0


class TestYidefi:
    def test_y2_via_twisted_cubes(self):
        x1 = bc.cp(1)
        y2 = bc.boundary(bc.twisted_mul(bc.twisted_mul(x1, x1), x1))
        assert bc.s_num(y2) == -48
        assert y2 == bc.k_class().scale(2)


class TestCertificateJson:
    def test_round_trip_fields(self):
        cert = cy_generator_combo(4)
        data = cert.to_json()
        assert data["dimension"] == 6
        assert data["s_value"] == 6
        assert data["target"] == 6
        assert all(data["su_checks"].values())
        assert isinstance(data["combination"], list)

    def test_su_checks_are_read_only(self):
        cert = cy_generator_combo(3)
        with pytest.raises(TypeError):
            cert.su_checks["in_w"] = False
        assert cert.to_json()["su_checks"] == {
            "c1_numbers_vanish": True, "in_w": True, "in_ker_boundary": True}


# ---------------------------------------------------------------------------
# the s basis against the permutation expansion
# ---------------------------------------------------------------------------

@functools.cache
def _elementary_product(nvars, heights):
    """prod_k e_(heights_k)(x_1, ..., x_nvars) as a polynomial in the x_i."""
    degrees = (2,) * nvars
    out = GradedPoly.constant(degrees, 1)
    for h in heights:
        out = out * GradedPoly(degrees, {
            tuple(int(i in combo) for i in range(nvars)): 1
            for combo in itertools.combinations(range(nvars), h)})
    return out


@functools.cache
def ref_monomial_in_chern(omega):
    """m_omega(x_1, ..., x_n), n = |omega|, in the elementary symmetric classes,
    as {lambda: coefficient of c_lambda = prod_i e_(lambda_i)}.

    Classical leading-term reduction over the full permutation expansion:
    repeatedly subtract the product of elementary symmetric polynomials,
    over the conjugate of the lex-leading exponent, that has the same
    leading monomial.
    """
    n = sum(omega)
    padded = tuple(omega) + (0,) * (n - len(omega))
    target = dict.fromkeys(set(itertools.permutations(padded)), 1)
    result = Counter()
    while target:
        lead = max(target)
        coeff = target[lead]
        heights = tuple(sum(1 for e in lead if e >= j) for j in range(1, lead[0] + 1))
        for exp, c in _elementary_product(n, heights).terms.items():
            left = target.get(exp, 0) - coeff * c
            if left:
                target[exp] = left
            else:
                target.pop(exp, None)
        result[heights] += coeff
    return result


def ref_s_omega(a, omega):
    return sum(c * a.number(lam) for lam, c in ref_monomial_in_chern(omega).items())


def sub_multisets(omega, weight):
    """(omega', omega'') for each distinct sub-multiset omega' of omega of the weight."""
    counts = sorted(Counter(omega).items(), reverse=True)
    for picks in itertools.product(*(range(m + 1) for _, m in counts)):
        first = tuple(p for (p, _), j in zip(counts, picks) for _ in range(j))
        if sum(first) == weight:
            rest = tuple(p for (p, m), j in zip(counts, picks) for _ in range(m - j))
            yield first, rest


class TestSBasis:
    @pytest.mark.parametrize("n", range(1, 9))
    def test_matches_permutation_expansion(self, n):
        rng = random.Random(n)
        classes = [cp_product_class(w) for w in partitions(n)]
        classes += [random_class(rng, n) for _ in range(2)]
        if n != 2:
            classes.append(construct_b(n))
        for omega in partitions(n):
            for a in classes:
                assert s_omega(a, omega) == ref_s_omega(a, omega), (omega, a)

    @pytest.mark.parametrize("n", range(1, 13))
    def test_row_n_is_girard_waring(self, n):
        assert _monomial_table(n)[0] == bc._girard_waring_row(n)
        a = random_class(random.Random(n), n)
        assert s_omega(a, (n,)) == bc.s_num(a)

    @pytest.mark.parametrize("n", range(0, 11))
    def test_cp_closed_form(self, n):
        # m_omega at n + 1 equal roots: the distinct arrangements of omega
        for omega in partitions(n):
            mult = math.prod(map(math.factorial, Counter(omega).values()))
            want = math.factorial(n + 1) // (math.factorial(n + 1 - len(omega)) * mult)
            assert s_omega(bc.cp(n), omega) == want, omega

    def test_coproduct_on_products(self):
        rng = random.Random(2019)
        for _ in range(30):
            total = rng.randint(0, 8)
            dm = rng.randint(0, total)
            m, x = random_class(rng, dm), random_class(rng, total - dm)
            mx = bc.product(m, x)
            for omega in partitions(total):
                assert s_omega(mx, omega) == sum(
                    s_omega(m, first) * s_omega(x, rest)
                    for first, rest in sub_multisets(omega, dm)), (dm, omega)

    def test_s_44_of_b8(self):
        assert s_omega(construct_b(8), (4, 4)) == 246062525

    def test_weight_must_match(self):
        with pytest.raises(ValueError):
            s_omega(bc.cp(3), (2, 2))


@pytest.mark.parametrize("i", [True, False, 3.0, 4.0, "3", None])
def test_construct_b_refuses_a_non_int_index(i):
    with pytest.raises(ValueError, match="must be an integer"):
        construct_b(i)
