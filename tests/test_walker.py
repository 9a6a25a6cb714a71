"""Differential tests of the Chern-number routes of `bordclass`.

Every operation that reaches characteristic numbers through the partition
walker `bordclass._walk` (the operation matrices and the tower Chern
numbers) is compared with a brute-force reference kept here: one partition at a time, the full product rebuilt from 1 for each, no
prefix sharing and no early exit on zero.  `product` (the split
table) is compared with the same reference over the formal ring of both
factors, and `s_num` (the Girard-Waring row) with the Newton recurrence.
Exact equality only.
"""

import gc
import math
import random
from collections import Counter

from hypothesis import given, settings
from hypothesis import strategies as st
import pytest

from bordx import bordclass, numbers, tower
from bordx.bordclass import ChernVector
from bordx.cli import sample_classes
from bordx.cohomring import evaluate_top
from bordx.exactalg import GradedPoly, partitions
from operation_matrix import operation_matrix
from paper_examples_reference import s_polynomial
from projective_dual_reference import projective_dual
from series_reference import graded_part, inverse_one_plus

SAMPLES = sample_classes()
PSI_PARAMS = [(1, 0), (0, 1), (1, 1), (2, 0), (0, 2), (2, 1), (1, 2), (2, 2)]
TOWERS = [
    ("Ltilde", 2, 1), ("Ltilde", 2, 3), ("Ltilde", 4, 1),
    ("Ntilde", 2, 1), ("Ntilde", 2, 3), ("L", 2, 3),
]


# ---------------------------------------------------------------------------
# the brute-force reference
# ---------------------------------------------------------------------------

def _brute(n, total, evaluate, start=None, reduce=lambda p: p):
    if start is None:
        start = GradedPoly.constant(total.degrees, 1)
    numbers = {}
    for omega in partitions(n):
        poly = start
        for i in omega:
            poly = reduce(poly.mul(graded_part(total, 2 * i)))
        numbers[omega] = evaluate(poly)
    return ChernVector(n, numbers)


def _to_partition(exp):
    return tuple(sorted((i + 1 for i, e in enumerate(exp) for _ in range(e)),
                        reverse=True))


def _chern_ring(n, extra=0):
    """Degree-2 generators first, then c_1..c_n; returns (degrees, c(M), c_1)."""
    degrees = (2,) * extra + tuple(2 * i for i in range(1, n + 1))
    total = GradedPoly.constant(degrees, 1)
    for i in range(n):
        total = total + GradedPoly.generator(degrees, extra + i)
    c1 = GradedPoly.generator(degrees, extra) if n else GradedPoly.zero(degrees)
    return degrees, total, c1


def ref_product(a, b):
    na, nb = a.dim, b.dim
    degrees = tuple(2 * i for i in range(1, na + 1)) + tuple(
        2 * j for j in range(1, nb + 1))
    one = GradedPoly.constant(degrees, 1)
    c_a, c_b = one, one
    for i in range(na):
        c_a = c_a + GradedPoly.generator(degrees, i)
    for j in range(nb):
        c_b = c_b + GradedPoly.generator(degrees, na + j)

    def evaluate(poly):
        total = 0
        for exp, coeff in poly.terms.items():
            wa, wb = _to_partition(exp[:na]), _to_partition(exp[na:])
            if sum(wa) == na and sum(wb) == nb:
                total += coeff * a.numbers[wa] * b.numbers[wb]
        return total

    return _brute(na + nb, c_a * c_b, evaluate)


def ref_s_polynomial(n):
    """s_n in the formal classes c_1..c_n by the Newton recurrence
    s_k = sum_{i<k} (-1)^(i-1) c_i s_(k-i) + (-1)^(k-1) k c_k."""
    degrees = tuple(2 * i for i in range(1, n + 1))
    c = [GradedPoly.generator(degrees, i) for i in range(n)]
    s = [GradedPoly.zero(degrees)]
    for k in range(1, n + 1):
        acc = c[k - 1].scale((-1) ** (k - 1) * k)
        for i in range(1, k):
            acc = acc + (c[i - 1] * s[k - i]).scale((-1) ** (i - 1))
        s.append(acc)
    return s[n]


def pair(a, poly):
    """<poly, [M]> for poly in the formal classes c_1..c_n of a; terms of
    degree other than 2n pair to zero."""
    return sum(coeff * a.number(_to_partition(exp)) for exp, coeff in poly.terms.items()
               if poly.term_degree(exp) == 2 * a.dim)


def ref_s_num(a):
    return pair(a, ref_s_polynomial(a.dim))


def random_class(rng, n):
    """Every Chern number of dimension n drawn at random, not only CP combinations."""
    return ChernVector(n, {w: rng.randint(-1000, 1000) for w in partitions(n)})


def ref_boundary_k(a, k):
    n = a.dim
    _, total, c1 = _chern_ring(n)
    q = total.mul(inverse_one_plus(c1, 2 * n).pow(k, 2 * n), 2 * n)
    return _brute(n - k, q, lambda poly: pair(a, poly), start=c1.pow(k))


def ref_delta(a):
    n = a.dim
    _, total, c1 = _chern_ring(n)
    c1sq = c1 * c1
    r = total.mul(inverse_one_plus(-c1sq, 2 * n), 2 * n)
    return _brute(n - 2, r, lambda poly: pair(a, poly), start=-c1sq)


def ref_psi_k1k2(a, k1, k2):
    n, k = a.dim, k1 + k2
    cap = 2 * (n + k)
    degrees, total, c1 = _chern_ring(n, extra=1)
    one, v = GradedPoly.constant(degrees, 1), GradedPoly.generator(degrees, 0)
    total = total.mul(one + v - c1, cap)
    total = total.mul((one + v).pow(k1, cap), cap)
    total = total.mul((one - v).pow(k2, cap), cap)
    _, _, c1_base = _chern_ring(n)

    def evaluate(poly):
        # v^(k+j) = c_1^j v^k; the v^k layer pairs with a
        acc = GradedPoly.zero(degrees[1:])
        for exp, coeff in poly.terms.items():
            if exp[0] >= k:
                mono = GradedPoly.monomial(degrees[1:], exp[1:], coeff)
                acc = acc + mono.mul(c1_base.pow(exp[0] - k))
        return (-1) ** k2 * pair(a, acc)

    return _brute(n + k, total, evaluate)


def ref_stong_pi(a):
    n = a.dim
    cap = 2 * (n + 1)
    degrees, total, c1 = _chern_ring(n, extra=1)
    t = GradedPoly.generator(degrees, 0)

    def drop_t2(p):
        return GradedPoly(degrees, {e: c for e, c in p.terms.items() if e[0] < 2})

    ambient = total.mul(drop_t2((1 + t).pow(2)), cap)
    p = drop_t2(ambient.mul(inverse_one_plus(t + c1, cap), cap))

    def evaluate(poly):
        acc = GradedPoly.zero(degrees[1:])
        for exp, coeff in poly.terms.items():
            if exp[0] == 1:
                acc = acc + GradedPoly.monomial(degrees[1:], exp[1:], coeff)
        return pair(a, acc)

    return _brute(n, p, evaluate, start=t + c1, reduce=drop_t2)


def ref_tower_chern_numbers(spec):
    ring = tower.presented_ring(spec)
    sign = -1 if spec.convention == "bordism" and len(spec.conjugations) % 2 else 1
    return _brute(spec.dim, tower.total_chern(spec),
                  lambda x: sign * evaluate_top(ring, x))


def ref_cp_product(omega):
    cls = bordclass.cp(omega[0])
    for i in omega[1:]:
        cls = ref_product(cls, bordclass.cp(i))
    return cls


def check_all_operations(a):
    n = a.dim
    for k in range(1, min(n, 3) + 1):
        assert bordclass.boundary_k(a, k) == ref_boundary_k(a, k)
    if n >= 2:
        assert bordclass.delta(a) == ref_delta(a)
    for k1, k2 in PSI_PARAMS:
        assert bordclass.psi_k1k2(a, k1, k2) == ref_psi_k1k2(a, k1, k2)
    assert bordclass.stong_pi(a) == ref_stong_pi(a)


# ---------------------------------------------------------------------------
# the sample classes
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("label,a", SAMPLES, ids=[lab for lab, _ in SAMPLES])
def test_operations_match_reference(label, a):
    check_all_operations(a)


@pytest.mark.parametrize("label,a", SAMPLES, ids=[lab for lab, _ in SAMPLES])
def test_product_matches_reference(label, a):
    for _, b in SAMPLES:
        if 1 <= a.dim and 1 <= b.dim and a.dim + b.dim <= 8:
            assert bordclass.product(a, b) == ref_product(a, b)


@pytest.mark.parametrize("name,n1,n2", TOWERS)
@pytest.mark.parametrize("convention", ["toric", "bordism"])
def test_tower_chern_numbers_match_reference(name, n1, n2, convention):
    spec = tower.build_family(name, n1, n2, convention=convention)
    assert tower.chern_numbers(spec) == ref_tower_chern_numbers(spec)


def test_zero_subtrees_are_zero():
    # c_1 of an SU tower is formally 0, so the walker skips every subtree
    # below a part 1; those numbers must still read 0
    spec = tower.build_family("Ntilde", 2, 3, convention="bordism")
    assert graded_part(tower.total_chern(spec), 2).is_zero()
    got = tower.chern_numbers(spec)
    assert got == ref_tower_chern_numbers(spec)
    assert all(v == 0 for w, v in got.numbers.items() if 1 in w)
    assert not got.is_zero()


# ---------------------------------------------------------------------------
# the split table and the Girard-Waring row on random integer vectors
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("n", range(7))
def test_operations_match_reference_on_random_vectors(n):
    check_all_operations(random_class(random.Random(200 + n), n))


@pytest.mark.parametrize("n", range(11))
def test_product_matches_reference_on_random_vectors(n):
    rng = random.Random(n)
    for na in range(n + 1):
        for _ in range(2):
            a, b = random_class(rng, na), random_class(rng, n - na)
            assert bordclass.product(a, b) == ref_product(a, b)


@pytest.mark.parametrize("n", range(17))
def test_s_num_matches_newton_on_random_vectors(n):
    rng = random.Random(100 + n)
    for _ in range(3):
        a = random_class(rng, n)
        assert bordclass.s_num(a) == ref_s_num(a)


@pytest.mark.parametrize("n", range(9))
def test_pair_method_matches_reference(n):
    a = random_class(random.Random(200 + n), n)
    for poly in (ref_s_polynomial(n) if n else GradedPoly.constant((), 3),
                 _chern_ring(n)[1].pow(2)):
        assert a.pair(poly) == pair(a, poly)


@pytest.mark.parametrize("n", range(1, 17))
def test_s_polynomial_matches_newton(n):
    degrees = tuple(2 * i for i in range(1, n + 1))
    chern = [GradedPoly.generator(degrees, i) for i in range(n)]
    assert s_polynomial(n, chern) == ref_s_polynomial(n)


@pytest.mark.parametrize("n", range(1, 17))
def test_s_num_of_cp(n):
    assert bordclass.s_num(bordclass.cp(n)) == n + 1


# ---------------------------------------------------------------------------
# hypothesis-drawn combinations of CP-products
# ---------------------------------------------------------------------------

@st.composite
def cp_combinations(draw, max_dim=6):
    n = draw(st.integers(min_value=1, max_value=max_dim))
    omegas = draw(st.lists(st.sampled_from(partitions(n)), min_size=1, max_size=4))
    a = ChernVector(n)
    for omega in omegas:
        coeff = draw(st.integers(min_value=-5, max_value=5))
        a = a + ref_cp_product(omega).scale(coeff)
    return a


_SETTINGS = settings(max_examples=25, deadline=None, derandomize=True,
                     database=None)


@_SETTINGS
@given(cp_combinations())
def test_operations_match_reference_on_combinations(a):
    check_all_operations(a)


@_SETTINGS
@given(cp_combinations(max_dim=4), cp_combinations(max_dim=4))
def test_product_matches_reference_on_combinations(a, b):
    assert bordclass.product(a, b) == ref_product(a, b)


@_SETTINGS
@given(st.lists(st.integers(min_value=1, max_value=4), min_size=1, max_size=3)
       .filter(lambda parts: sum(parts) <= 6))
def test_tower_chern_numbers_match_reference_on_cp_products(parts):
    spec = tower.build_family("CPprod", parts, convention="bordism")
    assert tower.chern_numbers(spec) == ref_tower_chern_numbers(spec)
    assert tower.chern_numbers(spec) == ref_cp_product(sorted(parts, reverse=True))


# ---------------------------------------------------------------------------
# the walker closes every tail of ones in one `ones` call
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("n", range(9))
def test_walk_reaches_every_partition_in_basis_order(n):
    values = bordclass._walk(n, 1, lambda value, part, rest: value * part,
                             _ones_by_steps, lambda value: value, None)
    assert values == [math.prod(omega) for omega in bordclass._basis(n)[0]]


def test_walk_leaves_out_a_zero_tail_of_ones():
    values = bordclass._walk(6, 1, lambda value, part, rest: value * part,
                             lambda value, r: None, lambda value: value, "zero")
    assert values == ["zero" if 1 in omega else math.prod(omega)
                      for omega in bordclass._basis(6)[0]]


def test_walk_from_a_zero_start_is_zero_everywhere():
    def fail(*args):
        raise AssertionError("a zero start took a step")

    assert bordclass._walk(5, None, fail, fail, fail, 0) == [0] * len(partitions(5))


@pytest.fixture
def walk_parts(monkeypatch):
    """The parts every `step` call takes and the tails every `ones` call
    closes, from an empty operation-matrix cache."""
    bordclass._projective_dual.cache_clear()
    seen = {"step": [], "ones": []}
    real = bordclass._walk

    def recording(n, start, step, ones, evaluate, zero):
        def step_seen(value, part, rest):
            seen["step"].append(part)
            return step(value, part, rest)

        def ones_seen(value, r):
            seen["ones"].append(r)
            return ones(value, r)

        return real(n, start, step_seen, ones_seen, evaluate, zero)

    monkeypatch.setattr(bordclass, "_walk", recording)
    return seen


@pytest.mark.parametrize("build", [
    lambda: bordclass.boundary_k(ChernVector(7), 2),
    lambda: bordclass.delta(ChernVector(7)),
    lambda: bordclass.psi_k1k2(ChernVector(7), 2, 1),
    lambda: bordclass.stong_pi(ChernVector(7)),
    lambda: tower.chern_numbers(tower.build_family("CPprod", [3, 2, 1])),
    lambda: tower.chern_numbers(tower.build_family("Ntilde", 2, 3)),
], ids=["d_2", "Delta", "Psi_(2,1)", "pi", "CPprod", "Ntilde"])
def test_no_step_takes_a_part_of_one(walk_parts, build):
    build()
    assert walk_parts["step"] and min(walk_parts["step"]) >= 2
    assert walk_parts["ones"] and min(walk_parts["ones"]) >= 1


# k1 + k2 = 3 and 4: piece_1^r reaches the largest exponents the radix holds
PSI_WIDE_PARAMS = [(k1, k - k1) for k in (3, 4) for k1 in range(k + 1)]


@pytest.mark.parametrize("k1,k2", PSI_WIDE_PARAMS)
@pytest.mark.parametrize("n", range(13))
def test_psi_with_a_wide_fibre_matches_the_step_by_step_walk(n, k1, k2):
    bundle = dict(fibre=lambda x, c1: (1 + x - c1) * (1 + x).pow(k1) * (1 - x).pow(k2),
                  eps=1, sign=-1 if k2 % 2 else 1)
    m, rows = operation_matrix(lambda a: bordclass.psi_k1k2(a, k1, k2), n)
    want_m, want_rows = projective_dual(n, k1 + k2, **bundle)
    assert m == want_m
    assert [Counter(zip(*row)) for row in rows] == [Counter(zip(*row)) for row in want_rows]


# ---------------------------------------------------------------------------
# the recursive walkers leave no reference cycle behind
# ---------------------------------------------------------------------------

def _ones_by_steps(value, r):
    """value * 1^r, one part at a time: the walker's test `ones`."""
    for _ in range(r):
        value = value * 1 or None
        if value is None:
            return None
    return value


WALKER_CALLS = {
    "_walk": lambda: bordclass._walk(
        8, 1, lambda value, part, rest: value * part or None, _ones_by_steps,
        lambda value: value, 0),
    "_split_table": lambda: bordclass._split_table.__wrapped__(4, 5),
    "verify_alpha_gcd": lambda: numbers.verify_alpha_gcd(12),
}


@pytest.mark.parametrize("call", WALKER_CALLS.values(), ids=WALKER_CALLS.keys())
def test_walker_leaves_no_cycle(call):
    call()  # fills the caches it reads, which are not garbage
    gc.collect()
    gc.disable()
    try:
        call()
        assert gc.collect() == 0
    finally:
        gc.enable()
