"""The operation matrices against the earlier route in tests/projective_dual_reference.py.

`bordclass._projective_dual` takes its bundles as linear factors
(alpha, beta, e), each (1 + alpha x + beta c_1)^e, and walks radix-coded
monomials of H*(M)[x]; the reference takes them as functions of the formal
classes x and c_1 and walks exponent tuples in a free GradedPoly ring.  The
two must give the same matrix: the same target dimension and, row for row,
the same multiset of (index, coefficient).  An operation's matrix is read
through the operation itself (`operation_matrix`) and compared with the
reference given the operation's bundle, and the factors each operation
passes to `_projective_dual` are checked against the same bundle.
"""

import inspect
from collections import Counter

import pytest

from bordx import bordclass as bc
from bordx.bordclass import ChernVector
from bordx.exactalg import GradedPoly
from operation_matrix import operation_matrix
from projective_dual_reference import projective_dual as reference

PSI_PARAMS = [(1, 0), (0, 1), (1, 1), (2, 0), (0, 2), (2, 1), (1, 2), (2, 2)]


def canonical(matrix):
    m, rows = matrix
    return m, [Counter(zip(idx, coeffs)) for idx, coeffs in rows]


def assert_same(matrix, want):
    assert canonical(matrix) == canonical(want)


def psi_factors(k1, k2):
    return dict(fibre=((1, -1, 1), (1, 0, k1), (-1, 0, k2)), eps=1,
                sign=-1 if k2 % 2 else 1)


def psi_bundle(k1, k2):
    return dict(fibre=lambda x, c1: (1 + x - c1) * (1 + x).pow(k1) * (1 - x).pow(k2),
                eps=1, sign=-1 if k2 % 2 else 1)


def pi_bundle():
    return dict(fibre=lambda x, c1: (1 + x).pow(2), nu=lambda x, c1: 1 + x + c1)


def d_op(k):
    return lambda a: bc.boundary_k(a, k)


def psi_op(k1, k2):
    return lambda a: bc.psi_k1k2(a, k1, k2)


@pytest.mark.parametrize("n", range(12))
def test_every_operation_matches_reference(n):
    for k in range(1, min(n, 3) + 1):
        assert_same(operation_matrix(d_op(k), n),
                    reference(n, nu=lambda x, c1: (1 + c1).pow(k)))
    if n >= 2:
        assert_same(operation_matrix(bc.delta, n), reference(n, nu=lambda x, c1: 1 - c1 * c1))
    assert_same(operation_matrix(bc.stong_pi, n), reference(n, 1, **pi_bundle()))
    for k1, k2 in PSI_PARAMS:
        assert_same(operation_matrix(psi_op(k1, k2), n),
                    reference(n, k1 + k2, **psi_bundle(k1, k2)))


@pytest.mark.parametrize("n", range(12, 16))
def test_delta_and_d_match_reference_at_qt_gens_sizes(n):
    assert_same(operation_matrix(bc.delta, n), reference(n, nu=lambda x, c1: 1 - c1 * c1))
    assert_same(operation_matrix(bc.boundary, n), reference(n, nu=lambda x, c1: 1 + c1))


@pytest.mark.parametrize("n, k1, k2", [(0, 2, 0), (0, 1, 1), (0, 0, 2),
                                       (1, 2, 0), (1, 1, 1), (1, 0, 2)])
def test_smallest_radix(n, k1, k2):
    # radix n + k + 1 is 3 and 4: a carry would show at once
    assert_same(operation_matrix(psi_op(k1, k2), n),
                reference(n, k1 + k2, **psi_bundle(k1, k2)))


@pytest.mark.parametrize("n", range(4))
def test_pi_where_eps_is_zero(n):
    # x^2 = 0: the reduce step drops every x^(k+j), j > 0
    matrix = operation_matrix(bc.stong_pi, n)
    assert_same(matrix, reference(n, 1, **pi_bundle()))
    assert matrix[0] == n


@pytest.mark.parametrize("n", range(5))
@pytest.mark.parametrize("eps", [-1, 2, 3])
def test_reduce_with_other_eps(n, eps):
    # x^(k+j) = (eps c_1)^j x^k carries the factor eps^j
    for k in (1, 2, 3):
        factors = dict(psi_factors(1, k - 1), eps=eps)
        bundle = dict(psi_bundle(1, k - 1), eps=eps)
        assert_same(bc._projective_dual(n, k, **factors), reference(n, k, **bundle))


# linear factors with both alpha and beta nonzero, in the fibre and in nu
MIXED_FIBRE = ((2, -1, 1), (1, 3, 2))
MIXED_NU = ((1, 1, 1), (-2, 1, 1))


@pytest.mark.parametrize("n", range(5))
@pytest.mark.parametrize("eps", [-1, 0, 1, 2])
def test_mixed_factors_match_reference(n, eps):
    # nu has rank 2: every k whose target dimension n + k - 2 is nonnegative
    for k in range(max(0, 2 - n), 4):
        assert_same(bc._projective_dual(n, k, MIXED_FIBRE, MIXED_NU, eps),
                    reference(n, k, lambda x, c1: expand(MIXED_FIBRE, x, c1),
                              lambda x, c1: expand(MIXED_NU, x, c1), eps))


@pytest.mark.parametrize("n, k, want", [
    # e(nu) = (x + c_1)(-2x + c_1) = -2x^2 - x c_1 + c_1^2; with eps = 1
    # x^2 = c_1 x for k = 1, so e(nu) = -3 x c_1 + c_1^2 pairs to -3 c_1[M] ...
    (1, 1, (0, (((0,), (-3,)),))),
    # ... and x = c_1 for k = 0, so e(nu) = -2 c_1^2 pairs to -2 c_1^2[M]
    (2, 0, (0, (((1,), (-2,)),))),
])
def test_euler_class_is_folded_when_nothing_is_walked(n, k, want):
    assert_same(bc._projective_dual(n, k, MIXED_FIBRE, MIXED_NU, 1), want)


def expand(factors, x, c1):
    """The product of (1 + alpha x + beta c_1)^e over the factors, as a GradedPoly."""
    total = 1 + x.scale(0)
    for alpha, beta, e in factors:
        total = total * (1 + x.scale(alpha) + c1.scale(beta)).pow(e)
    return total


def operation_bundles():
    """(operation, the bundle the reference receives), one pytest.param each."""
    for k in (1, 2, 3):
        yield pytest.param(d_op(k), dict(nu=lambda x, c1, k=k: (1 + c1).pow(k)), id=f"d_{k}")
    yield pytest.param(bc.delta, dict(nu=lambda x, c1: 1 - c1 * c1), id="Delta")
    yield pytest.param(bc.stong_pi, dict(k=1, **pi_bundle()), id="pi")
    for k1, k2 in PSI_PARAMS:
        yield pytest.param(psi_op(k1, k2), dict(k=k1 + k2, **psi_bundle(k1, k2)),
                           id=f"Psi_({k1},{k2})")


@pytest.mark.parametrize("op, bundle", list(operation_bundles()))
def test_operation_factors_expand_to_the_reference_bundle(monkeypatch, op, bundle):
    n = 3
    signature = inspect.signature(bc._projective_dual)
    passed = []

    def capture(*args, **kwargs):
        passed.append(signature.bind(*args, **kwargs))
        return 0, ()

    monkeypatch.setattr(bc, "_projective_dual", capture)
    op(ChernVector(n))
    (call,) = passed
    call.apply_defaults()
    got = call.arguments
    want = inspect.signature(reference).bind(n, **bundle)
    want.apply_defaults()
    want = want.arguments
    assert [got[name] for name in ("n", "k", "eps", "sign")] == [
        want[name] for name in ("n", "k", "eps", "sign")]
    degrees = (2, 2)
    x, c1 = GradedPoly.generator(degrees, 0), GradedPoly.generator(degrees, 1)
    for name in ("fibre", "nu"):
        assert expand(got[name], x, c1) == x.scale(0) + want[name](x, c1), name


@pytest.mark.parametrize("n, k, nu", [
    (1, 0, ((0, 1, 2),)),
    (3, 0, ((0, 1, 1), (0, -1, 1), (1, 0, 2))),
    (2, 1, ((1, 1, 4),)),
    (0, 1, ((1, 0, 2),)),
    (0, 2, ((1, 5, 1), (2, 0, 2))),  # beta is dropped, the rank is not
])
def test_a_rank_above_the_dimension_is_refused_before_the_walk(monkeypatch, n, k, nu):
    def refuse(*args, **kwargs):
        raise AssertionError("the walk ran")

    monkeypatch.setattr(bc, "_walk", refuse)
    with pytest.raises(ValueError, match="rank"):
        bc._projective_dual(n, k, nu=nu)


@pytest.mark.parametrize("k, nu", [
    (0, ((0, 1, 1),)),  # d_1
    (0, ((0, 1, 1), (0, -1, 1))),  # Delta
    (2, ((0, 1, 3),)),  # rank 3 > 0 + 2 if beta counted
    (1, ((0, 2, 1), (1, 1, 1))),
])
def test_a_c1_factor_of_nu_on_a_point_has_rank_zero(k, nu):
    assert_same(bc._projective_dual(0, k, nu=nu),
                reference(0, k, nu=lambda x, c1: expand(nu, x, c1)))


def without_beta(factors):
    return tuple((alpha, 0, e) for alpha, _, e in factors)


def test_pi_on_a_point_drops_beta():
    # nu = 1 + x + c_1 with c_1 = 0: e(nu) = x, rank 1, target dimension 0
    matrix = bc._projective_dual(0, 1, fibre=((1, 0, 2),), nu=((1, 1, 1),))
    assert_same(matrix, reference(0, 1, **pi_bundle()))
    assert_same(matrix, bc._projective_dual(0, 1, fibre=((1, 0, 2),), nu=((1, 0, 1),)))
    assert_same(matrix, operation_matrix(bc.stong_pi, 0))


@pytest.mark.parametrize("k1, k2", [(k1, k - k1) for k in (1, 2, 3) for k1 in range(k + 1)])
def test_psi_on_a_point_drops_beta(k1, k2):
    factors = psi_factors(k1, k2)
    matrix = bc._projective_dual(0, k1 + k2, **factors)
    assert_same(matrix, reference(0, k1 + k2, **psi_bundle(k1, k2)))
    assert_same(matrix, bc._projective_dual(
        0, k1 + k2, **dict(factors, fibre=without_beta(factors["fibre"]))))
    assert matrix[0] == k1 + k2
