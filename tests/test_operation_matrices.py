"""The operation matrices against the earlier route in tests/projective_dual_reference.py.

`bordclass._projective_dual` walks radix-coded monomials of H*(M)[x]; the
reference walks exponent tuples in a free GradedPoly ring.  The two must
give the same matrix: the same target dimension and, row for row, the same
multiset of (index, coefficient).  The operations are passed to the
reference with the bundles the matrix functions of `bordclass` use.
"""

from collections import Counter

import pytest

from bordx import bordclass as bc
from projective_dual_reference import projective_dual as reference

PSI_PARAMS = [(1, 0), (0, 1), (1, 1), (2, 0), (0, 2), (2, 1), (1, 2), (2, 2)]


def canonical(matrix):
    m, rows = matrix
    return m, [Counter(zip(idx, coeffs)) for idx, coeffs in rows]


def assert_same(matrix, want):
    assert canonical(matrix) == canonical(want)


def psi_bundle(k1, k2):
    return dict(fibre=lambda x, c1: (1 + x - c1) * (1 + x).pow(k1) * (1 - x).pow(k2),
                eps=1, sign=-1 if k2 % 2 else 1)


def pi_bundle():
    return dict(fibre=lambda x, c1: (1 + x).pow(2), nu=lambda x, c1: 1 + x + c1)


@pytest.mark.parametrize("n", range(12))
def test_every_operation_matches_reference(n):
    for k in range(1, min(n, 3) + 1):
        assert_same(bc._boundary_matrix(n, k),
                    reference(n, nu=lambda x, c1: (1 + c1).pow(k)))
    if n >= 2:
        assert_same(bc._delta_matrix(n), reference(n, nu=lambda x, c1: 1 - c1 * c1))
    assert_same(bc._pi_matrix(n), reference(n, 1, **pi_bundle()))
    for k1, k2 in PSI_PARAMS:
        assert_same(bc._psi_matrix(n, k1, k2), reference(n, k1 + k2, **psi_bundle(k1, k2)))


@pytest.mark.parametrize("n", range(12, 16))
def test_delta_and_d_match_reference_at_qt_gens_sizes(n):
    assert_same(bc._delta_matrix(n), reference(n, nu=lambda x, c1: 1 - c1 * c1))
    assert_same(bc._boundary_matrix(n, 1), reference(n, nu=lambda x, c1: 1 + c1))


@pytest.mark.parametrize("n, k1, k2", [(0, 2, 0), (0, 1, 1), (0, 0, 2),
                                       (1, 2, 0), (1, 1, 1), (1, 0, 2)])
def test_smallest_radix(n, k1, k2):
    # radix n + k + 1 is 3 and 4: a carry would show at once
    assert_same(bc._psi_matrix(n, k1, k2), reference(n, k1 + k2, **psi_bundle(k1, k2)))


@pytest.mark.parametrize("n", range(4))
def test_pi_where_eps_is_zero(n):
    # x^2 = 0: the reduce step drops every x^(k+j), j > 0
    matrix = bc._pi_matrix(n)
    assert_same(matrix, reference(n, 1, **pi_bundle()))
    assert matrix[0] == n


@pytest.mark.parametrize("n", range(5))
@pytest.mark.parametrize("eps", [-1, 2, 3])
def test_reduce_with_other_eps(n, eps):
    # x^(k+j) = (eps c_1)^j x^k carries the factor eps^j
    for k in (1, 2, 3):
        bundle = dict(psi_bundle(1, k - 1), eps=eps)
        assert_same(bc._projective_dual(n, k, **bundle), reference(n, k, **bundle))
