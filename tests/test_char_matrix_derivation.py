"""Characteristic matrices read off the TowerSpec.

`tower._tower_char_matrix` takes one column per roster summand, in roster
order, and one row per summand that is not the last of its block.  These
tests check it on drawn towers against the tower's own invariants, on the
named families against the facet-ring route of
`test_charmatrix_consistency`, and against the hand-typed matrices of
`char_matrix_reference`.
"""

import pytest
from hypothesis import given, settings

from bordx import bordclass, tower
from bordx.exactalg import GradedPoly, partitions

import char_matrix_reference as reference
from test_charmatrix_consistency import CASES, _equal_up_to_sign, quasitoric_chern_numbers
from test_tower import tower_specs

LARGEST = bordclass.CHERN_MAX_DIM

small_towers = tower_specs().filter(lambda spec: spec.dim <= 6)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(small_towers)
def test_drawn_towers_have_unimodular_vertices(spec):
    M = tower._tower_char_matrix(spec)
    assert M.matrix.cols == spec.roster_size() and M.matrix.rows == spec.dim
    M.validate_vertices()


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(small_towers)
def test_su_check_is_the_vanishing_of_c1(spec):
    c1 = sum(tower.signed_roster(spec), GradedPoly.zero((2,) * spec.generator_count))
    assert tower.su_check(tower._tower_char_matrix(spec)) == c1.is_zero()


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(small_towers)
def test_facet_ring_of_drawn_towers_up_to_one_sign(spec):
    via_matrix = quasitoric_chern_numbers(tower._tower_char_matrix(spec))
    assert _equal_up_to_sign(via_matrix, tower.chern_numbers(spec.with_convention("toric")))


@pytest.mark.parametrize("name,params", [(name, (n1, n2)) for name, n1, n2 in CASES] + [
    ("L", (1, 1)), ("L", (2, 3)), ("L", (3, 2)), ("L", (0, 3)),
    ("CPprod", ((2,),)), ("CPprod", ((3,),)), ("CPprod", ((2, 1),)),
    ("CPprod", ((1, 1, 1),)), ("CPprod", ((1, 3),)),
])
def test_facet_ring_of_families_is_exact(name, params):
    via_matrix = quasitoric_chern_numbers(tower.char_matrix(name, *params))
    assert via_matrix == tower.chern_numbers(tower.build_family(name, *params))


def test_cpprod_and_l_equal_the_reference():
    omegas = [omega for n in range(9) for omega in partitions(n)]
    omegas += [(LARGEST,), (12, 12), (3,) * 8, (1,) * LARGEST, (1, 23)]
    for omega in omegas:
        assert tower.char_matrix("CPprod", omega) == reference.char_matrix("CPprod", omega)
    for n1 in range(1, LARGEST):
        for n2 in range(1, LARGEST + 1 - n1):
            assert tower.char_matrix("L", n1, n2) == reference.char_matrix("L", n1, n2)


@pytest.mark.parametrize("name,n1,n2", [
    ("Ltilde", 2, 1), ("Ltilde", 2, 5), ("Ltilde", 4, 3), ("Ltilde", 6, 1),
    ("Ntilde", 2, 1), ("Ntilde", 2, 3), ("Ntilde", 4, 1), ("Ntilde", 4, 3),
])
def test_ltilde_ntilde_facet_ring_equals_the_reference(name, n1, n2):
    derived = quasitoric_chern_numbers(tower.char_matrix(name, n1, n2))
    assert derived == quasitoric_chern_numbers(reference.char_matrix(name, n1, n2))


def test_su_families_up_to_the_bound():
    for name, extra in (("Ltilde", 0), ("Ntilde", 1)):
        for n1 in range(2, LARGEST + 1, 2):
            for n2 in range(1, LARGEST + 1 - n1 - extra, 2):
                M = tower.char_matrix(name, n1, n2)
                M.validate_vertices()
                assert tower.su_check(M), (name, n1, n2)
                assert all(sum(row[j] for row in M.matrix.entries) == 1
                           for j in range(M.matrix.cols)), (name, n1, n2)


def test_polytope_is_in_roster_order():
    # not sorted: the CP^1 factor of Ntilde comes first, the fibre last
    assert tower.char_matrix("Ntilde", 4, 3).polytope == (1, 4, 3)
    assert tower.char_matrix("L", 2, 5).polytope == (2, 5)


@pytest.mark.parametrize("n1,n2,n", [(0, 3, 3), (3, 0, 3), (0, 0, 0)])
def test_l_with_a_zero_parameter_is_a_projective_space(n1, n2, n):
    assert tower.char_matrix("L", n1, n2) == tower.char_matrix("CPprod", (n,) if n else ())


def _fail(*args, **kwargs):
    raise AssertionError("a refused family started work")


@pytest.mark.parametrize("name,n1,n2", [
    ("L", True, 1), ("L", 1, 2.0), ("Ltilde", 2, True), ("Ltilde", 2.0, 1),
    ("Ntilde", True, 1), ("Ntilde", 2, 1.0), ("Ntilde", 2, "3"),
])
def test_family_parameters_must_be_ints(name, n1, n2, monkeypatch):
    monkeypatch.setattr(tower, "Stage", _fail)
    monkeypatch.setattr(tower, "CharMatrix", _fail)
    for call in (tower.build_family, tower.char_matrix):
        with pytest.raises(ValueError, match="must be an integer"):
            call(name, n1, n2)
