"""Every tower read as one list of projectivisation blocks.

`tower._blocks` gives a base factor CP^(n_i) as the block of n_i + 1 lines
of weight 0 and each stage as its own lines; the ring, the roster, the
characteristic matrix and the sizes are all read off it.  These tests check
that each equals the base-and-stage code kept in `tower_reference`: on drawn
towers, on every L, Ltilde, Ntilde and CPprod instance up to dimension 12,
and on a three-factor base and a one-line stage.
"""

from hypothesis import given, settings
import pytest

from bordx import tower
from bordx.exactalg import GradedPoly, partitions
from bordx.tower import Stage, TowerSpec

import tower_reference as reference
from test_tower import tower_specs

LARGEST = 12


def family_instances():
    out = [("CPprod", (omega,)) for n in range(LARGEST + 1) for omega in partitions(n)]
    for n1 in range(LARGEST + 1):
        for n2 in range(LARGEST + 1 - n1):
            out.append(("L", (n1, n2)))
            if n1 % 2 == 0 < n1 and n2 % 2:
                out.append(("Ltilde", (n1, n2)))
                if n1 + n2 < LARGEST:
                    out.append(("Ntilde", (n1, n2)))
    return out


FAMILIES = family_instances()

EXTRA = {
    "three-factor base": TowerSpec(
        (1, 2, 1), (Stage(((1, -1, 2), (0, 0, 0), (0, 3, -1))),), frozenset({0, 4, 8}),
        "bordism"),
    "one-line stage": TowerSpec((2,), (Stage(((-1,),)), Stage(((1, 2), (0, 0)))),
                                frozenset({1, 3})),
}


def _presentation(ring):
    return ring.degrees, ring.relations, ring.top_degree, ring.fundamental_monomial


def assert_as_the_reference(spec):
    assert tower._block_sizes(spec) == list(map(len, tower._blocks(spec)))
    assert spec.dim == reference.dim(spec)
    assert spec.roster_size() == reference.roster_size(spec)
    assert spec.cohomology_rank == reference.cohomology_rank(spec)
    assert tower.roster(spec) == reference.roster(spec)
    M, want = tower._tower_char_matrix(spec), reference._tower_char_matrix(spec)
    assert M == want and M.polytope == want.polytope
    try:
        want = reference.presented_ring(spec)
    except ValueError:  # above the rank bound: refused by both
        with pytest.raises(ValueError, match="cohomology rank"):
            tower.presented_ring(spec)
        return
    assert _presentation(tower.presented_ring(spec)) == _presentation(want)


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(tower_specs())
def test_drawn_towers_equal_the_reference(spec):
    assert_as_the_reference(spec)


@pytest.mark.parametrize("name,params", FAMILIES, ids=[f"{n}{p}" for n, p in FAMILIES])
def test_families_equal_the_reference(name, params):
    assert_as_the_reference(tower.build_family(name, *params))


@pytest.mark.parametrize("spec", EXTRA.values(), ids=EXTRA.keys())
def test_extra_towers_equal_the_reference(spec):
    assert_as_the_reference(spec)


def test_families_cover_every_instance():
    count = {name: sum(n == name for n, _ in FAMILIES) for name in ("L", "Ltilde", "Ntilde")}
    # L: n1 + n2 <= 12; Ltilde: n1 even > 0, n2 odd; Ntilde: also n1 + n2 + 1 <= 12
    assert count == {"L": 91, "Ltilde": 15, "Ntilde": 15}
    assert sum(n == "CPprod" for n, _ in FAMILIES) == sum(
        len(partitions(n)) for n in range(LARGEST + 1))


def test_a_base_factor_is_a_block_of_weight_zero_lines():
    spec = EXTRA["three-factor base"]
    assert tower._blocks(spec)[:3] == [((),) * 2, ((0,),) * 3, ((0, 0),) * 2]
    assert tower._blocks(spec)[3] == spec.stages[0].lines


def test_a_base_relation_is_a_pure_power():
    ring = tower.presented_ring(EXTRA["three-factor base"])
    degrees = ring.degrees
    assert ring.relations[:3] == (GradedPoly.generator(degrees, 0, 2),
                                  GradedPoly.generator(degrees, 1, 3),
                                  GradedPoly.generator(degrees, 2, 2))
    assert ring.fundamental_monomial == (1, 2, 1, 2)


def test_a_one_line_stage_adds_no_dimension():
    spec = EXTRA["one-line stage"]
    assert spec.dim == 3 and tower._tower_char_matrix(spec).polytope == (2, 0, 1)
    u, v, w = (GradedPoly.generator((2, 2, 2), i) for i in range(3))
    assert tower.presented_ring(spec).relations[1] == v - u  # P(L) = M: v = u
    # the lines of the last stage are w + u + 2v = w + 3u and w, and the
    # stage's own summand v - u is 0, conjugated or not
    assert tower.chern_numbers(spec) == tower.chern_numbers(TowerSpec(
        (2,), (Stage(((3,), (0,))),), frozenset({1})))


def no_blocks(spec):
    raise AssertionError("a refused size built its blocks")


@pytest.mark.parametrize("base", [(10**9,), (10**12,), (3, 10**12), (10**9, 10**9)])
def test_a_huge_base_factor_is_refused_before_its_blocks(base, monkeypatch):
    # a base block of n_i + 1 lines would take memory in proportion to n_i
    monkeypatch.setattr(tower, "_blocks", no_blocks)
    spec = TowerSpec(base, (), frozenset({0, sum(base)}))
    assert spec.dim == sum(base) and spec.roster_size() == sum(base) + len(base)
    for work in (tower.presented_ring, tower.chern_numbers, tower._tower_char_matrix):
        with pytest.raises(ValueError, match="dimension"):
            work(spec)
    with pytest.raises(ValueError, match="dimension"):
        tower.chern_numbers(tower.build_family("CPprod", list(base)))
