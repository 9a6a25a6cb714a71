"""Tests for the manifold families: presentations, Chern data, s-numbers,
characteristic matrices and the SU criterion."""

import itertools
import json
import math
import operator

from hypothesis import given, settings
from hypothesis import strategies as st
import pytest

from bordx import bordclass, cohomring, tower
from bordx.cli import snl_closed_form, snn_closed_form
from bordx.exactalg import GradedPoly, IntMatrix

from series_reference import graded_part
from test_charmatrix_consistency import CASES as CHARMATRIX_CASES
from test_walker import TOWERS, UNPAIRED
import tower_reference as reference


def gens(ring):
    return [GradedPoly.generator(ring.degrees, j) for j in range(len(ring.degrees))]


def tower_document(spec):
    """The JSON object `tower.tower_from_json` reads as spec, every
    conjugation under the top-level "conjugate" key."""
    return {"base": list(spec.base), "conjugate": sorted(spec.conjugations),
            "stages": [{"lines": [list(w) for w in s.lines]} for s in spec.stages],
            "convention": spec.convention}


def char_matrix_document(M):
    """The JSON object `tower.char_matrix_from_json` reads as M."""
    return {"simplex_dims": list(M.polytope), "lambda": [list(r) for r in M.matrix.entries]}


class TestBuildFamily:
    def test_l11_presentation(self):
        ring = tower.presented_ring(tower.build_family("L", 1, 1))
        u, v = gens(ring)
        assert set(ring.relations) == {u * u, v * v - u * v}
        assert ring.fundamental_monomial == (1, 1)

    def test_ntilde_relations(self):
        n1, n2 = 2, 3
        ring = tower.presented_ring(tower.build_family("Ntilde", n1, n2))
        u, v, w = gens(ring)
        expected = (w - u) * (w - u) * (v + w) * w.pow(n2 - 2)
        assert set(ring.relations) == {u * u, v.pow(n1 + 1), expected}

    def test_cpprod(self):
        spec = tower.build_family("CPprod", (3,))
        assert spec.dim == 3
        ring = tower.presented_ring(spec)
        assert len(ring.degrees) == 1
        assert ring.relations[0] == GradedPoly.generator(ring.degrees, 0, 4)

    def test_parity_errors(self):
        with pytest.raises(ValueError):
            tower.build_family("Ltilde", 3, 1)
        with pytest.raises(ValueError):
            tower.build_family("Ltilde", 2, 2)
        with pytest.raises(ValueError):
            tower.build_family("Ntilde", 1, 1)

    def test_l_degenerate_cases(self):
        assert tower.build_family("L", 0, 3).dim == 3
        assert tower.build_family("L", 3, 0).dim == 3


class TestTotalChern:
    def test_l_standard(self):
        n1, n2 = 2, 3
        spec = tower.build_family("L", n1, n2)
        ring = tower.presented_ring(spec)
        u, v = gens(ring)
        one = GradedPoly.constant(ring.degrees, 1)
        cap = ring.top_degree
        paper = (one + u).pow(n1 + 1, cap).mul(one + v - u, cap).mul(
            (one + v).pow(n2, cap), cap
        )
        assert tower.total_chern(spec) == paper

    def test_ltilde(self):
        n1, n2 = 4, 3
        k1, k2 = n1 // 2, (n2 - 1) // 2
        spec = tower.build_family("Ltilde", n1, n2)
        ring = tower.presented_ring(spec)
        u, v = gens(ring)
        one = GradedPoly.constant(ring.degrees, 1)
        cap = ring.top_degree
        paper = (
            (one - u * u).pow(k1, cap)
            .mul(one + u, cap)
            .mul(one + v - u, cap)
            .mul((one - v * v).pow(k2, cap), cap)
            .mul(one - v, cap)
        )
        assert tower.total_chern(spec) == paper

    def test_ntilde_in_ring(self):
        n1, n2 = 2, 5
        k1, k2 = n1 // 2, (n2 - 1) // 2
        spec = tower.build_family("Ntilde", n1, n2)
        ring = tower.presented_ring(spec)
        u, v, w = gens(ring)
        one = GradedPoly.constant(ring.degrees, 1)
        cap = ring.top_degree
        paper = (
            (one - v * v).pow(k1, cap)
            .mul(one + v, cap)
            .mul(one - (w - u) * (w - u), cap)
            .mul(one - v - w, cap)
            .mul((one - w * w).pow(k2 - 1, cap), cap)
            .mul(one + w, cap)
        )
        diff = tower.total_chern(spec) - paper
        for d in range(0, cap + 1, 2):
            assert cohomring.normal_form(ring, graded_part(diff, d)).is_zero()

    def test_su_condition_in_ring(self):
        for name, n1, n2 in [("Ltilde", 2, 1), ("Ltilde", 4, 5), ("Ntilde", 2, 1),
                             ("Ntilde", 2, 3), ("Ntilde", 4, 5)]:
            spec = tower.build_family(name, n1, n2)
            ring = tower.presented_ring(spec)
            c1 = sum(tower.signed_roster(spec), GradedPoly.zero(ring.degrees))
            assert cohomring.normal_form(ring, c1).is_zero()

    def test_cpprod_degree_two_part(self):
        omega = (3, 2, 1)
        spec = tower.build_family("CPprod", omega, convention="bordism")
        c = tower.total_chern(spec)
        deg = (2,) * len(omega)
        expected = GradedPoly.zero(deg)
        for j, i in enumerate(omega):
            expected = expected + GradedPoly.generator(deg, j).scale(i + 1)
        assert graded_part(c, 2) == expected


class TestChernNumbers:
    def test_cp2(self):
        vec = tower.chern_numbers(tower.build_family("CPprod", (2,)))
        assert vec.number((1, 1)) == 9 and vec.number((2,)) == 3

    def test_cp1_squared(self):
        vec = tower.chern_numbers(tower.build_family("CPprod", (1, 1)))
        assert vec.number((1, 1)) == 8 and vec.number((2,)) == 4

    def test_v4_tower_bordism(self):
        spec = tower.TowerSpec(base=(2,), conjugations=frozenset({0}),
                               convention="bordism")
        assert tower.chern_numbers(spec) == bordclass.v4()

    def test_matches_product_of_cps(self):
        vec = tower.chern_numbers(tower.build_family("CPprod", (2, 1)))
        assert vec == bordclass.product(bordclass.cp(2), bordclass.cp(1))

    def test_export_convention_sign(self):
        spec = tower.build_family("Ltilde", 2, 1)
        toric = tower.chern_numbers(spec)
        bord = tower.chern_numbers(spec.with_convention("bordism"))
        sign = -1 if len(spec.conjugations) % 2 else 1
        assert bord == toric.scale(sign)


class TestSNumbers:
    def test_spot_values(self):
        assert tower.s_number(tower.build_family("Ltilde", 2, 1)) == 0
        assert tower.s_number(tower.build_family("Ntilde", 2, 1)) == 0
        assert tower.s_number(tower.build_family("Ntilde", 2, 3)) == 14
        assert tower.s_number(tower.build_family("Ltilde", 2, 3)) == 5

    def test_ltilde_23_formula(self):
        assert snl_closed_form(2, 3) == -math.comb(5, 1) + math.comb(5, 2)

    def test_closed_forms_on_grid(self):
        for n1 in (2, 4, 6, 8, 10):
            for n2 in (1, 3, 5, 7, 9):
                sL = tower.s_number(tower.build_family("Ltilde", n1, n2))
                assert sL == snl_closed_form(n1, n2), (n1, n2)
                sN = tower.s_number(tower.build_family("Ntilde", n1, n2))
                assert sN == snn_closed_form(n1, n2), (n1, n2)

    def test_ntilde_n2_formula(self):
        # s_n(Ntilde(2, n2)) = n^2 - 3n - 4 for n > 4
        for n2 in (3, 5, 7):
            n = 3 + n2
            assert tower.s_number(tower.build_family("Ntilde", 2, n2)) == n * n - 3 * n - 4

    def test_s_number_agrees_with_chern_vector(self):
        for name, n1, n2 in [("Ltilde", 2, 3), ("Ntilde", 2, 3)]:
            spec = tower.build_family(name, n1, n2)
            assert tower.s_number(spec) == bordclass.s_num(tower.chern_numbers(spec))


class TestCharMatrix:
    def test_l11(self):
        M = tower.char_matrix("L", 1, 1)
        assert M.matrix.entries == ((1, -1, 0, 0), (0, 1, 1, -1))

    def test_cpn(self):
        M = tower.char_matrix("CPprod", (3,))
        assert M.matrix.entries == (
            (1, 0, 0, -1),
            (0, 1, 0, -1),
            (0, 0, 1, -1),
        )

    def test_ntilde_shape(self):
        M = tower.char_matrix("Ntilde", 2, 1)
        assert M.matrix.rows == 4 and M.matrix.cols == 7

    def test_vertex_determinants(self):
        for name, params in [
            ("CPprod", ((2, 2),)),
            ("L", (2, 3)),
            ("Ltilde", (2, 3)),
            ("Ltilde", (4, 1)),
            ("Ntilde", (2, 1)),
            ("Ntilde", (2, 3)),
            ("Ntilde", (4, 3)),
        ]:
            tower.char_matrix(name, *params).validate_vertices()

    @pytest.mark.parametrize("b", [-2, 0, 2])
    def test_vertex_without_unit_determinant_refused(self, b):
        # over the 2-simplex the vertex dropping column 1 has determinant b
        M = tower.CharMatrix(IntMatrix.from_rows([[1, 0, -1], [0, 1, b]]), (2,))
        with pytest.raises(ValueError, match="determinant"):
            M.validate_vertices()

    @pytest.mark.parametrize("entry", [1.0, True, "1"])
    def test_non_integer_entry_refused(self, entry):
        # an IntMatrix built without from_rows is checked where the CharMatrix is made
        with pytest.raises(ValueError, match="integer"):
            tower.CharMatrix(IntMatrix(2, 3, ((entry, 0, -1), (0, 1, 1))), (2,))

    @given(st.lists(st.integers(-2, 2), min_size=8, max_size=8),
           st.sampled_from([(2,), (1, 1)]))
    @settings(max_examples=200, deadline=None)
    def test_vertex_check_matches_determinants(self, entries, polytope):
        # a 2x4 matrix over the square or a 2x3 matrix over the triangle
        cols = 2 + len(polytope)
        rows = [entries[:cols], entries[cols:2 * cols]]
        M = tower.CharMatrix(IntMatrix.from_rows(rows), polytope)
        blocks = M.facet_blocks()
        unit = True
        for dropped in itertools.product(*blocks):
            (a, b), (c, d) = [[row[j] for j in range(cols) if j not in dropped]
                              for row in rows]
            unit = unit and abs(a * d - b * c) == 1
        if unit:
            M.validate_vertices()
        else:
            with pytest.raises(ValueError):
                M.validate_vertices()

    def test_column_sums_of_su_families(self):
        for name, n1, n2 in [("Ltilde", 2, 3), ("Ltilde", 6, 5), ("Ntilde", 2, 1),
                             ("Ntilde", 4, 5)]:
            M = tower.char_matrix(name, n1, n2)
            for j in range(M.matrix.cols):
                assert sum(M.matrix.entries[i][j] for i in range(M.matrix.rows)) == 1


class TestSuCheck:
    def test_ntilde_true(self):
        assert tower.su_check(tower.char_matrix("Ntilde", 2, 1)) is True

    def test_cpn_false(self):
        assert tower.su_check(tower.char_matrix("CPprod", (4,))) is False

    def test_l11_false(self):
        assert tower.su_check(tower.char_matrix("L", 1, 1)) is False

    def test_ltilde_grid_true(self):
        for n1 in (2, 4):
            for n2 in (1, 3, 5):
                assert tower.su_check(tower.char_matrix("Ltilde", n1, n2))
                assert tower.su_check(tower.char_matrix("Ntilde", n1, n2))


class TestBackendEquivalence:
    def test_chern_numbers_both_backends(self):
        for name, n1, n2 in [("Ltilde", 2, 3), ("Ntilde", 2, 3)]:
            spec = tower.build_family(name, n1, n2)
            ring, lat = tower.ring_backend_pair(spec)
            c = tower.total_chern(spec)
            parts = {i: graded_part(c, 2 * i) for i in range(1, spec.dim + 1)}
            from bordx.exactalg import partitions

            for omega in partitions(spec.dim):
                poly = GradedPoly.constant(ring.degrees, 1)
                for i in omega:
                    poly = poly.mul(parts[i], ring.top_degree)
                assert cohomring.evaluate_top(ring, poly) == cohomring.lattice_evaluate(
                    lat, poly
                )


class TestJson:
    def test_tower_round_trip(self):
        spec = tower.build_family("Ntilde", 2, 3, convention="bordism")
        back = tower.tower_from_json(tower_document(spec))
        assert back == spec

    def test_base_conjugations_round_trip(self):
        spec = tower.TowerSpec(base=(2,), conjugations=frozenset({0}),
                               convention="bordism")
        data = tower_document(spec)
        assert data["conjugate"] == [0]
        assert tower.tower_from_json(data) == spec

    def test_char_matrix_round_trip(self):
        M = tower.char_matrix("Ltilde", 2, 3)
        back = tower.char_matrix_from_json(char_matrix_document(M))
        assert back == M

    @pytest.mark.parametrize("data", [
        {"simplex_dims": [1.0], "lambda": [[1, -1.5]]},
        {"simplex_dims": [1.0], "lambda": [[1, -1]]},
        {"simplex_dims": [True], "lambda": [[1, -1]]},
        {"simplex_dims": ["1"], "lambda": [[1, -1]]},
        {"simplex_dims": [1], "lambda": [[1, -1.0]]},
        {"simplex_dims": [1], "lambda": [[True, -1]]},
        {"simplex_dims": [1], "lambda": [["1", -1]]},
    ])
    def test_char_matrix_refuses_non_integers(self, data):
        with pytest.raises(ValueError):
            tower.char_matrix_from_json(data)

    @pytest.mark.parametrize("data", [
        [[1, -1]], "[[1, -1]]", 5, None, {"lambda": [[1, -1]]},
        {"simplex_dims": [1]}, {"simplex_dims": 1, "lambda": [[1, -1]]},
        {"simplex_dims": [1], "lambda": [1, -1]},
        {"simplex_dims": [1], "lambda": {"1": [1, -1]}},
        {"simplex_dims": [1], "lambda": ["1-1"]},
        # a simplex of dimension -1 has no vertex, so no vertex check could fail
        {"simplex_dims": [2, -1], "lambda": [[1, 5, 7]]},
    ])
    def test_char_matrix_refuses_bad_shapes(self, data):
        with pytest.raises(ValueError):
            tower.char_matrix_from_json(data)

    def test_char_matrix_refuses_a_vertex_of_determinant_two(self):
        with pytest.raises(ValueError, match="determinant"):
            tower.char_matrix_from_json({"simplex_dims": [1], "lambda": [[1, 2]]})

    @pytest.mark.parametrize("dims, bound", [
        ([1] * 11, "cohomology rank at most 1024, got 2048"),
        ([2] * 7, "cohomology rank at most 1024, got 2187"),
        ([25], "dimension at most 24, got 25"),
    ])
    def test_char_matrix_above_a_bound_is_refused_before_any_vertex(
            self, monkeypatch, dims, bound):
        # CP^d_1 x ... x CP^d_k: row i is e_i - e_last over the columns of its factor
        n, lam, col = sum(dims), [], 0
        for d in dims:
            for i in range(d):
                lam.append([0] * (n + len(dims)))
                lam[-1][col + i], lam[-1][col + d] = 1, -1
            col += d + 1
        data = {"simplex_dims": dims, "lambda": lam}

        def fail(*args, **kwargs):
            raise AssertionError("a vertex was taken")

        monkeypatch.setattr(tower, "hermite_form", fail)
        with pytest.raises(ValueError, match=bound):
            tower.char_matrix_from_json(data)


# ---------------------------------------------------------------------------
# the reduced walk against the unreduced route
# ---------------------------------------------------------------------------

def characteristic_numbers(n, total, evaluate):
    """The class of dimension n with c_omega = evaluate(prod_{i in omega} total_{2i}).

    total_{2i} is the graded part of degree 2i of `total`, multiplied in the
    free ring: one walk of `bordclass._walk`, each product homogeneous of
    degree 2|prefix|, and the partitions the walk leaves out read 0.
    """
    pieces = [None] + [graded_part(total, 2 * i) for i in range(1, n + 1)]

    def step(poly, part, rest):
        child = poly.mul(pieces[part])
        return None if child.is_zero() else child

    def ones(poly, r):  # one part 1 at a time, as `step` would
        for _ in range(r):
            poly = step(poly, 1, None)
            if poly is None:
                return None
        return poly

    return bordclass.ChernVector(n, zip(bordclass._basis(n)[0], bordclass._walk(
        n, GradedPoly.constant(total.degrees, 1), step, ones, evaluate, 0)))


def ref_chern_numbers(spec, evaluate=cohomring.evaluate_top, ring=None):
    """The free-ring walk with a full evaluation at every leaf."""
    ring = ring or tower.presented_ring(spec)
    sign = _ref_sign(spec)
    return characteristic_numbers(
        spec.dim, tower.total_chern(spec), lambda x: sign * evaluate(ring, x))


def ref_s_number(spec, evaluate=cohomring.evaluate_top, ring=None):
    """sum of the n-th powers of the roster classes, evaluated once."""
    ring = ring or tower.presented_ring(spec)
    n = spec.dim
    total = GradedPoly.zero(ring.degrees)
    for cls in tower.signed_roster(spec):
        total = total + cls.pow(n, 2 * n)
    return _ref_sign(spec) * evaluate(ring, total)


def _ref_sign(spec):
    return -1 if spec.convention == "bordism" and len(spec.conjugations) % 2 else 1


def _qt_gens_instances(max_real_dim):
    """The Ltilde/Ntilde exports that the quasitoric generators combine."""
    out = []
    for dim in range(10, max_real_dim + 1, 2):
        i = dim // 2
        if i % 2:
            out += [("Ltilde", n1, i - n1) for n1 in range(2, i, 2)]
        else:
            out += [("Ntilde", n1, i - 1 - n1) for n1 in range(2, i - 1, 2)]
    return out


REFERENCE_FAMILIES = (
    CHARMATRIX_CASES + [("L", 2, 3)]
    + [("CPprod", omega, None) for omega in [(2,), (3,), (2, 1), (1, 1, 1)]]
)


def _family(name, n1, n2, convention):
    if name == "CPprod":
        return tower.build_family(name, n1, convention=convention)
    return tower.build_family(name, n1, n2, convention=convention)


@pytest.mark.parametrize("name,n1,n2", REFERENCE_FAMILIES)
def test_cohomology_rank_is_the_sum_of_graded_ranks(name, n1, n2):
    spec = _family(name, n1, n2, "toric")
    ring = tower.presented_ring(spec)
    assert spec.cohomology_rank == sum(
        cohomring.graded_rank(ring, d) for d in range(0, ring.top_degree + 1, 2))


@pytest.mark.parametrize("convention", ["toric", "bordism"])
@pytest.mark.parametrize("name,n1,n2", REFERENCE_FAMILIES)
def test_reduced_walk_matches_unreduced_route(name, n1, n2, convention):
    spec = _family(name, n1, n2, convention)
    assert tower.chern_numbers(spec) == ref_chern_numbers(spec)
    assert tower.s_number(spec) == ref_s_number(spec)


@pytest.mark.parametrize("name,n1,n2", _qt_gens_instances(30))
def test_reduced_walk_matches_unreduced_route_at_qt_gens(name, n1, n2):
    spec = tower.build_family(name, n1, n2, convention="bordism")
    assert tower.chern_numbers(spec) == ref_chern_numbers(spec)
    assert tower.s_number(spec) == ref_s_number(spec)


def test_a_stage_that_is_not_a_stage_is_refused():
    # a bare tuple of lines used to raise AttributeError on its missing .lines
    with pytest.raises(ValueError, match="each stage must be a Stage"):
        tower.TowerSpec((1,), [((0,),)])


def test_leaf_refuses_leftover_monomials(monkeypatch):
    # the fundamental monomial moved from u^2 v^3 to v^5, which the rules
    # rewrite: a nonzero top-degree element keeps u^2 v^3 and must be
    # refused, not read as 0
    spec = tower.build_family("Ltilde", 2, 3)
    ring = tower.presented_ring(spec)
    assert ring.fundamental_monomial == (2, 3)
    bad = cohomring.PresentedRing(ring.degrees, ring.relations, ring.top_degree, (0, 5))
    monkeypatch.setattr(tower, "presented_ring", lambda _: bad)
    with pytest.raises(cohomring.PresentationError):
        tower.chern_numbers(spec)
    with pytest.raises(cohomring.PresentationError):
        tower.s_number(spec)


def test_point_is_the_unit_class():
    # CPprod(()) is a point: a ring with no generators, radix 1, top degree 0
    spec = tower.build_family("CPprod", ())
    ring = tower.presented_ring(spec)
    assert ring.degrees == () and ring.radix == 1 and ring.top_degree == 0
    assert tower.chern_numbers(spec) == bordclass.ChernVector(0, {(): 1})
    assert tower.s_number(spec) == 0
    five = GradedPoly.constant(ring.degrees, 5)
    assert ring.reduce(five) == five


@st.composite
def tower_specs(draw):
    """Small valid towers: 1-2 base factors, 0-2 stages, any conjugations."""
    base = tuple(draw(st.lists(st.integers(1, 3), min_size=1, max_size=2)))
    stages = []
    gens = len(base)
    for _ in range(draw(st.integers(0, 2))):
        lines = draw(st.lists(st.tuples(*[st.integers(-2, 2)] * gens),
                              min_size=1, max_size=3))
        stages.append(tower.Stage(tuple(lines)))
        gens += 1
    spec = tower.TowerSpec(base, tuple(stages), frozenset(),
                           draw(st.sampled_from(["toric", "bordism"])))
    conj = draw(st.sets(st.integers(0, spec.roster_size() - 1)))
    return tower.TowerSpec(base, tuple(stages), frozenset(conj), spec.convention)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(tower_specs().filter(lambda spec: spec.dim <= 6))
def test_triangular_equals_lattice_on_drawn_towers(spec):
    _, lattice = tower.ring_backend_pair(spec)
    assert tower.chern_numbers(spec) == ref_chern_numbers(
        spec, cohomring.lattice_evaluate, lattice)
    assert tower.s_number(spec) == ref_s_number(spec, cohomring.lattice_evaluate, lattice)


@st.composite
def char_matrices(draw):
    """Characteristic matrices of any entries, zero and large ones included."""
    polytope = tuple(draw(st.lists(st.integers(1, 3), min_size=1, max_size=3)))
    n = sum(polytope)
    entry = st.one_of(st.just(0), st.integers(-3, 3), st.integers(-10**40, 10**40))
    rows = draw(st.lists(st.lists(entry, min_size=n + len(polytope),
                                  max_size=n + len(polytope)), min_size=n, max_size=n))
    return tower.CharMatrix(IntMatrix.from_rows(rows), polytope)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(tower_specs())
def test_json_round_trip_on_drawn_towers(spec):
    text = json.dumps(tower_document(spec))
    assert tower.tower_from_json(json.loads(text)) == spec
    assert tower.tower_from_json(text) == spec


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(char_matrices())
def test_json_round_trip_on_drawn_char_matrices(M):
    # the reader keeps a matrix unimodular at every vertex and refuses any other
    text = json.dumps(char_matrix_document(M))
    try:
        M.validate_vertices()
    except ValueError:
        for data in (json.loads(text), text):
            with pytest.raises(ValueError, match="determinant"):
                tower.char_matrix_from_json(data)
        return
    assert tower.char_matrix_from_json(json.loads(text)) == M
    assert tower.char_matrix_from_json(text) == M


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(tower_specs())
def test_json_round_trip_on_drawn_tower_char_matrices(spec):
    M = tower._tower_char_matrix(spec)
    text = json.dumps(char_matrix_document(M))
    assert tower.char_matrix_from_json(json.loads(text)) == M
    assert tower.char_matrix_from_json(text) == M


class TestRingCache:
    """One presented ring per base and stages, in a bounded cache."""

    def test_three_calls_share_one_ring(self, monkeypatch):
        built = []
        real = tower.PresentedRing

        def counting(*args, **kwargs):
            ring = real(*args, **kwargs)
            built.append(ring)
            return ring

        tower._presented_ring.cache_clear()
        monkeypatch.setattr(tower, "PresentedRing", counting)
        spec = tower.build_family("Ntilde", 2, 3, convention="bordism")
        tower.chern_numbers(spec)
        tower.s_number(spec)
        tri, lat = tower.ring_backend_pair(spec)
        assert built == [tri, lat]  # the triangular ring once, then its lattice twin
        assert tower._presented_ring.cache_info().misses == 1
        assert tower._presented_ring.cache_info().hits == 2
        assert tri._nf_memo  # the normal forms of the first two calls are kept

    def test_both_conventions_share_one_ring_and_one_set_of_lines(self):
        spec = tower.build_family("Ntilde", 2, 3, convention="bordism")
        toric = spec.with_convention("toric")
        bare = tower.TowerSpec(spec.base, spec.stages)  # no conjugation
        specs = (spec, toric, bare)
        alone = {}
        for s in specs:
            tower._presented_ring.cache_clear()
            tower._lines.cache_clear()
            alone[s] = (tower.chern_numbers(s), tower.s_number(s))
        assert alone[bare][0] != alone[spec][0]
        tower._presented_ring.cache_clear()
        tower._lines.cache_clear()
        ring = tower.presented_ring(spec)
        assert tower.presented_ring(toric) is ring and tower.presented_ring(bare) is ring
        assert tower._presented_ring.cache_info().misses == 1
        assert tower.roster(toric) == tower.roster(bare) == tower.roster(spec)
        assert tower._lines.cache_info().misses == 1
        # the shared ring and lines give each spec the numbers it has alone
        assert all((tower.chern_numbers(s), tower.s_number(s)) == alone[s] for s in specs)

    def test_rosters_are_fresh_lists_over_the_cached_lines(self):
        spec = tower.build_family("Ntilde", 2, 3)
        for read in (tower.roster, tower.signed_roster):
            first = read(spec)
            assert read(spec) == first and read(spec) is not first
            want = list(first)
            first.append(first[0])
            first[0] = -first[0]
            assert read(spec) == want

    @pytest.mark.parametrize("read", [tower.roster, tower.signed_roster])
    def test_a_roster_above_the_largest_dimension_is_refused_and_not_kept(self, read):
        before = tower._lines.cache_info().currsize
        with pytest.raises(ValueError, match="dimension"):
            read(tower.TowerSpec((3000,)))
        assert tower._lines.cache_info().currsize == before

    def test_cache_is_bounded(self):
        tower._presented_ring.cache_clear()
        specs = [tower.build_family("CPprod", (n,)) for n in range(1, 21)]
        for spec in specs:
            tower.presented_ring(spec)
        info = tower._presented_ring.cache_info()
        assert info.maxsize == 16 and info.currsize == 16
        assert tower.presented_ring(specs[-1]) is tower.presented_ring(specs[-1])


# ---------------------------------------------------------------------------
# the memo-first normal form and the grouped total Chern class
# ---------------------------------------------------------------------------

def _fresh_ring(spec):
    """The ring of `presented_ring`, built anew past its cache."""
    return tower._presented_ring.__wrapped__(spec.base, spec.stages)


def _above_top(ring):
    """Monomials two and four degrees above the top, and one far above it."""
    k = len(ring.degrees)
    first = tuple(e + (j == 0) for j, e in enumerate(ring.fundamental_monomial))
    last = tuple(e + 2 * (j == k - 1) for j, e in enumerate(ring.fundamental_monomial))
    return {first: 3, last: -2, (ring.top_degree,) * k: 7}


@pytest.mark.parametrize("name,n1,n2", REFERENCE_FAMILIES)
def test_normal_form_same_on_memo_miss_and_hit(monkeypatch, name, n1, n2):
    spec = _family(name, n1, n2, "toric")
    ring = _fresh_ring(spec)  # empty memo
    below = tower.total_chern(spec)
    mixed = below + GradedPoly(ring.degrees, _above_top(ring))
    entered = []
    real = cohomring.PresentedRing._monomial_nf

    def counting(self, root, rules, memo):
        entered.append(root)
        return real(self, root, rules, memo)

    monkeypatch.setattr(cohomring.PresentedRing, "_monomial_nf", counting)
    first = ring.reduce(mixed)
    # the memo is keyed by codes; none of them is a monomial above the top
    assert entered and not any(ring.decode(k) in _above_top(ring) for k in ring._nf_memo)
    del entered[:]
    second = ring.reduce(mixed)
    assert not entered  # every monomial at or below the top was a memo hit
    assert first == second
    assert first == _fresh_ring(spec).reduce(below)
    assert (first.degree() or 0) <= ring.top_degree
    # the top part against the lattice route, which never reads the memo
    _, lattice = tower.ring_backend_pair(spec)
    top = ring.top_degree
    assert ring._fundamental_coefficient(ring._coded(graded_part(first, top))) == \
        cohomring.lattice_evaluate(lattice, graded_part(below, top))


@pytest.mark.parametrize("name,n1,n2", REFERENCE_FAMILIES)
def test_normal_form_memo_stays_at_or_below_the_top(name, n1, n2):
    spec = _family(name, n1, n2, "bordism")
    tower.chern_numbers(spec)
    tower.s_number(spec)
    ring = tower.presented_ring(spec)
    assert ring._nf_memo
    assert all(sum(map(operator.mul, m, ring.degrees)) <= ring.top_degree
               for m in map(ring.decode, ring._nf_memo))


# ---------------------------------------------------------------------------
# the s-number by squaring
# ---------------------------------------------------------------------------

# every family tower the tests build: the walker's, the reference families
# and the quasitoric exports up to real dimension 30
S_NUMBER_SPECS = {
    **{f"{name}({n1},{n2})": _family(name, n1, n2, "toric") for name, n1, n2 in
       dict.fromkeys([*TOWERS, *REFERENCE_FAMILIES, *_qt_gens_instances(30)])},
    **UNPAIRED,
}


@pytest.mark.parametrize("label", S_NUMBER_SPECS)
@pytest.mark.parametrize("convention", ["toric", "bordism"])
def test_s_number_by_squaring_matches_one_multiply_per_degree(label, convention):
    spec = S_NUMBER_SPECS[label].with_convention(convention)
    lines = tower.signed_roster(spec)
    want = reference.line_bundle_s_number(_fresh_ring(spec), lines)
    assert cohomring.line_bundle_s_number(_fresh_ring(spec), lines) == want
    assert tower.s_number(spec) == tower._sign(spec) * want


def test_the_s_number_families_reach_dimension_15_and_both_parities():
    dims = {spec.dim for spec in S_NUMBER_SPECS.values()}
    assert max(dims) == 15 and {d % 2 for d in dims} == {0, 1}


@pytest.mark.parametrize("label", S_NUMBER_SPECS)
def test_s_number_takes_at_most_two_products_per_bit_of_n(monkeypatch, label):
    spec = S_NUMBER_SPECS[label]
    ring, lines, n = _fresh_ring(spec), tower.signed_roster(spec), spec.dim
    calls = []
    real = cohomring.PresentedRing._mul_reduce

    def counting(self, a, b):
        calls.append(1)
        return real(self, a, b)

    monkeypatch.setattr(cohomring.PresentedRing, "_mul_reduce", counting)
    cohomring.line_bundle_s_number(ring, lines)
    distinct = len({frozenset((x, -x)) for x in lines})  # lines up to sign
    assert len(calls) <= distinct * (2 * (n.bit_length() - 1) + 1)


def ref_total_chern(spec):
    """(1 + c_1) multiplied in over the signed roster one summand at a time."""
    cap = 2 * spec.dim
    c = GradedPoly.constant((2,) * spec.generator_count, 1)
    for cls in tower.signed_roster(spec):
        c = c.mul(cls + 1, cap)
    return c


@pytest.mark.parametrize("convention", ["toric", "bordism"])
@pytest.mark.parametrize("name,n1,n2", REFERENCE_FAMILIES)
def test_grouped_total_chern_on_families(name, n1, n2, convention):
    spec = _family(name, n1, n2, convention)
    assert tower.total_chern(spec) == ref_total_chern(spec)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(tower_specs())
def test_grouped_total_chern_on_drawn_towers(spec):
    assert tower.total_chern(spec) == ref_total_chern(spec)


class TestStrictCpProductOmega:
    @pytest.mark.parametrize("omega", [0, False, None, 3, {2: 1}, "21", (True, 2),
                                       (2, 1.0), [2.5], (2, "1")])
    def test_refused(self, omega):
        with pytest.raises(ValueError):
            tower.build_family("CPprod", omega)
        with pytest.raises(ValueError):
            tower.char_matrix("CPprod", omega)

    @pytest.mark.parametrize("omega", [(), []])
    def test_empty_is_the_point(self, omega):
        spec = tower.build_family("CPprod", omega)
        assert spec.base == () and spec.dim == 0

    def test_list_and_tuple_agree(self):
        assert tower.build_family("CPprod", [1, 3]) == tower.build_family("CPprod", (3, 1))
        assert tower.char_matrix("CPprod", [2, 1]) == tower.char_matrix("CPprod", (2, 1))
