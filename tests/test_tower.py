"""Tests for the manifold families: presentations, Chern data, s-numbers,
characteristic matrices and the SU criterion."""

import math

import pytest

from bordx import bordclass, cohomring, tower
from bordx.cli import snl_closed_form, snn_closed_form
from bordx.exactalg import GradedPoly


def gens(ring):
    return [ring.gen(name) for name in ring.names]


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
        assert len(ring.names) == 1
        assert ring.relations[0] == ring.gen(ring.names[0], 4)

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
        one = ring.one()
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
        one = ring.one()
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
        one = ring.one()
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
            assert cohomring.normal_form(ring, diff.graded_part(d)).is_zero()

    def test_su_condition_in_ring(self):
        for name, n1, n2 in [("Ltilde", 2, 1), ("Ltilde", 4, 5), ("Ntilde", 2, 1),
                             ("Ntilde", 2, 3), ("Ntilde", 4, 5)]:
            spec = tower.build_family(name, n1, n2)
            ring = tower.presented_ring(spec)
            c1 = tower.first_chern(spec)
            assert cohomring.normal_form(ring, c1).is_zero()

    def test_cpprod_degree_two_part(self):
        omega = (3, 2, 1)
        spec = tower.build_family("CPprod", omega, convention="bordism")
        c = tower.total_chern(spec)
        deg = (2,) * len(omega)
        expected = GradedPoly.zero(deg)
        for j, i in enumerate(omega):
            expected = expected + GradedPoly.generator(deg, j).scale(i + 1)
        assert c.graded_part(2) == expected


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
            parts = {i: c.graded_part(2 * i) for i in range(1, spec.dim + 1)}
            from bordx.exactalg import partitions

            for omega in partitions(spec.dim):
                poly = ring.one()
                for i in omega:
                    poly = poly.mul(parts[i], ring.top_degree)
                assert cohomring.evaluate_top(ring, poly) == cohomring.lattice_evaluate(
                    lat, poly
                )


class TestJson:
    def test_tower_round_trip(self):
        spec = tower.build_family("Ntilde", 2, 3, convention="bordism")
        back = tower.tower_from_json(tower.tower_to_json(spec))
        assert back == spec

    def test_base_conjugations_round_trip(self):
        spec = tower.TowerSpec(base=(2,), conjugations=frozenset({0}),
                               convention="bordism")
        data = tower.tower_to_json(spec)
        assert data["conjugate"] == [0]
        assert tower.tower_from_json(data) == spec

    def test_char_matrix_round_trip(self):
        M = tower.char_matrix("Ltilde", 2, 3)
        back = tower.char_matrix_from_json(tower.char_matrix_to_json(M))
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
