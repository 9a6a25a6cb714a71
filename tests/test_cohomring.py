"""Tests for the presented-ring evaluation backends."""

import ast
import itertools
import pathlib
import random
import time
import traceback

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bordx import bordclass, cohomring, tower
from bordx.cohomring import (
    NonTriangularError,
    PresentedRing,
    PresentationError,
    evaluate_top,
    graded_rank,
    lattice_evaluate,
    line_bundle_numbers,
    line_bundle_s_number,
    normal_form,
)
from bordx.exactalg import GradedPoly
from lattice_reference import dense_matrix, full_lattice_model, monomials, reference_evaluator
from paper_examples_reference import grassmann_ring, grassmann_s4
from test_tower import _qt_gens_instances


def cp_ring(n):
    deg = (2,)
    return PresentedRing(deg, [GradedPoly.generator(deg, 0, n + 1)], 2 * n, (n,))


def cp_product_ring(a, b):
    deg = (2, 2)
    relations = [GradedPoly.generator(deg, 0, a + 1), GradedPoly.generator(deg, 1, b + 1)]
    return PresentedRing(deg, relations, 2 * (a + b), (a, b))


def gen(ring, j, power=1):
    return GradedPoly.generator(ring.degrees, j, power)


def ntilde_ring(n1, n2):
    return tower.presented_ring(tower.build_family("Ntilde", n1, n2))


class TestNormalForm:
    def test_cp3_truncation(self):
        ring = cp_ring(3)
        u5 = GradedPoly.generator(ring.degrees, 0, 5)
        assert normal_form(ring, u5).is_zero()

    def test_an_element_over_other_generators_is_refused(self):
        for x in (GradedPoly((2, 2), {(3, 0): 5}), GradedPoly((6,), {(1,): 7})):
            with pytest.raises(ValueError) as refused:
                normal_form(cp_ring(3), x)
            assert str(refused.value) == ("normal_form expects an element over "
                                          f"the generator degrees (2,), got {x.degrees}")

    def test_reduce_refuses_an_element_over_other_generators(self):
        # (2, 2) used to be truncated to the CPprod [2] ring's one generator
        ring = tower.presented_ring(tower.build_family("CPprod", [2]))
        x = GradedPoly((2, 2), {(2, 0): 5})
        with pytest.raises(ValueError) as refused:
            ring.reduce(x)
        assert str(refused.value) == ("reduce expects an element over "
                                      "the generator degrees (2,), got (2, 2)")
        assert ring.reduce(GradedPoly((2,), {(2,): 5})) == GradedPoly((2,), {(2,): 5})

    def test_coded_refuses_an_element_over_other_generators(self):
        # (2, 2) used to be truncated to {2: 5}, the code of u^2
        ring = tower.presented_ring(tower.build_family("CPprod", [2]))
        with pytest.raises(ValueError) as refused:
            ring._coded(GradedPoly((2, 2), {(2, 0): 5}))
        assert str(refused.value) == ("_coded expects an element over "
                                      "the generator degrees (2,), got (2, 2)")
        assert ring._coded(GradedPoly((2,), {(2,): 5})) == {ring.encode((2,)): 5}

    def test_ntilde_rule_single_application(self):
        n1, n2 = 2, 3
        ring = ntilde_ring(n1, n2)
        u, v, w = (gen(ring, j) for j in range(3))
        lhs = normal_form(ring, gen(ring, 2, n2 + 1))
        rhs = (u * gen(ring, 2, n2)).scale(2) - v * gen(ring, 2, n2) + (
            u * v * gen(ring, 2, n2 - 1)
        ).scale(2)
        assert lhs == rhs

    def test_uw_pattern(self):
        # u w^(n-1) reduces to u v^(n1) w^(n2) in the Ntilde ring
        for n1, n2 in [(2, 3), (2, 5), (4, 3)]:
            ring = ntilde_ring(n1, n2)
            n = 1 + n1 + n2
            u = gen(ring, 0)
            lhs = normal_form(ring, u * gen(ring, 2, n - 1))
            rhs = u * gen(ring, 1, n1) * gen(ring, 2, n2)
            assert lhs == rhs

    def test_vjw_pattern(self):
        # v^j w^(n-j) = (-1)^j 2 u v^(n1) w^(n2) for 0 <= j <= n1
        for n1, n2 in [(2, 3), (4, 3)]:
            ring = ntilde_ring(n1, n2)
            n = 1 + n1 + n2
            mu = (gen(ring, 0) * gen(ring, 1, n1) * gen(ring, 2, n2)).scale(2)
            for j in range(n1 + 1):
                lhs = normal_form(ring, gen(ring, 1, j) * gen(ring, 2, n - j)
                                  if j else gen(ring, 2, n))
                assert lhs == (mu if j % 2 == 0 else -mu), (n1, n2, j)

    def test_idempotent(self):
        ring = ntilde_ring(2, 3)
        x = gen(ring, 2, 5) * gen(ring, 1)
        once = normal_form(ring, x)
        assert normal_form(ring, once) == once

    def test_non_homogeneous_rejected(self):
        ring = cp_ring(3)
        with pytest.raises(ValueError):
            normal_form(ring, gen(ring, 0) + GradedPoly.constant(ring.degrees, 1))

    @staticmethod
    def chain_ring(size):
        # x_0^2 = 0 and x_j^2 = x_(j-1)^2: x_(size-1)^2 rewrites once per generator
        deg = (2,) * size
        square = [GradedPoly.generator(deg, j).pow(2) for j in range(size)]
        rels = [square[0]] + [square[j] - square[j - 1] for j in range(1, size)]
        return PresentedRing(deg, rels, 4, (1, 1) + (0,) * (size - 2)), square[-1]

    def test_step_limit_safeguard(self, monkeypatch):
        # a chain of 600 rewrites, no cycle: within the default limit, past 500
        ring, top_square = self.chain_ring(600)
        assert normal_form(ring, top_square).is_zero()
        ring, top_square = self.chain_ring(600)  # a new ring, with an empty memo
        monkeypatch.setattr(cohomring, "_REWRITE_STEP_LIMIT", 500)
        with pytest.raises(PresentationError, match=r"more than 500 monomials \(ring too large\)"):
            normal_form(ring, top_square)

    def test_rewrite_cycle_found_before_the_step_limit(self, monkeypatch):
        # x^2 -> xy and y^2 -> xy cycle forever inside the degree cap; the
        # cycle is seen on the rewrite path itself, long before the step
        # limit would stop it
        monkeypatch.setattr(cohomring, "_REWRITE_STEP_LIMIT", 500)
        deg = (2, 2)
        rel1 = GradedPoly(deg, {(2, 0): 1, (1, 1): -1})
        rel2 = GradedPoly(deg, {(0, 2): 1, (1, 1): -1})
        ring = PresentedRing(deg, [rel1, rel2], 8, (2, 2))
        with pytest.raises(NonTriangularError, match="cycles"):
            normal_form(ring, GradedPoly(deg, {(2, 2): 1}))

    def test_lattice_hint_rejected(self):
        ring = cp_ring(2)
        ring2 = PresentedRing(ring.degrees, ring.relations, ring.top_degree,
                              ring.fundamental_monomial, backend="lattice")
        with pytest.raises(NonTriangularError):
            normal_form(ring2, gen(ring2, 0))

    def test_non_triangular_relation_detected(self):
        # u*v alone is not monic in a pure generator power
        deg = (2, 2)
        uv = GradedPoly(deg, {(1, 1): 1})
        ring = PresentedRing(deg, [uv, GradedPoly(deg, {(2, 0): 1, (0, 2): 2})],
                             4, (1, 1))
        with pytest.raises(NonTriangularError,
                           match=r"relation \{\(1, 1\): 1\} has no monic pure-power term"):
            normal_form(ring, gen(ring, 0))

    def test_two_relations_leading_on_one_generator_named_by_index(self):
        # y^2 - x^2 and y^2 + xy both lead on y, the generator in position 1
        deg = (2, 2)
        ring = PresentedRing(deg, [GradedPoly(deg, {(0, 2): 1, (2, 0): -1}),
                                   GradedPoly(deg, {(0, 2): 1, (1, 1): 1})], 4, (1, 1))
        with pytest.raises(NonTriangularError, match="two relations lead on generator 1;"):
            normal_form(ring, gen(ring, 0))

    def test_shared_child_is_not_a_cycle(self):
        # rules z^2 -> yz + xz and y^2 -> xy: y z^2 has the children y^2 z
        # and xyz, and y^2 z rewrites to xyz while xyz still waits as its
        # parent's second child
        deg = (2, 2, 2)
        ring = PresentedRing(deg, [
            GradedPoly(deg, {(2, 0, 0): 1}),
            GradedPoly(deg, {(0, 2, 0): 1, (1, 1, 0): -1}),
            GradedPoly(deg, {(0, 0, 2): 1, (0, 1, 1): -1, (1, 0, 1): -1}),
        ], 6, (1, 1, 1))
        got = normal_form(ring, GradedPoly(deg, {(0, 1, 2): 1}))
        assert got == GradedPoly(deg, {(1, 1, 1): 2})
        assert evaluate_top(ring, GradedPoly(deg, {(0, 1, 2): 3})) == 6

    def test_pre_reduced_rules_match_a_fresh_reduction(self):
        # the Ntilde stage relation (w-u)^2 (w+v) w^(n2-2) has u^2 terms, so
        # its right-hand side needs the rule u^2 -> 0 before it is final
        spec = tower.build_family("Ntilde", 2, 3)
        ring = tower.presented_ring(spec)
        rules = _preliminary_rules(ring)
        assert any(_reference_reduce(ring, rhs, rules) != rhs
                   for _, rhs in rules.values())
        for degree in range(0, ring.top_degree + 1, 2):
            for exp in monomials(ring.degrees, degree):
                x = GradedPoly.monomial(ring.degrees, exp, 3)
                expected = _reference_reduce(ring, x, rules)
                assert normal_form(ring, x) == expected, exp
                # a ring that has reduced nothing before
                assert normal_form(tower.presented_ring(spec), x) == expected, exp

    def test_two_step_rule_chain(self):
        # z^2 -> y^2 + xz, y^2 -> x^2 + xy and x^2 -> 0: the rhs of z^2 needs
        # two rewrites before it is final, one more than Ntilde(2, 3)'s u^2 -> 0
        deg = (2, 2, 2)
        ring = PresentedRing(deg, [
            GradedPoly(deg, {(2, 0, 0): 1}),
            GradedPoly(deg, {(0, 2, 0): 1, (2, 0, 0): -1, (1, 1, 0): -1}),
            GradedPoly(deg, {(0, 0, 2): 1, (0, 2, 0): -1, (1, 0, 1): -1}),
        ], 6, (1, 1, 1))
        rules = _preliminary_rules(ring)
        for degree in range(0, ring.top_degree + 1, 2):
            for exp in monomials(ring.degrees, degree):
                x = GradedPoly.monomial(ring.degrees, exp, 3)
                assert normal_form(ring, x) == _reference_reduce(ring, x, rules), exp
        for exp in monomials(ring.degrees, ring.top_degree):
            x = GradedPoly.monomial(ring.degrees, exp, 3)
            assert evaluate_top(ring, x) == lattice_evaluate(ring, x), exp

    def test_failed_rules_are_not_kept(self):
        # the ring of test_non_triangular_relation_detected: each call scans
        # the relations again and raises a fresh error, so the traceback does
        # not grow from one call to the next
        deg = (2, 2)
        uv = GradedPoly(deg, {(1, 1): 1})
        ring = PresentedRing(deg, [uv, GradedPoly(deg, {(2, 0): 1, (0, 2): 2})],
                             4, (1, 1))
        errors = []
        for _ in range(2):
            with pytest.raises(NonTriangularError) as info:
                normal_form(ring, gen(ring, 0))
            errors.append(info.value)
        first, second = errors
        assert first is not second
        assert (len(traceback.extract_tb(second.__traceback__))
                <= len(traceback.extract_tb(first.__traceback__)))


def _preliminary_rules(ring):
    """x_j^d -> rhs from each relation as it stands, with no pre-reduction."""
    rules = {}
    for rel in ring.relations:
        lead = max((e for e, c in rel.terms.items()
                    if abs(c) == 1 and sum(1 for k in e if k) == 1),
                   key=lambda e: next(j for j, k in enumerate(e) if k))
        j = next(i for i, k in enumerate(lead) if k)
        c = rel.terms[lead]
        rules[j] = (lead[j], (rel - GradedPoly.monomial(ring.degrees, lead, c)).scale(-c))
    return rules


def _reference_reduce(ring, x, rules):
    """The plain rewrite loop: rewrite the largest monomial until none applies."""
    top = ring.top_degree
    work = {e: c for e, c in x.terms.items() if x.term_degree(e) <= top}
    result = {}
    while work:
        exp = max(work, key=lambda e: tuple(reversed(e)))
        coeff = work.pop(exp)
        j = next((j for j in reversed(range(len(exp)))
                  if j in rules and exp[j] >= rules[j][0]), None)
        if j is None:
            result[exp] = result.get(exp, 0) + coeff
            continue
        rem = list(exp)
        rem[j] -= rules[j][0]
        child = GradedPoly.monomial(ring.degrees, rem, coeff).mul(rules[j][1], top)
        for e, c in child.terms.items():
            work[e] = work.get(e, 0) + c
            if not work[e]:
                del work[e]
    return GradedPoly(ring.degrees, result)


class TestCodedMonomials:
    """The normal-form memo is keyed by codes sum e_j R^j; a monomial with an
    exponent of R or more lies above the top and is dropped, not read as the
    monomial that shares its code."""

    @pytest.mark.parametrize("name,n1,n2", [("Ltilde", 2, 3), ("Ntilde", 2, 3)])
    def test_tower_ring_drops_an_exponent_at_the_radix(self, name, n1, n2):
        ring = tower.presented_ring.__wrapped__(tower.build_family(name, n1, n2))
        R = ring.radix
        assert R == ring.top_degree // 2 + 1
        u, v = gen(ring, 0), gen(ring, 1)
        alias = gen(ring, 0, R)  # the code of u^R is the code of v
        assert ring.encode(next(iter(alias.terms))) == ring.encode(next(iter(v.terms)))
        expected = ring.reduce(v)
        assert ring.encode(next(iter(v.terms))) in ring._nf_memo
        assert ring.reduce(alias).is_zero()
        assert ring.reduce(alias + v) == expected
        assert ring.reduce((alias + u).scale(3)) == ring.reduce(u.scale(3))

    def test_grassmann_ring_drops_an_exponent_at_the_radix(self):
        ring = grassmann_ring()  # degrees 2 and 4, top 8
        assert ring.radix == 5
        c1, c2 = gen(ring, 0), gen(ring, 1)
        alias = gen(ring, 0, 5)  # degree 10, the code 5 of c2 (degree 4)
        assert ring.encode((5, 0)) == ring.encode((0, 1))
        assert ring.reduce(c2) == c2
        assert ring.reduce(alias).is_zero()
        assert ring.reduce(alias - c2) == -c2
        assert grassmann_s4() == -20

    def test_codes_are_one_to_one_at_or_below_the_top(self):
        for ring in [grassmann_ring(), ntilde_ring(2, 3), cp_ring(4)]:
            monos = [m for d in range(0, ring.top_degree + 1, 2)
                     for m in monomials(ring.degrees, d)]
            codes = [ring.encode(m) for m in monos]
            assert len(set(codes)) == len(codes)
            assert [ring.decode(c) for c in codes] == monos

    def test_mul_reduce_matches_reduce_of_the_product(self):
        ring = ntilde_ring(2, 3)
        u, v, w = (gen(ring, j) for j in range(3))
        a = (u * w - v * v.scale(2) + w * w).scale(3)
        b = w.pow(3) + u * v * w - v.pow(3)
        got = ring._mul_reduce(ring._coded(a), ring._coded(b))
        assert got == ring._coded(ring.reduce(a * b))
        assert ring._mul_reduce({}, ring._coded(b)) == {}


class TestEvaluateTop:
    def test_cp3(self):
        ring = cp_ring(3)
        assert evaluate_top(ring, gen(ring, 0, 3)) == 1

    def test_grassmann_fundamental(self):
        ring = grassmann_ring()
        c1, c2 = gen(ring, 0), gen(ring, 1)
        assert evaluate_top(ring, c1 * c1 * c2) == 1

    def test_grassmann_c1_4(self):
        ring = grassmann_ring()
        c1 = gen(ring, 0)
        assert evaluate_top(ring, c1.pow(4)) == 2

    def test_wrong_degree(self):
        ring = cp_ring(3)
        with pytest.raises(ValueError):
            evaluate_top(ring, gen(ring, 0, 2))

    def test_linear(self):
        ring = cp_ring(3)
        u3 = gen(ring, 0, 3)
        assert evaluate_top(ring, u3.scale(16)) == 16

    def test_leftover_top_monomial_refused(self):
        # u^2 = 0 alone leaves both u and v irreducible in degree 2
        deg = (2, 2)
        ring = PresentedRing(deg, [GradedPoly(deg, {(2, 0): 1})], 2, (0, 1))
        assert evaluate_top(ring, gen(ring, 1).scale(5)) == 5
        with pytest.raises(PresentationError):
            evaluate_top(ring, gen(ring, 0))


class TestLatticeEvaluate:
    def test_cp2(self):
        ring = cp_ring(2)
        assert lattice_evaluate(ring, gen(ring, 0, 2)) == 1

    def test_grassmann_c2_squared(self):
        ring = grassmann_ring()
        c2 = gen(ring, 1)
        assert lattice_evaluate(ring, c2 * c2) == 1

    def test_k3_ambient_linearity(self):
        ring = cp_ring(3)
        u = gen(ring, 0)
        assert lattice_evaluate(ring, u.scale(4) * gen(ring, 0, 2).scale(4)) == 16

    def test_torsion_quotient_rejected(self):
        # top piece Z^2/<(2,0)> = Z + Z/2: not infinite cyclic
        deg = (2, 2)
        rel = GradedPoly(deg, {(1, 0): 2})
        ring = PresentedRing(deg, [rel], 2, (0, 1))
        with pytest.raises(PresentationError):
            lattice_evaluate(ring, gen(ring, 1))

    def test_non_generator_fundamental_rejected(self):
        # Z^2/<(1,-2)> = Z, but u maps to twice a generator
        deg = (2, 2)
        rel = GradedPoly(deg, {(1, 0): 1, (0, 1): -2})
        ring = PresentedRing(deg, [rel], 2, (1, 0))
        with pytest.raises(PresentationError):
            lattice_evaluate(ring, gen(ring, 0))


@pytest.mark.parametrize("backend", ["triangular", "lattice"])
@pytest.mark.parametrize("route", [evaluate_top, lattice_evaluate])
def test_pairing_takes_only_the_top_degree(route, backend):
    ring = cp_ring(3)
    if backend == "lattice":
        ring = _lattice_copy(ring)
    u = gen(ring, 0)
    for x in (u.pow(3) + u, u.pow(2)):  # inhomogeneous, then of degree 4
        with pytest.raises(ValueError) as refused:
            route(ring, x)
        assert type(refused.value) is ValueError
        assert str(refused.value) == \
            f"{route.__name__} expects a homogeneous element of degree 6"
    # over other generators: (2, 2) truncated to u^3, and (6,) read as u
    for x in (GradedPoly((2, 2), {(3, 0): 5}), GradedPoly((6,), {(1,): 7})):
        with pytest.raises(ValueError) as refused:
            route(ring, x)
        assert type(refused.value) is ValueError
        assert str(refused.value) == (f"{route.__name__} expects an element over "
                                      f"the generator degrees (2,), got {x.degrees}")
    assert route(ring, GradedPoly.zero(ring.degrees)) == 0


def _unbuildable_ring(backend):
    """x y = 2 x^2 in degree 4: no monic pure power to rewrite by, and a
    top-degree quotient of rank 2, so neither route can build its model."""
    deg = (2, 2)
    rel = GradedPoly(deg, {(1, 1): 1, (2, 0): -2})
    return PresentedRing(deg, [rel], 4, (0, 2), backend=backend)


@pytest.mark.parametrize("backend", ["triangular", "lattice"])
def test_zero_pairs_to_0_before_anything_is_built(backend):
    ring = _unbuildable_ring(backend)
    zero = GradedPoly.zero(ring.degrees)
    assert evaluate_top(ring, zero) == 0
    assert lattice_evaluate(ring, zero) == 0
    assert ring._rules is None and ring._lattice_phi is None
    y2 = gen(ring, 1, 2)
    with pytest.raises(NonTriangularError if backend == "triangular" else PresentationError):
        evaluate_top(ring, y2)
    with pytest.raises(PresentationError, match="rank 2, expected 1"):
        lattice_evaluate(ring, y2)


class TestLineBundleNumbers:
    """The Chern numbers of a sum of line bundles, on rings built without tower."""

    @pytest.mark.parametrize("n", range(9))
    def test_cp_n_is_n_plus_1_hyperplane_lines(self, n):
        ring = cp_ring(n)
        lines = [gen(ring, 0)] * (n + 1)
        assert line_bundle_numbers(ring, lines) == bordclass.cp(n)
        assert line_bundle_s_number(ring, lines) == bordclass.s_num(bordclass.cp(n))

    @pytest.mark.parametrize("a,b", [(1, 1), (1, 2), (2, 1), (2, 3), (3, 3), (1, 6)])
    def test_cp_a_times_cp_b(self, a, b):
        ring = cp_product_ring(a, b)
        lines = [gen(ring, 1)] * (b + 1) + [gen(ring, 0)] * (a + 1)
        expected = bordclass.product(bordclass.cp(a), bordclass.cp(b))
        assert line_bundle_numbers(ring, lines) == expected
        assert line_bundle_s_number(ring, lines) == bordclass.s_num(expected)

    def test_a_trivial_line_changes_nothing(self):
        ring = cp_ring(3)
        lines = [gen(ring, 0)] * 4
        zero = GradedPoly.zero(ring.degrees)
        assert line_bundle_numbers(ring, lines + [zero]) == bordclass.cp(3)
        assert line_bundle_s_number(ring, lines + [zero]) == 4

    @pytest.mark.parametrize("route", [line_bundle_numbers, line_bundle_s_number])
    def test_a_line_not_of_degree_2_is_refused_before_the_ring_is_built(self, route):
        # past degree 2 a product could pass the top, where g0^4 has the code of g1
        ring = cp_product_ring(1, 2)
        g0 = gen(ring, 0)
        for line in (g0.pow(2), g0 + g0.pow(3), GradedPoly.constant(ring.degrees, 1)):
            with pytest.raises(ValueError) as refused:
                route(ring, [g0, line])
            assert str(refused.value) == \
                f"{route.__name__} expects a homogeneous element of degree 2"
        with pytest.raises(ValueError, match="over the generator degrees"):
            route(ring, [gen(cp_ring(3), 0)])
        assert ring._rules is None

    def test_a_dimension_above_the_largest_is_refused(self):
        ring = cp_ring(bordclass.CHERN_MAX_DIM + 1)
        with pytest.raises(ValueError, match="complex dimension at most"):
            line_bundle_numbers(ring, [gen(ring, 0)])


def test_a_lattice_marked_ring_checks_its_element_once(monkeypatch):
    ring = _lattice_copy(ntilde_ring(2, 3))
    x = gen(ring, 0) * gen(ring, 1, 2) * gen(ring, 2, 3)
    calls = []
    check = cohomring._nonzero_of_degree

    def counted(*args):
        calls.append(args[3])
        return check(*args)

    monkeypatch.setattr(cohomring, "_nonzero_of_degree", counted)
    assert evaluate_top(ring, x) == lattice_evaluate(ring, x) == 1
    assert calls == ["evaluate_top", "lattice_evaluate"]


def _bott_tower_ring(stages):
    """The ring of CP^1 followed by `stages` projectivisations of L + C, L of
    weight -1 on the generator before it."""
    return tower.presented_ring(tower.TowerSpec(
        (1,), [tower.Stage([[0] * i + [-1], [0] * (i + 1)]) for i in range(stages)]))


class TestGradedRank:
    def test_cp3_degree4(self):
        assert graded_rank(cp_ring(3), 4) == 1

    @pytest.mark.parametrize("degree", [4.0, True])
    def test_degree_must_be_an_int(self, degree):
        for ring in (cp_ring(3), _lattice_copy(cp_ring(3))):
            with pytest.raises(ValueError, match=f"^the degree must be an integer, got {degree}$"):
                graded_rank(ring, degree)

    def test_grassmann_profile(self):
        ring = grassmann_ring()
        assert [graded_rank(ring, d) for d in (0, 2, 4, 6, 8)] == [1, 1, 2, 1, 1]

    ODD = {
        # C(34, 11) settings of the odometer, none a monomial, at degree 47
        "12 free generators": (lambda: PresentedRing((2,) * 12, [], 48, (24,) + (0,) * 11),
                               47, 12),
        # cohomology rank 2^10 = 1,024
        "10-stage Bott tower": (lambda: _bott_tower_ring(9), 19, 10),
    }

    @pytest.mark.parametrize("build,odd,rank_2", ODD.values(), ids=ODD.keys())
    def test_an_odd_degree_is_0_before_any_walk(self, monkeypatch, build, odd, rank_2):
        ring = build()
        assert graded_rank(ring, 2) == rank_2

        def fail(*args, **kwargs):
            raise AssertionError("an odd degree was walked")

        monkeypatch.setattr(PresentedRing, "_monomial_walk", fail)
        for degree in (1, odd - 2, odd):
            assert graded_rank(ring, degree) == 0

    def test_poincare_symmetry_families(self):
        for name, n1, n2 in [("L", 2, 2), ("Ltilde", 2, 3), ("Ntilde", 2, 3)]:
            ring = tower.presented_ring(tower.build_family(name, n1, n2))
            ranks = [graded_rank(ring, d) for d in range(0, ring.top_degree + 1, 2)]
            assert ranks == ranks[::-1]


class TestBackendAgreement:
    def test_family_rings(self):
        rng = random.Random(17)
        cases = [
            tower.build_family("L", n1, n2) for n1, n2 in [(1, 1), (2, 2), (3, 2)]
        ] + [
            tower.build_family("Ltilde", 2, 3),
            tower.build_family("Ntilde", 2, 3),
        ]
        for spec in cases:
            ring = tower.presented_ring(spec)
            monos = monomials(ring.degrees, ring.top_degree)
            for _ in range(10):
                terms = {m: rng.randint(-9, 9) for m in rng.sample(monos, min(3, len(monos)))}
                x = GradedPoly(ring.degrees, terms)
                if x.is_zero():
                    continue
                assert evaluate_top(ring, x) == lattice_evaluate(ring, x)

    def test_grassmann_agreement(self):
        ring = grassmann_ring()
        for exp in monomials(ring.degrees, 8):
            x = GradedPoly.monomial(ring.degrees, exp)
            assert evaluate_top(ring, x) == lattice_evaluate(ring, x)


class TestRelationMultiples:
    def test_evaluate_vanishes_on_relation_multiples(self):
        ring = ntilde_ring(2, 3)
        for rel in ring.relations:
            shift = ring.top_degree - rel.degree()
            for m in monomials(ring.degrees, shift)[:8]:
                x = rel * GradedPoly.monomial(ring.degrees, m)
                assert evaluate_top(ring, x) == 0
                assert lattice_evaluate(ring, x) == 0


class TestThreadSafety:
    def test_concurrent_evaluation(self):
        from concurrent.futures import ThreadPoolExecutor

        spec = tower.build_family("Ntilde", 2, 3)
        ring, lat = tower.ring_backend_pair(spec)
        x = GradedPoly.monomial(ring.degrees, ring.fundamental_monomial, 7)

        def work(_):
            return (evaluate_top(ring, x), lattice_evaluate(lat, x))

        with ThreadPoolExecutor(max_workers=8) as pool:
            results = list(pool.map(work, range(32)))
        assert set(results) == {(7, 7)}


def _good_ring_arguments():
    u = GradedPoly.generator((2,), 0)
    return {"degrees": (2,), "relations": [u ** 3], "top_degree": 4,
            "fundamental_monomial": (2,)}


class TestStrictRingInput:
    def test_good_payload(self):
        ring = PresentedRing(**_good_ring_arguments())
        assert evaluate_top(ring, gen(ring, 0, 2)) == 1

    @pytest.mark.parametrize("change", [
        {"degrees": (2.0,), "top_degree": 4.0, "fundamental_monomial": (2.0,)},
        {"degrees": (2.0,)},
        {"degrees": (True,)},
        {"degrees": ("2",)},
        {"degrees": (3,)},
        {"top_degree": 4.0},
        {"top_degree": "4"},
        {"top_degree": True},
        {"fundamental_monomial": (2.0,)},
        {"fundamental_monomial": (True,)},
        {"fundamental_monomial": ("2",)},
    ])
    def test_payload_refused(self, change):
        with pytest.raises(ValueError):
            PresentedRing(**{**_good_ring_arguments(), **change})

    @pytest.mark.parametrize("degrees,top,mu", [
        ((2.0,), 4, (2,)), ((2,), 4.0, (2,)), ((2,), 4, (2.0,)), ((2,), 4, (-1,)),
    ])
    def test_constructor_refuses(self, degrees, top, mu):
        with pytest.raises(ValueError):
            PresentedRing(degrees, [], top, mu)

    @pytest.mark.parametrize("j", [-1, 2, True, 1.0, "1"])
    def test_generator_position_outside_the_ring_refused(self, j):
        # refused, not read as list indexing reads it (-1 as the last generator, True as 1)
        ring = grassmann_ring()
        with pytest.raises(ValueError, match="generator index"):
            GradedPoly.generator(ring.degrees, j)

    @pytest.mark.parametrize("x", [5, None, {(2,): 1}])
    @pytest.mark.parametrize("name", ["evaluate_top", "lattice_evaluate", "normal_form",
                                      "line_bundle_numbers", "line_bundle_s_number"])
    def test_an_element_that_is_not_a_poly_refused(self, name, x):
        # each used to raise AttributeError on its missing .degrees
        ring = cp_ring(2)
        arg = [gen(ring, 0), x] if name.startswith("line_bundle") else x
        with pytest.raises(ValueError) as refused:
            getattr(cohomring, name)(ring, arg)
        assert str(refused.value) == f"{name} expects a GradedPoly, got {type(x).__name__}"

    @pytest.mark.parametrize("relation", [3, (3,), {(3,): 1}, None])
    def test_relation_that_is_not_a_poly_refused(self, relation):
        # an int used to raise AttributeError on its missing .degrees
        with pytest.raises(PresentationError, match="a relation must be a GradedPoly"):
            PresentedRing((2,), [relation], 4, (2,))


def _lattice_outcome(route, ring):
    """({top-degree monomial: phi}, None) from a lattice route, or (None, (error
    class, message)); a monomial the route has no column for reads 0."""
    try:
        index, phi = route(ring)
    except PresentationError as exc:
        return None, (type(exc), str(exc))
    values = {}
    for e in monomials(ring.degrees, ring.top_degree):
        i = index.get(ring.encode(e))
        values[e] = 0 if i is None else phi[i]
    return values, None


def _lattice_copy(ring):
    return PresentedRing(ring.degrees, ring.relations, ring.top_degree,
                         ring.fundamental_monomial, backend="lattice")


def assert_routes_agree(ring):
    """The Hermite-form evaluator gives the earlier route's phi or its error, exactly."""
    new = _lattice_outcome(lambda r: r._lattice_evaluator(), _lattice_copy(ring))
    old = _lattice_outcome(reference_evaluator, _lattice_copy(ring))
    assert new == old
    return new


def _ring(degrees, relations, top, mu):
    return PresentedRing(degrees,
                         [GradedPoly(degrees, t) for t in relations], top, mu,
                         backend="lattice")


@st.composite
def small_presentations(draw):
    """2-3 generators of degree 2 or 4, 1-3 sparse relations, top degree <= 8."""
    degrees = tuple(draw(st.lists(st.sampled_from((2, 2, 4)), min_size=2, max_size=3)))
    top = draw(st.sampled_from((2, 4, 6, 8)))
    probe = PresentedRing(degrees, [], 0, (0,) * len(degrees))
    tops = monomials(probe.degrees, top)
    if not tops:
        top, tops = 4, monomials(probe.degrees, 4)
    mu = draw(st.sampled_from(tops))
    relations = []
    for _ in range(draw(st.integers(1, 3))):
        monos = monomials(probe.degrees, draw(st.sampled_from([d for d in (2, 4, 6)
                                                                if d <= top])))
        if monos:
            chosen = draw(st.lists(st.sampled_from(monos), min_size=1, max_size=3,
                                   unique=True))
            relations.append({m: draw(st.integers(-3, 3)) for m in chosen})
    return _ring(degrees, relations, top, mu)


# one presentation per outcome of the evaluator
_OK = _ring((2,), [{(3,): 1}], 4, (2,))
_RANK_0 = _ring((2,), [{(2,): 1}], 4, (2,))
_RANK_2 = _ring((2, 2), [], 2, (1, 0))
_TORSION = _ring((2, 2), [{(1, 0): 2}], 2, (0, 1))
_NOT_A_GENERATOR = _ring((2, 2), [{(1, 0): 1, (0, 1): -2}], 2, (1, 0))
# unit monomial relations, which the evaluator eliminates before the Hermite form:
# CP^1 x CP^1 by pure unit powers; x*y killed and y^2 = -x^2; 2x beside the
# unit y^3, whose torsion must still show; and a fundamental monomial x^2 killed
_UNIT_POWERS = _ring((2, 2), [{(2, 0): 1}, {(0, 2): -1}], 4, (1, 1))
_UNIT_MIXED = _ring((2, 2), [{(1, 1): 1}, {(2, 0): 1, (0, 2): 1}], 4, (2, 0))
_TORSION_BESIDE_A_UNIT = _ring((2, 2), [{(1, 0): 2}, {(0, 3): 1}], 4, (0, 2))
_KILLED_FUNDAMENTAL = _ring((2, 2), [{(2, 0): 1}, {(1, 1): 1, (0, 2): -1}], 4, (2, 0))


class TestLatticeRoute:
    """The Hermite-form evaluator against the earlier route in tests/lattice_reference.py."""

    @pytest.mark.parametrize("name,n1,n2", _qt_gens_instances(30))
    def test_qt_gens_rings(self, name, n1, n2):
        ring = tower.presented_ring(tower.build_family(name, n1, n2, convention="bordism"))
        phi, error = assert_routes_agree(ring)
        assert error is None and phi[ring.fundamental_monomial] == 1

    def test_grassmann_and_projective_spaces(self):
        for ring in [grassmann_ring()] + [cp_ring(n) for n in range(1, 7)]:
            assert assert_routes_agree(ring)[1] is None

    @pytest.mark.parametrize("ring,message", [
        (_OK, None),
        (_RANK_0, "rank 0"),
        (_RANK_2, "rank 2"),
        (_TORSION, "torsion"),
        (_NOT_A_GENERATOR, "does not generate"),
        (_UNIT_POWERS, None),
        (_UNIT_MIXED, None),
        (_TORSION_BESIDE_A_UNIT, "torsion"),
        (_KILLED_FUNDAMENTAL, "does not generate"),
    ])
    def test_each_outcome(self, ring, message):
        _, error = assert_routes_agree(ring)
        assert (error is None) if message is None else (message in error[1])

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(small_presentations())
    @example(_RANK_0)
    @example(_TORSION)
    @example(_NOT_A_GENERATOR)
    @example(_UNIT_POWERS)
    @example(_UNIT_MIXED)
    @example(_TORSION_BESIDE_A_UNIT)
    @example(_KILLED_FUNDAMENTAL)
    def test_small_presentations(self, ring):
        assert_routes_agree(ring)

    def test_unit_relations_give_no_rows(self):
        index, rows = _UNIT_MIXED._lattice_model(4)
        x_squared, y_squared = (_UNIT_MIXED.encode(e) for e in [(2, 0), (0, 2)])
        assert sorted(index) == sorted([x_squared, y_squared])
        assert rows == [{index[x_squared]: 1, index[y_squared]: 1}]
        # the fundamental monomial x^2 is killed, so it has no column
        index, rows = _KILLED_FUNDAMENTAL._lattice_model(4)
        xy, y_squared = (_KILLED_FUNDAMENTAL.encode(e) for e in [(1, 1), (0, 2)])
        assert sorted(index) == sorted([xy, y_squared])
        assert rows == [{index[xy]: 1, index[y_squared]: -1}]

    def test_graded_rank_reads_the_echelon_rank(self):
        from lattice_reference import lattice_rank_kernel

        for ring in [grassmann_ring(), ntilde_ring(2, 3), _TORSION, _RANK_2, _UNIT_POWERS,
                     _UNIT_MIXED, _TORSION_BESIDE_A_UNIT, _KILLED_FUNDAMENTAL]:
            for d in range(0, ring.top_degree + 1, 2):
                index, rows = full_lattice_model(ring, d)
                matrix = dense_matrix(rows, len(index))
                assert graded_rank(ring, d) == len(index) - lattice_rank_kernel(matrix)[0]

    def test_five_quadric_ring_is_bounded_by_the_lattice(self):
        # five random quadrics in five generators of degree 2: a 175 x 126
        # model at the top, inside the limits, whose unreduced elimination
        # ran past 60 s; a complete intersection, so its Hilbert function is
        # (1 + t)^5, whatever bordx computes
        rng = random.Random(4)
        monos = [e for e in itertools.product(range(3), repeat=5) if sum(e) == 2]
        deg = (2,) * 5
        relations = [GradedPoly(deg, {m: rng.randint(-9, 9) for m in monos})
                     for _ in range(5)]
        ring = PresentedRing(deg, relations, 10, (5, 0, 0, 0, 0),
                             backend="lattice")
        start = time.perf_counter()
        ranks = [graded_rank(ring, d) for d in range(0, 11, 2)]
        assert time.perf_counter() - start < 5.0
        assert ranks == [1, 5, 10, 10, 5, 1]


def _poincare(spec):
    """Graded ranks of a tower by Leray-Hirsch: the product of 1 + t + ... + t^k
    over the base dimensions and the stage fibre dimensions."""
    ranks = [1]
    for k in list(spec.base) + [len(stage.lines) - 1 for stage in spec.stages]:
        ranks = [sum(ranks[max(0, i - k):i + 1]) for i in range(len(ranks) + k)]
    return ranks


class TestLatticeIndependence:
    """The lattice route reads nothing of the triangular backend (ROADMAP aim 3)."""

    @pytest.fixture
    def no_triangular(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("the lattice route used the triangular backend")

        for name in ("_build_rules", "_reduce_codes", "_monomial_nf"):
            monkeypatch.setattr(PresentedRing, name, refuse)

    @pytest.mark.parametrize("name,n1,n2", _qt_gens_instances(30))
    def test_qt_gens_rings(self, name, n1, n2, no_triangular):
        spec = tower.build_family(name, n1, n2, convention="bordism")
        ring = _lattice_copy(tower.presented_ring(spec))
        del ring._rules, ring._nf_memo  # a read of either raises AttributeError
        index, phi = reference_evaluator(_lattice_copy(ring))
        for e in monomials(ring.degrees, ring.top_degree):
            x = GradedPoly.monomial(ring.degrees, e, 3)
            assert lattice_evaluate(ring, x) == 3 * phi[index[ring.encode(e)]]
        assert [graded_rank(ring, d) for d in range(0, ring.top_degree + 1, 2)] == (
            _poincare(spec))


def _lattice_ring(count, top, relations):
    """A lattice-marked ring on `count` generators g0, g1, ... of degree 2,
    with fundamental monomial g0^(top / 2); `relations` maps the generators,
    as GradedPolys, to the relations."""
    degrees = (2,) * count
    gens = [GradedPoly.generator(degrees, i) for i in range(count)]
    return PresentedRing(degrees, relations(*gens), top,
                         [top // 2] + [0] * (count - 1), backend="lattice")


@pytest.mark.parametrize("degrees", [(), (2,), (2, 2, 2), (2, 4), (4, 6), (2, 4, 6), (6, 4, 2)])
def test_the_walk_lists_the_reference_monomials_in_order(degrees):
    # the odometer against the reference's recursion, dead ends dropped
    ring = PresentedRing(degrees, [], 0, (0,) * len(degrees))
    for degree in range(25):
        assert [m for m in ring._monomial_walk(degree) if m is not None] == (
            monomials(degrees, degree)), degree


class TestLatticeLimits:
    """Lattice models over the documented limits are refused once a walk passes them."""

    @pytest.fixture
    def walked(self, monkeypatch):
        """The monomials each walk yields; none yields past the larger limit + 1."""
        walk = PresentedRing._monomial_walk
        cap = max(cohomring.LATTICE_MAX_MONOMIALS, cohomring.LATTICE_MAX_ROWS) + 1
        counts = []

        def bounded(ring, degree, units=()):
            counts.append(0)
            for mono in walk(ring, degree, units):
                if mono is not None:
                    counts[-1] += 1
                    if counts[-1] > cap:
                        raise AssertionError("the lattice model was enumerated")
                yield mono

        monkeypatch.setattr(PresentedRing, "_monomial_walk", bounded)
        yield counts
        assert counts, "no lattice model was walked"

    def test_too_many_monomials(self, walked):
        # C(27, 7) = 888,030 top-degree monomials
        ring = _lattice_ring(8, 40, lambda g0, *_: [g0 ** 2])
        x = GradedPoly.monomial(ring.degrees, ring.fundamental_monomial)
        with pytest.raises(PresentationError, match="monomials"):
            evaluate_top(ring, x)
        with pytest.raises(PresentationError, match="monomials"):
            graded_rank(ring, 40)
        assert walked == [cohomring.LATTICE_MAX_MONOMIALS + 1] * 2

    def test_too_many_relation_rows(self, walked):
        # 1,001 columns, but 5 quadratic relations give 5 x 999 = 4,995 rows;
        # none is a unit monomial, which would give no rows
        top = 2 * 1000
        ring = _lattice_ring(2, top, lambda g0, g1: [
            g0 ** 2 + g1 ** 2, (g1 ** 2).scale(2), g0 * g1 + g1 ** 2,
            g0 ** 2 - g1 ** 2, g0 ** 2 + g0 * g1])
        assert len(ring._bounded_monomials(top, cohomring.LATTICE_MAX_MONOMIALS)) == 1001
        x = GradedPoly.monomial(ring.degrees, ring.fundamental_monomial)
        with pytest.raises(PresentationError, match="relation multiples"):
            lattice_evaluate(ring, x)
        # the columns, then each relation's 999 multiples against the rows left:
        # the fifth walk stops at 4 + 1
        assert walked == [1001, 1001, 999, 999, 999, 999, 5]

    def test_too_many_dead_ends(self, walked):
        # degrees 2 and 1,000,002: a million exponents of the first are tried
        # and almost none leaves a multiple of the second
        ring = PresentedRing((2, 1_000_002), [], 2_000_000, (1_000_000, 0),
                             backend="lattice")
        with pytest.raises(PresentationError, match="dead ends"):
            graded_rank(ring, 2_000_000)

    def test_one_generator_of_huge_degree_is_cheap(self):
        ring = PresentedRing((2,), [], 2 * 10 ** 12, (10 ** 12,), backend="lattice")
        assert [m for m in ring._monomial_walk(2 * 10 ** 12) if m is not None] == [(10 ** 12,)]
        assert lattice_evaluate(ring, GradedPoly.monomial((2,), (10 ** 12,), 3)) == 3

    @pytest.fixture
    def steps(self, walked, monkeypatch):
        """Every setting the walk tries, monomial or dead end (inside `walked`)."""
        tried = []
        walk = PresentedRing._monomial_walk
        monkeypatch.setattr(PresentedRing, "_monomial_walk",
                            lambda ring, degree, units=(): (tried.append(m) or m
                                                            for m in walk(ring, degree, units)))
        return tried

    def test_caps_bound_the_walk_at_any_degree(self, walked, steps):
        # x^2 = y^3 = 0: in degree 2 * 10^12, y can take at most degree 4, so
        # x would have to start near 10^12, past its cap: one dead end, where
        # an uncapped walk would try 10^12 + 1 settings
        ring = _lattice_ring(2, 2 * 10 ** 12, lambda g0, g1: [g0 ** 2, g1 ** 3])
        assert graded_rank(ring, 2 * 10 ** 12) == 0
        assert walked == [0] and steps == [None]

    def test_a_capped_last_generator_walks_within_the_dead_end_budget(self, walked, steps):
        # y^2 = 0 leaves x^(N-1) y and x^N in degree 2N, N = 10^12: x starts
        # at N - 1, the least exponent that leaves y room, so the walk takes
        # two steps and no dead end
        N = 10 ** 12
        ring = _lattice_ring(2, 2 * N, lambda g0, g1: [g1 ** 2])
        assert graded_rank(ring, 2 * N) == 2
        assert walked == [2] and steps == [(N - 1, 1), (N, 0)]

    def test_capped_generators_start_where_they_leave_room(self):
        # y^3 = z^2 = 0: y and z take at most degree 6, so x starts at N - 3,
        # and each step is one of the six standard monomials of degree 2N
        N = 10 ** 6
        ring = PresentedRing((2, 2, 2), [], 2 * N, (N, 0, 0),
                             backend="lattice")
        assert list(ring._monomial_walk(2 * N, [(0, 3, 0), (0, 0, 2)])) == [
            (N - 3, 2, 1), (N - 2, 1, 1), (N - 2, 2, 0),
            (N - 1, 0, 1), (N - 1, 1, 0), (N, 0, 0)]

    @pytest.mark.parametrize("degree,want", [(6, [None]), (8, [(2, 0)])])
    def test_no_fitting_exponent_is_one_dead_end(self, degree, want):
        # y = 0 leaves x of degree 4 alone: its least exponent fits degree 8
        # exactly and overshoots degree 6
        ring = PresentedRing((4, 2), [], 8, (2, 0), backend="lattice")
        assert list(ring._monomial_walk(degree, [(0, 1)])) == want

    def test_a_mixed_unit_kills_within_the_dead_end_budget(self, walked, steps):
        # x*y = 0 kills every monomial of degree 2N but y^N and x^N: each
        # killed one is a dead end, so the walk is refused
        ring = _lattice_ring(2, 2 * 10 ** 12, lambda g0, g1: [g0 * g1])
        with pytest.raises(PresentationError, match="dead ends"):
            graded_rank(ring, 2 * 10 ** 12)
        assert walked == [1]
        assert len(steps) == cohomring._DEAD_END_LIMIT + cohomring.LATTICE_MAX_MONOMIALS + 2

    def test_limits_sit_far_above_the_largest_qt_gens_model(self):
        # Ntilde(12, 1): 26 standard monomials x 25 rows, the largest of every
        # qt_gens model (120 x 185 before the unit relations were eliminated)
        ring = tower.presented_ring(tower.build_family("Ntilde", 12, 1, convention="bordism"))
        index, rows = ring._lattice_model(ring.top_degree)
        matrix = dense_matrix(rows, len(index))
        assert (matrix.cols, matrix.rows) == (26, 25)
        assert 10 * matrix.cols <= cohomring.LATTICE_MAX_MONOMIALS
        assert 10 * matrix.rows <= cohomring.LATTICE_MAX_ROWS


# ---------------------------------------------------------------------------
# no stored exception is raised
# ---------------------------------------------------------------------------

def stored_exception_raises(source: str) -> list[int]:
    """Lines of the `raise` statements whose exception is an attribute.

    An attribute holds an exception made earlier; raising it again appends
    to its traceback, so every `raise` in the package makes a fresh one.
    """
    return [node.lineno for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Raise) and isinstance(node.exc, ast.Attribute)]


@pytest.mark.parametrize("path", sorted(pathlib.Path(cohomring.__file__).parent.glob("*.py")),
                         ids=lambda p: p.name)
def test_no_stored_exception_is_raised(path):
    assert stored_exception_raises(path.read_text(encoding="utf-8")) == []


@pytest.mark.parametrize("source", [
    "def f(self):\n    raise self._error\n",
    "try:\n    pass\nexcept ValueError:\n    raise state.error from None\n",
])
def test_guard_finds_a_stored_exception(source):
    assert stored_exception_raises(source)
