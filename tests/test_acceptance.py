"""Acceptance suite: every criterion is exact integer equality (no tolerances).

Each test prints a single pass/fail line; run with `pytest -s` to see them
on success.
"""

import itertools

from bordx import bordclass as bc
from bordx import cohomring, numbers, tower
from bordx.cli import run_lemma, snl_closed_form, snn_closed_form
from bordx.exactalg import GradedPoly, IntMatrix, partitions
from bordx.genfactory import cy4_invariants, cy_generator_combo, cy_hypersurface
from lattice_reference import lattice_rank_kernel, monomials
from paper_examples_reference import grassmann_s4
from series_reference import graded_part

GRID = [(n1, n2) for n1 in (2, 4, 6, 8, 10) for n2 in (1, 3, 5, 7, 9)]


def report(num, desc, ok):
    print(f"[acceptance] criterion {num:2d}: {'PASS' if ok else 'FAIL'} - {desc}")
    assert ok, f"criterion {num} failed: {desc}"


def test_criterion_01_k3_s_numbers():
    ok = (
        bc.s_num(cy_hypersurface((3,))) == -48
        and bc.s_num(cy_hypersurface((1, 1, 1))) == -48
    )
    report(1, "s3(N(3)) = s3(N(1,1,1)) = -48 via boundary of CP products", ok)


def test_criterion_02_paper_combinations():
    c6 = 15 * bc.s_num(cy_hypersurface((2, 2))) - 19 * bc.s_num(
        cy_hypersurface((1, 1, 1, 1))
    )
    c8 = 56 * bc.s_num(cy_hypersurface((3, 1, 1))) - 59 * bc.s_num(
        cy_hypersurface((2, 2, 1))
    )
    report(2, "15 s(N(2,2)) - 19 s(N(1^4)) = 6 and 56 s(N(1,1,3)) - 59 s(N(1,2,2)) = 20",
           c6 == 6 and c8 == 20)


def test_criterion_03_cy_generator_combos():
    ok = numbers.g(4) == 6 and numbers.g(5) == 20
    for n in range(3, 13):
        cert = cy_generator_combo(n)
        ok = ok and abs(cert.s_value) == abs(numbers.g(n))
    report(3, "cy_generator_combo(n) reaches |g(n)| for 3 <= n <= 12", ok)


def test_criterion_04_family_s_numbers_on_grid():
    ok = (
        tower.s_number(tower.build_family("Ltilde", 2, 1)) == 0
        and tower.s_number(tower.build_family("Ntilde", 2, 1)) == 0
        and tower.s_number(tower.build_family("Ntilde", 2, 3)) == 14
    )
    for n1, n2 in GRID:
        ok = ok and tower.s_number(tower.build_family("Ltilde", n1, n2)) == \
            snl_closed_form(n1, n2)
        ok = ok and tower.s_number(tower.build_family("Ntilde", n1, n2)) == \
            snn_closed_form(n1, n2)
    report(4, "closed s-number forms match towers on the 5x5 grid + spot values", ok)


def test_criterion_05_operator_identities():
    rows = run_lemma("algrel")
    ok = bool(rows) and all(r["status"] == "pass" for r in rows)
    report(5, f"operator identity suite ({len(rows)} instances)", ok)


def test_criterion_06_rho_pi_distinction():
    p1 = bc.psi(bc.cp(1))
    ok = (
        bc.rho(bc.cp(3)).number((3,)) == 68
        and bc.stong_pi(bc.cp(3)).number((3,)) == -60
        and bc.stong_pi(p1).number((3,)) == 4
        and p1.number((1, 1, 1)) == -2
        and p1.number((3,)) == 2
    )
    report(6, "c3(rho CP3) = 68, c3(pi CP3) = -60, c3(pi Psi CP1) = 4, "
              "Psi CP1 numbers (-2, 2)", ok)


def test_criterion_07_twisted_product():
    x1 = bc.cp(1)
    ok = bc.twisted_mul(x1, x1) == bc.k_class()
    # Leibniz rule for the twisted product on sample pairs
    K = bc.k_class()
    pairs = [(x1, x1), (x1, K), (K, K)]
    for a, b in pairs:
        ab = bc.twisted_mul(a, b)
        da, db = bc.boundary(a), bc.boundary(b)
        rhs = (bc.twisted_mul(a, db) + bc.twisted_mul(da, b)
               - bc.twisted_mul(x1, bc.twisted_mul(da, db)))
        ok = ok and bc.boundary(ab) == rhs
    y2 = bc.boundary(bc.twisted_mul(bc.twisted_mul(x1, x1), x1))
    ok = ok and bc.s_num(y2) == -48
    report(7, "x1*x1 = K, d(a*b) Leibniz on pairs, s2(d(x1*x1*x1)) = -48", ok)


def test_criterion_08_grassmannian():
    report(8, "s4 of the twisted Grassmannian = -20", grassmann_s4() == -20)


def _l_type_classes(max_dim):
    """Bordism classes of L(a,b) per dimension (CP^d enters as L(0,d))."""
    types = {}
    for d in range(1, max_dim + 1):
        classes = []
        for a in range(0, d):
            spec = tower.build_family("L", a, d - a, convention="bordism")
            classes.append(tower.chern_numbers(spec))
        types[d] = classes
    return types


def _monomials_of_dim(types, n):
    """All products of L-classes with total dimension n."""
    dims = sorted(types)
    out = []

    def rec(remaining, dim_index, current):
        if remaining == 0:
            out.append(current)
            return
        if dim_index >= len(dims):
            return
        d = dims[dim_index]
        max_count = remaining // d
        # multisets over the type list of dimension d
        choices = types[d]
        for count in range(max_count + 1):
            if count == 0:
                rec(remaining, dim_index + 1, current)
            else:
                for combo in itertools.combinations_with_replacement(
                    range(len(choices)), count
                ):
                    cls = current
                    for idx in combo:
                        cls = bc.product(cls, choices[idx])
                    rec(remaining - count * d, dim_index + 1, cls)

    rec(n, 0, bc.ChernVector.unit())
    return out


def _rank_of_vectors(vectors, dim):
    basis = partitions(dim)
    rows = [[v.numbers[w] for w in basis] for v in vectors]
    if not rows:
        return 0
    rank, _ = lattice_rank_kernel(IntMatrix.from_rows(rows, cols=len(basis)))
    return rank


def test_criterion_09_rank_cross_check():
    ok = True
    types = _l_type_classes(6)
    p = {k: len(partitions(k)) for k in range(0, 7)}
    for n in range(2, 7):
        monomials = _monomials_of_dim(types, n)
        span_rank = _rank_of_vectors(monomials, n)
        ok = ok and span_rank == p[n]  # the L(a,b) generate Omega^U
        delta_rank = _rank_of_vectors([bc.delta(x) for x in monomials], n - 2)
        ker_delta_rank = span_rank - delta_rank
        ok = ok and ker_delta_rank == p[n] - p[n - 2]
        if (2 * n) % 8 != 4:
            # rank of Ker d intersect Ker Delta = partitions with parts >= 2
            joint = []
            for x in monomials:
                dx, deltax = bc.boundary(x), bc.delta(x)
                row = [dx.numbers[w] for w in partitions(n - 1)]
                row += [deltax.numbers[w] for w in partitions(n - 2)]
                joint.append(row)
            joint_rank, _ = lattice_rank_kernel(
                IntMatrix.from_rows(joint, cols=len(joint[0]))
            )
            su_rank = span_rank - joint_rank
            expected = len([w for w in partitions(n) if all(part >= 2 for part in w)])
            ok = ok and su_rank == expected
    report(9, "Ker Delta and Ker d cap Ker Delta ranks on L(a,b) monomials, n <= 6", ok)


def test_criterion_10_number_theory_sweeps():
    ok = all(numbers.verify_gcddif(k)[1] for k in range(2, 51))
    for k in range(3, 31):
        for pr in [q for q in range(2, 2 * k + 2) if numbers.prime_power_base(q) == q]:
            ok = ok and numbers.verify_nmod(k, pr)[1]
    ok = ok and all(numbers.verify_alpha_gcd(n)[1] for n in range(3, 17))
    report(10, "gcddif k <= 50, nmod k <= 30 (all primes), alpha gcd n <= 16", ok)


def test_criterion_11_cy4_hodge():
    y4 = cy4_invariants(16, 30, 53)
    my4 = cy4_invariants(17, 45, 69)
    ok = (
        y4 == {"chi1_neg": 39, "c4": 282, "c2sq": 574, "s4": 20, "tag": "y4"}
        and my4 == {"chi1_neg": 41, "c4": 294, "c2sq": 578, "s4": -20,
                    "tag": "minus_y4"}
    )
    report(11, "CY4 Hodge criteria: (16,30,53) -> y4, (17,45,69) -> -y4 with "
               "c4 = 282/294, c2^2 = 574/578", ok)


def test_criterion_12_todd():
    ok = all(bc.todd(bc.cp(n)) == 1 for n in range(5))
    ok = ok and bc.todd(bc.k_class()) == 1
    ok = ok and bc.todd(bc.k_class().scale(2)) == 2
    report(12, "td(CP^n) = 1 for n <= 4, td(K) = 1, td(2K) = 2", ok)


def test_criterion_13_backend_equivalence():
    import random

    rng = random.Random(2024)
    ok = True
    for name in ("Ltilde", "Ntilde"):
        for n1, n2 in GRID:
            spec = tower.build_family(name, n1, n2)
            ring, lat = tower.ring_backend_pair(spec)
            cap = ring.top_degree
            # the s-number element
            s_poly = GradedPoly.zero(ring.degrees)
            for cls in tower.signed_roster(spec):
                s_poly = s_poly + cls.pow(spec.dim, cap)
            elements = [s_poly, GradedPoly.monomial(ring.degrees,
                                                    ring.fundamental_monomial)]
            monos = monomials(ring.degrees, cap)
            for _ in range(6):
                picks = rng.sample(monos, min(4, len(monos)))
                elements.append(GradedPoly(
                    ring.degrees, {e: rng.randint(-7, 7) for e in picks}))
            for x in elements:
                if x.is_zero():
                    continue
                ok = ok and cohomring.evaluate_top(ring, x) == \
                    cohomring.lattice_evaluate(lat, x)
    # full Chern-number agreement on the small instances
    for name, n1, n2 in [("Ltilde", 2, 1), ("Ltilde", 2, 3), ("Ntilde", 2, 1),
                         ("Ntilde", 2, 3)]:
        spec = tower.build_family(name, n1, n2)
        ring, lat = tower.ring_backend_pair(spec)
        c = tower.total_chern(spec)
        parts = {i: graded_part(c, 2 * i) for i in range(1, spec.dim + 1)}
        for omega in partitions(spec.dim):
            poly = GradedPoly.constant(ring.degrees, 1)
            for i in omega:
                poly = poly.mul(parts[i], ring.top_degree)
            ok = ok and cohomring.evaluate_top(ring, poly) == \
                cohomring.lattice_evaluate(lat, poly)
    report(13, "triangular and lattice backends agree over the acceptance grid", ok)
