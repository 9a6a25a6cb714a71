"""Inputs, timed items and independent checks of the four benchmark workloads.

Each workload turns ``(seed, size)`` into a list of items.  An item is a
label plus a function that calls ``bordx`` through its public API and
returns the exact integers it produced; a second function checks those
integers against a route that does not go through the code under test
(closed forms computed here, or an identity between two library routes).

The checks never look at the seed: they hold for every input the
generators below can draw.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import random
import tempfile
from collections import namedtuple

from bordx import bordclass, cli, cohomring, exactalg, genfactory, tower

WORKLOADS = ("cy_gens", "qt_gens", "ops", "sweeps")

# Item sizes per workload.  "full" is the benchmark of record; "tiny" is
# used only by the harness self-test.
SIZES = {
    "full": {
        "cy_gens": {"n": range(3, 12)},
        "qt_gens": {"dims": range(10, 31, 2)},
        "ops": {"dims": range(4, 12), "terms": 3},
        "sweeps": {"nmodp": 60, "alphagcd": 32, "gcddif": 300, "nmod2": 120,
                   "ranks": 200},
    },
    "tiny": {
        "cy_gens": {"n": range(3, 6)},
        "qt_gens": {"dims": range(10, 13, 2)},
        "ops": {"dims": range(4, 6), "terms": 2},
        "sweeps": {"nmodp": 5, "alphagcd": 6, "gcddif": 5, "nmod2": 5,
                   "ranks": 10},
    },
}


# One unit of timed work, and the check of the record its run returns.
Item = namedtuple("Item", "label run check")


# ---------------------------------------------------------------------------
# number theory computed here, independently of bordx.numbers
# ---------------------------------------------------------------------------

def _prime_power_base(n):
    for p in range(2, n + 1):
        if n % p == 0:
            while n % p == 0:
                n //= p
            return p if n == 1 else None
    return None


def _m(i):
    """m_i = p if i + 1 is a power of the prime p, else 1."""
    return _prime_power_base(i + 1) or 1


def _g(n):
    """s-number of a polynomial generator of Omega^SU[1/2] in dimension 2(n-1)."""
    if n == 3:
        return -48
    return (2 if n % 2 else 1) * _m(n - 1) * _m(n - 2)


def _partition_counts(nmax):
    p = [1] + [0] * nmax
    for part in range(1, nmax + 1):
        for total in range(part, nmax + 1):
            p[total] += p[total - part]
    return p


# ---------------------------------------------------------------------------
# cy_gens: Calabi-Yau certificates, the bordclass.product path
# ---------------------------------------------------------------------------

def _certificate_record(cert):
    return {
        "dimension": cert.dimension,
        "s_value": cert.s_value,
        "target": cert.target,
        "combination": [[c, src] for c, src in cert.combination],
        "numbers": sorted([list(w), v] for w, v in cert.chern_class.numbers.items()),
        "su_checks": dict(cert.su_checks),
    }


def _certificate_ok(rec, dimension, target):
    numbers = {tuple(w): v for w, v in rec["numbers"]}
    return (
        rec["dimension"] == dimension
        and rec["s_value"] == rec["target"] == target
        and all(rec["su_checks"].values())
        # SU-manifolds have vanishing c_1: every Chern number with a c_1 factor is 0
        and all(v == 0 for w, v in numbers.items() if 1 in w)
    )


def _cy_items(rng, size):
    order = list(size["n"])
    rng.shuffle(order)

    def make(n):
        def run():
            return _certificate_record(genfactory.cy_generator_combo(n))

        def check(rec):
            return _certificate_ok(rec, 2 * (n - 1), _g(n))

        return Item(f"n={n}", run, check)

    return [make(n) for n in order]


# ---------------------------------------------------------------------------
# qt_gens: quasitoric certificates, the tower/cohomring path
# ---------------------------------------------------------------------------

def _tower_s_numbers(spec):
    """s-number of one tower export on both backends and through tower.s_number."""
    tri, lat = tower.ring_backend_pair(spec)
    n = spec.dim
    power_sum = exactalg.GradedPoly.zero(tri.degrees)
    for line in tower.signed_roster(spec):
        power_sum = power_sum + line.pow(n, 2 * n)
    sign = -1 if spec.convention == "bordism" and len(spec.conjugations) % 2 else 1
    return {
        "triangular": sign * cohomring.evaluate_top(tri, power_sum),
        "lattice": sign * cohomring.evaluate_top(lat, power_sum),
        "tower": tower.s_number(spec),
    }


def _qt_items(rng, size):
    order = list(size["dims"])
    rng.shuffle(order)

    def make(dim):
        i = dim // 2
        if i % 2:
            family, k = "Ltilde", (i - 1) // 2
            exports = [(n1, i - n1) for n1 in range(2, i, 2)]
            target = _m(i) * _m(i - 1)
        else:
            family, k = "Ntilde", i // 2
            exports = [(n1, i - 1 - n1) for n1 in range(2, i - 1, 2)]
            target = 2 * _m(i) * _m(i - 1)

        def run():
            build = (genfactory.quasitoric_generator_odd if i % 2
                     else genfactory.quasitoric_generator_even)
            rec = _certificate_record(build(k))
            rec["exports"] = [
                [n1, n2, _tower_s_numbers(
                    tower.build_family(family, n1, n2, convention="bordism"))]
                for n1, n2 in exports
            ]
            return rec

        def check(rec):
            return _certificate_ok(rec, dim, target) and all(
                s["triangular"] == s["lattice"] == s["tower"]
                for _, _, s in rec["exports"]
            )

        return Item(f"dim={dim}", run, check)

    return [make(dim) for dim in order]


# ---------------------------------------------------------------------------
# ops: the operation calculus on seed-drawn classes
# ---------------------------------------------------------------------------

def _cp_combination(rng, n, terms):
    """Seed-drawn integer combination of CP-products of complex dimension n.

    Always includes CP^n itself, so the s-number is nonzero.
    """
    coefficients = [c for c in range(-5, 6) if c]
    omegas = exactalg.partitions(n)
    combo = {(n,): rng.choice(coefficients)}
    while len(combo) < terms + 1:
        combo.setdefault(rng.choice(omegas), rng.choice(coefficients))
    return sorted(combo.items())


def _class_of(combo, n):
    a = bordclass.ChernVector(n)
    for omega, c in combo:
        a = a + genfactory.cp_product_class(omega).scale(c)
    return a


def _vector(a):
    return [a.dim, sorted([list(w), v] for w, v in a.numbers.items() if v)]


def _top_number(vector):
    """c_n of a recorded class of dimension n."""
    dim, numbers = vector
    return dict((tuple(w), v) for w, v in numbers).get((dim,), 0)


def _psi_top_factor(k1, k2):
    """c_top[Psi_(k1,k2) a] / c_top[a]: the fibre's share, (-1)^k2 times the
    coefficient of v^k in (1+v)^(k1+1) (1-v)^k2, k = k1 + k2."""
    k = k1 + k2
    return (-1) ** k2 * sum((-1) ** j * math.comb(k1 + 1, k - j) * math.comb(k2, j)
                            for j in range(k2 + 1))


def _boundary_k_top(a, k):
    """c_(n-k)[d_k a] = sum_j binom(-k, j) <c_1^(k+j) c_(n-k-j), a>."""
    n = a.dim
    total = 0
    for j in range(n - k + 1):
        rest = n - k - j
        omega = tuple(sorted(((rest,) if rest else ()) + (1,) * (k + j), reverse=True))
        total += (-1) ** j * math.comb(k + j - 1, j) * a.numbers[omega]
    return total


def _ops_items(rng, size):
    """Inputs are built here, before timing: CP-product classes via bordx."""
    items = []
    for n in size["dims"]:
        combo = _cp_combination(rng, n, size["terms"])
        a = _class_of(combo, n)
        partner = _class_of(_cp_combination(rng, 2, 1), 2)
        # a fixed total k1 + k2 keeps the work the same for every seed
        k1, k2 = rng.choice([(2, 0), (1, 1), (0, 2)])
        k = rng.choice([2, 3])
        s_expected = dict(combo)[(n,)] * (n + 1)  # s_n[CP^n] = n+1; products have s = 0
        items.append(_ops_item(n, a, partner, k1, k2, k, s_expected))
    return items


def _ops_item(n, a, partner, k1, k2, k, s_expected):
    def run():
        p = bordclass.psi(a)
        pi_a = bordclass.stong_pi(a)
        rho_a = bordclass.rho(a)
        twisted = bordclass.twisted_mul(pi_a, bordclass.stong_pi(partner))
        return {
            "psi": _vector(p),
            "delta_psi": _vector(bordclass.delta(p)),
            "d_psi_zero": bordclass.boundary(p).is_zero(),
            "dd_zero": bordclass.boundary(bordclass.boundary(a)).is_zero(),
            "psi_k1k2": _vector(bordclass.psi_k1k2(a, k1, k2)),
            "d_k": _vector(bordclass.boundary_k(a, k)),
            "pi": _vector(pi_a),
            "pi_in_w": bordclass.in_W(pi_a),
            "rho": _vector(rho_a),
            "rho_in_w": bordclass.in_W(rho_a),
            "twisted": _vector(twisted),
            "twisted_in_w": bordclass.in_W(twisted),
            "s": bordclass.s_num(a),
        }

    def check(rec):
        return (
            rec["delta_psi"] == _vector(a)  # Delta Psi = id
            and rec["d_psi_zero"]  # d Psi = 0
            and rec["dd_zero"]  # d d = 0
            and rec["pi_in_w"] and rec["rho_in_w"] and rec["twisted_in_w"]
            and rec["psi_k1k2"][0] == n + k1 + k2
            and _top_number(rec["psi_k1k2"]) == _psi_top_factor(k1, k2) * a.numbers[(n,)]
            and rec["d_k"][0] == n - k
            and _top_number(rec["d_k"]) == _boundary_k_top(a, k)
            and rec["s"] == s_expected
        )

    return Item(f"dim={n} psi=({k1},{k2}) d_k={k}", run, check)


# ---------------------------------------------------------------------------
# sweeps: lemma sweeps and rank tables through the CLI
# ---------------------------------------------------------------------------

def _sweep_commands(size):
    return [
        ("nmodp", ["verify", "--lemma", "nmodp", "--kmax", str(size["nmodp"])]),
        ("alphagcd", ["verify", "--lemma", "alphagcd", "--nmax", str(size["alphagcd"])]),
        ("gcddif", ["verify", "--lemma", "gcddif", "--kmax", str(size["gcddif"])]),
        ("nmod2", ["verify", "--lemma", "nmod2", "--kmax", str(size["nmod2"])]),
        ("ranks", ["ranks", "--max-dim", str(size["ranks"])]),
    ]


def _detail(row, key):
    for field in row["detail"].split():
        name, _, value = field.partition("=")
        if name == key:
            return int(value)
    raise KeyError(key)


def _sweep_rows_ok(name, size, rows):
    """Row count and each row's integers, recomputed here."""
    if name == "ranks":
        top = size["ranks"] // 2
        p = _partition_counts(top)
        return len(rows) == top + 1 and all(
            r["rank_omega_u"] == p[r["dimension"] // 2]
            and r["rank_w"] == p[r["dimension"] // 2]
            - (p[r["dimension"] // 2 - 2] if r["dimension"] >= 4 else 0)
            for r in rows
        )
    if any(r["status"] != "pass" for r in rows):
        return False
    if name == "alphagcd":
        ns = range(3, size["alphagcd"] + 1)
        return len(rows) == len(ns) and all(
            _detail(r, "gcd") == abs(_g(n)) for r, n in zip(rows, ns))
    if name == "gcddif":
        ks = range(2, size["gcddif"] + 1)
        return len(rows) == len(ks) and all(
            _detail(r, "gcd") == _m(2 * k + 1) * _m(2 * k) for r, k in zip(rows, ks))
    if name == "nmod2":
        ks = range(3, size["nmod2"] + 1)
        return len(rows) == len(ks) and all(
            _detail(r, "power") == (2 if _prime_power_base(2 * k) == 2 else 1)
            for r, k in zip(rows, ks))
    if name == "nmodp":
        cases = [(k, p) for k in range(3, size["nmodp"] + 1)
                 for p in range(3, 2 * k + 2, 2) if _prime_power_base(p) == p]
        return len(rows) == len(cases) and all(
            _detail(r, "power") == (p if _prime_power_base(2 * k + 1) == p else 1)
            for r, (k, p) in zip(rows, cases))
    return False


def _sweeps_items(rng, size, scratch_dir):
    commands = _sweep_commands(size)
    rng.shuffle(commands)

    def make(name, argv):
        output = os.path.join(scratch_dir, f"{name}.json")

        def run():
            code = cli.main(argv + ["--format", "json", "--output", output])
            with open(output, encoding="utf-8") as fh:
                rows = json.load(fh)
            return {"exit": code, "rows": rows}

        def check(rec):
            return rec["exit"] == 0 and _sweep_rows_ok(name, size, rec["rows"])

        return Item(name, run, check)

    return [make(name, argv) for name, argv in commands]


# ---------------------------------------------------------------------------
# entry points
# ---------------------------------------------------------------------------

def build_items(workload, seed, size_name, scratch_dir):
    """The items of one pass; the same (workload, seed, size) gives the same items."""
    rng = random.Random(f"{workload}/{seed}")
    size = SIZES[size_name][workload]
    if workload == "cy_gens":
        return _cy_items(rng, size)
    if workload == "qt_gens":
        return _qt_items(rng, size)
    if workload == "ops":
        return _ops_items(rng, size)
    if workload == "sweeps":
        return _sweeps_items(rng, size, scratch_dir)
    raise ValueError(f"unknown workload {workload!r}")


def sizes_of(workload, size_name):
    """JSON-friendly description of a workload's sizes, for provenance."""
    return {k: [v.start, v.stop - 1] if isinstance(v, range) else v
            for k, v in SIZES[size_name][workload].items()}


def digest(records):
    """sha256 of every exact integer a pass produced, independent of item order."""
    blob = json.dumps(sorted(records.items()), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def scratch_directory(root):
    """A private directory for CLI output files, inside the benchmark's tree."""
    return tempfile.TemporaryDirectory(prefix=".sweeps-", dir=root)
