"""Benchmark the compiled polynomial kernel against the pure-Python fallback.

Usage: python3 benchmarks/bench_kernel.py

Two views: a micro-benchmark of the raw capped term-dict product, and an
end-to-end run of the family s-number sweep in a subprocess per backend
(kernel selection happens at import time, controlled by BORDX_PURE=1).
"""

import os
import subprocess
import sys
import time

SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")
sys.path.insert(0, SRC)

from bordx._kernel_py import mul_capped as pure_kernel  # noqa: E402

try:
    from bordx._speedups import mul_capped as fast_kernel
except ImportError:
    fast_kernel = None


def dense_poly(nvars, max_total):
    """All monomials with total exponent <= max_total, small coefficients."""
    terms = {}

    def rec(i, left, prefix):
        if i == nvars:
            terms[tuple(prefix)] = 1 + (sum(prefix) % 3)
            return
        for e in range(left + 1):
            prefix.append(e)
            rec(i + 1, left - e, prefix)
            prefix.pop()

    rec(0, max_total, [])
    return terms


def time_kernel(kernel, a, b, degrees, cap, repeats):
    best = None
    for _ in range(repeats):
        t0 = time.perf_counter()
        kernel(a, b, degrees, cap)
        dt = time.perf_counter() - t0
        best = dt if best is None else min(best, dt)
    return best


def micro():
    print("== micro: capped product of term dicts (best of 5) ==")
    cases = [
        ("trivariate 10x10, cap 40", 3, 10, 40),
        ("trivariate 14x14, cap 44", 3, 14, 44),
        ("5 variables 6x6, cap 24", 5, 6, 24),
    ]
    for label, nvars, size, cap in cases:
        degrees = (2,) * nvars
        a = dense_poly(nvars, size)
        b = dense_poly(nvars, size)
        t_pure = time_kernel(pure_kernel, a, b, degrees, cap, 5)
        line = f"{label:28s} terms={len(a)}x{len(b)}  pure={t_pure * 1e3:8.2f} ms"
        if fast_kernel is not None:
            t_fast = time_kernel(fast_kernel, a, b, degrees, cap, 5)
            line += f"  cython={t_fast * 1e3:8.2f} ms  speedup={t_pure / t_fast:5.2f}x"
        print(line)


SWEEP = r"""
import time
from bordx import tower, exactalg
t0 = time.perf_counter()
total = 0
for n1 in (2, 4, 6, 8, 10):
    for n2 in (1, 3, 5, 7, 9):
        total += tower.s_number(tower.build_family("Ltilde", n1, n2))
        total += tower.s_number(tower.build_family("Ntilde", n1, n2))
spec = tower.build_family("Ntilde", 2, 3)
for _ in range(20):
    tower.chern_numbers(spec)
print(f"{exactalg.KERNEL_BACKEND}\t{time.perf_counter() - t0:.3f}s  (checksum {total})")
"""


def macro():
    print("== macro: family s-number sweep + Chern vectors, per backend ==")
    for env_extra in ({}, {"BORDX_PURE": "1"}):
        path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
        env = dict(os.environ, PYTHONPATH=path, **env_extra)
        proc = subprocess.run(
            [sys.executable, "-c", SWEEP], env=env, capture_output=True, text=True
        )
        sys.stdout.write(proc.stdout or proc.stderr)
        if proc.returncode:
            sys.exit(proc.returncode)


if __name__ == "__main__":
    micro()
    macro()
