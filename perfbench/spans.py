"""Spans around the public bordx functions, for the traced run only.

``Tracer.install`` replaces each traced function by a wrapper in every
bordx module namespace that holds it (methods on their class), and
``Tracer.remove`` puts the originals back.  A span is (name, start, end,
parent) and stays in memory; self time is a span's duration minus the time
its direct child spans cover.  Nothing here is imported by an untraced pass.
"""

from __future__ import annotations

import sys
import time

from bordx import bordclass, cli, cohomring, exactalg, genfactory, numbers, tower

# (metric prefix, owner, attribute): owner is a module or a class
TARGETS = (
    ("exactalg.mul", exactalg.GradedPoly, "mul"),
    ("exactalg.partitions", exactalg, "partitions"),
    ("cohomring.evaluate_top", cohomring, "evaluate_top"),
    ("cohomring.lattice_evaluate", cohomring, "lattice_evaluate"),
    ("tower.presented_ring", tower, "presented_ring"),
    ("tower.total_chern", tower, "total_chern"),
    ("tower.chern_numbers", tower, "chern_numbers"),
    ("tower.s_number", tower, "s_number"),
    ("bordclass.product", bordclass, "product"),
    ("bordclass.pair", bordclass.ChernVector, "pair"),
    ("bordclass.s_num", bordclass, "s_num"),
    ("bordclass.boundary_k", bordclass, "boundary_k"),
    ("bordclass.delta", bordclass, "delta"),
    ("bordclass.psi_k1k2", bordclass, "psi_k1k2"),
    ("bordclass.stong_pi", bordclass, "stong_pi"),
    ("bordclass.in_W", bordclass, "in_W"),
    ("bordclass.twisted_mul", bordclass, "twisted_mul"),
    ("numbers.verify_nmod", numbers, "verify_nmod"),
    ("numbers.verify_alpha_gcd", numbers, "verify_alpha_gcd"),
    ("numbers.rank_table", numbers, "rank_table"),
    ("genfactory.cy_generator_combo", genfactory, "cy_generator_combo"),
    ("genfactory.quasitoric_generator_odd", genfactory, "quasitoric_generator_odd"),
    ("genfactory.quasitoric_generator_even", genfactory, "quasitoric_generator_even"),
    ("cli.main", cli, "main"),
)

ITEM = "bench.item"


def metric_names():
    """Every per-layer metric a traced pass reports, with its unit."""
    out = {}
    for name, _, _ in TARGETS:
        out[f"{name}.calls"] = "count"
        out[f"{name}.self_s"] = "s"
    out["exactalg.mul.pairs"] = "count"
    out["exactalg.mul.terms_out"] = "count"
    return out


class Tracer:
    """In-memory span recorder; one per traced pass."""

    def __init__(self):
        self.names = [ITEM] + [name for name, _, _ in TARGETS]
        self.span_name = []
        self.span_parent = []
        self.span_start = []
        self.span_end = []
        self.stack = [-1]
        self.mul_pairs = 0
        self.mul_terms_out = 0
        self._patched = []

    # -- spans ---------------------------------------------------------------

    def span(self, name_id, fn, args, kwargs):
        idx = len(self.span_name)
        self.span_name.append(name_id)
        self.span_parent.append(self.stack[-1])
        self.span_end.append(0.0)
        self.stack.append(idx)
        self.span_start.append(time.perf_counter())
        try:
            return fn(*args, **kwargs)
        finally:
            self.span_end[idx] = time.perf_counter()
            self.stack.pop()

    def item(self, fn):
        """Run one benchmark item under a root span that its calls descend from."""
        return self.span(0, fn, (), {})

    # -- wrappers ------------------------------------------------------------

    def _wrap(self, name_id, original):
        tracer = self

        if self.names[name_id] == "exactalg.mul":
            def wrapper(a, b, *args, **kwargs):
                result = tracer.span(name_id, original, (a, b) + args, kwargs)
                tracer.mul_pairs += len(a.terms) * len(b.terms)
                tracer.mul_terms_out += len(result.terms)
                return result
        else:
            def wrapper(*args, **kwargs):
                return tracer.span(name_id, original, args, kwargs)

        wrapper.__wrapped__ = original
        return wrapper

    def install(self):
        modules = [m for name, m in sys.modules.items()
                   if name == "bordx" or name.startswith("bordx.")]
        for name_id, (_, owner, attr) in enumerate(TARGETS, start=1):
            original = getattr(owner, attr)
            wrapper = self._wrap(name_id, original)
            holders = [owner] if isinstance(owner, type) else modules
            for holder in holders:
                for key, value in list(vars(holder).items()):
                    if value is original:
                        self._patched.append((holder, key, original))
                        setattr(holder, key, wrapper)

    def remove(self):
        for holder, key, original in reversed(self._patched):
            setattr(holder, key, original)
        self._patched.clear()

    # -- results -------------------------------------------------------------

    def metrics(self):
        """calls and self seconds per traced function, plus the kernel counts."""
        count = len(self.span_name)
        child = [0.0] * count
        for i in range(count):
            parent = self.span_parent[i]
            if parent >= 0:
                child[parent] += self.span_end[i] - self.span_start[i]
        calls = [0] * len(self.names)
        self_s = [0.0] * len(self.names)
        for i in range(count):
            name_id = self.span_name[i]
            calls[name_id] += 1
            self_s[name_id] += self.span_end[i] - self.span_start[i] - child[i]
        out = {}
        for name_id, name in enumerate(self.names[1:], start=1):
            out[f"{name}.calls"] = calls[name_id]
            out[f"{name}.self_s"] = self_s[name_id]
        out["exactalg.mul.pairs"] = self.mul_pairs
        out["exactalg.mul.terms_out"] = self.mul_terms_out
        return out
