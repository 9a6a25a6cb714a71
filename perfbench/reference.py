"""A fixed reference computation that measures how fast the host runs right now.

The sandbox the benchmark was built on drifts in speed by 20-80% over tens
of seconds (other tenants share its cores); the drift shows in CPU time as
well as wall time.  A pass therefore runs one short reference slice before
its first item and after every item, and each item's time is divided by the
mean of the two slices around it.  Interleaved this way the ratio stayed
within about 3% while wall time spread over 20%.

The slice has the two shapes of work the workloads do, since contention
slows them by different amounts: a capped product of exponent-keyed dicts
of ints (the bordx kernel) and gcds of big binomial differences (the
number-theory sweeps).  Either alone left 6-7% spread on the other kind of
work; the sum left 2-4% on both.  It runs on fixed inputs and must never
change with bordx, so that it moves only with the host.
"""

from __future__ import annotations

import math
import time

# Seconds one slice takes on the reference host, rounded (the 2-core sandbox,
# CPython 3.11; it took 40-70 ms as the host drifted).  Times are reported as
# seconds at this speed.
NOMINAL_S = 0.05

_DEGREES = (2, 2, 2)
_CAP = 36
_TERMS = {(i, j, k): i + j + k + 1 for i in range(6) for j in range(6) for k in range(4)}


def _product(a_terms, b_terms):
    b_items = [(sum(e * d for e, d in zip(eb, _DEGREES)), eb, cb)
               for eb, cb in b_terms.items()]
    out = {}
    for ea, ca in a_terms.items():
        da = sum(e * d for e, d in zip(ea, _DEGREES))
        for db, eb, cb in b_items:
            if da + db > _CAP:
                continue
            key = tuple(x + y for x, y in zip(ea, eb))
            c = out.get(key, 0) + ca * cb
            if c:
                out[key] = c
            elif key in out:
                del out[key]
    return out


def _binomial_gcds():
    acc = 0
    for n in range(200, 260):
        for j in range(0, n, 3):
            acc = math.gcd(acc, math.comb(n, j) - math.comb(n, j + 1))
    return acc


def slice_seconds():
    """Wall time of one reference slice."""
    start = time.perf_counter()
    _product(_TERMS, _TERMS)
    _binomial_gcds()
    return time.perf_counter() - start
