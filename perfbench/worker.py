"""One cold pass of one workload, in a fresh interpreter.

    python3 perfbench/worker.py --workload cy_gens --seed 1 --trace 0

``bordx`` must be importable (``run.py`` puts ``src`` on ``PYTHONPATH``).
Prints one JSON object: the pass's wall time, raw and at reference speed
(see reference.py), the monotonic clock reading at its first timed call
(``run.py`` subtracts its own reading from just before it started this
process, giving the set-up time) and the factor that brings set-up time to
reference speed, peak RSS, items attempted and failed, the digest of every
exact integer produced, and with ``--trace 1`` the per-layer metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time

import bordx
import reference
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))


def run_pass(workload, seed, size, trace, scratch_dir, corrupt=None):
    """Build the items, time them, then check them.

    ``corrupt``, used only by the self-test, alters one item's record before
    it is checked so that the check can be seen to catch it.
    """
    items = workloads.build_items(workload, seed, size, scratch_dir)
    tracer = None
    if trace:
        import spans

        tracer = spans.Tracer()
        tracer.install()
    records, failed, item_s = {}, [], []
    first_call = time.monotonic()
    slices = [reference.slice_seconds()]
    try:
        for item in items:
            start = time.perf_counter()
            try:
                records[item.label] = (tracer.item(item.run) if tracer
                                       else item.run())
            except Exception as exc:  # an item that raises counts as failed
                failed.append(f"{item.label}: {type(exc).__name__}: {exc}")
            item_s.append(time.perf_counter() - start)
            slices.append(reference.slice_seconds())
    finally:
        if tracer:
            tracer.remove()
    if corrupt:
        corrupt(records)
    for item in items:
        if item.label not in records:
            continue
        try:
            if not item.check(records[item.label]):
                failed.append(f"{item.label}: check failed")
        except Exception as exc:  # a malformed record fails its check
            failed.append(f"{item.label}: check raised {type(exc).__name__}: {exc}")
    result = {
        "raw_wall_s": sum(item_s),
        # each item at reference speed, by the mean of the slices around it
        "wall_s": sum(t * 2 * reference.NOMINAL_S / (before + after)
                      for t, before, after in zip(item_s, slices, slices[1:])),
        "first_call": first_call,
        "setup_scale": reference.NOMINAL_S / slices[0],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "attempted": len(items),
        "failed": failed,
        "digest": workloads.digest(records),
        "kernel": bordx.KERNEL_BACKEND,
    }
    if tracer:
        result["layers"] = tracer.metrics()
    return result


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=tuple(workloads.SIZES), default="full")
    args = parser.parse_args(argv)
    with workloads.scratch_directory(HERE) as scratch_dir:
        result = run_pass(args.workload, args.seed, args.size, args.trace, scratch_dir)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
