"""The bordx benchmark of record (pure-Python kernel).

    python3 perfbench/run.py --workload cy_gens --seed 1 --seconds 25 --trace 0

Run from the repository root.  Repeats cold passes of one workload, each in
a fresh interpreter with ``src`` on ``PYTHONPATH``, one at a time, until
``--seconds`` are used up, and reports medians over the passes.  With
``--trace 0`` it prints the end-to-end metrics; with ``--trace 1`` it
alternates untraced and traced passes and prints the per-layer metrics and
the tracing overhead.  Workloads, metrics and what each should move are
described in perfbench/README.md.

Output: a provenance line, a one-line summary, and as the last line one
JSON object with the keys correct, attempted, failed and metrics.  Exits 1
when any item failed or an output integer differs from its check, and 2
when the harness cannot run (no ``src/bordx``, a worker crashed, or a
worker ran another kernel than the pure-Python one).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

WORKLOADS = ("cy_gens", "qt_gens", "ops", "sweeps")
KERNEL = "python"
DEFAULT_SEED = 1
MIN_PASSES = 3
WORKER_TIMEOUT_S = 150

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

# sha256 of every exact integer a full-size pass produces at DEFAULT_SEED
PINNED_DIGESTS = {
    "cy_gens": "03debb4b4f8be1d2b310b5dc055a973ec62550c57d833c25b9d084224a430d99",
    "qt_gens": "179bf995a5805f0c505de92a14d41ce4b02f2ab22bf74e3609227d37a8c3a132",
    "ops": "ada3b4c488c423a661ee111e802e79b94ce9b082a56c25cd25e1afa43fca5839",
    "sweeps": "0afb1fd0a52f2a8564dc8078e430912aa3c1985687275dfa3795084fce998bca",
}


class HarnessError(Exception):
    """The benchmark could not run; no result is printed."""


def worker_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    env["BORDX_PURE"] = "1"  # the benchmark of record measures the pure kernel
    env["PYTHONHASHSEED"] = "0"
    return env


def run_worker(workload, seed, trace, size):
    """One cold pass in a fresh interpreter; returns its result and set-up time."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", workload,
           "--seed", str(seed), "--trace", str(trace), "--size", size]
    spawned = time.monotonic()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=worker_env(), capture_output=True,
                              text=True, timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise HarnessError(f"worker exceeded {WORKER_TIMEOUT_S} s") from exc
    if proc.returncode != 0:
        raise HarnessError(f"worker exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if result["kernel"] != KERNEL:
        raise HarnessError(
            f"worker ran the {result['kernel']!r} kernel; only {KERNEL!r} runs are "
            "comparable with this benchmark")
    result["raw_setup_s"] = result["first_call"] - spawned
    result["setup_s"] = result["raw_setup_s"] * result["setup_scale"]
    return result


def run_passes(workload, seed, seconds, trace, size):
    """Passes until the time is used; in trace mode untraced and traced alternate."""
    deadline = time.monotonic() + seconds
    passes = []
    while True:
        traced = bool(trace) and len(passes) % 2 == 1
        started = time.monotonic()
        result = run_worker(workload, seed, int(traced), size)
        result["traced"] = traced
        passes.append(result)
        took = time.monotonic() - started
        per_kind = len(passes) // 2 if trace else len(passes)
        if per_kind >= MIN_PASSES and time.monotonic() + took > deadline:
            return passes


def git_commit():
    """HEAD of the checkout, or None when it is not a git repository."""
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return None  # git would otherwise report an enclosing repository
    try:
        proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def source_digest():
    """sha256 over the package sources, for checkouts that are not git repos."""
    h = hashlib.sha256()
    package = os.path.join(SRC, "bordx")
    for name in sorted(os.listdir(package)):
        if name.endswith((".py", ".pyx")):
            h.update(name.encode())
            with open(os.path.join(package, name), "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def provenance(args, passes):
    import workloads

    return {
        "workload": args.workload,
        "seed": args.seed,
        "size": args.size,
        "sizes": workloads.sizes_of(args.workload, args.size),
        "seconds": args.seconds,
        "trace": args.trace,
        "passes": len(passes),
        "pass_wall_s": [round(p["wall_s"], 4) for p in passes],
        "pass_raw_wall_s": [round(p["raw_wall_s"], 4) for p in passes],
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "kernel": KERNEL,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
    }


def median_of(passes, key):
    return statistics.median(p[key] for p in passes)


def summarize(args, passes):
    attempted = sum(p["attempted"] for p in passes)
    failures = [f for p in passes for f in p["failed"]]
    digests = {p["digest"] for p in passes}
    problems = [f"item failed: {f}" for f in failures[:10]]
    if len(digests) > 1:
        problems.append(f"passes disagree on their outputs: {sorted(digests)}")
    pinned = PINNED_DIGESTS[args.workload]
    if args.seed == DEFAULT_SEED and args.size == "full" and digests != {pinned}:
        problems.append(f"digest {sorted(digests)} differs from the pinned {pinned}")
    if args.trace:
        import spans

        untraced = [p for p in passes if not p["traced"]]
        traced = [p for p in passes if p["traced"]]
        metrics = {name: {"value": statistics.median(p["layers"][name] for p in traced),
                          "unit": unit}
                   for name, unit in spans.metric_names().items()}
        metrics["trace_overhead"] = {
            "value": median_of(traced, "wall_s") / median_of(untraced, "wall_s"),
            "unit": "ratio"}
    else:
        metrics = {name: {"value": median_of(passes, name), "unit": unit}
                   for name, unit in END_TO_END_UNITS.items()}
    return {
        "correct": not problems,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
    }, problems


def main(argv=None):
    parser = argparse.ArgumentParser(description="The bordx benchmark of record.")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help=argparse.SUPPRESS)  # "tiny" is for the self-test
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "bordx", "__init__.py")):
        print(f"error: no bordx sources under {SRC}; run from a repository "
              "checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    try:
        passes = run_passes(args.workload, args.seed, args.seconds, args.trace,
                            args.size)
    except HarnessError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    result, problems = summarize(args, passes)
    for problem in problems:
        print(f"FAIL {problem}", file=sys.stderr)
    print(json.dumps({"provenance": provenance(args, passes)}))
    metrics = result["metrics"]
    if args.trace:
        summary = f"trace_overhead={metrics['trace_overhead']['value']:.6g}"
    else:
        summary = " ".join(f"{k}={metrics[k]['value']:.6g} {metrics[k]['unit']}"
                           for k in END_TO_END_UNITS)
        summary += (f" raw_wall_s={median_of(passes, 'raw_wall_s'):.6g} s"
                    f" raw_setup_s={median_of(passes, 'raw_setup_s'):.6g} s")
    print(f"{args.workload} seed={args.seed} passes={len(passes)} {summary} "
          f"fail_ratio={result['failed'] / result['attempted']:.6g}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
