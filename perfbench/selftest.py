"""Self-test of the benchmark harness at tiny sizes (about half a minute).

    python3 perfbench/selftest.py

Run from the repository root.  Checks that

* every workload prints, traced and untraced, exactly the metrics that
  BENCHMARK.json names, each with its unit, and passes its checks;
* a corrupted output integer is caught and counts as a failed item;
* a traced pass produces the same digest as an untraced one, and an
  untraced pass installs no wrappers;
* the harness refuses to run, printing no result, without ``src/bordx``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import run  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from bordx import exactalg  # noqa: E402

SEED = 7
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def declared_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]},
            [w["name"] for w in spec["workloads"]])


def run_cli(*args, cwd=ROOT, script=os.path.join(HERE, "run.py")):
    return subprocess.run([sys.executable, script, *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def check_metric_names():
    end_to_end, per_layer, names = declared_metrics()
    assert names == list(workloads.WORKLOADS) == list(run.WORKLOADS), names
    for workload in names:
        for trace, declared in ((0, end_to_end), (1, per_layer)):
            proc = run_cli("--workload", workload, "--seed", str(SEED), "--seconds",
                           "1", "--trace", str(trace), "--size", "tiny")
            assert proc.returncode == 0, proc.stderr
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            assert set(result) == RESULT_KEYS, result.keys()
            assert result["correct"] and result["failed"] == 0, result
            printed = {k: v["unit"] for k, v in result["metrics"].items()}
            assert printed == declared, (workload, trace, set(printed) ^ set(declared))
            assert proc.stdout.splitlines()[-2].endswith("fail_ratio=0"), proc.stdout


CORRUPTIONS = {
    "cy_gens": lambda recs: recs["n=3"].update(s_value=recs["n=3"]["s_value"] + 1),
    "qt_gens": lambda recs: recs["dim=10"].update(s_value=recs["dim=10"]["s_value"] + 1),
    "ops": lambda recs: next(iter(recs.values())).update(
        s=next(iter(recs.values()))["s"] + 1),
    "sweeps": lambda recs: recs["ranks"]["rows"][-1].update(
        rank_omega_u=recs["ranks"]["rows"][-1]["rank_omega_u"] + 1),
}


def check_corruption_caught(scratch):
    for workload in workloads.WORKLOADS:
        clean = worker.run_pass(workload, SEED, "tiny", 0, scratch)
        bad = worker.run_pass(workload, SEED, "tiny", 0, scratch,
                              corrupt=CORRUPTIONS[workload])
        assert not clean["failed"], clean["failed"]
        assert len(bad["failed"]) == 1, (workload, bad["failed"])
        args = argparse.Namespace(workload=workload, seed=SEED, size="tiny", trace=0)
        result, problems = run.summarize(args, [dict(bad, setup_s=0.0)])
        assert not result["correct"] and result["failed"] == 1 and problems


def check_trace_digest(scratch):
    mul = exactalg.GradedPoly.mul
    for workload in workloads.WORKLOADS:
        plain = worker.run_pass(workload, SEED, "tiny", 0, scratch)
        assert "spans" not in sys.modules, "an untraced pass imported the tracer"
        assert exactalg.GradedPoly.mul is mul
        traced = worker.run_pass(workload, SEED, "tiny", 1, scratch)
        assert exactalg.GradedPoly.mul is mul, "wrappers left installed"
        sys.modules.pop("spans")
        assert plain["digest"] == traced["digest"], workload
        assert any(v for k, v in traced["layers"].items() if k.endswith(".calls"))


def check_refuses_without_sources():
    with tempfile.TemporaryDirectory(prefix=".selftest-", dir=HERE) as bare:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns(".selftest-*", "__pycache__"))
        proc = run_cli("--workload", "cy_gens", "--seed", "1", "--seconds", "1",
                       "--trace", "0", cwd=bare,
                       script=os.path.join(bare, "perfbench", "run.py"))
        assert proc.returncode != 0 and not proc.stdout.strip(), proc


def main():
    check_metric_names()
    with workloads.scratch_directory(HERE) as scratch:
        check_corruption_caught(scratch)
        check_trace_digest(scratch)
    check_refuses_without_sources()
    print("selftest: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
