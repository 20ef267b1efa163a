"""Determinism of the benchmark itself.

    python3 -m pytest benchmarks/test_determinism.py

Two traced runs at the same seed must agree on every count, lower-bound
component and air-time ratio; the lower-bound components must add up to the
optc air-time ratio (taken from the CSV on sim-bulk, so the two sources are
independent there); a different seed must change the inputs.
"""

import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent

EXACT = (
    "hashing.seed_tests",
    "protocol.refine_iterations",
    "protocol.pool_tags_hashed",
    "hashing.ids_to_halves.ids",
    "selgen.commands_per_category",
    "selgen.window_draws",
)
LB_PARTS = ("coarse_header", "refine_header", "frame", "stop")


def traced_run(workload: str, seed: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert last["correct"] and last["failed"] == 0, proc.stdout
    with open(BENCH_DIR / "out" / workload / "report-trace.json") as fh:
        report = json.load(fh)
    assert not report["absent"] and not report["hook_errors"]
    return report


def values(report: dict) -> dict:
    return {name: m["value"] for name, m in report["metrics"].items()}


@pytest.mark.parametrize("workload", ["sim-bulk", "sim-deploy", "verify-rounds"])
def test_same_seed_same_counts_and_airtime(workload):
    first, second = traced_run(workload, 7), traced_run(workload, 7)
    a, b = values(first), values(second)
    deterministic = [
        name for name in a
        if name in EXACT or name.startswith(("protocol.lb_ratio.", "airtime_ratio."))
    ]
    assert len(deterministic) == len(EXACT) + len(LB_PARTS) + 3
    assert {k: a[k] for k in deterministic} == {k: b[k] for k in deterministic}
    assert first["output_digest"] == second["output_digest"]

    parts = sum(a[f"protocol.lb_ratio.{p}"] for p in LB_PARTS)
    assert math.isclose(parts, a["airtime_ratio.optc"], rel_tol=1e-12, abs_tol=0.0)
    assert (a["airtime_ratio.optc"] > 1.0) == (workload != "sim-deploy")

    other = traced_run(workload, 8)
    assert other["input_digest"] != first["input_digest"]
    assert other["output_digest"] != first["output_digest"]

