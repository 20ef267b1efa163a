"""Benchmark of the rfid_sampler simulator: host time and protocol air-time.

    python3 benchmarks/run.py [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]

Without --workload, all three workloads run one after another.  Each
workload runs in its own fresh interpreter (benchmarks/workload.py), one
client, one thread, one operation after another.  With --trace 0 the
end-to-end metrics are printed; with --trace 1 a traced run prints the
per-layer metrics.  The last line of standard output is one JSON object
with the keys correct, attempted, failed and metrics.  See README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import calibrate

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
CHILD = BENCH_DIR / "workload.py"
OUT_DIR = BENCH_DIR / "out"

WORKLOADS = ("sim-bulk", "sim-deploy", "verify-rounds")
SETUP_SAMPLES = 9
DEADLINE_S = 170.0
# Share of --seconds the traced run gives its untraced reference child;
# the traced child gets the rest, so a traced run lasts about as long as
# an untraced one.
TRACE_REFERENCE_SHARE = 1 / 3

# Dominant layer(s) predicted for each workload by profiling.
PREDICTED = {
    "sim-bulk": ("population",),
    "sim-deploy": ("selgen",),
    "verify-rounds": ("protocol", "hashing"),
}

PIN_THREADS = {
    name: "1"
    for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                 "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
}


class BenchError(RuntimeError):
    pass


def metric_units(kind: str) -> dict[str, str]:
    """Name -> unit of the `end_to_end` or `per_layer` metrics, in order."""
    with open(ROOT / "BENCHMARK.json") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


def source_identity() -> dict:
    """The commit when the checkout is a git repository, and a digest of
    every file under src/ either way."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        if proc.returncode == 0:
            commit = proc.stdout.strip()
    return {"commit": commit, "source_sha256": digest.hexdigest()}


class Children:
    """Starts workload.py children under one overall deadline."""

    def __init__(self, deadline: float):
        self.deadline = deadline
        self.env = dict(os.environ, PYTHONHASHSEED="0", **PIN_THREADS)

    def spawn(self, args: list[str]) -> tuple[float, dict | None]:
        """Run one interpreter with `args`; return (seconds from start to
        its READY line, the JSON object on its last line or None)."""
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise BenchError("out of time before starting a workload process")
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable, *args], cwd=ROOT,
                                env=self.env, stdout=subprocess.PIPE, text=True)
        watchdog = threading.Timer(remaining, proc.kill)
        watchdog.start()
        try:
            ready = proc.stdout.readline()
            setup = time.perf_counter() - t0
            rest, _ = proc.communicate()
        finally:
            watchdog.cancel()
            if proc.poll() is None:
                proc.kill()
            proc.wait()
        if ready.strip() != "READY" or proc.returncode != 0:
            raise BenchError(f"process {args} exited with code {proc.returncode}")
        lines = rest.strip().splitlines()
        return setup, (json.loads(lines[-1]) if lines else None)


def setup_samples(children: Children, base: list[str], count: int) -> tuple[list, list]:
    """Set-up times of `count` fresh processes that stop at READY, rescaled
    by the reference process started before and after each; and unscaled."""
    before = children.spawn(list(calibrate.SPAWN_REFERENCE))[0]
    scaled, raw = [], []
    for _ in range(count):
        seconds = children.spawn([str(CHILD), *base, "--setup-only"])[0]
        after = children.spawn(list(calibrate.SPAWN_REFERENCE))[0]
        scaled.append(seconds * calibrate.SPAWN_NOMINAL_S / ((before + after) / 2))
        raw.append(seconds)
        before = after
    return scaled, raw


def run_workload(workload: str, seed: int, seconds: float, trace: int,
                 children: Children) -> dict:
    base = ["--workload", workload, "--seed", str(seed)]
    report = {"workload": workload, "seed": seed, "seconds": seconds, "trace": trace}
    if not trace:
        # One warm-up fills the bytecode cache the way any installed copy
        # has it; the samples are split around the timed run, so a slow
        # spell of the host skews fewer of them.
        setup_samples(children, base, 1)
        first, first_raw = setup_samples(children, base, SETUP_SAMPLES // 2)
        _, child = children.spawn([str(CHILD), *base, "--seconds", str(seconds)])
        last, last_raw = setup_samples(children, base, SETUP_SAMPLES - len(first))
        metrics = {"setup_s": statistics.median(first + last), **child["end_to_end"]}
        report["tail_beyond"] = metrics.pop("_tail_beyond")
        report["tail_percentile"] = child["tail_percentile"]
        report["raw"] = dict(child["raw_end_to_end"])
        report["raw"].pop("_tail_beyond")
        report["raw"]["setup_s"] = statistics.median(first_raw + last_raw)
        runs = [child]
        units = metric_units("end_to_end")
    else:
        _, ref = children.spawn(
            [str(CHILD), *base, "--seconds", str(seconds * TRACE_REFERENCE_SHARE)]
        )
        _, child = children.spawn([
            str(CHILD), *base,
            "--seconds", str(seconds * (1 - TRACE_REFERENCE_SHARE)), "--trace", "1",
        ])
        metrics = dict(child["per_layer"])
        both = min(len(ref["pass_times"]), len(child["pass_times"]))
        metrics["trace.overhead_ratio"] = (
            sum(child["pass_times"][:both]) / sum(ref["pass_times"][:both])
        )
        runs = [ref, child]
        units = metric_units("per_layer")
        report["absent"] = child["absent"]
        report["hook_errors"] = child["hook_errors"]
        report.update(dominance(workload, metrics))
        if ref["output_digest"] != child["output_digest"]:
            child["problems"].append("traced and untraced pass 0 outputs differ")

    report.update({
        "correct": all(r["failed"] == 0 and not r["problems"] for r in runs),
        "attempted": sum(r["attempted"] for r in runs),
        "failed": sum(r["failed"] for r in runs),
        "problems": [p for r in runs for p in r["problems"]],
        "samples": child["samples"],
        "passes": len(child["pass_times"]),
        "pass_times": child["pass_times"],
        "raw_pass_times": child["raw_pass_times"],
        "reference_s": child["reference_s"],
        "input_digest": child["input_digest"],
        "output_digest": child["output_digest"],
        "package_file": child["package_file"],
        **source_identity(),
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    })
    return report


def dominance(workload: str, metrics: dict) -> dict:
    """The layer with the largest self-time share, and whether the
    predicted layer (or group of layers) outweighs every other layer."""
    shares = {k.split(".", 1)[1]: v for k, v in metrics.items() if k.startswith("layer_share.")}
    dominant = max(shares, key=shares.get)
    predicted = PREDICTED[workload]
    group = sum(shares[layer] for layer in predicted)
    others = [v for layer, v in shares.items() if layer not in predicted]
    return {
        "dominant_layer": dominant,
        "predicted_layers": list(predicted),
        "prediction_holds": group >= max(others, default=0.0),
    }


def print_report(report: dict):
    w = report["workload"]
    print(f"== {w}  seed={report['seed']}  trace={report['trace']}  "
          f"commit={report['commit']}  src={report['source_sha256'][:16]}")
    raw = report.get("raw", {})
    for name, m in report["metrics"].items():
        note = f"  (unscaled {raw[name]!r})" if name in raw and raw[name] != m["value"] else ""
        print(f"  {name} = {m['value']!r} {m['unit']}{note}")
    if "tail_percentile" in report:
        print(f"  trial_ms_tail is p{report['tail_percentile']:g} of "
              f"{report['samples']} operations, {report['tail_beyond']} beyond it")
    if "dominant_layer" in report:
        verdict = "holds" if report["prediction_holds"] else "MISMATCH"
        print(f"  dominant layer: {report['dominant_layer']}; predicted "
              f"{'+'.join(report['predicted_layers'])}: {verdict}")
        if report["absent"] or report["hook_errors"]:
            print(f"  absent: {report['absent']}  hook errors: {report['hook_errors']}")
    print(f"  attempted={report['attempted']} failed={report['failed']} "
          f"failed_frac={report['failed'] / report['attempted']!r} ratio  "
          f"passes={report['passes']}")
    print(f"  input_digest={report['input_digest']}")
    print(f"  output_digest={json.dumps(report['output_digest'])}")
    for problem in report["problems"]:
        print(f"  PROBLEM: {problem}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "rfid_sampler" / "__init__.py").is_file():
        print(f"no rfid_sampler package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.seed < 0 or args.seconds <= 0:
        print("--seed must be >= 0 and --seconds > 0", file=sys.stderr)
        return 2

    children = Children(time.monotonic() + DEADLINE_S)
    reports = []
    try:
        for workload in [args.workload] if args.workload else WORKLOADS:
            report = run_workload(workload, args.seed, args.seconds, args.trace, children)
            (OUT_DIR / workload).mkdir(parents=True, exist_ok=True)
            name = "report-trace.json" if args.trace else "report.json"
            with open(OUT_DIR / workload / name, "w") as fh:
                json.dump(report, fh, indent=2, sort_keys=True)
            print_report(report)
            reports.append(report)
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    if len(reports) == 1:
        metrics = reports[0]["metrics"]
    else:
        metrics = {f"{r['workload']}/{k}": v for r in reports for k, v in r["metrics"].items()}
    print(json.dumps({
        "correct": all(r["correct"] for r in reports),
        "attempted": sum(r["attempted"] for r in reports),
        "failed": sum(r["failed"] for r in reports),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
