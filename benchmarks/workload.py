"""Run one benchmark workload in a fresh interpreter.

Started by run.py, never imported by it, so `setup_s` and `peak_rss_mb`
belong to this one workload.  The process imports `rfid_sampler` from the
checkout's `src/`, prints READY once set-up is done (the parent times
process start to that line), then runs passes until `--seconds` of timed
work have accumulated and prints one JSON object as its last line.

A pass is one complete unit of the workload with its own seed derived from
`--seed` and the pass index: one `simulate` run of the scenario file on the
`sim-*` workloads, one batch of `verify.sample_once` rounds on
`verify-rounds`.  Pass 0 runs whatever the time, so its outputs, air-time
and counts depend on the seed alone.

Only calls into the package are timed.  After each quarter second or so of
timed work the reference kernel of calibrate.py runs, and every timed call
is rescaled by the kernel times around it.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

import calibrate
import spans

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"

WORKLOADS = ("sim-bulk", "sim-deploy", "verify-rounds")

# log2(e) * sum(c): the lower bound the protocol's broadcast bits are
# measured against.
LOG2_E = math.log2(math.e)

# Its air-time is fixed by construction (c commands of 128 bits per
# category), so it is left out of the end-to-end air-time ratio.
BASELINE_PROTOCOL = "random-select"

SIM_BULK_INI = """\
[bulk]
K = 100
n = 1000
c = 50
trials = 2
seed = 0
protocols = optc, optc-impl
"""


def _deploy_ini() -> str:
    """The three small-testbed deployment shapes as one scenario file."""
    points = [(f"deploy-1-K{k}", k, "20", 5) for k in (2, 4, 6, 8, 10)]
    points += [(f"deploy-2-n{n}", 8, str(n), 4) for n in (10, 15, 20, 25)]
    points += [(f"deploy-3-c{c}", 8, "20,30", c) for c in (2, 4, 6, 8, 10)]
    return "\n".join(
        f"[{name}]\nK = {k}\nn = {n}\nc = {c}\ntrials = 10\nseed = 0\n"
        "protocols = optc-impl, random-select\n"
        for name, k, n, c in points
    )


SIM_DEPLOY_INI = _deploy_ini()
VERIFY_ROUNDS_PER_PASS = 500
# Percentile reported as trial_ms_tail, fixed per workload so that runs with
# different operation counts report the same percentile.  A default-length
# run has about 30 sim-bulk operations, so p60 is the highest percentile
# with ten beyond it there; the other two run thousands, and p99 and p98
# (70 or more beyond) keep their run-to-run spread small.
TAIL_PERCENTILE = {"sim-bulk": 60.0, "sim-deploy": 99.0, "verify-rounds": 98.0}
# Timed work between two runs of the reference kernel (see calibrate.py).
CALIBRATE_EVERY_S = 0.25
MAX_ERRORS_SHOWN = 3


def pass_seed(seed: int, index: int) -> int:
    digest = hashlib.sha256(f"{seed}/{index}".encode()).digest()
    return int.from_bytes(digest[:8], "big") >> 1


def sha256_file(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def safe_div(a: float, b: float) -> float:
    return a / b if b else 0.0


class Run:
    """State of one workload run: inputs, timings, checks and outputs."""

    def __init__(self, workload: str, seed: int, out: Path, tracer):
        self.workload = workload
        self.seed = seed
        self.out = out
        self.tracer = tracer
        # (pass, calibration segment, host seconds, tags or None): one entry
        # per timed call; tags is None for calls that are not operations.
        self.timings: list[tuple[int, int, float, int | None]] = []
        # Reference-kernel times; segment i lies between entries i and i+1.
        self.references: list[float] = []
        self.timed = 0.0
        self._since_calibration = 0.0
        self.attempted = 0
        self.failed = 0
        self.errors_shown = 0
        self.problems: list[str] = []
        self.pass0: dict = {}

    def fail(self, detail: str):
        self.failed += 1
        if self.errors_shown < MAX_ERRORS_SHOWN:
            self.errors_shown += 1
            print(f"[{self.workload}] failed operation: {detail}", file=sys.stderr)

    def calibrate(self):
        self.references.append(calibrate.reference_seconds())
        self._since_calibration = 0.0

    def record(self, index: int, seconds: float, tags: int | None = None):
        self.timings.append((index, len(self.references) - 1, seconds, tags))
        self.timed += seconds
        self._since_calibration += seconds
        if self._since_calibration >= CALIBRATE_EVERY_S:
            self.calibrate()

    def begin_op(self, index: int, op: int):
        if self.tracer is not None:
            self.tracer.op = (index, op)

    def after_op(self):
        if self.tracer is not None and self.tracer.pending_optc:
            bad = spans.check_optc_outcomes(self.tracer)
            for _ in range(bad):
                self.fail("run_optc outcome check")


# --- sim-* workloads: load_config -> run_trial per (protocol, trial) -> write_results

def sim_setup(run: Run):
    from rfid_sampler import harness

    text = SIM_BULK_INI if run.workload == "sim-bulk" else SIM_DEPLOY_INI
    run.ini = run.out / "scenario.ini"
    run.ini.write_text(text)
    run.input_digest = hashlib.sha256(
        f"{text}\nseed_override={pass_seed(run.seed, 0)}".encode()
    ).hexdigest()
    harness.load_config(str(run.ini), seed_override=pass_seed(run.seed, 0))


def sim_pass(run: Run, index: int):
    from rfid_sampler import harness

    clock = time.perf_counter
    csv_path = run.out / ("pass0.csv" if index == 0 else "pass.csv")
    run.begin_op(index, -1)
    t0 = clock()
    points = harness.load_config(str(run.ini), seed_override=pass_seed(run.seed, index))
    run.record(index, clock() - t0)

    rows, op = [], 0
    for point_index, point in enumerate(points):
        for protocol in point.protocols:
            for trial in range(point.trials):
                run.begin_op(index, op)
                t0 = clock()
                try:
                    row = harness.run_trial(point, point_index, protocol, trial)
                except Exception:
                    row, error = None, traceback.format_exc(limit=3)
                dt = clock() - t0
                run.attempted += 1
                op += 1
                if row is None:
                    run.fail(error)
                else:
                    rows.append(row)
                run.after_op()
                run.record(index, dt, 0 if row is None else sum(point.ns))

    run.begin_op(index, -1)
    t0 = clock()
    harness.write_results(rows, str(csv_path))
    run.record(index, clock() - t0)
    run.begin_op(-1, -1)
    check_sim_output(run, index, csv_path, points, len(rows))


def check_sim_output(run: Run, index: int, csv_path: Path, points, written: int):
    """CSV header, row count and ratio >= 1; pass 0 also keeps the output
    digest and the air-time from its rows."""
    from rfid_sampler import harness

    expected = sum(len(p.protocols) * p.trials for p in points)
    with open(csv_path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        records = [dict(zip(header or [], r)) for r in reader]
    with open(str(csv_path) + ".json") as fh:
        mirror = json.load(fh)
    if header != harness.CSV_COLUMNS or len(records) != written or len(mirror["rows"]) != written:
        run.problems.append(f"pass {index}: CSV header or row count wrong")
        run.failed += written
        return
    if written != expected:
        run.problems.append(f"pass {index}: {written} rows written, {expected} expected")
    for rec in records:
        if float(rec["ratio"]) < 1.0:
            run.fail(f"ratio {rec['ratio']} < 1 in {rec['scenario']}/{rec['protocol']}")
    if index != 0:
        return

    bits: dict[str, int] = {}
    sum_c: dict[str, int] = {}
    for rec in records:
        p = rec["protocol"]
        bits[p] = bits.get(p, 0) + int(rec["bits"])
        sum_c[p] = sum_c.get(p, 0) + int(rec["sum_c"])
    run.pass0 = {
        "output_digest": {
            "csv_sha256": sha256_file(csv_path),
            "json_sha256": sha256_file(Path(str(csv_path) + ".json")),
        },
        "output_bytes": csv_path.stat().st_size + Path(str(csv_path) + ".json").stat().st_size,
        "airtime_by_protocol": {
            p: bits[p] / (LOG2_E * sum_c[p]) for p in sorted(bits)
        },
        "airtime_ratio": safe_div(
            sum(b for p, b in bits.items() if p != BASELINE_PROTOCOL),
            LOG2_E * sum(s for p, s in sum_c.items() if p != BASELINE_PROTOCOL),
        ),
    }


# --- verify-rounds: verify.sample_once over the acceptance exactness mix

def verify_inputs(seed: int, index: int):
    """(n, c) pairs for one pass, and the rng handed to the program.

    The pairs come from their own stream, so they do not depend on how many
    draws the program makes."""
    import numpy as np

    inputs_ss, program_ss = np.random.SeedSequence(pass_seed(seed, index)).spawn(2)
    rng = np.random.default_rng(inputs_ss)
    pairs = []
    for _ in range(VERIFY_ROUNDS_PER_PASS):
        n = int(rng.integers(2, 1001))
        pairs.append((n, int(rng.integers(1, min(n, 100) + 1))))
    return pairs, np.random.default_rng(program_ss)


def verify_setup(run: Run):
    pairs, _ = verify_inputs(run.seed, 0)
    run.input_digest = hashlib.sha256(json.dumps(pairs).encode()).hexdigest()


def round_ok(sampled, n: int, c: int) -> bool:
    """Exactly c distinct tags of the n, holding the orders 1..c."""
    idx = [i for i, _ in sampled]
    return (
        len(sampled) == c
        and len(set(idx)) == c
        and all(0 <= i < n for i in idx)
        and sorted(o for _, o in sampled) == list(range(1, c + 1))
    )


def verify_pass(run: Run, index: int, timed_run: bool = True) -> list:
    from rfid_sampler import verify

    clock = time.perf_counter
    pairs, rng = verify_inputs(run.seed, index)
    outputs = []
    for op, (n, c) in enumerate(pairs):
        run.begin_op(index, op)
        t0 = clock()
        try:
            sampled = verify.sample_once(n, c, rng)
        except Exception:
            sampled, error = None, traceback.format_exc(limit=3)
        dt = clock() - t0
        outputs.append(sampled)
        if not timed_run:
            continue
        run.attempted += 1
        ok = sampled is not None and round_ok(sampled, n, c)
        if sampled is None:
            run.fail(error)
        elif not ok:
            run.fail(f"round n={n}, c={c} is not exact")
        run.record(index, dt, n if ok else 0)
    run.begin_op(-1, -1)
    if timed_run:
        if index == 0:
            run.pass0["outputs"] = outputs
            run.pass0["output_digest"] = hashlib.sha256(
                json.dumps(outputs).encode()
            ).hexdigest()
    return outputs


def verify_airtime(run: Run):
    """Air-time of pass 0 from the protocol rounds' own cost records.

    sample_once returns only the sample, so an untraced run replays pass 0
    with the tracer installed, outside the timed region, and checks that the
    replay samples exactly what the timed pass did."""
    counts = run.tracer.counts_by_pass.get(0) if run.tracer is not None else None
    if counts is None:
        tracer = spans.Tracer()
        spans.install(tracer)
        replay = Run(run.workload, run.seed, run.out, tracer)
        tracer.begin_pass(0)
        outputs = verify_pass(replay, 0, timed_run=False)
        tracer.unwrap_all()
        if outputs != run.pass0["outputs"]:
            run.problems.append("replay of pass 0 sampled different tags")
        counts = tracer.counts_by_pass[0]
    run.pass0["airtime_ratio"] = optc_airtime(counts)
    run.pass0["airtime_by_protocol"] = {"optc": run.pass0["airtime_ratio"]}


def optc_airtime(counts) -> float:
    bits = sum(counts[f"protocol.bits.{k}"] for k in ("coarse_header", "refine_header", "frame", "stop"))
    return safe_div(bits, LOG2_E * counts["protocol.sum_c"])


# --- metrics

def percentile(latencies: list[float], pct: float) -> tuple[float, int]:
    """Nearest-rank percentile, and how many samples lie beyond it."""
    ordered = sorted(latencies)
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return ordered[rank - 1], len(ordered) - rank


def per_pass(run: Run, factors: list[float]) -> tuple[list[float], list[int]]:
    """Host seconds and tags processed per pass, each timed call multiplied
    by the speed factor of its calibration segment."""
    seconds: dict[int, float] = {}
    tags: dict[int, int] = {}
    for index, segment, dt, n in run.timings:
        seconds[index] = seconds.get(index, 0.0) + dt * factors[segment]
        tags[index] = tags.get(index, 0) + (n or 0)
    return [seconds[i] for i in sorted(seconds)], [tags[i] for i in sorted(tags)]


def end_to_end(run: Run, factors: list[float]) -> dict:
    passes, tags = per_pass(run, factors)
    latencies = [dt * factors[seg] for _, seg, dt, n in run.timings if n is not None]
    tail_s, beyond = percentile(latencies, TAIL_PERCENTILE[run.workload])
    return {
        "wall_s": statistics.median(passes),
        "tags_per_s": statistics.median(n / t for n, t in zip(tags, passes)),
        "trial_ms_p50": 1000.0 * statistics.median(latencies),
        "trial_ms_tail": 1000.0 * tail_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "airtime_ratio": run.pass0["airtime_ratio"],
        "_tail_beyond": beyond,
    }


def per_layer(run: Run, factors: list[float]) -> dict:
    tr = run.tracer
    pass_seconds, _ = per_pass(run, factors)
    passes = len(pass_seconds)
    timed = run.timed
    scale = sum(pass_seconds) / timed
    every = tr.times()
    first = tr.times(0)
    c0 = tr.counts_by_pass.get(0, {})

    def sec(label, key="s"):
        return every.get(label, {}).get(key, 0.0) * scale / passes

    def calls(label):
        return first.get(label, {}).get("calls", 0)

    sum_c = c0.get("protocol.sum_c", 0)
    lb_bits = LOG2_E * sum_c
    airtime = run.pass0.get("airtime_by_protocol", {})
    m = {
        "population.generate_population.s": sec("population.generate_population"),
        "population.generate_population.calls": calls("population.generate_population"),
        "population.category_tags.s": sec("population.category_tags"),
        "population.category_tags.calls": calls("population.category_tags"),
        "hashing.ids_to_halves.s": sec("hashing.ids_to_halves"),
        "hashing.ids_to_halves.ids": c0.get("hashing.ids_to_halves.ids", 0),
        "hashing.reconvert_ratio": safe_div(
            c0.get("hashing.ids_to_halves.ids", 0), c0.get("population.tags_generated", 0)
        ),
        "hashing.find_suitable_seed.s": sec("hashing.find_suitable_seed"),
        "hashing.seed_tests": c0.get("hashing.seed_tests", 0),
        "hashing.seed_first_hit_ratio": safe_div(
            c0.get("hashing.seed_first_hits", 0), c0.get("hashing.find_suitable_seed.calls", 0)
        ),
        "hashing.substring_values.s": sec("hashing.substring_values"),
        "hashing.substring_values.calls": calls("hashing.substring_values"),
        "protocol.optc1_round.self_s": sec("protocol.optc1_round", "self_s"),
        "protocol.optc2_round.self_s": sec("protocol.optc2_round", "self_s"),
        "protocol.build_frame.s": sec("protocol.build_frame"),
        "protocol.refine_iterations": c0.get("protocol.refine_iterations", 0),
        "protocol.pool_tags_hashed": c0.get("protocol.pool_tags_hashed", 0),
        "protocol.promote_ratio": safe_div(sum_c, c0.get("protocol.pool_tags_hashed", 0)),
    }
    for part in ("coarse_header", "refine_header", "frame", "stop"):
        m[f"protocol.lb_ratio.{part}"] = safe_div(c0.get(f"protocol.bits.{part}", 0), lb_bits)
    categories = c0.get("selgen.categories", 0)
    m.update({
        "selgen.run_impl_category.self_s": sec("selgen.run_impl_category", "self_s"),
        "selgen.best_threshold.s": sec("selgen.best_threshold"),
        "selgen.selgen_commands.s": sec("selgen.selgen_commands"),
        "selgen.commands_per_category": safe_div(c0.get("selgen.commands", 0), categories),
        "selgen.window_draws": c0.get("selgen.window_draws", 0),
        "selgen.window_hit_ratio": safe_div(2 * categories, c0.get("selgen.window_draws", 0)),
        "baselines.run_random_select.s": sec("baselines.run_random_select"),
        "harness.load_config.s": sec("harness.load_config"),
        "harness.run_trial.self_s": sec("harness.run_trial", "self_s"),
        "harness.write_results.s": sec("harness.write_results"),
        "harness.output_bytes": run.pass0.get("output_bytes", 0),
        "verify.sample_once.self_s": sec("verify.sample_once", "self_s"),
        "trace.coverage": safe_div(tr.top_level_seconds(), timed),
    })
    for protocol in ("optc", "optc-impl", "random-select"):
        m[f"airtime_ratio.{protocol}"] = airtime.get(protocol, 0.0)
    shares = {layer: 0.0 for layer in spans.LAYERS}
    for label, t in every.items():
        shares[label.split(".", 1)[0]] += t["self_s"]
    for layer in spans.LAYERS:
        m[f"layer_share.{layer}"] = safe_div(shares[layer], timed)
    return m


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    import rfid_sampler

    package_file = Path(rfid_sampler.__file__).resolve()
    if ROOT not in package_file.parents:
        raise SystemExit(f"rfid_sampler imported from {package_file}, outside {ROOT}")
    from rfid_sampler import harness, verify  # noqa: F401  (part of set-up)

    out = OUT_DIR / args.workload
    out.mkdir(parents=True, exist_ok=True)
    tracer = spans.Tracer() if args.trace else None
    run = Run(args.workload, args.seed, out, tracer)
    sim = args.workload.startswith("sim-")
    (sim_setup if sim else verify_setup)(run)
    print("READY", flush=True)
    if args.setup_only:
        return 0

    if tracer is not None:
        spans.install(tracer)
    one_pass = sim_pass if sim else verify_pass
    calibrate.warm_up()
    run.calibrate()
    index = 0
    while index == 0 or run.timed < args.seconds:
        if tracer is not None:
            tracer.begin_pass(index)
        one_pass(run, index)
        index += 1
    run.calibrate()
    refs = run.references
    factors = calibrate.speed_factors(refs)
    if tracer is not None:
        tracer.unwrap_all()
    if not sim:
        verify_airtime(run)

    result = {
        "attempted": run.attempted,
        "failed": run.failed,
        "problems": run.problems,
        "pass_times": per_pass(run, factors)[0],
        "raw_pass_times": per_pass(run, [1.0] * len(factors))[0],
        "reference_s": refs,
        "samples": sum(n is not None for _, _, _, n in run.timings),
        "tail_percentile": TAIL_PERCENTILE[run.workload],
        "input_digest": run.input_digest,
        "output_digest": run.pass0["output_digest"],
        "package_file": str(package_file),
        "end_to_end": end_to_end(run, factors),
        "raw_end_to_end": end_to_end(run, [1.0] * len(factors)),
    }
    if tracer is not None:
        result["per_layer"] = per_layer(run, factors)
        result["absent"] = tracer.absent
        result["hook_errors"] = tracer.hook_errors
        tracer.write_jsonl(out / "spans.jsonl")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
