"""Scenario configuration, Monte-Carlo drivers and CSV/JSON emission.

A config file is INI-style: each section is one scenario point, with a
category count K, size and sample schedules (single value or comma list,
cycled to length K), a trial count and a root seed.  Each (point,
protocol, trial) triple gets its own deterministic rng stream, so output
files are byte-identical across runs and robust to trial parallelism.
"""

from __future__ import annotations

import configparser
import csv
import json
import statistics
from dataclasses import dataclass

import numpy as np

from .analysis import (
    expected_protocol_bits, lower_bound_bits, reliability_number, transmission_time,
)
from .baselines import run_random_select
from .errors import ConfigurationError
from .population import check_categories, check_population_cap, generate_population
from .protocol import run_optc
from .selgen import run_optc_impl

CSV_COLUMNS = [
    "scenario", "protocol", "trial", "K", "sum_n", "sum_c",
    "bits", "seconds", "lb_seconds", "ratio",
]
PROTOCOLS = ("optc", "optc-impl", "random-select")


@dataclass
class ScenarioConfig:
    """One scenario point: K categories with expanded size/sample vectors."""

    scenario_id: str
    K: int
    ns: list[int]
    cs: list[int]
    trials: int = 10
    rng_seed: int = 0
    protocols: tuple[str, ...] = ("optc",)

    def __post_init__(self):
        if self.trials < 1:
            raise ConfigurationError(f"{self.scenario_id}: trials must be >= 1")
        if self.rng_seed < 0:
            raise ConfigurationError(
                f"{self.scenario_id}: seed must be >= 0, got {self.rng_seed}"
            )
        if len(self.ns) != self.K or len(self.cs) != self.K:
            raise ConfigurationError(
                f"{self.scenario_id}: schedules must expand to length K={self.K}"
            )
        try:
            check_categories(self.ns, self.cs)
        except ConfigurationError as exc:
            raise ConfigurationError(f"{self.scenario_id}: {exc}") from None
        if not self.protocols:
            raise ConfigurationError(f"{self.scenario_id}: no protocols listed")
        if len(set(self.protocols)) != len(self.protocols):
            raise ConfigurationError(f"{self.scenario_id}: a protocol is listed twice")
        for p in self.protocols:
            if p not in PROTOCOLS:
                raise ConfigurationError(
                    f"{self.scenario_id}: unknown protocol {p!r}"
                )


def _expand_schedule(raw: str, K: int, key: str, section: str) -> list[int]:
    """A single value repeats; a comma list cycles to length K."""
    try:
        values = [int(x) for x in str(raw).split(",") if x.strip() != ""]
    except ValueError:
        raise ConfigurationError(f"[{section}] {key}: not an integer list: {raw!r}")
    if not values:
        raise ConfigurationError(f"[{section}] {key}: empty schedule")
    return [values[i % len(values)] for i in range(K)]


def _int_key(sec, key: str, fallback: int | None = None) -> int:
    raw = sec.get(key)
    if raw is None:
        if fallback is None:
            raise ConfigurationError(f"[{sec.name}]: missing key {key}")
        return fallback
    try:
        return int(raw)
    except ValueError:
        raise ConfigurationError(f"[{sec.name}] {key}: not an integer: {raw!r}") from None


def _scenario(sec, seed_override: int | None) -> ScenarioConfig:
    K = _int_key(sec, "K")
    check_population_cap(K)
    for key in ("n", "c"):
        if key not in sec:
            raise ConfigurationError(f"[{sec.name}]: missing key {key}")
    protocols = tuple(
        p.strip() for p in sec.get("protocols", "optc").split(",") if p.strip()
    )
    return ScenarioConfig(
        scenario_id=sec.name,
        K=K,
        ns=_expand_schedule(sec["n"], K, "n", sec.name),
        cs=_expand_schedule(sec["c"], K, "c", sec.name),
        trials=_int_key(sec, "trials", fallback=10),
        rng_seed=seed_override if seed_override is not None else _int_key(sec, "seed", fallback=0),
        protocols=protocols,
    )


def load_config(path: str, seed_override: int | None = None) -> list[ScenarioConfig]:
    parser = configparser.ConfigParser()
    try:
        if not parser.read(path):
            raise ConfigurationError(f"cannot read config file {path}")
        points = [_scenario(parser[s], seed_override) for s in parser.sections()]
    except configparser.Error as exc:
        # malformed INI: no section header, a repeated section or key, or
        # a bad %-interpolation
        raise ConfigurationError(f"config file {path}: {exc}") from None
    if not points:
        raise ConfigurationError(f"config file {path} defines no scenarios")
    return points


@dataclass
class ResultRow:
    scenario: str
    protocol: str
    trial: int
    K: int
    sum_n: int
    sum_c: int
    bits: int
    seconds: float
    lb_seconds: float

    @property
    def ratio(self) -> float:
        return self.seconds / self.lb_seconds

    def as_record(self) -> dict:
        return {
            "scenario": self.scenario,
            "protocol": self.protocol,
            "trial": self.trial,
            "K": self.K,
            "sum_n": self.sum_n,
            "sum_c": self.sum_c,
            "bits": self.bits,
            "seconds": f"{self.seconds:.9f}",
            "lb_seconds": f"{self.lb_seconds:.9f}",
            "ratio": f"{self.ratio:.6f}",
        }


def _trial_rng(root_seed: int, point_index: int, protocol: str, trial: int):
    key = (point_index, PROTOCOLS.index(protocol), trial)
    return np.random.default_rng(np.random.SeedSequence(root_seed, spawn_key=key))


def run_trial(
    point: ScenarioConfig, point_index: int, protocol: str, trial: int
) -> ResultRow:
    """One independent simulation of one protocol at one scenario point."""
    rng = _trial_rng(point.rng_seed, point_index, protocol, trial)
    pop_seed = int(rng.integers(0, 2**63))
    population = generate_population(list(zip(point.ns, point.cs)), pop_seed)

    if protocol == "optc":
        _, ledger = run_optc(population, rng)
        bits = ledger.bits_reader_to_tag
    elif protocol == "optc-impl":
        results = run_optc_impl(population, rng)
        bits = sum(r.bits for r in results)
    else:  # random-select: _trial_rng has already rejected any other name
        reports = run_random_select(population, rng)
        bits = sum(r.bits for r in reports)

    lb_bits = lower_bound_bits(point.cs)
    return ResultRow(
        scenario=point.scenario_id,
        protocol=protocol,
        trial=trial,
        K=point.K,
        sum_n=sum(point.ns),
        sum_c=sum(point.cs),
        bits=bits,
        seconds=transmission_time(bits),
        lb_seconds=transmission_time(lb_bits),
    )


def run_points(points: list[ScenarioConfig]) -> list[ResultRow]:
    rows = []
    for i, point in enumerate(points):
        for protocol in point.protocols:
            for trial in range(point.trials):
                rows.append(run_trial(point, i, protocol, trial))
    return rows


def aggregate(rows: list[ResultRow]) -> list[dict]:
    """Per (scenario, protocol) mean and stddev of bits, seconds and ratio."""
    groups: dict[tuple[str, str], list[ResultRow]] = {}
    for row in rows:
        groups.setdefault((row.scenario, row.protocol), []).append(row)
    out = []
    for (scenario, protocol), members in groups.items():
        ratios = [r.ratio for r in members]
        seconds = [r.seconds for r in members]
        out.append(
            {
                "scenario": scenario,
                "protocol": protocol,
                "trials": len(members),
                "mean_bits": statistics.fmean(r.bits for r in members),
                "mean_seconds": statistics.fmean(seconds),
                "stddev_seconds": statistics.stdev(seconds) if len(seconds) > 1 else 0.0,
                "mean_ratio": statistics.fmean(ratios),
                "stddev_ratio": statistics.stdev(ratios) if len(ratios) > 1 else 0.0,
            }
        )
    return out


def write_results(rows: list[ResultRow], out_path: str):
    """The rows as CSV at `out_path`, mirrored with aggregates as JSON at
    `out_path` + ".json"."""
    rows = sorted(rows, key=lambda r: (r.scenario, r.protocol, r.trial))
    records = [r.as_record() for r in rows]
    with open(out_path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=CSV_COLUMNS, lineterminator="\n")
        writer.writeheader()
        writer.writerows(records)
    mirror = {"rows": records, "aggregates": aggregate(rows)}
    with open(out_path + ".json", "w") as fh:
        fh.write(json.dumps(mirror, indent=2, sort_keys=True) + "\n")


def run_scenarios(config_path: str, out_path: str, seed_override: int | None = None) -> list[ResultRow]:
    points = load_config(config_path, seed_override=seed_override)
    rows = run_points(points)
    write_results(rows, out_path)
    return rows


def bounds_report(K: int, cs, ns=None) -> dict:
    """The lower bound and the expected protocol cost of one configuration,
    in bits; `cs`/`ns` may be single ints (replicated) or K-length lists."""
    check_population_cap(K)
    cs = [cs] * K if isinstance(cs, int) else list(cs)
    if len(cs) != K:
        raise ConfigurationError(f"need K={K} sample counts, got {len(cs)}")
    if ns is None:
        ns = [max(c * 10, 2) for c in cs]
    ns = [ns] * K if isinstance(ns, int) else list(ns)
    if len(ns) != K:
        raise ConfigurationError(f"need K={K} sizes, got {len(ns)}")
    check_categories(ns, cs)
    gamma = lower_bound_bits(cs)
    expected = expected_protocol_bits(ns, cs)
    return {
        "K": K,
        "sum_c": sum(cs),
        "lower_bound_bits": gamma,
        "expected_bits": expected,
        "ratio": expected / gamma,
    }


def reliability_report(alphas: list[float], epsilon: float) -> list[dict]:
    """The sample count c for each missing rate in `alphas` at failure
    probability `epsilon`."""
    for x in (*alphas, epsilon):
        if not 0.0 < x < 1.0:
            raise ConfigurationError(f"alpha and epsilon must lie in (0, 1), got {x}")
    return [
        {"alpha": a, "epsilon": epsilon, "c": reliability_number(a, epsilon)}
        for a in alphas
    ]
