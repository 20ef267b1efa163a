"""Scenario configuration, Monte-Carlo drivers and CSV/JSON emission.

A config file is INI-style: each section is one scenario point, with a
category count K, size and sample schedules (one value or a comma list of
at most K, cycled to length K), a trial count and a root seed.  Each (point,
protocol, trial) triple gets its own deterministic rng stream, so output
files are byte-identical across runs and robust to trial parallelism.
"""

from __future__ import annotations

import configparser
import csv
import json
import statistics
from dataclasses import dataclass, fields

import numpy as np

from .analysis import lower_bound_bits, transmission_time
from .baselines import run_random_select
from .errors import ConfigurationError
from .population import check_categories, check_population_cap, generate_population
from .protocol import run_optc
from .selgen import run_optc_impl

# protocol name -> (population, rng) -> reader-to-tag bits: the sum of bits_sent
# over the records its run returns.  The key order is each trial's rng spawn
# key, so entries are only ever appended.  A runner looks up its protocol
# function in this module when called, so a wrapper that replaces the module's
# name (as the benchmark's tracer does) sees every call.
PROTOCOLS = {
    "optc": lambda pop, rng: sum(r.bits_sent for stage in run_optc(pop, rng) for r in stage),
    "optc-impl": lambda pop, rng: sum(r.bits_sent for r in run_optc_impl(pop, rng)),
    "random-select": lambda pop, rng: sum(r.bits_sent for r in run_random_select(pop, rng)),
}


@dataclass
class ScenarioConfig:
    """One scenario point: K categories with expanded size/sample vectors."""

    scenario_id: str
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

    @property
    def K(self) -> int:
        return len(self.ns)


def parse_ints(raw: str, where: str) -> list[int]:
    """The integers of a comma list, skipping blank items; an error message
    starts with `where`."""
    try:
        values = [int(x) for x in raw.split(",") if x.strip()]
    except ValueError:
        raise ConfigurationError(f"{where}: not an integer list: {raw!r}") from None
    if not values:
        raise ConfigurationError(f"{where}: empty integer list: {raw!r}")
    return values


def _schedule(sec, key: str, K: int) -> list[int]:
    """The section's `key` list for K categories: a single value repeats; a
    list of up to K values cycles to length K."""
    if key not in sec:
        raise ConfigurationError(f"[{sec.name}]: missing key {key}")
    values = parse_ints(sec[key], f"[{sec.name}] {key}")
    if len(values) > K:
        raise ConfigurationError(f"[{sec.name}] {key}: {len(values)} values, more than K={K}")
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
    listed = sec.get("protocols", ",".join(ScenarioConfig.protocols))
    protocols = tuple(p.strip() for p in listed.split(",") if p.strip())
    return ScenarioConfig(
        scenario_id=sec.name,
        ns=_schedule(sec, "n", K),
        cs=_schedule(sec, "c", K),
        trials=_int_key(sec, "trials", fallback=ScenarioConfig.trials),
        rng_seed=seed_override if seed_override is not None
        else _int_key(sec, "seed", fallback=ScenarioConfig.rng_seed),
        protocols=protocols,
    )


def load_config(path: str, seed_override: int | None = None) -> list[ScenarioConfig]:
    parser = configparser.ConfigParser()
    try:
        if not parser.read(path, encoding="utf-8"):
            raise ConfigurationError(f"cannot read config file {path}")
        points = [_scenario(parser[s], seed_override) for s in parser.sections()]
    except (configparser.Error, UnicodeDecodeError) as exc:
        # malformed INI: no section header, a repeated section or key, a
        # bad %-interpolation, or bytes that are not UTF-8
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
        return {**vars(self), "seconds": f"{self.seconds:.9f}",
                "lb_seconds": f"{self.lb_seconds:.9f}", "ratio": f"{self.ratio:.6f}"}


CSV_COLUMNS = [f.name for f in fields(ResultRow)] + ["ratio"]


def trial_population(point: ScenarioConfig, point_index: int, protocol: str, trial: int):
    """The population and rng of one trial, rebuilt from its coordinates:
    the trial's rng stream draws the population seed first, and the protocol
    runs on what is left of it."""
    key = (point_index, list(PROTOCOLS).index(protocol), trial)  # ValueError if unknown
    rng = np.random.default_rng(np.random.SeedSequence(point.rng_seed, spawn_key=key))
    pop_seed = int(rng.integers(0, 2**63))
    return generate_population(list(zip(point.ns, point.cs)), pop_seed), rng


def run_trial(
    point: ScenarioConfig, point_index: int, protocol: str, trial: int
) -> ResultRow:
    """One independent simulation of one protocol at one scenario point."""
    population, rng = trial_population(point, point_index, protocol, trial)
    bits = PROTOCOLS[protocol](population, rng)
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
