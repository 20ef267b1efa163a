"""Verification suites: each re-checks one family of claimed properties
at its full grid size and reports machine-readable pass/fail lines.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .analysis import mu, rho, seed_success_lower_bound
from .hashing import seed_trial_statistics
from .population import random_ids
from .protocol import optc1_round, optc2_round
from .selgen import command_count, selgen_filters

SUITES = ("seeds", "uniformity", "exactness", "cost", "selgen", "monotone", "all")
SELGEN_MAX_WIDTH = 12  # suite_selgen checks every threshold of every width up to this
MONOTONE_LIMIT = 10_000  # suite_monotone checks c = 1..this


@dataclass
class Check:
    name: str
    passed: bool
    detail: str

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"[{status}] {self.name}: {self.detail}"


def sample_once(n: int, c: int, rng: np.random.Generator) -> list[tuple[int, int]]:
    """Run both stages on a fresh n-tag category; return (index, order) of the
    sampled tags by order, indices by position in the generated list (optc2_round
    checks that its Ready rows hold the orders 1..c in turn)."""
    hi, lo = random_ids(n, rng)
    pos = optc1_round(hi, lo, c, rng).positions
    out = optc2_round((hi[pos], lo[pos]), c)
    return list(zip(pos[out.positions].tolist(), range(1, c + 1)))


def suite_seeds(trials: int = 1000, rng_seed: int = 2024) -> list[Check]:
    """Suitable-seed search statistics over the two reference grids."""
    checks = []
    grids = [("fixed-n", [(1000, c) for c in range(1, 101)]),
             ("fixed-c", [(n, 50) for n in range(100, 1001, 100)])]
    for label, grid in grids:
        worst_avg, worst_max, worst_frac = 0.0, 0, 1.0
        for i, (n, c) in enumerate(grid):
            stats = seed_trial_statistics(n, c, trials, rng_seed + 7919 * i)
            worst_avg = max(worst_avg, stats["avg_tests"])
            worst_max = max(worst_max, stats["most_tests"])
            worst_frac = min(worst_frac, stats["suitable_fraction"])
        checks.append(Check(
            f"seeds/{label}/fraction", worst_frac >= 0.40,
            f"min first-seed suitable fraction {worst_frac:.3f} (need >= 0.40)"))
        checks.append(Check(
            f"seeds/{label}/avg", worst_avg <= 1.5,
            f"max avg tested seeds {worst_avg:.3f} (need <= 1.5)"))
        checks.append(Check(
            f"seeds/{label}/max", worst_max <= 6,
            f"max tested seeds {worst_max} (need <= 6)"))
    return checks


def suite_uniformity(trials: int = 100_000, rng_seed: int = 99) -> list[Check]:
    """n=6, c=2: all 15 two-subsets equally likely, per-tag frequency 1/3."""
    from scipy.stats import chi2

    n, c = 6, 2
    rng = np.random.default_rng(np.random.SeedSequence(rng_seed))
    pair_counts: dict[tuple[int, int], int] = {}
    tag_counts = np.zeros(n, dtype=np.int64)
    for _ in range(trials):
        picked = sorted(i for i, _ in sample_once(n, c, rng))
        key = (picked[0], picked[1])
        pair_counts[key] = pair_counts.get(key, 0) + 1
        tag_counts[picked] += 1

    pairs = 15
    expected = trials / pairs
    stat = sum((pair_counts.get((i, j), 0) - expected) ** 2 / expected
               for i in range(n) for j in range(i + 1, n))
    critical = chi2.ppf(1 - 1e-3, pairs - 1)
    checks = [Check(
        "uniformity/subsets", stat <= critical,
        f"chi-square {stat:.2f} vs critical {critical:.2f} at significance 1e-3")]

    p = c / n
    se = math.sqrt(p * (1 - p) / trials)
    freqs = tag_counts / trials
    off = float(np.max(np.abs(freqs - p)))
    checks.append(Check(
        "uniformity/per-tag", off <= 4 * se,
        f"max |freq - 1/3| = {off:.5f} vs 4 SE = {4 * se:.5f}"))
    return checks


def suite_exactness(rounds: int = 10_000, rng_seed: int = 5) -> list[Check]:
    """Every simulated round must sample exactly c distinct tags of the n,
    mixed problem sizes; optc2_round itself checks their orders 1..c."""
    rng = np.random.default_rng(np.random.SeedSequence(rng_seed))
    violations = 0
    for _ in range(rounds):
        n = int(rng.integers(2, 1001))
        c = int(rng.integers(1, min(n, 100) + 1))
        picked = [i for i, _ in sample_once(n, c, rng)]
        distinct = len(picked) == len(set(picked)) == c
        if not (distinct and 0 <= min(picked) and max(picked) < n):
            violations += 1
    return [Check(
        "exactness/rounds", violations == 0,
        f"{violations} violations in {rounds} rounds (need 0)")]


def suite_cost(trials: int = 4000, rng_seed: int = 31) -> list[Check]:
    """Refinement-stage frame bits: mean within [0.80, 1.15] of e*c when
    the selected set size l is anywhere in [c, c + 6*sqrt(c)]."""
    checks = []
    rng = np.random.default_rng(np.random.SeedSequence(rng_seed))
    for c in (10, 50, 100):
        l_max = int(c + 6 * math.sqrt(c))
        total = 0
        for _ in range(trials):
            l = int(rng.integers(c, l_max + 1))
            out = optc2_round(random_ids(l, rng), c)
            total += out.payload_bits
        ratio = (total / trials) / (math.e * c)
        checks.append(Check(
            f"cost/c={c}", 0.80 <= ratio <= 1.15,
            f"mean frame bits / (e*c) = {ratio:.4f} (need within [0.80, 1.15])"))
    return checks


def _filter_interval(filt: str) -> tuple[int, int]:
    stars = len(filt) - len(filt.rstrip("*"))
    prefix = int(filt.rstrip("*") or "0", 2)
    return prefix << stars, ((prefix + 1) << stars) - 1


def suite_selgen() -> list[Check]:
    """Exhaustive filter-generation oracle for every threshold up to 2^12."""
    bad = []
    for width in range(1, SELGEN_MAX_WIDTH + 1):
        for tau in range(1 << width):
            filters = selgen_filters(tau, width)
            intervals = sorted(_filter_interval(f) for f in filters)
            covered_ok = intervals[0][0] == 0 and intervals[-1][1] == tau
            disjoint = all(a2 == b1 + 1 for (_, b1), (a2, _) in zip(intervals, intervals[1:]))
            count_ok = len(filters) == command_count(tau, width)
            bound_ok = len(filters) <= bin(tau).count("1") + 1
            log_ok = tau < 2 or len(filters) <= math.ceil(math.log2(tau)) + 1
            if not (covered_ok and disjoint and count_ok and bound_ok and log_ok):
                bad.append((width, tau))
    return [Check(
        "selgen/exhaustive", not bad,
        f"{len(bad)} failing (width, tau) pairs up to width {SELGEN_MAX_WIDTH}"
        + (f", first {bad[0]}" if bad else ""))]


def suite_monotone() -> list[Check]:
    """mu and rho strictly decrease in c and leave the per-seed success
    probability above 0.4 everywhere."""
    cs = range(1, MONOTONE_LIMIT + 1)
    mus = [mu(c) for c in cs]
    rhos = [rho(c) for c in cs]
    mu_ok = all(b < a for a, b in zip(mus, mus[1:]))
    rho_ok = all(b < a for a, b in zip(rhos, rhos[1:]))
    floor = min(seed_success_lower_bound(c) for c in cs)
    return [
        Check("monotone/mu", mu_ok, f"mu strictly decreasing on 1..{MONOTONE_LIMIT}"),
        Check("monotone/rho", rho_ok, f"rho strictly decreasing on 1..{MONOTONE_LIMIT}"),
        Check("monotone/success-floor", floor > 0.4,
              f"min lower bound on per-seed success {floor:.4f} (need > 0.4)"),
    ]


_SUITE_FNS = {
    "seeds": suite_seeds,
    "uniformity": suite_uniformity,
    "exactness": suite_exactness,
    "cost": suite_cost,
    "selgen": suite_selgen,
    "monotone": suite_monotone,
}


def run_suite(name: str, fast: bool = False) -> list[Check]:
    """Run one suite (or `all`); `fast` shrinks the Monte-Carlo grids for
    smoke testing and is not the acceptance configuration."""
    if name not in SUITES:
        raise KeyError(f"unknown suite {name!r}; choose from {', '.join(SUITES)}")
    names = [s for s in SUITES if s != "all"] if name == "all" else [name]
    overrides = {
        "seeds": {"trials": 50},
        "uniformity": {"trials": 2000},
        "exactness": {"rounds": 300},
        "cost": {"trials": 100},
    } if fast else {}
    checks = []
    for n in names:
        checks.extend(_SUITE_FNS[n](**overrides.get(n, {})))
    return checks
