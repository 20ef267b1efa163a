"""Reference strategies the Select-command realization is compared against."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .population import Population, halves_to_ids
from .selgen import SELECT_FIXED_BITS

ID_MASK_BITS = 96


@dataclass
class BaselineReport:
    name: str
    commands: int
    bits: int
    ready: list[tuple[int, int]]


def run_random_select(
    population: Population, rng: np.random.Generator
) -> list[BaselineReport]:
    """Pick each sample with its own Select command matching the full 96-bit
    ID: c_k commands of 96-bit masks per category, no hashing involved."""
    reports = []
    for spec in population.categories:
        hi, lo = population.halves(spec.k)
        picks = rng.choice(spec.n, size=spec.c, replace=False)
        ids = halves_to_ids(hi[picks], lo[picks])
        ready = [(tid, order) for order, tid in enumerate(ids, start=1)]
        bits = spec.c * (SELECT_FIXED_BITS + ID_MASK_BITS)
        reports.append(
            BaselineReport(
                name="random-select", commands=spec.c, bits=bits, ready=ready
            )
        )
    return reports


def naive_threshold_bits(tau: int, width: int) -> int:
    """Cost of one exact-match command per value in [0, tau]: the cost that
    prefix merging is meant to remove."""
    return (tau + 1) * (SELECT_FIXED_BITS + width)
