"""Reference strategies the Select-command realization is compared against."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .population import ID_BITS, Population, ReadyTags
from .selgen import SELECT_FIXED_BITS


@dataclass
class BaselineReport(ReadyTags):
    commands: int
    bits: int
    pool: tuple[np.ndarray, np.ndarray] = field(repr=False)  # category ID halves
    positions: np.ndarray  # the picked tags' rows, in reporting order


def run_random_select(
    population: Population, rng: np.random.Generator
) -> list[BaselineReport]:
    """Pick each sample with its own Select command matching the full 96-bit
    ID: c_k commands of 96-bit masks per category, no hashing involved."""
    reports = []
    for cat in population.categories:
        picks = rng.choice(cat.n, size=cat.c, replace=False)
        bits = cat.c * (SELECT_FIXED_BITS + ID_BITS)
        reports.append(
            BaselineReport(commands=cat.c, bits=bits, pool=(cat.hi, cat.lo), positions=picks)
        )
    return reports


def naive_threshold_bits(tau: int, width: int) -> int:
    """Cost of one exact-match command per value in [0, tau]: the cost that
    prefix merging is meant to remove."""
    return (tau + 1) * (SELECT_FIXED_BITS + width)
