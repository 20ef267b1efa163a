"""Reference strategies the Select-command realization is compared against."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .population import Population, ReadyTags
from .selgen import SELECT_FIXED_BITS

ID_MASK_BITS = 96


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
    for spec in population.categories:
        picks = rng.choice(spec.n, size=spec.c, replace=False)
        bits = spec.c * (SELECT_FIXED_BITS + ID_MASK_BITS)
        reports.append(
            BaselineReport(commands=spec.c, bits=bits,
                           pool=population.halves(spec.k), positions=picks)
        )
    return reports


def naive_threshold_bits(tau: int, width: int) -> int:
    """Cost of one exact-match command per value in [0, tau]: the cost that
    prefix merging is meant to remove."""
    return (tau + 1) * (SELECT_FIXED_BITS + width)
