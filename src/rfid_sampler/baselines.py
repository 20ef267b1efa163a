"""Reference strategies the Select-command realization is compared against."""

from __future__ import annotations

import numpy as np

from .population import ID_BITS, Population, ReadyTags
from .selgen import select_bits


class BaselineReport(ReadyTags):
    """One category's random picks; `pool` is the category's ID halves."""

    @property
    def bits(self) -> int:
        """One Select command matching the full ID per pick."""
        return len(self.positions) * select_bits(ID_BITS)


def run_random_select(
    population: Population, rng: np.random.Generator
) -> list[BaselineReport]:
    """Pick each sample with its own Select command matching the full 96-bit
    ID: c_k commands of 96-bit masks per category, no hashing involved."""
    reports = []
    for cat in population.categories:
        picks = rng.choice(cat.n, size=cat.c, replace=False)
        reports.append(BaselineReport(pool=(cat.hi, cat.lo), positions=picks))
    return reports


def naive_threshold_bits(tau: int, width: int) -> int:
    """Cost of one exact-match command per value in [0, tau]: the cost that
    prefix merging is meant to remove."""
    return (tau + 1) * select_bits(width)
