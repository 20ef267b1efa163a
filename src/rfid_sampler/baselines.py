"""Reference strategies the Select-command realization is compared against."""

from __future__ import annotations

import numpy as np

from .population import ID_BITS, Population, ReadyTags
from .selgen import select_bits


class BaselineReport(ReadyTags):
    """One category's random picks; `pool` is the category's ID halves."""

    @property
    def bits_sent(self) -> int:
        """One Select command matching the full ID per pick."""
        return len(self.positions) * select_bits(ID_BITS)


def run_random_select(population: Population, rng: np.random.Generator) -> list[BaselineReport]:
    """Pick each sample with its own Select command matching the full 96-bit
    ID: c_k commands of 96-bit masks per category, no hashing involved.
    Categories of at most 256 tags on average are shuffled by one sort of a
    44-bit key per tag, topped by its category's first row (< 2^20): each
    takes its first c_k rows, and a tie in a category redraws every key.
    Larger ones take one `rng.choice` each, cheaper than sorting every row."""
    bounds = population.offsets
    if len(population.hi) > 256 * len(population.cs):
        return [BaselineReport((hi, lo), rng.choice(len(hi), c, replace=False))
                for hi, lo, c in population.segments()]
    starts = np.repeat(bounds[:-1], np.diff(bounds))  # each row's category's first row
    while True:
        keys = rng.integers(0, 1 << 44, len(starts), np.uint64) | starts.astype(np.uint64) << 44
        order = np.argsort(keys)
        if np.all(np.diff(keys[order])):
            break
    order -= starts  # a sorted row stays in its category's block: its row there
    return [BaselineReport((hi, lo), order[a:a + c])
            for (hi, lo, c), a in zip(population.segments(), bounds.tolist())]


def naive_threshold_bits(tau: int, width: int) -> int:
    """Cost of one exact-match command per value in [0, tau]: the cost that
    prefix merging is meant to remove."""
    return (tau + 1) * select_bits(width)
