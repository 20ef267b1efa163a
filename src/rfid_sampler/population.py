"""Synthetic tag populations partitioned into categories.

Tags carry 96-bit IDs whose bits are drawn independently and uniformly at
random, so any substring window is usable as a hash source.  IDs are unique
within a population (collisions are resolved by redraw).

A population is stored as arrays: each ID as its high and low 48-bit halves,
categories contiguous and in draw order inside each, with CSR offsets
marking where each category starts.  OPT-C and optc-impl depend only on a
category's set of IDs, and random-select picks uniformly random rows, so no
protocol relies on that order.  The protocol stages work on these
arrays and keep no per-tag state, so every run starts from reset;
`category_tags` lists a category's IDs as `Tag` records.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ConfigurationError

ID_BITS = 96
_HALF_BITS = 48
_MAX_POPULATION = 1 << 20


@dataclass(slots=True)
class Tag:
    """One tag, by its 96-bit ID."""

    id: int


@dataclass(frozen=True)
class CategorySpec:
    """Category index k, size n and reliability number c (tags to sample)."""

    k: int
    n: int
    c: int

    def __post_init__(self):
        if self.n < 1:
            raise ConfigurationError(f"category {self.k}: size must be >= 1, got {self.n}")
        if not 1 <= self.c <= self.n:
            raise ConfigurationError(
                f"category {self.k}: need 1 <= c <= n, got c={self.c}, n={self.n}"
            )


@dataclass
class Population:
    """Categories 1..K in order; category k holds the IDs
    hi/lo[offsets[k-1]:offsets[k]], in draw order."""

    categories: list[CategorySpec]
    hi: np.ndarray
    lo: np.ndarray
    offsets: np.ndarray

    def halves(self, k: int) -> tuple[np.ndarray, np.ndarray]:
        """(hi, lo) ID halves of category k, in draw order (views, not copies)."""
        if not 1 <= k <= len(self.categories):
            raise KeyError(f"no category {k}")
        a, b = self.offsets[k - 1], self.offsets[k]
        return self.hi[a:b], self.lo[a:b]


def _first_occurrences(hi: np.ndarray, lo: np.ndarray) -> np.ndarray:
    """Mask keeping the first (lowest-index) occurrence of every (hi, lo) pair;
    the stable lexsort keeps equal pairs in index order."""
    order = np.lexsort((lo, hi))
    h, l = hi[order], lo[order]
    keep = np.ones(len(hi), dtype=bool)
    keep[order[1:][(h[1:] == h[:-1]) & (l[1:] == l[:-1])]] = False
    return keep


def random_ids(n: int, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """n distinct 96-bit IDs as (hi, lo) uint64 halves, every bit
    independently uniform, in draw order.  A drawn ID equal to an earlier
    one is dropped, and the shortfall is drawn again until n are distinct.
    If one sort of the high halves shows no two equal, no two IDs can be
    equal, and only a repeated high half (odds about n^2 / 2^49) pays for
    the full-ID search."""
    hi = lo = np.empty(0, dtype=np.uint64)
    while len(hi) < n:
        halves = rng.integers(0, 1 << _HALF_BITS, size=(n - len(hi), 2), dtype=np.uint64)
        hi = np.concatenate((hi, halves[:, 0]))
        lo = np.concatenate((lo, halves[:, 1]))
        h = np.sort(hi)
        if not (h[1:] == h[:-1]).any():
            break
        keep = _first_occurrences(hi, lo)
        hi, lo = hi[keep], lo[keep]
    return hi, lo


def halves_to_ids(hi: np.ndarray, lo: np.ndarray) -> list[int]:
    """Python-int IDs from their (hi, lo) halves, in the given order."""
    return [(h << _HALF_BITS) | l for h, l in zip(hi.tolist(), lo.tolist())]


class ReadyTags:
    """Base of a result holding `pool`, ID halves (hi, lo) or None, and
    `positions`, the rows of its Ready tags in reporting order."""

    @cached_property
    def ready(self) -> list[tuple[int, int]]:
        """(ID, reporting order) of the Ready tags, by order; built on first read."""
        if self.pool is None:
            return []
        ids = halves_to_ids(self.pool[0][self.positions], self.pool[1][self.positions])
        return list(zip(ids, range(1, len(ids) + 1)))


def generate_population(
    category_sizes: list[tuple[int, int]], rng_seed: int
) -> Population:
    """Build a population from (n_k, c_k) pairs; deterministic in rng_seed.
    The first n_1 IDs drawn go to category 1, the next n_2 to category 2, ..."""
    if not category_sizes:
        raise ConfigurationError("need at least one category")
    specs = [CategorySpec(k, n, c) for k, (n, c) in enumerate(category_sizes, start=1)]
    sizes = np.array([s.n for s in specs], dtype=np.int64)
    total = int(sizes.sum())
    if total > _MAX_POPULATION:
        raise ConfigurationError(f"population of {total} exceeds desk scale 2^20")

    rng = np.random.default_rng(np.random.SeedSequence(rng_seed))
    hi, lo = random_ids(total, rng)
    offsets = np.zeros(len(specs) + 1, dtype=np.int64)
    np.cumsum(sizes, out=offsets[1:])
    return Population(categories=specs, hi=hi, lo=lo, offsets=offsets)


def category_tags(population: Population, k: int) -> list[Tag]:
    """The tags of category k, in draw order."""
    return [Tag(id=i) for i in halves_to_ids(*population.halves(k))]
