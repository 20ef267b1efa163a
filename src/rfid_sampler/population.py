"""Synthetic tag populations partitioned into categories.

Tags carry 96-bit IDs whose bits are drawn independently and uniformly at
random, so any substring window is usable as a hash source.  IDs are unique
within a population (collisions are resolved by redraw).

A population is four arrays (hi, lo, offsets, cs): each ID as its high and
low 48-bit halves, categories contiguous and in draw order inside each, CSR
offsets marking where each category starts, and each category's sample
count.  OPT-C and optc-impl depend only on a category's set of IDs, and
random-select picks uniformly random rows, so no protocol relies on that
order.  The stages keep no per-tag state, so every run starts from reset;
they read each category through the `Population.categories` view.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .errors import ConfigurationError

ID_BITS = 96
_HALF_BITS = 48
_MAX_POPULATION = 1 << 20


@dataclass(slots=True)
class Tag:
    """One tag, by its 96-bit ID.  Kept only because `benchmarks/spans.py`
    reads the IDs of `category_tags` as `.id`."""

    id: int


class Category(NamedTuple):
    """Category k: size n, sample count c and its ID halves (views, in draw order)."""

    k: int
    n: int
    c: int
    hi: np.ndarray
    lo: np.ndarray


@dataclass
class Population:
    """Categories 1..K in order; category k holds the IDs
    hi/lo[offsets[k-1]:offsets[k]], in draw order, and samples cs[k-1] of
    them.  `categories` lists them as `Category` views, built on first read."""

    hi: np.ndarray
    lo: np.ndarray
    offsets: np.ndarray
    cs: np.ndarray

    @cached_property
    def categories(self) -> list[Category]:
        bounds = self.offsets.tolist()
        return [Category(k, b - a, c, self.hi[a:b], self.lo[a:b]) for k, a, b, c in
                zip(range(1, len(bounds)), bounds, bounds[1:], self.cs.tolist())]

    def halves(self, k: int) -> tuple[np.ndarray, np.ndarray]:
        """(hi, lo) ID halves of category k, in draw order (views, not copies)."""
        if not 1 <= k <= len(self.cs):
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


def check_population_cap(tags: int) -> None:
    """Reject more than 2^20 tags; K categories hold at least K tags, so a
    category count is checked the same way before any schedule is built."""
    if tags > _MAX_POPULATION:
        raise ConfigurationError(f"population of {tags} tags exceeds desk scale 2^20")


def check_categories(ns, cs) -> tuple[np.ndarray, np.ndarray]:
    """The one check of a category list (sizes ns, sample counts cs), returned
    as int64 arrays: K >= 1, 1 <= c_k <= n_k and at most 2^20 tags.  A size or
    count that is not an integer raises TypeError; it is never truncated."""
    try:
        ns, cs = (np.fromiter(map(operator.index, v), np.int64) for v in (ns, cs))
    except OverflowError:
        raise ConfigurationError("category sizes and sample counts must fit in 64 bits") from None
    if len(ns) != len(cs):
        raise ConfigurationError(f"got {len(ns)} sizes but {len(cs)} sample counts")
    if not len(ns):
        raise ConfigurationError("need at least one category")
    bad = np.flatnonzero((cs < 1) | (cs > ns))
    if len(bad):
        k = bad[0]
        raise ConfigurationError(f"category {k + 1}: need 1 <= c <= n, got c={cs[k]}, n={ns[k]}")
    check_population_cap(sum(ns.tolist()))  # a Python sum, which cannot wrap
    return ns, cs


def generate_population(
    category_sizes: list[tuple[int, int]], rng_seed: int
) -> Population:
    """Build a population from (n_k, c_k) pairs; deterministic in rng_seed.
    The first n_1 IDs drawn go to category 1, the next n_2 to category 2, ..."""
    ns, cs = check_categories([n for n, _ in category_sizes], [c for _, c in category_sizes])
    offsets = np.zeros(len(ns) + 1, dtype=np.int64)
    np.cumsum(ns, out=offsets[1:])

    rng = np.random.default_rng(np.random.SeedSequence(rng_seed))
    hi, lo = random_ids(int(offsets[-1]), rng)
    return Population(hi, lo, offsets, cs)


def category_tags(population: Population, k: int) -> list[Tag]:
    """The tags of category k, in draw order.  Kept only because
    `benchmarks/spans.py` wraps this name and reads its IDs."""
    return [Tag(id=i) for i in halves_to_ids(*population.halves(k))]
