"""Synthetic tag populations partitioned into categories.

Tags carry 96-bit IDs whose bits are drawn independently and uniformly at
random, so any substring window is usable as a hash source.  IDs are unique
within a population (collisions are resolved by redraw).

A population is stored as arrays: each ID as its high and low 48-bit halves,
categories contiguous and ascending by ID inside each, with CSR offsets
marking where each category starts.  The protocol stages work on these
arrays; per-tag `Tag` objects are built only by `category_tags`.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError

ID_BITS = 96
_HALF_BITS = 48
_MAX_POPULATION = 1 << 20


class TagState(enum.Enum):
    UNACKNOWLEDGED = "unacknowledged"
    UNSELECTED = "unselected"
    SELECTED = "selected"
    READY = "ready"


@dataclass(slots=True)
class Tag:
    """One tag: 96-bit ID and protocol state."""

    id: int
    state: TagState = TagState.UNACKNOWLEDGED
    cnt: int = 0


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
    """Categories in order; category i holds the IDs hi/lo[offsets[i]:offsets[i+1]],
    ascending.  `missing` flags tags, in the same layout, for mark_missing."""

    categories: list[CategorySpec]
    rng_seed: int
    hi: np.ndarray
    lo: np.ndarray
    offsets: np.ndarray
    missing: np.ndarray | None = None
    _index: dict[int, int] = field(init=False, repr=False)

    def __post_init__(self):
        self._index = {s.k: i for i, s in enumerate(self.categories)}

    @property
    def size(self) -> int:
        return len(self.hi)

    def halves(self, k: int) -> tuple[np.ndarray, np.ndarray]:
        """(hi, lo) ID halves of category k, ascending by ID (views, not copies)."""
        try:
            i = self._index[k]
        except KeyError:
            raise KeyError(f"no category {k}") from None
        a, b = self.offsets[i], self.offsets[i + 1]
        return self.hi[a:b], self.lo[a:b]


def _lexsort_by_key(key: np.ndarray, keys: tuple[np.ndarray, ...]) -> np.ndarray:
    """np.lexsort(keys) from one unstable argsort of the uint64 `key`, which
    must be non-decreasing in that order; only the elements of runs of equal
    keys are lexsorted, taken in index order so the result stays stable."""
    order = np.argsort(key)
    k = key[order]
    eq = k[1:] == k[:-1]
    tied = np.r_[eq, False] | np.r_[False, eq]
    sub = np.sort(order[tied])
    order[tied] = sub[np.lexsort(tuple(a[sub] for a in keys))]
    return order


def _first_occurrences(hi: np.ndarray, lo: np.ndarray) -> np.ndarray:
    """Mask keeping the first (lowest-index) occurrence of every (hi, lo) pair,
    from IDs sorted on hi with only runs of equal high halves lexsorted."""
    order = _lexsort_by_key(hi, (lo, hi))
    h, l = hi[order], lo[order]
    keep = np.ones(len(hi), dtype=bool)
    keep[order[1:][(h[1:] == h[:-1]) & (l[1:] == l[:-1])]] = False
    return keep


def random_ids(n: int, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """n distinct 96-bit IDs as (hi, lo) uint64 halves, every bit
    independently uniform, in draw order.  A drawn ID equal to an earlier
    one is dropped, and the shortfall is drawn again until n are distinct."""
    hi = lo = np.empty(0, dtype=np.uint64)
    while len(hi) < n:
        halves = rng.integers(0, 1 << _HALF_BITS, size=(n - len(hi), 2), dtype=np.uint64)
        hi = np.concatenate((hi, halves[:, 0]))
        lo = np.concatenate((lo, halves[:, 1]))
        keep = _first_occurrences(hi, lo)
        if not keep.all():
            hi, lo = hi[keep], lo[keep]
    return hi, lo


def _category_order(hi: np.ndarray, lo: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """Permutation sorting IDs dealt to categories in draw order (sizes[i]
    to category i) by (category, ID): one sort of the category packed above
    hi >> d (d > 0 only past 2^16 categories, so the key fits 64 bits), then
    a lexsort by (category, hi, lo) of only the runs of equal keys."""
    category = np.repeat(np.arange(len(sizes), dtype=np.uint64), sizes)
    d = max(0, (len(sizes) - 1).bit_length() - 16)
    key = (category << np.uint64(_HALF_BITS - d)) | (hi >> np.uint64(d))
    return _lexsort_by_key(key, (lo, hi, category))


def halves_to_ids(hi: np.ndarray, lo: np.ndarray) -> list[int]:
    """Python-int IDs from their (hi, lo) halves, in the given order."""
    return [(h << _HALF_BITS) | l for h, l in zip(hi.tolist(), lo.tolist())]


def make_tags(
    hi: np.ndarray, lo: np.ndarray, state: TagState = TagState.UNACKNOWLEDGED
) -> list[Tag]:
    """One fresh Tag per (hi, lo) ID half pair, in the given order."""
    return [Tag(id=i, state=state) for i in halves_to_ids(hi, lo)]


def generate_population(
    category_sizes: list[tuple[int, int]], rng_seed: int
) -> Population:
    """Build a population from (n_k, c_k) pairs; deterministic in rng_seed."""
    if not category_sizes:
        raise ConfigurationError("need at least one category")
    specs = [CategorySpec(k, n, c) for k, (n, c) in enumerate(category_sizes, start=1)]
    sizes = np.array([s.n for s in specs], dtype=np.int64)
    total = int(sizes.sum())
    if total > _MAX_POPULATION:
        raise ConfigurationError(f"population of {total} exceeds desk scale 2^20")

    rng = np.random.default_rng(np.random.SeedSequence(rng_seed))
    hi, lo = random_ids(total, rng)
    order = _category_order(hi, lo, sizes)
    offsets = np.zeros(len(specs) + 1, dtype=np.int64)
    np.cumsum(sizes, out=offsets[1:])
    return Population(
        categories=specs, rng_seed=rng_seed, hi=hi[order], lo=lo[order], offsets=offsets
    )


def mark_missing(
    population: Population, rates: list[float], rng_seed: int
) -> Population:
    """Flag tags missing, independently with per-category probability rates[k-1].

    Flags only affect post-hoc success accounting, never protocol execution.
    """
    if len(rates) != len(population.categories):
        raise ConfigurationError(
            f"need one rate per category: got {len(rates)} rates, "
            f"{len(population.categories)} categories"
        )
    for a in rates:
        if not 0.0 <= a < 1.0:
            raise ConfigurationError(f"missing rate must be in [0, 1), got {a}")

    rng = np.random.default_rng(np.random.SeedSequence(rng_seed))
    missing = np.empty(population.size, dtype=bool)
    for i, spec in enumerate(population.categories):
        a, b = population.offsets[i], population.offsets[i + 1]
        missing[a:b] = rng.random(b - a) < rates[spec.k - 1]
    population.missing = missing
    return population


def category_tags(population: Population, k: int) -> list[Tag]:
    """Fresh Unacknowledged tags of category k, ordered by ascending ID."""
    hi, lo = population.halves(k)
    return make_tags(hi, lo)
