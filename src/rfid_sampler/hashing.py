"""ID-substring hashing and the suitable-seed search.

A "seed" is the starting position of an L-bit substring of the 96-bit ID;
the decimal value of the substring is the raw hash, reduced mod n when a
bounded range is needed.  The coarse sampling stage only accepts seeds that
select between c and c + 6*sqrt(c) tags; such seeds are called suitable.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .population import ID_BITS, _HALF_BITS


@dataclass(frozen=True)
class SeedSpec:
    """L-bit substring window starting at 1-based bit index `start`."""

    start: int
    length: int

    def __post_init__(self):
        if self.length < 1:
            raise ValueError(f"substring length must be >= 1, got {self.length}")
        if not 1 <= self.start <= ID_BITS - self.length + 1:
            raise ValueError(
                f"start {self.start} out of range for length {self.length}"
            )


@dataclass
class SeedSearchStats:
    tests: int
    seed: SeedSpec | None = None  # the accepted seed, None on exhaustion


def mod_hash_width(m: int) -> int:
    """Substring width used before reducing mod m.

    A width of exactly ceil(log2 m) makes the residues below 2^L - m
    twice as likely, badly skewing selection counts; padding by 16 bits
    caps the relative bias at 2^-16, which is negligible next to the
    Monte-Carlo noise, so the substring behaves like the uniform hash
    the protocol analysis assumes."""
    return min(_HALF_BITS, max(1, math.ceil(math.log2(m))) + 16)


def selection_threshold(c: int) -> float:
    return c + 3.0 * math.sqrt(c)


def suitable_upper(c: int) -> float:
    return c + 6.0 * math.sqrt(c)


def ids_to_halves(ids) -> tuple[np.ndarray, np.ndarray]:
    """Split python-int IDs into (high 48 bits, low 48 bits) uint64 arrays.

    No package code calls it; `benchmarks/spans.py` still wraps this name."""
    hi = np.fromiter((i >> _HALF_BITS for i in ids), dtype=np.uint64, count=len(ids))
    lo = np.fromiter(
        (i & ((1 << _HALF_BITS) - 1) for i in ids), dtype=np.uint64, count=len(ids)
    )
    return hi, lo


def substring_values(hi: np.ndarray, lo: np.ndarray, seed: SeedSpec) -> np.ndarray:
    """Unsigned value of ID bits [start, start+L-1], MSB first, of every ID
    given as (hi, lo) halves."""
    s, L = seed.start, seed.length
    if L > _HALF_BITS:
        raise ValueError(f"vectorized path supports length <= {_HALF_BITS}")
    end = s + L - 1
    mask = np.uint64((1 << L) - 1)
    if end <= _HALF_BITS:
        return (hi >> np.uint64(_HALF_BITS - end)) & mask
    if s > _HALF_BITS:
        return (lo >> np.uint64(ID_BITS - end)) & mask
    lo_bits = end - _HALF_BITS
    hi_part = hi & np.uint64((1 << (_HALF_BITS - s + 1)) - 1)
    return ((hi_part << np.uint64(lo_bits)) | (lo >> np.uint64(_HALF_BITS - lo_bits))) & mask


def suitable_from_count(count: int, c: int) -> bool:
    return c <= count <= suitable_upper(c)


def seed_windows(length: int, rng: np.random.Generator) -> Iterator[SeedSpec]:
    """Every L-bit window once, in uniformly random order: draw i of
    rng.permutation(97 - L) is the window starting at bit i + 1.  Each seed
    is built only when the search reaches it."""
    for idx in rng.permutation(ID_BITS - length + 1).tolist():
        yield SeedSpec(start=idx + 1, length=length)


def find_suitable_seed(
    hi: np.ndarray,
    lo: np.ndarray,
    c: int,
    rng: np.random.Generator,
) -> tuple[np.ndarray | None, SeedSearchStats]:
    """Draw substring start positions without replacement until a
    suitable seed appears for the tags with ID halves (hi, lo).  Returns the
    tags' hashes mod n under that seed and the search statistics, which
    name the seed.

    Exhaustion is reported in the stats (hashes and seed None), not raised.
    """
    n = len(hi)
    L = mod_hash_width(n)
    # hashes are integers, so h <= c + 3*sqrt(c) iff h <= its floor
    thr = np.uint64(math.floor(selection_threshold(c)))

    for tests, seed in enumerate(seed_windows(L, rng), start=1):
        vals = substring_values(hi, lo, seed) % np.uint64(n)
        count = int(np.count_nonzero(vals <= thr))
        if suitable_from_count(count, c):
            return vals, SeedSearchStats(tests=tests, seed=seed)
    return None, SeedSearchStats(tests=tests)


def seed_trial_statistics(n: int, c: int, trials: int, rng_seed: int) -> dict:
    """Repeat the seed-search trial on fresh random populations.

    Each trial generates n fresh IDs and counts how many random seeds get
    tested before a suitable one turns up.  suitable_fraction is the share
    of trials whose first tested seed was already suitable (an unbiased
    estimate of the per-seed success probability).
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    root = np.random.SeedSequence(rng_seed)
    streams = root.spawn(trials)
    tests_seen = []
    first_ok = 0
    for ss in streams:
        rng = np.random.default_rng(ss)
        # duplicate IDs are vanishingly unlikely at 96 bits, so the array
        # path skips the dedup pass that generate_population performs
        halves = rng.integers(0, 1 << _HALF_BITS, size=(n, 2), dtype=np.uint64)
        _, stats = find_suitable_seed(halves[:, 0], halves[:, 1], c, rng=rng)
        if stats.seed is None:
            raise RuntimeError(f"seed pool exhausted for n={n}, c={c}")
        tests_seen.append(stats.tests)
        if stats.tests == 1:
            first_ok += 1
    return {
        "avg_tests": float(np.mean(tests_seen)),
        "most_tests": int(max(tests_seen)),
        "suitable_fraction": first_ok / trials,
    }
