"""ID-substring hashing and the suitable-seed search.

A "seed" is the starting position of an L-bit substring of the 96-bit ID;
the decimal value of the substring is the raw hash, reduced mod n when a
bounded range is needed.  The coarse sampling stage only accepts seeds that
select between c and c + 6*sqrt(c) tags; such seeds are called suitable.
Each window is one object: `seed_spec(start, length)` returns its one shared
`SeedSpec`, whose `read` builds the window's shifts and mask on first use.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .errors import ProtocolError
from .population import HALF_BITS, ID_BITS, random_ids


@dataclass(frozen=True)
class SeedSpec:
    """L-bit substring window, 1 <= L <= 48, starting at 1-based bit index `start`."""

    start: int
    length: int

    def __post_init__(self):
        if not 1 <= self.length <= HALF_BITS:
            raise ValueError(f"substring length must be 1..{HALF_BITS}, got {self.length}")
        if not 1 <= self.start <= ID_BITS - self.length + 1:
            raise ValueError(f"start {self.start} out of range for length {self.length}")

    def __reduce__(self):  # from the fields: a built `read` is a closure pickle cannot send
        return SeedSpec, (self.start, self.length)

    @functools.cached_property
    def read(self):
        """(hi, lo) -> the window's values, with 0-d uint64 constants (faster than scalars)."""
        end = self.start + self.length - 1
        mask = np.array((1 << self.length) - 1, dtype=np.uint64)
        # the window's last bit lies (96 - end) mod 48 bits above its half's bottom
        down = np.array((ID_BITS - end) % HALF_BITS, dtype=np.uint64)
        if end <= HALF_BITS:
            return lambda hi, lo: (hi >> down) & mask
        if self.start > HALF_BITS:
            return lambda hi, lo: (lo >> down) & mask
        # crossing bit 48: hi's bits above the window land past the mask, which drops them
        up = np.array(end - HALF_BITS, dtype=np.uint64)
        return lambda hi, lo: ((hi << up) | (lo >> down)) & mask


seed_spec = functools.cache(SeedSpec)  # seed_spec(start, length): one shared SeedSpec


@dataclass
class SeedSearchStats:
    tests: int
    seed: SeedSpec  # the accepted seed


def mod_hash_width(m: int) -> int:
    """Substring width used before reducing mod m.

    A width of exactly ceil(log2 m) makes the residues below 2^L - m
    twice as likely, badly skewing selection counts; padding by 16 bits
    caps the relative bias at 2^-16, which is negligible next to the
    Monte-Carlo noise, so the substring behaves like the uniform hash
    the protocol analysis assumes."""
    return min(HALF_BITS, max(1, math.ceil(math.log2(m))) + 16)


def selection_threshold(c: int) -> float:
    return c + 3.0 * math.sqrt(c)


def suitable_upper(c: int) -> float:
    return c + 6.0 * math.sqrt(c)


def ids_to_halves(ids) -> tuple[np.ndarray, np.ndarray]:
    """Split python-int IDs into (high 48 bits, low 48 bits) uint64 arrays.

    Kept only because `benchmarks/spans.py` wraps this name; no package code calls it."""
    hi = np.fromiter((i >> HALF_BITS for i in ids), dtype=np.uint64, count=len(ids))
    lo = np.fromiter((i & ((1 << HALF_BITS) - 1) for i in ids), np.uint64, len(ids))
    return hi, lo


def substring_values(hi: np.ndarray, lo: np.ndarray, seed: SeedSpec) -> np.ndarray:
    """Unsigned value of ID bits [start, start+L-1], MSB first, of every ID
    given as (hi, lo) halves."""
    return seed.read(hi, lo)


def suitable_from_count(count: int, c: int) -> bool:
    return c <= count <= suitable_upper(c)


def seed_windows(length: int, rng: np.random.Generator) -> Iterator[SeedSpec]:
    """Every L-bit window once, in uniformly random order, labelled COTS
    first: draw i of rng.permutation(m), m = 97 - L, is the (shared) window
    with the i-th start counted from bit 81 and wrapping round to bit 1, so
    the starts 81..m, which lie in the ID's last 16 bits (the COTS window),
    come before 1..80.  No start reaches bit 81 when m <= 80, and the order
    is the plain one, draw i starting at bit i + 1; every OPT-C search has
    mod_hash_width(n) >= 17, so m <= 80 there."""
    m = ID_BITS - length + 1
    shift = 80 if m > 80 else 0
    for idx in rng.permutation(m).tolist():
        yield seed_spec((idx + shift) % m + 1, length)


def find_suitable_seed(
    hi: np.ndarray,
    lo: np.ndarray,
    c: int,
    rng: np.random.Generator,
) -> tuple[np.ndarray, SeedSearchStats]:
    """Draw substring start positions without replacement until a
    suitable seed appears for the tags with ID halves (hi, lo).  Returns the
    positions of the tags that seed selects (hash mod n at most
    c + 3*sqrt(c)), ascending, and the search statistics, which name the
    seed.  Raises ProtocolError when no window is suitable.
    """
    n = len(hi)
    L = mod_hash_width(n)
    # hashes are integers, so h <= c + 3*sqrt(c) iff h <= its floor
    thr = np.array(math.floor(selection_threshold(c)), dtype=np.uint64)
    modulus = np.array(n, dtype=np.uint64)  # 0-d operands are faster than scalars

    for tests, seed in enumerate(seed_windows(L, rng), start=1):
        selected = substring_values(hi, lo, seed) % modulus <= thr
        if suitable_from_count(int(np.count_nonzero(selected)), c):
            return selected.nonzero()[0], SeedSearchStats(tests=tests, seed=seed)
    raise ProtocolError(f"no suitable seed for n={n}, c={c} after {tests} tests")


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
    for ss in streams:
        rng = np.random.default_rng(ss)
        hi, lo = random_ids(n, rng)
        _, stats = find_suitable_seed(hi, lo, c, rng=rng)
        tests_seen.append(stats.tests)
    return {
        "avg_tests": float(np.mean(tests_seen)),
        "most_tests": int(max(tests_seen)),
        "suitable_fraction": tests_seen.count(1) / trials,
    }
