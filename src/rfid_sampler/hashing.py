"""ID-substring hashing and the suitable-seed search.

A "seed" is the starting position of an L-bit substring of the 96-bit ID;
the decimal value of the substring is the raw hash, reduced mod n when a
bounded range is needed.  The coarse sampling stage only accepts seeds that
select between c and c + 6*sqrt(c) tags; such seeds are called suitable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .population import ID_BITS, _HALF_BITS

# Substring windows: the idealized full ID, or the last-16-bit block that
# real EPCs are known to keep uniformly random.
WINDOW_FULL = "full"
WINDOW_COTS = "cots"
_COTS_FIRST_BIT = 81


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
    found: bool
    selected_count: int
    seed: SeedSpec | None = None  # the accepted seed, None on exhaustion


def hash_width(n: int) -> int:
    """Substring width used when hashing a set of n tags."""
    return max(1, math.ceil(math.log2(n))) if n > 1 else 1


def mod_hash_width(m: int) -> int:
    """Substring width used before reducing mod m.

    A width of exactly ceil(log2 m) makes the residues below 2^L - m
    twice as likely, badly skewing selection counts; padding by 16 bits
    caps the relative bias at 2^-16, which is negligible next to the
    Monte-Carlo noise, so the substring behaves like the uniform hash
    the protocol analysis assumes."""
    return min(_HALF_BITS, hash_width(m) + 16)


def selection_threshold(c: int) -> float:
    return c + 3.0 * math.sqrt(c)


def suitable_upper(c: int) -> float:
    return c + 6.0 * math.sqrt(c)


def substring_hash(id: int, seed: SeedSpec) -> int:
    """Unsigned value of ID bits [start, start+L-1], MSB first."""
    shift = ID_BITS - (seed.start + seed.length - 1)
    return (id >> shift) & ((1 << seed.length) - 1)


def hash_mod(id: int, seed: SeedSpec, m: int) -> int:
    if m < 1:
        raise ValueError(f"modulus must be >= 1, got {m}")
    return substring_hash(id, seed) % m


def ids_to_halves(ids) -> tuple[np.ndarray, np.ndarray]:
    """Split python-int IDs into (high 48 bits, low 48 bits) uint64 arrays.

    No package code calls it; `benchmarks/spans.py` still wraps this name."""
    hi = np.fromiter((i >> _HALF_BITS for i in ids), dtype=np.uint64, count=len(ids))
    lo = np.fromiter(
        (i & ((1 << _HALF_BITS) - 1) for i in ids), dtype=np.uint64, count=len(ids)
    )
    return hi, lo


def substring_values(hi: np.ndarray, lo: np.ndarray, seed: SeedSpec) -> np.ndarray:
    """Vectorized substring_hash over (hi, lo) ID halves."""
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


def selected_count_from_hashes(hashes, c: int) -> int:
    thr = selection_threshold(c)
    return int(sum(1 for h in hashes if h <= thr))


def suitable_from_count(count: int, c: int) -> bool:
    return c <= count <= suitable_upper(c)


def is_suitable(ids, seed: SeedSpec, c: int) -> tuple[bool, int]:
    """Apply the coarse threshold rule to `ids` under `seed`; count selected."""
    n = len(ids)
    hashes = [hash_mod(i, seed, n) for i in ids]
    count = selected_count_from_hashes(hashes, c)
    return suitable_from_count(count, c), count


def seed_pool(length: int, window: str = WINDOW_FULL) -> list[int]:
    """Valid substring start positions for the given window."""
    first = 1 if window == WINDOW_FULL else _COTS_FIRST_BIT
    last = ID_BITS - length + 1
    if last < first:
        return []
    return list(range(first, last + 1))


def window_starts(length: int, window: str) -> list[int]:
    """Start positions a seed search tries: the window's own, then the full
    window's others, so a COTS window that runs dry widens to the full one.
    A window's starts are always the full window's last ones."""
    full, own = seed_pool(length), seed_pool(length, window)
    return own + full[: len(full) - len(own)]


def find_suitable_seed(
    hi: np.ndarray,
    lo: np.ndarray,
    c: int,
    max_tests: int = 96,
    rng: np.random.Generator | None = None,
) -> tuple[np.ndarray | None, SeedSearchStats]:
    """Draw start positions of the full window without replacement until a
    suitable seed appears for the tags with ID halves (hi, lo).  Returns the
    tags' hashes mod n under that seed and the search statistics, which
    name the seed.

    Exhaustion is reported in the stats (hashes and seed None), not raised.
    """
    rng = rng if rng is not None else np.random.default_rng()
    n = len(hi)
    L = mod_hash_width(n)
    thr = selection_threshold(c)

    starts = seed_pool(L)
    order = rng.permutation(len(starts))

    tests = 0
    last_count = 0
    for idx in order:
        if tests >= max_tests:
            break
        seed = SeedSpec(start=starts[idx], length=L)
        vals = substring_values(hi, lo, seed) % np.uint64(n)
        count = int((vals <= thr).sum())
        tests += 1
        last_count = count
        if suitable_from_count(count, c):
            return vals, SeedSearchStats(tests=tests, found=True, selected_count=count, seed=seed)
    return None, SeedSearchStats(tests=tests, found=False, selected_count=last_count)


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
        if not stats.found:
            raise RuntimeError(f"seed pool exhausted for n={n}, c={c}")
        tests_seen.append(stats.tests)
        if stats.tests == 1:
            first_ok += 1
    return {
        "avg_tests": float(np.mean(tests_seen)),
        "max_tests": int(max(tests_seen)),
        "suitable_fraction": first_ok / trials,
    }
