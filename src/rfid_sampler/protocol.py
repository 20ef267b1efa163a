"""The two-stage sampling protocol: coarse Bernoulli stage, then the
frame-vector refinement that promotes exactly c tags to Ready with unique
reporting orders.

Both stages run on arrays.  The coarse stage reports the positions of the
tags it selects; the refinement stage keeps one counter per row of their ID
halves, and each frame (`build_frame`, reader side; `tag_apply_frame`, tag
side) moves the rows in marked singleton slots out of the pool as Ready.
A round's outcome keeps the pool and the Ready rows by order; the Ready
tags' Python-int IDs are built only if `RoundOutcome.ready` is read.

Each stage has its own record.  A `CoarseRound`'s ``bits_sent`` is the
header, `optc1_header_bits(n, c)`.  A refinement `RoundOutcome` counts:

* ``payload_bits`` -- the frame bits, the accounting under which the
  refinement stage's expected cost is e*c.  The stage broadcasts no
  header: each iteration's seed comes from a schedule both sides compute
  from the iteration index, and the frame length f = r + ceil(3*sqrt(c))
  from the r orders still unassigned, which the tags track by counting
  ones.  A frame ends at its r-th one (the tags count them, so it
  delimits itself), else after f bits.
* ``bits_sent``    -- the frame bits plus the 1-bit stop: all it broadcast.

`run_optc` returns both records of every category, so a run's air-time is
the sum of their ``bits_sent``.

How that sum measures against the log2(e)*c lower bound is recorded
once, in README's "Acceptance status", and checked by
`tests/test_acceptance.py`.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass
from itertools import count
from typing import NamedTuple

import numpy as np

from .errors import ProtocolError
from .hashing import (
    SeedSpec,
    find_suitable_seed,
    mod_hash_width,
    seed_spec,
    substring_values,
)
from .population import ID_BITS, Population, ReadyTags


class CoarseRound(NamedTuple):
    """The coarse stage's result for one category."""

    positions: np.ndarray  # the Selected tags' rows in the category's ID arrays
    bits_sent: int  # the header, optc1_header_bits(n, c)
    seed_tests: int


@dataclass
class RoundOutcome(ReadyTags):
    """The refinement stage's result for one category, over the Selected tags' halves."""

    iterations: int
    payload_bits: int  # frame bits

    @property
    def bits_sent(self) -> int:
        return self.payload_bits + 1  # the frames and the 1-bit stop: all it broadcast


def optc1_header_bits(n: int, c: int) -> int:
    """Cost of broadcasting the seed description and c for one category."""
    log_n = max(1.0, math.log2(n))
    return math.ceil(math.log2(ID_BITS / log_n)) + math.ceil(math.log2(c))


def optc1_round(
    hi: np.ndarray,
    lo: np.ndarray,
    c: int,
    rng: np.random.Generator,
) -> CoarseRound:
    """Coarse stage for one category, given its tags' ID halves (hi, lo):
    broadcast a suitable seed, tags flip a Bernoulli coin via the threshold
    rule.  The result's `positions` index the tags it selects."""
    n = len(hi)
    if not 1 <= c <= n:
        raise ValueError(f"need 1 <= c <= n, got c={c}, n={n}")

    positions, stats = find_suitable_seed(hi, lo, c, rng=rng)
    return CoarseRound(positions, optc1_header_bits(n, c), stats.tests)


def build_frame(slot_occupancy, needed: int, length: int) -> np.ndarray:
    """Reader side: the frame's bits, scanned left to right, with a slot's
    bit set iff it holds exactly one tag and fewer than `needed` ones have
    been placed so far.  The frame has `length` slots."""
    if needed < 1:
        raise ValueError("needed must be >= 1")
    try:
        counts = np.bincount(np.asarray(slot_occupancy, dtype=np.int64), minlength=length)
    except ValueError:  # bincount rejects a negative slot
        counts = None
    if counts is None or len(counts) > length:
        raise ValueError(f"slots must lie in [0, {length})")
    single = counts == 1
    single[single.nonzero()[0][needed:]] = False
    return single.view(np.uint8)


def tag_apply_frame(
    cnt: np.ndarray, bits: np.ndarray, slots: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Tag side, over a pool of Selected tags with counters `cnt` hashed to
    `slots`: a tag whose slot holds a one becomes Ready, its counter raised
    by the ones up to and including its slot; every other tag adds the
    frame's ones and stays Selected.  A slot past the end of a truncated
    frame reads as 0 (the read clips, then is masked off).  `bits` is a
    uint8 frame of zeros and ones, as `build_frame` returns.  Returns (ready
    mask, new counters)."""
    ones_through = bits.astype(np.int64).cumsum()
    ready = bits.view(bool).take(slots, mode="clip") & (slots < len(bits))
    heard = ones_through.take(slots, mode="clip")
    heard[~ready] = ones_through[-1]
    return ready, cnt + heard


def refine_frame_length(c: int, needed: int) -> int:
    """Refinement frame length f = r + ceil(3*sqrt(c)), from the r = `needed`
    orders still unassigned; tags know r by counting the ones they heard."""
    return needed + math.ceil(3.0 * math.sqrt(c))


def refine_seeds(c: int) -> Iterator[SeedSpec]:
    """Seeds of refinement iterations 1, 2, ..., which reader and tags both
    derive from the iteration index.  One substring width serves the whole
    stage (sized for its longest, first frame); iteration t starts at bit
    1 + (t - 1) * L mod (ID_BITS - L + 1), stepping by that width around
    the valid starts, so consecutive iterations hash disjoint or barely
    overlapping substrings and, as a width of at most 48 bits leaves more
    starts than that, never share one."""
    L = mod_hash_width(refine_frame_length(c, c))
    return (seed_spec(1 + t * L % (ID_BITS - L + 1), L) for t in count())


def default_iteration_cap(c: int) -> int:
    return 64 * (1 + math.ceil(math.log2(c)))


def optc2_round(pool: tuple[np.ndarray, np.ndarray], c: int) -> RoundOutcome:
    """Refinement stage over the Selected tags' ID halves `pool` = (hi, lo):
    iterate seed -> hash -> frame -> promote until exactly c tags are Ready;
    the rest end Unselected.  Seeds and frame lengths are derived on both
    sides, so only frame bits and the final stop bit are broadcast, and no
    randomness is drawn.  The input arrays are not modified."""
    hi, lo = pool
    if not 1 <= c <= len(hi):
        raise ValueError(f"need 1 <= c <= l, got c={c}, l={len(hi)} selected")
    cap = default_iteration_cap(c)

    extra = refine_frame_length(c, 0)  # f - r, fixed for the round
    rows = np.arange(len(hi))  # pool indices of the tags still Selected
    cnt = np.zeros(len(hi), dtype=np.int64)
    promoted: list[np.ndarray] = []  # each iteration's Ready rows, by order
    orders: list[int] = []  # the Ready tags' counters, by order
    done = payload = 0
    for iterations, seed in zip(range(1, cap + 1), refine_seeds(c)):
        needed = c - done
        f = needed + extra
        # hashes are below 2^48, so their uint64 bits read as the same int64
        slots = (substring_values(hi, lo, seed) % f).view(np.int64)
        bits = build_frame(slots, needed=needed, length=f)
        ones = bits.nonzero()[0]
        if len(ones) == needed:
            # The tags stop listening at the needed-th one, so the frame
            # ends there; otherwise all f bits go out.
            bits = bits[: ones[-1] + 1]
        payload += len(bits)

        ready, cnt = tag_apply_frame(cnt, bits, slots)
        # Reader-side cross-check: the marked slot of rank i hands out the
        # order done + i + 1, which each promoted tag's counter must equal.
        hit = ready.nonzero()[0]
        heard = cnt[hit]
        predicted = ones.searchsorted(slots[hit]) + (done + 1)
        if (counters := heard.tolist()) != predicted.tolist():
            bad = (heard != predicted).nonzero()[0][0]
            raise ProtocolError(
                f"counter mismatch on pool row {rows[hit[bad]]}: "
                f"cnt={heard[bad]}, reader predicts {predicted[bad]}"
            )
        promoted.append(rows[hit[heard.argsort(kind="stable")]])
        orders += sorted(counters)
        done += len(counters)
        if done >= c:  # past c only if a frame marked a collision slot
            break
        keep = ~ready
        rows, hi, lo, cnt = rows[keep], hi[keep], lo[keep], cnt[keep]
    else:
        raise ProtocolError(
            f"refinement did not converge within {cap} iterations "
            f"(|ready|={done}, c={c})"
        )

    if orders != list(range(1, c + 1)):
        raise ProtocolError(f"reporting orders are not a permutation of 1..{c}")
    return RoundOutcome(
        iterations=iterations,
        payload_bits=payload,
        positions=promoted[0] if iterations == 1 else np.concatenate(promoted),
        pool=pool,
    )


def run_optc(
    population: Population,
    rng: np.random.Generator,
) -> tuple[list[RoundOutcome], list[CoarseRound]]:
    """Full protocol: K coarse rounds, then K refinement rounds.  Returns
    each category's refinement outcome and its coarse round, in category
    order; each record reports its own stage's bits."""
    categories = population.categories
    coarse = [optc1_round(cat.hi, cat.lo, cat.c, rng) for cat in categories]
    outcomes = [
        optc2_round((cat.hi[first.positions], cat.lo[first.positions]), cat.c)
        for cat, first in zip(categories, coarse)
    ]
    return outcomes, coarse
