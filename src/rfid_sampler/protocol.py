"""The two-stage sampling protocol: coarse Bernoulli stage, then the
frame-vector refinement that promotes exactly c tags to Ready with unique
reporting orders.

Both stages run on arrays.  The coarse stage reports the positions of the
tags it selects; the refinement stage keeps one counter per row of their ID
halves, and each frame (`build_frame`, reader side; `tag_apply_frame`, tag
side) moves the rows in marked singleton slots out of the pool as Ready.

Cost accounting keeps two views per round:

* ``bits_sent``    -- the explicit ledger: the frame bits plus a 1-bit stop
  broadcast.  The refinement stage broadcasts no header: each iteration's
  seed comes from a schedule both sides compute from the iteration index,
  and the frame length f = r + ceil(3*sqrt(c)) from the r orders still
  unassigned, which the tags track by counting ones.  A frame ends at its
  r-th one (the tags count them, so it delimits itself), else after f bits.
* ``payload_bits`` -- the frame bits alone, the accounting under which the
  refinement stage's expected cost is e*c.

With the coarse header, a category of n = 100 measures 2.50x the
log2(e)*c lower bound at c = 10 and 2.03x at c = 50 (frame bits alone:
1.88x at both); the coarse header is 0.555x at c = 10, which keeps any
implementation of the design above 2.1x there (closed form 2.381x).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ProtocolError
from .hashing import (
    SeedSpec,
    find_suitable_seed,
    mod_hash_width,
    seed_pool,
    selection_threshold,
    substring_values,
    suitable_from_count,
)
from .population import Population, halves_to_ids


@dataclass
class RoundOutcome:
    ready: list[tuple[int, int]]        # (ID, reporting order), by order
    iterations: int = 0
    bits_sent: int = 0
    payload_bits: int = 0
    seed_tests: int = 0
    # Coarse stage: positions of the Selected tags in the category's ID
    # arrays.  Refinement stage: pool rows of the Ready tags, by order.
    positions: np.ndarray | None = None


@dataclass
class CostLedger:
    bits_reader_to_tag: int = 0
    frames: int = 0
    payload_bits: int = 0

    def seconds(self, timing) -> float:
        return timing.transmission_time(self.bits_reader_to_tag)


def optc1_header_bits(n: int, c: int) -> int:
    """Cost of broadcasting the seed description and c for one category."""
    log_n = max(1.0, math.log2(n))
    return math.ceil(math.log2(96.0 / log_n)) + math.ceil(math.log2(c))


def optc1_round(
    hi: np.ndarray,
    lo: np.ndarray,
    c: int,
    rng: np.random.Generator,
) -> RoundOutcome:
    """Coarse stage for one category, given its tags' ID halves (hi, lo):
    broadcast a suitable seed, tags flip a Bernoulli coin via the threshold
    rule.  The outcome's `positions` index the tags it selects."""
    n = len(hi)
    if not 1 <= c <= n:
        raise ValueError(f"need 1 <= c <= n, got c={c}, n={n}")

    hashes, stats = find_suitable_seed(hi, lo, c, rng=rng)
    if hashes is None:
        raise ProtocolError(f"no suitable seed for n={n}, c={c} after {stats.tests} tests")

    positions = np.flatnonzero(hashes <= selection_threshold(c))
    if not suitable_from_count(len(positions), c):
        raise ProtocolError(f"seed selected {len(positions)} tags, outside bounds")

    return RoundOutcome(
        ready=[],
        iterations=1,
        bits_sent=optc1_header_bits(n, c),
        seed_tests=stats.tests,
        positions=positions,
    )


def build_frame(slot_occupancy, needed: int, length: int | None = None) -> np.ndarray:
    """Reader side: the frame's bits, scanned left to right, with a slot's
    bit set iff it holds exactly one tag and fewer than `needed` ones have
    been placed so far.  The frame has `length` slots (default: one per tag)."""
    if needed < 1:
        raise ValueError("needed must be >= 1")
    slots = np.asarray(slot_occupancy, dtype=np.int64)
    m = len(slots) if length is None else length
    if len(slots) and (slots.min() < 0 or slots.max() >= m):
        raise ValueError(f"slots must lie in [0, {m})")
    counts = np.bincount(slots, minlength=m)
    bits = np.zeros(m, dtype=np.uint8)
    bits[np.flatnonzero(counts == 1)[:needed]] = 1
    return bits


def tag_apply_frame(
    cnt: np.ndarray, bits: np.ndarray, slots: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Tag side, over a pool of Selected tags with counters `cnt` hashed to
    `slots`: a tag whose slot holds a one becomes Ready, its counter raised
    by the ones up to and including its slot; every other tag adds the
    frame's ones and stays Selected.  A slot past the end of a truncated
    frame reads as 0.  Returns (ready mask, new counters)."""
    ones_through = np.cumsum(bits, dtype=np.int64)
    ready = np.zeros(len(slots), dtype=bool)
    inside = slots < len(bits)
    ready[inside] = bits[slots[inside]] == 1
    heard = np.full(len(slots), ones_through[-1])
    heard[ready] = ones_through[slots[ready]]
    return ready, cnt + heard


def refine_frame_length(c: int, needed: int) -> int:
    """Refinement frame length f = r + ceil(3*sqrt(c)), from the r = `needed`
    orders still unassigned; tags know r by counting the ones they heard."""
    return needed + math.ceil(3.0 * math.sqrt(c))


def refine_seed(c: int, iteration: int) -> SeedSpec:
    """Seed of refinement iteration `iteration` (1-based), which reader and
    tags both derive from the iteration index.  One substring width serves
    the whole stage (sized for its longest, first frame); starts advance by
    that width around the ID's start positions, so consecutive
    iterations hash disjoint or barely overlapping substrings and, as a
    width of at most 48 bits leaves more starts than that, never share one."""
    L = mod_hash_width(refine_frame_length(c, c))
    starts = seed_pool(L)
    return SeedSpec(start=starts[(iteration - 1) * L % len(starts)], length=L)


def default_iteration_cap(c: int) -> int:
    return 64 * (1 + math.ceil(math.log2(c))) if c > 1 else 64


def optc2_round(
    pool: tuple[np.ndarray, np.ndarray],
    c: int,
    *,
    iteration_cap: int | None = None,
) -> RoundOutcome:
    """Refinement stage over the Selected tags' ID halves `pool` = (hi, lo):
    iterate seed -> hash -> frame -> promote until exactly c tags are Ready;
    the rest end Unselected.  Seeds and frame lengths are derived on both
    sides, so only frame bits and the final stop bit are broadcast, and no
    randomness is drawn.  The input arrays are not modified."""
    hi, lo = pool
    if len(hi) < c:
        raise ValueError(f"selected set of {len(hi)} cannot yield c={c}")
    cap = iteration_cap if iteration_cap is not None else default_iteration_cap(c)

    rows = np.arange(len(hi))  # pool indices of the tags still Selected
    cnt = np.zeros(len(hi), dtype=np.int64)
    promoted: list[np.ndarray] = []  # each iteration's Ready rows, by order
    orders: list[np.ndarray] = []
    done = 0
    payload = 0
    iterations = 0
    while done < c:
        if iterations >= cap:
            raise ProtocolError(
                f"refinement did not converge within {cap} iterations "
                f"(|ready|={done}, c={c})"
            )
        iterations += 1
        needed = c - done
        f = refine_frame_length(c, needed)
        seed = refine_seed(c, iterations)
        slots = (substring_values(hi, lo, seed) % np.uint64(f)).astype(np.int64)
        bits = build_frame(slots, needed=needed, length=f)
        ones = np.flatnonzero(bits)
        if len(ones) == needed:
            # The tags stop listening at the needed-th one, so the frame
            # ends there; otherwise all f bits go out.
            bits = bits[: ones[-1] + 1]
        payload += len(bits)

        ready, cnt = tag_apply_frame(cnt, bits, slots)
        # Reader-side cross-check: the marked slot of rank i hands out the
        # order done + i + 1, which each promoted tag's counter must equal.
        heard = cnt[ready]
        predicted = done + np.searchsorted(ones, slots[ready]) + 1
        if not np.array_equal(heard, predicted):
            bad = np.flatnonzero(heard != predicted)[0]
            raise ProtocolError(
                f"counter mismatch on pool row {rows[ready][bad]}: "
                f"cnt={heard[bad]}, reader predicts {predicted[bad]}"
            )
        by_order = np.argsort(heard)
        promoted.append(rows[ready][by_order])
        orders.append(heard[by_order])
        done += len(heard)
        keep = ~ready
        rows, hi, lo, cnt = rows[keep], hi[keep], lo[keep], cnt[keep]

    order = np.concatenate(orders)
    if not np.array_equal(order, np.arange(1, c + 1)):
        raise ProtocolError(f"reporting orders are not a permutation of 1..{c}")
    positions = np.concatenate(promoted)
    hi, lo = pool
    ids = halves_to_ids(hi[positions], lo[positions])
    return RoundOutcome(
        ready=list(zip(ids, order.tolist())),
        iterations=iterations,
        bits_sent=payload + 1,  # stop broadcast
        payload_bits=payload,
        positions=positions,
    )


def run_optc(
    population: Population,
    timing,
    rng: np.random.Generator,
) -> tuple[list[RoundOutcome], CostLedger]:
    """Full protocol: K coarse rounds, then K refinement rounds."""
    ledger = CostLedger()
    coarse: list[RoundOutcome] = []
    for spec in population.categories:
        hi, lo = population.halves(spec.k)
        out = optc1_round(hi, lo, spec.c, rng)
        coarse.append(out)
        ledger.bits_reader_to_tag += out.bits_sent

    outcomes = []
    for spec, first in zip(population.categories, coarse):
        hi, lo = population.halves(spec.k)
        out = optc2_round((hi[first.positions], lo[first.positions]), spec.c)
        out.seed_tests = first.seed_tests
        out.bits_sent += first.bits_sent
        outcomes.append(out)
        ledger.bits_reader_to_tag += out.bits_sent - first.bits_sent
        ledger.payload_bits += out.payload_bits
        ledger.frames += out.iterations
    return outcomes, ledger
