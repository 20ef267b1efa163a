"""The two-stage sampling protocol: coarse Bernoulli stage, then the
frame-vector refinement that promotes exactly c tags to Ready with unique
reporting orders.

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
from dataclasses import dataclass, field

import numpy as np

from .errors import ProtocolError
from .hashing import (
    SeedSpec,
    find_suitable_seed,
    ids_to_halves,
    mod_hash_width,
    seed_pool,
    selection_threshold,
    substring_values,
    suitable_from_count,
)
from .population import Population, Tag, TagState, make_tags


@dataclass
class FrameVector:
    """Broadcast bit vector marking the singleton slots chosen this round."""

    bits: np.ndarray  # uint8 array of 0/1

    def __len__(self):
        return len(self.bits)

    def popcount(self) -> int:
        return int(self.bits.sum())

    def prefix_popcount(self, i: int) -> int:
        """Number of ones in bits[0..i] inclusive."""
        return int(self.bits[: i + 1].sum())


@dataclass
class RoundOutcome:
    selected: list[int]                 # IDs that entered the Selected state
    ready: list[tuple[int, int]]        # (ID, reporting order)
    iterations: int = 0
    bits_sent: int = 0
    payload_bits: int = 0
    seed_tests: int = 0
    # Coarse stage only: the Selected tags it hands to the refinement stage,
    # and their positions in the category's ID arrays.
    pool: list[Tag] = field(default_factory=list)
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
    rule.  Only the tags it selects become `Tag` objects, in the Selected
    state; the rest stay Unacknowledged IDs.
    """
    n = len(hi)
    if not 1 <= c <= n:
        raise ValueError(f"need 1 <= c <= n, got c={c}, n={n}")

    seed_spec, stats = find_suitable_seed(hi, lo, c, rng=rng)
    if seed_spec is None:
        raise ProtocolError(f"no suitable seed for n={n}, c={c} after {stats.tests} tests")

    hashes = substring_values(hi, lo, seed_spec) % np.uint64(n)
    positions = np.flatnonzero(hashes <= selection_threshold(c))
    if not suitable_from_count(len(positions), c):
        raise ProtocolError(f"seed selected {len(positions)} tags, outside bounds")
    pool = make_tags(hi[positions], lo[positions], TagState.SELECTED)

    return RoundOutcome(
        selected=[t.id for t in pool],
        ready=[],
        iterations=1,
        bits_sent=optc1_header_bits(n, c),
        payload_bits=0,
        seed_tests=stats.tests,
        pool=pool,
        positions=positions,
    )


def build_frame(slot_occupancy, needed: int, length: int | None = None) -> FrameVector:
    """Left-to-right scan: set a slot's bit iff it holds exactly one tag and
    fewer than `needed` ones have been placed so far.  The frame has
    `length` slots (default: one per tag)."""
    if needed < 1:
        raise ValueError("needed must be >= 1")
    slots = np.asarray(slot_occupancy, dtype=np.int64)
    m = len(slots) if length is None else length
    if len(slots) and (slots.min() < 0 or slots.max() >= m):
        raise ValueError(f"slots must lie in [0, {m})")
    counts = np.bincount(slots, minlength=m)
    bits = np.zeros(m, dtype=np.uint8)
    bits[np.flatnonzero(counts == 1)[:needed]] = 1
    return FrameVector(bits=bits)


def tag_apply_frame(tag: Tag, frame: FrameVector, slot: int) -> Tag:
    """Tag-side frame handling: promote to Ready with order cnt+prefix-ones,
    or accumulate the frame's popcount and stay Selected.  A slot past the
    end of a truncated frame reads as 0."""
    if tag.state is not TagState.SELECTED:
        raise ProtocolError(f"tag {tag.id:#x} is not in the selected state")
    if slot < len(frame) and frame.bits[slot]:
        tag.cnt += frame.prefix_popcount(slot)
        tag.state = TagState.READY
    else:
        tag.cnt += frame.popcount()
    return tag


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
    selected: list[Tag],
    c: int,
    *,
    iteration_cap: int | None = None,
) -> RoundOutcome:
    """Refinement stage: iterate seed -> hash -> frame -> promote until
    exactly c tags are Ready, then demote the remainder to Unselected.
    Seeds and frame lengths are derived on both sides, so only frame bits
    and the final stop bit are broadcast, and no randomness is drawn."""
    if len(selected) < c:
        raise ValueError(f"selected set of {len(selected)} cannot yield c={c}")
    for t in selected:
        if t.state is not TagState.SELECTED:
            raise ProtocolError(f"tag {t.id:#x} is not in the selected state")
    cap = iteration_cap if iteration_cap is not None else default_iteration_cap(c)

    pool = list(selected)
    hi, lo = ids_to_halves([t.id for t in pool])
    ready: list[tuple[int, int]] = []
    payload = 0
    iterations = 0
    while len(ready) < c:
        if iterations >= cap:
            raise ProtocolError(
                f"refinement did not converge within {cap} iterations "
                f"(|ready|={len(ready)}, c={c})"
            )
        iterations += 1
        needed = c - len(ready)
        f = refine_frame_length(c, needed)
        seed = refine_seed(c, iterations)
        slots = (substring_values(hi, lo, seed) % np.uint64(f)).astype(np.int64)
        frame = build_frame(slots, needed=needed, length=f)
        ones = np.flatnonzero(frame.bits)
        if len(ones) == needed:
            # The tags stop listening at the needed-th one, so the frame
            # ends there; otherwise all f bits go out.
            frame = FrameVector(bits=frame.bits[: ones[-1] + 1])
        payload += len(frame)

        # Reader-side prediction of the order each marked slot hands out,
        # used to cross-check the tag-side counters below.
        predicted = {int(s): len(ready) + rank + 1 for rank, s in enumerate(ones)}

        keep = np.ones(len(pool), dtype=bool)
        for i, (tag, slot) in enumerate(zip(pool, slots.tolist())):
            tag_apply_frame(tag, frame, slot)
            if tag.state is TagState.READY:
                if tag.cnt != predicted.get(slot):
                    raise ProtocolError(
                        f"counter mismatch on tag {tag.id:#x}: "
                        f"cnt={tag.cnt}, reader predicts {predicted.get(slot)}"
                    )
                ready.append((tag.id, tag.cnt))
                keep[i] = False
        pool = [t for t, k in zip(pool, keep) if k]
        hi, lo = hi[keep], lo[keep]

    for tag in pool:
        tag.state = TagState.UNSELECTED
    bits_sent = payload + 1  # stop broadcast

    orders = sorted(o for _, o in ready)
    if orders != list(range(1, c + 1)):
        raise ProtocolError(f"reporting orders are not a permutation of 1..{c}")
    return RoundOutcome(
        selected=[t.id for t in selected],
        ready=sorted(ready, key=lambda x: x[1]),
        iterations=iterations,
        bits_sent=bits_sent,
        payload_bits=payload,
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
        out = optc2_round(first.pool, spec.c)
        out.seed_tests = first.seed_tests
        out.bits_sent += first.bits_sent
        outcomes.append(out)
        ledger.bits_reader_to_tag += out.bits_sent - first.bits_sent
        ledger.payload_bits += out.payload_bits
        ledger.frames += out.iterations
    return outcomes, ledger
