"""Per-tag reference automaton for the refinement stage.

One `Tag` object per Selected tag, a scalar left-to-right frame scan, and
the scalar tag-side rule, with seeds and frame lengths from the schedule in
`rfid_sampler.protocol` and hashes from the scalar `hash_mod`.  The array
`optc2_round` must match it frame by frame.
"""

from __future__ import annotations

from rfid_sampler.errors import ProtocolError
from rfid_sampler.hashing import hash_mod
from rfid_sampler.population import Tag, TagState
from rfid_sampler.protocol import default_iteration_cap, refine_frame_length, refine_seed


def build_frame(slots: list[int], needed: int, length: int) -> list[int]:
    """Scan slots left to right; mark a slot holding exactly one tag while
    fewer than `needed` ones have been placed."""
    occupancy = [0] * length
    for s in slots:
        occupancy[s] += 1
    bits, placed = [], 0
    for held in occupancy:
        one = held == 1 and placed < needed
        bits.append(int(one))
        placed += one
    return bits


def tag_apply_frame(tag: Tag, bits: list[int], slot: int) -> Tag:
    """Promote to Ready with order cnt + ones through the slot, or add the
    frame's ones and stay Selected; a slot past the frame's end reads 0."""
    if tag.state is not TagState.SELECTED:
        raise ProtocolError(f"tag {tag.id:#x} is not in the selected state")
    if slot < len(bits) and bits[slot]:
        tag.cnt += sum(bits[: slot + 1])
        tag.state = TagState.READY
    else:
        tag.cnt += sum(bits)
    return tag


def refine(ids: list[int], c: int) -> dict:
    """Run the refinement stage tag by tag.  Returns the frames as sent,
    the (ID, order) pairs each frame promoted, and the final outcome."""
    pool = [Tag(id=i, state=TagState.SELECTED) for i in ids]
    frames, promoted, ready = [], [], []
    while len(ready) < c:
        if len(frames) >= default_iteration_cap(c):
            raise ProtocolError(f"refinement did not converge for c={c}")
        iteration = len(frames) + 1
        needed = c - len(ready)
        f = refine_frame_length(c, needed)
        seed = refine_seed(c, iteration)
        slots = [hash_mod(t.id, seed, f) for t in pool]
        bits = build_frame(slots, needed, f)
        if sum(bits) == needed:
            last = max(i for i, b in enumerate(bits) if b)
            bits = bits[: last + 1]
        frames.append(bits)
        now = []
        for tag, slot in zip(pool, slots):
            tag_apply_frame(tag, bits, slot)
            if tag.state is TagState.READY:
                now.append((tag.id, tag.cnt))
        now.sort(key=lambda x: x[1])
        promoted.append(now)
        ready.extend(now)
        pool = [t for t in pool if t.state is TagState.SELECTED]
    for tag in pool:
        tag.state = TagState.UNSELECTED
    return {
        "frames": frames,
        "promoted": promoted,
        "ready": ready,
        "iterations": len(frames),
        "payload_bits": sum(len(b) for b in frames),
    }
