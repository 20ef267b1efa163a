"""The array refinement stage against the per-tag reference automaton.

Every round draws a category of n = 2..1000 tags and c = 1..min(n, 100),
runs the coarse stage, and refines its pool both ways.  Frame by frame the
bits sent and the orders promoted must agree, and so must the final
(ID, order) pairs, the iteration count and the frame bits.
"""

import numpy as np
import pytest

import tag_oracle
from rfid_sampler import protocol
from rfid_sampler.population import halves_to_ids, random_ids
from rfid_sampler.protocol import optc1_round, optc2_round

ROUNDS = 3000


@pytest.fixture
def frames_seen(monkeypatch):
    """Record each frame the array stage applies: the bits sent and the
    orders it promotes."""
    seen = []
    apply = protocol.tag_apply_frame

    def record(cnt, bits, slots):
        ready, cnt = apply(cnt, bits, slots)
        seen.append((bits.tolist(), sorted(cnt[ready].tolist())))
        return ready, cnt

    monkeypatch.setattr(protocol, "tag_apply_frame", record)
    return seen


def test_array_refinement_matches_per_tag_oracle(frames_seen):
    rng = np.random.default_rng(np.random.SeedSequence(606))
    sizes = [(n, n) for n in (2, 3, 7)] + [(1000, 100), (1000, 1), (2, 1)]
    while len(sizes) < ROUNDS:
        n = int(rng.integers(2, 1001))
        sizes.append((n, int(rng.integers(1, min(n, 100) + 1))))
    multi_frame = 0
    for n, c in sizes:
        hi, lo = random_ids(n, rng)
        pos = optc1_round(hi, lo, c, rng).positions
        pool = (hi[pos], lo[pos])
        frames_seen.clear()
        out = optc2_round(pool, c)
        ref = tag_oracle.refine(halves_to_ids(*pool), c)

        where = f"n={n}, c={c}"
        assert out.ready == ref["ready"], where
        assert out.iterations == ref["iterations"], where
        assert out.payload_bits == ref["payload_bits"], where
        assert [bits for bits, _ in frames_seen] == ref["frames"], where
        assert [orders for _, orders in frames_seen] == [
            [o for _, o in now] for now in ref["promoted"]
        ], where
        multi_frame += out.iterations > 1
    # the grid exercises the later-iteration seeds, not only first frames
    assert multi_frame > ROUNDS // 4
