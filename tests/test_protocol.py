import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rfid_sampler import (
    FrameVector,
    ProtocolError,
    Tag,
    TagState,
    build_frame,
    generate_population,
    optc1_round,
    optc2_round,
    run_optc,
)
from rfid_sampler import protocol
from rfid_sampler.analysis import TimingModel
from rfid_sampler.hashing import ids_to_halves
from rfid_sampler.protocol import (
    optc1_header_bits,
    refine_frame_length,
    refine_seed,
    tag_apply_frame,
)
from rfid_sampler.verify import sample_once


def _tags(n, state=TagState.UNACKNOWLEDGED):
    rng = np.random.default_rng(1234)
    return [
        Tag(id=int(rng.integers(0, 1 << 62)) << 30 | i, state=state)
        for i in range(n)
    ]


def _halves(tags):
    return ids_to_halves([t.id for t in tags])


class TestFrame:
    def test_marks_singletons_left_to_right(self):
        # occupancy: slot0 single, slot1 doubled, slot3 single, slot4 doubled
        frame = build_frame([0, 1, 1, 3, 4, 4], needed=5)
        assert frame.bits.tolist() == [1, 0, 0, 1, 0, 0]

    def test_respects_needed_cap(self):
        frame = build_frame([0, 2, 4, 4, 1], needed=2)
        assert frame.bits.tolist() == [1, 1, 0, 0, 0]

    def test_rejects_out_of_range_slot(self):
        with pytest.raises(ValueError):
            build_frame([0, 3], needed=1)

    def test_no_singletons(self):
        frame = build_frame([0, 0, 1, 1], needed=3)
        assert frame.popcount() == 0

    def test_promotion_orders_follow_prefix_ones(self):
        frame = build_frame([0, 1, 1, 3, 4, 4], needed=5)
        tags = _tags(6, state=TagState.SELECTED)
        slots = [0, 1, 1, 3, 4, 4]
        for tag, slot in zip(tags, slots):
            tag_apply_frame(tag, frame, slot)
        assert tags[0].state is TagState.READY and tags[0].cnt == 1
        assert tags[3].state is TagState.READY and tags[3].cnt == 2
        for i in (1, 2, 4, 5):
            assert tags[i].state is TagState.SELECTED
            assert tags[i].cnt == 2  # skipped tags advance by the frame popcount

    def test_explicit_length(self):
        frame = build_frame([0, 3, 3], needed=2, length=6)
        assert frame.bits.tolist() == [1, 0, 0, 0, 0, 0]
        with pytest.raises(ValueError):
            build_frame([0, 6], needed=1, length=6)

    def test_slot_past_truncated_frame_reads_zero(self):
        frame = FrameVector(bits=np.array([0, 1], dtype=np.uint8))
        tag = _tags(1, state=TagState.SELECTED)[0]
        tag_apply_frame(tag, frame, 5)
        assert tag.state is TagState.SELECTED
        assert tag.cnt == 1  # advanced by the popcount of the bits sent

    def test_promotion_requires_selected_state(self):
        frame = build_frame([0], needed=1)
        with pytest.raises(ProtocolError):
            tag_apply_frame(_tags(1)[0], frame, 0)


class TestCoarseStage:
    def test_selected_count_in_bounds(self):
        rng = np.random.default_rng(5)
        tags = _tags(300)
        out = optc1_round(*_halves(tags), 20, rng)
        assert len(out.selected) == len(out.pool)
        assert 20 <= len(out.pool) <= 20 + 6 * math.sqrt(20)
        # the Selected tags are exactly the tags at the reported positions
        assert all(t.state is TagState.SELECTED for t in out.pool)
        assert out.selected == [tags[i].id for i in out.positions]
        assert [t.id for t in out.pool] == out.selected

    def test_header_bits(self):
        # ceil(log2(96/log2 n)) + ceil(log2 c)
        assert optc1_header_bits(1024, 16) == math.ceil(math.log2(96 / 10)) + 4
        assert optc1_header_bits(2, 1) == math.ceil(math.log2(96))

    def test_rejects_bad_c(self):
        with pytest.raises(ValueError):
            optc1_round(*_halves(_tags(5)), 6, np.random.default_rng(0))

    def test_rejects_non_unacknowledged(self):
        """The coarse stage reads IDs, not tags, so no tag carrying protocol
        state can enter it: the tags it hands over are created afresh,
        Selected with cnt 0."""
        out = optc1_round(*_halves(_tags(10)), 2, np.random.default_rng(0))
        assert all(t.state is TagState.SELECTED and t.cnt == 0 for t in out.pool)


class TestRefineStage:
    def test_exactly_c_ready_with_orders(self):
        tags = _tags(30, state=TagState.SELECTED)
        out = optc2_round(tags, 12)
        ready = [t for t in tags if t.state is TagState.READY]
        assert len(ready) == 12
        assert sorted(t.cnt for t in ready) == list(range(1, 13))
        assert sorted(o for _, o in out.ready) == list(range(1, 13))
        assert all(
            t.state is TagState.UNSELECTED for t in tags if t not in ready
        )

    def test_rejects_tags_no_longer_selected(self):
        # once refinement has moved the pool out of Selected, no round admits it
        out = optc1_round(*_halves(_tags(10)), 2, np.random.default_rng(0))
        optc2_round(out.pool, 2)
        with pytest.raises(ProtocolError):
            optc2_round(out.pool, 2)

    def test_cost_fields(self):
        tags = _tags(20, state=TagState.SELECTED)
        out = optc2_round(tags, 8)
        # no refinement header: the frames plus the one-bit stop broadcast
        assert out.bits_sent == out.payload_bits + 1
        assert out.payload_bits >= 8  # one set bit per promoted tag
        assert out.iterations >= 1

    def test_frame_ends_at_last_needed_one(self):
        # c = 2: f = 2 + ceil(3*sqrt 2) = 7 slots; the first seed reads the
        # top 19 ID bits, so these tags land in slots 0, 2 and 5.
        seed = refine_seed(2, 1)
        shift = 96 - (seed.start + seed.length - 1)
        tags = [Tag(id=(v << shift) | 1, state=TagState.SELECTED)
                for v in (7 * 11, 7 * 5 + 2, 7 * 3 + 5)]
        out = optc2_round(tags, 2)
        assert out.iterations == 1
        assert out.payload_bits == 3  # bits 1, 0, 1; slots 3..6 never sent
        assert [t.state for t in tags] == [TagState.READY, TagState.READY, TagState.UNSELECTED]

    def test_seed_schedule(self):
        for c in (1, 10, 50, 1000):
            seeds = [refine_seed(c, i) for i in range(1, 200)]
            assert len({s.length for s in seeds}) == 1
            assert all(a.start != b.start for a, b in zip(seeds, seeds[1:]))
        assert refine_frame_length(50, 7) == 7 + 22

    def test_rejects_undersized_pool(self):
        with pytest.raises(ValueError):
            optc2_round(_tags(3, state=TagState.SELECTED), 4)

    def test_counter_mismatch_raises(self, monkeypatch):
        def off_by_one(tag, frame, slot):
            tag_apply_frame(tag, frame, slot)
            tag.cnt += 1
            return tag

        monkeypatch.setattr(protocol, "tag_apply_frame", off_by_one)
        tags = _tags(16, state=TagState.SELECTED)
        with pytest.raises(ProtocolError, match="counter mismatch"):
            optc2_round(tags, 8)

    def test_iteration_cap_raises(self):
        tags = _tags(16, state=TagState.SELECTED)
        with pytest.raises(ProtocolError):
            optc2_round(tags, 8, iteration_cap=0)


@given(n=st.integers(2, 120), data=st.data())
@settings(max_examples=60, deadline=None)
def test_round_trip_exactness(n, data):
    c = data.draw(st.integers(1, n))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    sampled = sample_once(n, c, rng)
    assert len(sampled) == c
    assert sorted(o for _, o in sampled) == list(range(1, c + 1))
    assert len({i for i, _ in sampled}) == c


def test_run_optc_full_population():
    pop = generate_population([(60, 5), (40, 8), (25, 3)], rng_seed=21)
    outcomes, ledger = run_optc(pop, TimingModel(), np.random.default_rng(3))
    assert len(outcomes) == 3
    for spec, out in zip(pop.categories, outcomes):
        assert sorted(o for _, o in out.ready) == list(range(1, spec.c + 1))
    assert ledger.bits_reader_to_tag == sum(o.bits_sent for o in outcomes)
    assert ledger.seconds(TimingModel()) > 0
