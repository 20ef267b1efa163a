import math
import sys
from itertools import islice

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tag_oracle
from rfid_sampler import (
    ProtocolError,
    build_frame,
    generate_population,
    optc1_round,
    optc2_round,
    run_optc,
)
from rfid_sampler import protocol, verify
from rfid_sampler.hashing import find_suitable_seed, selection_threshold
from rfid_sampler.population import halves_to_ids, random_ids
from rfid_sampler.protocol import (
    optc1_header_bits,
    refine_frame_length,
    refine_seeds,
    tag_apply_frame,
)
from rfid_sampler.verify import sample_once
from tag_oracle import halves, hash_mod


def _ids(n):
    rng = np.random.default_rng(1234)
    return [int(rng.integers(0, 1 << 62)) << 30 | i for i in range(n)]


def _apply(bits, slots, cnt=None):
    slots = np.asarray(slots, dtype=np.int64)
    cnt = np.zeros(len(slots), dtype=np.int64) if cnt is None else np.asarray(cnt)
    ready, cnt = tag_apply_frame(cnt, np.asarray(bits, dtype=np.uint8), slots)
    return ready.tolist(), cnt.tolist()


class TestFrame:
    def test_marks_singletons_left_to_right(self):
        # occupancy: slot0 single, slot1 doubled, slot3 single, slot4 doubled
        bits = build_frame([0, 1, 1, 3, 4, 4], needed=5, length=6)
        assert bits.tolist() == [1, 0, 0, 1, 0, 0]

    def test_respects_needed_cap(self):
        bits = build_frame([0, 2, 4, 4, 1], needed=2, length=5)
        assert bits.tolist() == [1, 1, 0, 0, 0]

    def test_rejects_out_of_range_slot(self):
        with pytest.raises(ValueError):
            build_frame([0, 3], needed=1, length=2)

    def test_rejects_negative_slot(self):
        with pytest.raises(ValueError):
            build_frame([-1, 0], needed=1, length=2)

    def test_no_singletons(self):
        bits = build_frame([0, 0, 1, 1], needed=3, length=4)
        assert bits.sum() == 0

    def test_promotion_orders_follow_prefix_ones(self):
        slots = [0, 1, 1, 3, 4, 4]
        bits = build_frame(slots, needed=5, length=6)
        ready, cnt = _apply(bits, slots)
        assert ready == [True, False, False, True, False, False]
        # promoted tags take the ones through their slot; skipped tags
        # advance by the frame popcount
        assert cnt == [1, 2, 2, 2, 2, 2]
        ready, cnt = _apply(bits, slots, cnt=[4, 1, 0, 4, 3, 7])
        assert ready == [True, False, False, True, False, False]
        assert cnt == [5, 3, 2, 6, 5, 9]

    def test_explicit_length(self):
        bits = build_frame([0, 3, 3], needed=2, length=6)
        assert bits.tolist() == [1, 0, 0, 0, 0, 0]
        with pytest.raises(ValueError):
            build_frame([0, 6], needed=1, length=6)

    def test_slot_past_truncated_frame_reads_zero(self):
        ready, cnt = _apply([0, 1], [5, 1])
        assert ready == [False, True]
        assert cnt == [1, 1]  # advanced by the popcount of the bits sent

    def test_promotion_requires_selected_state(self, monkeypatch):
        """Only tags still Selected hear a frame: in the array stage a Ready
        row leaves the pool before the next frame, so no tag is promoted
        twice.  The per-tag oracle refuses a tag that is not Selected."""
        with pytest.raises(ProtocolError):
            tag_oracle.tag_apply_frame(tag_oracle.Tag(id=1), [1], 0)

        calls = []

        def record(cnt, bits, slots):
            ready, cnt = tag_apply_frame(cnt, bits, slots)
            calls.append((len(slots), int(ready.sum())))
            return ready, cnt

        monkeypatch.setattr(protocol, "tag_apply_frame", record)
        out = optc2_round(halves(_ids(60)), 40)
        assert len(calls) == out.iterations > 1
        assert calls[0][0] == 60
        for (size, promoted), (next_size, _) in zip(calls, calls[1:]):
            assert next_size == size - promoted
        assert sum(p for _, p in calls) == 40


class TestCoarseStage:
    def test_selected_count_in_bounds(self):
        ids = _ids(300)
        out = optc1_round(*halves(ids), 20, np.random.default_rng(5))
        assert 20 <= len(out.positions) <= 20 + 6 * math.sqrt(20)
        # the Selected tags are exactly the tags whose hash under the
        # accepted seed clears the threshold
        _, stats = find_suitable_seed(*halves(ids), 20, rng=np.random.default_rng(5))
        expected = [i for i, tag_id in enumerate(ids)
                    if hash_mod(tag_id, stats.seed, len(ids)) <= selection_threshold(20)]
        assert out.positions.tolist() == expected

    def test_header_bits(self):
        # ceil(log2(96/log2 n)) + ceil(log2 c)
        assert optc1_header_bits(1024, 16) == math.ceil(math.log2(96 / 10)) + 4
        assert optc1_header_bits(2, 1) == math.ceil(math.log2(96))

    def test_rejects_bad_c(self):
        with pytest.raises(ValueError):
            optc1_round(*halves(_ids(5)), 6, np.random.default_rng(0))

    def test_seed_exhaustion_raises(self):
        # every window of an all-zero ID hashes to 0, so each selects all
        # 100 tags, above the c + 6*sqrt(c) = 7 a suitable seed allows
        zeros = np.zeros(100, dtype=np.uint64)
        with pytest.raises(ProtocolError, match=r"no suitable seed for n=100, c=1 after \d+ tests"):
            optc1_round(zeros, zeros, 1, np.random.default_rng(0))

    def test_rejects_non_unacknowledged(self):
        """The coarse stage reads IDs, not tags, so no tag carrying protocol
        state can enter it: it promotes nobody, hands over positions into
        the ID arrays, and leaves those arrays as they were."""
        hi, lo = halves(_ids(10))
        before = hi.copy(), lo.copy()
        out = optc1_round(hi, lo, 2, np.random.default_rng(0))
        assert not hasattr(out, "ready")
        assert out.bits_sent == optc1_header_bits(10, 2)
        assert out.positions.dtype.kind == "i"
        assert np.all(np.diff(out.positions) > 0)
        assert 0 <= out.positions[0] and out.positions[-1] < 10
        assert np.array_equal(hi, before[0]) and np.array_equal(lo, before[1])


class TestRefineStage:
    def test_exactly_c_ready_with_orders(self):
        ids = _ids(30)
        hi, lo = halves(ids)
        out = optc2_round((hi, lo), 12)
        assert len(out.ready) == 12
        assert [o for _, o in out.ready] == list(range(1, 13))
        assert len({i for i, _ in out.ready}) == 12
        # positions are the Ready tags' pool rows, in reporting order
        assert [ids[p] for p in out.positions.tolist()] == [i for i, _ in out.ready]
        assert halves_to_ids(hi[out.positions], lo[out.positions]) == [i for i, _ in out.ready]

    def test_input_unchanged_and_repeatable(self):
        hi, lo = halves(_ids(40))
        before = hi.copy(), lo.copy()
        first = optc2_round((hi, lo), 15)
        assert np.array_equal(hi, before[0]) and np.array_equal(lo, before[1])
        second = optc2_round((hi, lo), 15)
        assert first.ready == second.ready
        assert np.array_equal(first.positions, second.positions)
        assert (first.iterations, first.payload_bits, first.bits_sent) == (
            second.iterations, second.payload_bits, second.bits_sent)

    def test_cost_fields(self):
        out = optc2_round(halves(_ids(20)), 8)
        # no refinement header: the frames plus the one-bit stop broadcast
        assert out.bits_sent == out.payload_bits + 1
        assert out.payload_bits >= 8  # one set bit per promoted tag
        assert out.iterations >= 1

    @pytest.mark.parametrize("n, c", [(60, 40), (100, 10), (1000, 100)])
    def test_marked_collision_slot_fails_order_check(self, monkeypatch, n, c):
        # A faulty reader that marks every occupied slot, collisions
        # included, promotes more tags than it marks ones: the round must
        # stop and fail the 1..c order check, not run on with needed < 1.
        def mark_occupied(slot_occupancy, needed, length):
            occupied = np.bincount(slot_occupancy, minlength=length) > 0
            occupied[occupied.nonzero()[0][needed:]] = False
            return occupied.view(np.uint8)

        monkeypatch.setattr(protocol, "build_frame", mark_occupied)
        for s in range(20):
            pool = random_ids(n, np.random.default_rng(s))
            with pytest.raises(ProtocolError, match=r"not a permutation of 1\.\.\d+$"):
                optc2_round(pool, c)

    def test_frame_ends_at_last_needed_one(self):
        # c = 2: f = 2 + ceil(3*sqrt 2) = 7 slots; the first seed reads the
        # top 19 ID bits, so these tags land in slots 0, 2 and 5.
        seed = next(refine_seeds(2))
        shift = 96 - (seed.start + seed.length - 1)
        ids = [(v << shift) | 1 for v in (7 * 11, 7 * 5 + 2, 7 * 3 + 5)]
        out = optc2_round(halves(ids), 2)
        assert out.iterations == 1
        assert out.payload_bits == 3  # bits 1, 0, 1; slots 3..6 never sent
        assert out.ready == [(ids[0], 1), (ids[1], 2)]
        assert out.positions.tolist() == [0, 1]

    def test_seed_schedule(self):
        for c in (1, 10, 50, 1000):
            seeds = list(islice(refine_seeds(c), 199))
            assert len({s.length for s in seeds}) == 1
            assert all(a.start != b.start for a, b in zip(seeds, seeds[1:]))
        assert refine_frame_length(50, 7) == 7 + 22

    def test_rejects_undersized_pool(self):
        with pytest.raises(ValueError):
            optc2_round(halves(_ids(3)), 4)

    @pytest.mark.parametrize("c", [0, -1])
    def test_rejects_non_positive_c(self, c):
        # the same check as the undersized pool, not a failure further in
        with pytest.raises(ValueError, match=r"need 1 <= c <= l"):
            optc2_round(halves(_ids(5)), c)

    def test_counter_mismatch_raises(self, monkeypatch):
        def off_by_one(cnt, bits, slots):
            ready, cnt = tag_apply_frame(cnt, bits, slots)
            return ready, cnt + 1

        monkeypatch.setattr(protocol, "tag_apply_frame", off_by_one)
        with pytest.raises(ProtocolError, match="counter mismatch"):
            optc2_round(halves(_ids(16)), 8)

    def test_iteration_cap_raises(self, monkeypatch):
        monkeypatch.setattr(protocol, "default_iteration_cap", lambda c: 0)
        with pytest.raises(ProtocolError, match="did not converge within 0 iterations"):
            optc2_round(halves(_ids(16)), 8)


@given(n=st.integers(2, 120), data=st.data())
@settings(max_examples=60, deadline=None)
def test_round_trip_exactness(n, data):
    c = data.draw(st.integers(1, n))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    sampled = sample_once(n, c, rng)
    assert len(sampled) == c
    assert sorted(o for _, o in sampled) == list(range(1, c + 1))
    assert len({i for i, _ in sampled}) == c


@pytest.mark.parametrize("corrupt", [
    pytest.param(lambda sampled, n: [(sampled[0][0], o) for _, o in sampled], id="repeat"),
    pytest.param(lambda sampled, n: [(n, 1)] + sampled[1:], id="out-of-range"),
])
def test_exactness_suite_catches_a_bad_sample(monkeypatch, corrupt):
    # the first round's sample (c = 81 at the suite's seed) is corrupted;
    # the other rounds are real
    calls = []

    def corrupted_first(n, c, rng):
        sampled = sample_once(n, c, rng)
        calls.append(c)
        return corrupt(sampled, n) if len(calls) == 1 else sampled

    monkeypatch.setattr(verify, "sample_once", corrupted_first)
    [check] = verify.suite_exactness(rounds=5)
    assert calls[0] > 1
    assert check.line() == "[FAIL] exactness/rounds: 1 violations in 5 rounds (need 0)"


def test_uniformity_suite_runs_without_scipy_and_catches_a_fixed_pair(monkeypatch):
    monkeypatch.setitem(sys.modules, "scipy", None)
    monkeypatch.setitem(sys.modules, "scipy.stats", None)
    assert all(check.passed for check in verify.suite_uniformity(trials=300))

    # every trial returns tags 0 and 1, so chi-square is 14 * trials
    monkeypatch.setattr(verify, "sample_once", lambda n, c, rng: [(0, 1), (1, 2)])
    subsets, per_tag = verify.suite_uniformity(trials=300)
    assert subsets.line() == ("[FAIL] uniformity/subsets: chi-square 4200.00 "
                              "vs critical 36.12 at significance 1e-3")
    assert not per_tag.passed


def test_chi2_critical_is_the_upper_1e3_point():
    # chi-square survival for even df: Q(x; df) = e^(-x/2) sum_{i < df/2} (x/2)^i / i!
    df = math.comb(6, 2) - 1
    assert df % 2 == 0
    half = verify.CHI2_CRITICAL / 2
    survival = math.exp(-half) * sum(half**i / math.factorial(i) for i in range(df // 2))
    assert abs(survival - 1e-3) < 1e-12


def test_run_optc_full_population():
    pop = generate_population([(60, 5), (40, 8), (25, 3)], rng_seed=21)
    outcomes, ledger = run_optc(pop, np.random.default_rng(3))
    assert len(outcomes) == 3
    for spec, out in zip(pop.categories, outcomes):
        assert sorted(o for _, o in out.ready) == list(range(1, spec.c + 1))
    # each outcome reports its own refinement stage's bits; the ledger adds
    # every category's coarse header
    headers = sum(optc1_header_bits(s.n, s.c) for s in pop.categories)
    assert ledger.bits_reader_to_tag == headers + sum(o.bits_sent for o in outcomes)
    assert all(o.bits_sent == o.payload_bits + 1 for o in outcomes)
    assert ledger.payload_bits == sum(o.payload_bits for o in outcomes) > 0
