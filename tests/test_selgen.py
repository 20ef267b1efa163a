import itertools
import math
from collections import Counter

import numpy as np
import pytest
import selgen_oracle
from deployments import command_budget
from hypothesis import given, settings
from hypothesis import strategies as st

from rfid_sampler import selgen
from rfid_sampler.errors import ProtocolError
from rfid_sampler import (
    best_threshold,
    command_count,
    generate_population,
    run_optc_impl,
    selgen_commands,
    selgen_filters,
)
from rfid_sampler.population import HALF_BITS, halves_to_ids, random_ids
from rfid_sampler.selgen import (
    SELECT_FIXED_BITS,
    commands_bit_cost,
    run_impl_category,
)
from rfid_sampler.verify import CHI2_CRITICAL, _filter_interval


class TestFilterGeneration:
    def test_worked_example(self):
        assert selgen_filters(5, 3) == ["0**", "10*"]

    def test_zero_threshold_is_exact_match(self):
        assert selgen_filters(0, 4) == ["0000"]

    def test_all_ones_threshold(self):
        assert selgen_filters(7, 3) == ["0**", "1**"]

    @pytest.mark.parametrize("tau,width,expected", [
        (4, 3, ["0**", "100"]),
        (6, 3, ["0**", "10*", "110"]),
        (10, 4, ["0***", "100*", "1010"]),
        (11, 4, ["0***", "10**"]),
        (19, 5, ["0****", "100**"]),
        (31, 5, ["0****", "1****"]),
    ])
    def test_small_cases(self, tau, width, expected):
        assert selgen_filters(tau, width) == expected

    @given(width=st.integers(1, 14), data=st.data())
    @settings(max_examples=300, deadline=None)
    def test_cover_exact_and_disjoint(self, width, data):
        tau = data.draw(st.integers(0, (1 << width) - 1))
        filters = selgen_filters(tau, width)
        assert all(len(f) == width for f in filters)
        # each filter matches one interval; laid end to end they tile [0, tau]
        intervals = sorted(_filter_interval(f) for f in filters)
        assert intervals[0][0] == 0 and intervals[-1][1] == tau
        assert all(b + 1 == a for (_, b), (a, _) in zip(intervals, intervals[1:]))

    @given(width=st.integers(1, 16), data=st.data())
    @settings(max_examples=300, deadline=None)
    def test_count_bounds(self, width, data):
        tau = data.draw(st.integers(0, (1 << width) - 1))
        filters = selgen_filters(tau, width)
        assert len(filters) == command_count(tau, width)
        assert len(filters) <= bin(tau).count("1") + 1
        if tau >= 2:
            assert len(filters) <= math.ceil(math.log2(tau)) + 1

    def test_matches_position_scan_oracle(self):
        # optc-impl's bits depend on each mask's length, so the strings
        # themselves must match, not only what they cover
        for width in range(1, 13):
            for tau in range(1 << width):
                expected = selgen_oracle.selgen_filters(tau, width)
                assert selgen_filters(tau, width) == expected
                masks = selgen_commands(tau, width)
                assert masks == [f.rstrip("*") for f in expected]
                assert command_count(tau, width) == len(expected)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            selgen_filters(8, 3)
        with pytest.raises(ValueError):
            selgen_filters(0, 0)


class TestSelectEncoding:
    def test_commands_strip_stars(self):
        cmds = selgen_commands(5, 3)
        assert cmds == ["0", "10"]
        assert commands_bit_cost(cmds) == (SELECT_FIXED_BITS + 1) + (SELECT_FIXED_BITS + 2)


class TestThresholdChoice:
    def test_best_threshold_equal_selection(self):
        values = [1, 3, 6, 12, 13]
        width = 4
        for c in (1, 2, 3, 4, 5):
            hi = values[c] - 1 if c < len(values) else (1 << width) - 1
            tau = best_threshold(values[c - 1], hi, width)
            assert sum(v <= tau for v in values) == c

    def test_best_threshold_prefers_cheap_tau(self):
        # any tau in [6, 11] selects three values; 7 (0111) needs 2 commands
        values = [1, 3, 6, 12, 13]
        tau = best_threshold(values[2], values[3] - 1, 4)
        assert command_count(tau, 4) == min(
            command_count(t, 4) for t in range(6, 12)
        )

    def test_best_threshold_matches_scan_of_every_tau(self):
        def cheapest_by_scan(lo, hi, width):
            best, best_cost = lo, command_count(lo, width)
            for tau in range(lo + 1, hi + 1):
                if command_count(tau, width) < best_cost:
                    best, best_cost = tau, command_count(tau, width)
            return best

        for width in range(1, 8):
            top = (1 << width) - 1
            for lo in range(top + 1):
                # hi = top admits the all-ones tau, which costs 2
                assert best_threshold(lo, top, width) == cheapest_by_scan(lo, top, width)
                for hi in range(lo, top):
                    assert best_threshold(lo, hi, width) == cheapest_by_scan(lo, hi, width)


class TestImplementation:
    def test_single_category_end_state(self):
        pop = generate_population([(25, 6)], rng_seed=17)
        rng = np.random.default_rng(4)
        res = run_impl_category(*pop.halves(1), 6, rng)
        ready = {tid for tid, _ in res.ready}
        assert len(ready) == 6
        assert ready <= set(halves_to_ids(*pop.halves(1)))
        assert sorted(o for _, o in res.ready) == list(range(1, 7))
        assert 6 <= len(res.pool[0]) <= 6 + 6 * math.sqrt(6)
        assert res.bits_sent == commands_bit_cost(res.commands)

    def test_orders_follow_hash_rank(self):
        pop = generate_population([(25, 6)], rng_seed=29)
        rng = np.random.default_rng(8)
        res = run_impl_category(*pop.halves(1), 6, rng)
        ids_in_order = [tid for tid, _ in sorted(res.ready, key=lambda x: x[1])]
        # recompute the refine-stage hashes and check ranks agree
        from tag_oracle import substring_hash

        hashes = {tid: substring_hash(tid, res.refine_seed) for tid in ids_in_order}
        values = [hashes[tid] for tid in ids_in_order]
        assert values == sorted(values)
        assert all(v <= res.tau_refine for v in values)

    def test_transcript_replays_from_its_own_fields(self):
        # each category's result explains itself: its seeds and thresholds
        # rebuild the pool, the commands and the picked rows, and each
        # stage's masks, matched on the ID bits at that stage's window
        # start, select exactly the pool and then exactly the picked rows;
        # when stage one kept exactly c tags, its masks alone select them
        from tag_oracle import substring_hash

        def matched(ids, masks, seed):
            at = seed.start - 1
            return [i for i in ids if any(format(i, "096b")[at:at + len(m)] == m for m in masks)]

        # c = n and n = 1 first, then enough categories that some window
        # crosses bit 48, some tau ends in ones and some stage one keeps
        # exactly c of more than c tags
        shapes = [(1, 1), (6, 6), (25, 6), (300, 20)] + [(40, 5)] * 12
        pop = generate_population(shapes, rng_seed=41)
        crossed = ones = exact = False
        for spec, res in zip(pop.categories, run_optc_impl(pop, np.random.default_rng(12))):
            ids = halves_to_ids(spec.hi, spec.lo)
            pool = [i for i in ids if substring_hash(i, res.coarse_seed) <= res.tau_coarse]
            assert halves_to_ids(*res.pool) == pool
            coarse = selgen_commands(res.tau_coarse, res.coarse_seed.length)
            assert matched(ids, coarse, res.coarse_seed) == pool
            sent = [(res.coarse_seed, res.tau_coarse)]
            if res.tau_refine is None:
                assert len(pool) == spec.c
                assert res.commands == coarse
                picked = list(range(spec.c))
                exact |= spec.c < spec.n
            else:
                refine = selgen_commands(res.tau_refine, res.refine_seed.length)
                assert res.commands == coarse + refine
                picked = [
                    row for row, i in enumerate(pool)
                    if substring_hash(i, res.refine_seed) <= res.tau_refine
                ]
                assert matched(pool, refine, res.refine_seed) == [pool[row] for row in picked]
                sent.append((res.refine_seed, res.tau_refine))
            assert picked == sorted(res.positions.tolist())
            for seed, tau in sent:
                crossed |= seed.start <= HALF_BITS < seed.start + seed.length - 1
                ones |= tau & 1 == 1
        assert crossed and ones and exact

    def test_uniform_over_random_populations(self):
        # stage one's tau depends on the drawn hashes; over fresh random
        # populations of 6 tags, every 2-subset must stay equally likely
        n, c, trials = 6, 2, 30_000
        rng = np.random.default_rng(np.random.SeedSequence(24))
        counts = Counter()
        for _ in range(trials):
            hi, lo = random_ids(n, rng)
            ids = halves_to_ids(hi, lo)
            res = run_impl_category(hi, lo, c, rng)
            counts[tuple(sorted(ids.index(tid) for tid, _ in res.ready))] += 1
        expected = trials / math.comb(n, c)
        stat = sum((counts[pair] - expected) ** 2 / expected
                   for pair in itertools.combinations(range(n), c))
        assert stat <= CHI2_CRITICAL, f"chi-square {stat:.2f} over the 15 pairs"

    def test_command_budget_on_small_scenarios(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            pop = generate_population([(20, 5), (30, 8)], rng_seed=int(rng.integers(1 << 30)))
            results = run_optc_impl(pop, rng)
            total = sum(len(r.commands) for r in results)
            assert total <= command_budget(5) + command_budget(8)

    def test_deterministic(self):
        pop1 = generate_population([(20, 4)], rng_seed=3)
        pop2 = generate_population([(20, 4)], rng_seed=3)
        r1 = run_optc_impl(pop1, np.random.default_rng(5))
        r2 = run_optc_impl(pop2, np.random.default_rng(5))
        assert [r.ready for r in r1] == [r.ready for r in r2]
        assert [r.bits_sent for r in r1] == [r.bits_sent for r in r2]

    def test_coarse_exhaustion_raises(self):
        # every window of all-zero IDs selects all 100 tags, more than
        # c + 6*sqrt(c) = 7
        zeros = np.zeros(100, dtype=np.uint64)
        with pytest.raises(ProtocolError, match="no coarse hash window suits n=100, c=1"):
            run_impl_category(zeros, zeros.copy(), 1, np.random.default_rng(0))

    def test_refine_exhaustion_raises(self):
        # two equal IDs pass the coarse stage together and tie in every window
        hi = np.array([5, 5], dtype=np.uint64)
        lo = np.array([9, 9], dtype=np.uint64)
        with pytest.raises(ProtocolError, match="no refine hash window separates c=1 of l=2"):
            run_impl_category(hi, lo, 1, np.random.default_rng(0))

    @staticmethod
    def _off_by_one_on_call(monkeypatch, call):
        # best_threshold returns lo - 1 on the given call only: one value
        # below the stage's range, so too few tags are kept
        real, calls = selgen.best_threshold, []

        def patched(lo, hi, width):
            calls.append(lo)
            return lo - 1 if len(calls) == call else real(lo, hi, width)

        monkeypatch.setattr(selgen, "best_threshold", patched)

    def test_coarse_threshold_keeping_fewer_than_c_raises(self, monkeypatch):
        self._off_by_one_on_call(monkeypatch, 1)
        pop = generate_population([(25, 6)], rng_seed=17)
        with pytest.raises(ProtocolError, match="does not keep c=6 to 20 of n=25"):
            run_impl_category(*pop.halves(1), 6, np.random.default_rng(4))

    def test_refine_threshold_picking_other_than_c_raises(self, monkeypatch):
        self._off_by_one_on_call(monkeypatch, 2)
        pop = generate_population([(25, 6)], rng_seed=17)
        with pytest.raises(ProtocolError, match="does not pick exactly c=6"):
            run_impl_category(*pop.halves(1), 6, np.random.default_rng(4))
