import math

import numpy as np
import pytest
import selgen_oracle
from hypothesis import given, settings
from hypothesis import strategies as st

from rfid_sampler import selgen
from rfid_sampler.errors import ProtocolError
from rfid_sampler import (
    best_threshold,
    category_tags,
    command_count,
    generate_population,
    run_optc_impl,
    selgen_commands,
    selgen_filters,
)
from rfid_sampler.population import halves_to_ids
from rfid_sampler.selgen import (
    SELECT_FIXED_BITS,
    command_budget,
    commands_bit_cost,
    run_impl_category,
    scaled_coarse_threshold,
)
from rfid_sampler.verify import _filter_interval


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
    def test_scaled_threshold_tracks_expected_count(self):
        # n tags hashed to 2^width values: tau keeps roughly c + 3*sqrt(c)
        tau = scaled_coarse_threshold(n=20, c=5, width=5)
        assert tau == math.ceil((5 + 3 * math.sqrt(5)) * 32 / 20)

    def test_scaled_threshold_clamped(self):
        assert scaled_coarse_threshold(n=10, c=4, width=4) == 15

    def test_best_threshold_equal_selection(self):
        values = [1, 3, 6, 12, 13]
        width = 4
        for c in (1, 2, 3, 4, 5):
            tau = best_threshold(values, c, width)
            assert sum(v <= tau for v in values) == c

    def test_best_threshold_prefers_cheap_tau(self):
        # any tau in [6, 11] selects three values; 7 (0111) needs 2 commands
        values = [1, 3, 6, 12, 13]
        tau = best_threshold(values, 3, 4)
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
                # hi = top (the all-ones tau, which costs 2) when c is the last value
                assert best_threshold([lo], 1, width) == cheapest_by_scan(lo, top, width)
                for hi in range(lo, top):
                    assert best_threshold([lo, hi + 1], 1, width) == cheapest_by_scan(
                        lo, hi, width
                    )


class TestImplementation:
    def test_single_category_end_state(self):
        pop = generate_population([(25, 6)], rng_seed=17)
        rng = np.random.default_rng(4)
        res = run_impl_category(*pop.halves(1), 6, rng)
        ready = {tid for tid, _ in res.ready}
        assert len(ready) == 6
        assert ready <= {t.id for t in category_tags(pop, 1)}
        assert sorted(o for _, o in res.ready) == list(range(1, 7))
        assert 6 <= len(res.pool[0]) <= 6 + 6 * math.sqrt(6)
        assert res.bits == commands_bit_cost(res.commands)

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
        # rebuild the pool, the commands and the picked rows
        from tag_oracle import substring_hash

        pop = generate_population([(1, 1), (6, 6), (25, 6), (300, 20)], rng_seed=41)
        for spec, res in zip(pop.categories, run_optc_impl(pop, np.random.default_rng(12))):
            ids = [t.id for t in category_tags(pop, spec.k)]
            pool = [i for i in ids if substring_hash(i, res.coarse_seed) <= res.tau_coarse]
            assert halves_to_ids(*res.pool) == pool
            assert res.commands == (
                selgen_commands(res.tau_coarse, res.coarse_seed.length)
                + selgen_commands(res.tau_refine, res.refine_seed.length)
            )
            picked = [
                row for row, i in enumerate(pool)
                if substring_hash(i, res.refine_seed) <= res.tau_refine
            ]
            assert picked == sorted(res.positions.tolist())

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
        assert [r.bits for r in r1] == [r.bits for r in r2]

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

    def test_threshold_picking_other_than_c_raises(self, monkeypatch):
        # a threshold just under the c-th smallest value picks c - 1 tags
        monkeypatch.setattr(selgen, "best_threshold", lambda vals, c, width: vals[c - 1] - 1)
        pop = generate_population([(25, 6)], rng_seed=17)
        with pytest.raises(ProtocolError, match="does not pick exactly c=6"):
            run_impl_category(*pop.halves(1), 6, np.random.default_rng(4))
