import numpy as np

from rfid_sampler import generate_population, run_random_select
from rfid_sampler.baselines import naive_threshold_bits
from rfid_sampler.population import halves_to_ids
from rfid_sampler.selgen import SELECT_FIXED_BITS, commands_bit_cost, selgen_commands


def test_random_select_counts_and_cost():
    pop = generate_population([(20, 5), (30, 7)], rng_seed=2)
    reports = run_random_select(pop, np.random.default_rng(1))
    assert [len(r.positions) for r in reports] == [5, 7]
    assert [r.bits for r in reports] == [5 * (SELECT_FIXED_BITS + 96), 7 * (SELECT_FIXED_BITS + 96)]
    for spec, report in zip(pop.categories, reports):
        assert sorted(o for _, o in report.ready) == list(range(1, spec.c + 1))
        members = set(halves_to_ids(spec.hi, spec.lo))
        assert {tid for tid, _ in report.ready} <= members
    ready = {tid for report in reports for tid, _ in report.ready}
    assert len(ready) == 12


def test_random_select_distinct_picks():
    pop = generate_population([(10, 10)], rng_seed=8)
    (report,) = run_random_select(pop, np.random.default_rng(0))
    assert len({tid for tid, _ in report.ready}) == 10


def test_naive_enumeration_matches_same_range():
    # one full-width exact-match mask per value in [0, 5]
    masks = ["000", "001", "010", "011", "100", "101"]
    assert naive_threshold_bits(5, 3) == sum(SELECT_FIXED_BITS + len(m) for m in masks)


def test_prefix_merging_always_at_most_naive():
    for width in range(1, 10):
        for tau in range(1 << width):
            merged = commands_bit_cost(selgen_commands(tau, width))
            assert merged <= naive_threshold_bits(tau, width)
