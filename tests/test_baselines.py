import itertools
import math
from collections import Counter

import numpy as np
import pytest

from rfid_sampler import generate_population, run_random_select
from rfid_sampler.baselines import naive_threshold_bits
from rfid_sampler.population import halves_to_ids
from rfid_sampler.selgen import SELECT_FIXED_BITS, commands_bit_cost, selgen_commands
from rfid_sampler.verify import CHI2_CRITICAL


def test_random_select_counts_and_cost():
    pop = generate_population([(20, 5), (30, 7)], rng_seed=2)
    reports = run_random_select(pop, np.random.default_rng(1))
    assert [len(r.positions) for r in reports] == [5, 7]
    assert [r.bits_sent for r in reports] == [5 * (SELECT_FIXED_BITS + 96), 7 * (SELECT_FIXED_BITS + 96)]
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


# upper 1e-3 point of chi-square with 29 degrees of freedom: the 30 ordered
# pairs of distinct rows out of 6, less one
ORDERED_PAIRS_CHI2_CRITICAL = 58.301173489794905


@pytest.mark.parametrize("one_sort", [True, False])
def test_random_select_is_uniform_in_subset_and_order(one_sort):
    # n = 6, c = 2 drawn 30,000 times, by one sort over 30,000 such
    # categories or by one rng.choice per call beside a 2,000-tag category:
    # every ordered (first, second) pick is equally likely, and so is every
    # two-subset and every tag (criterion 2's chi-square and 4 SE bounds)
    draws, n, c = 30_000, 6, 2
    rng = np.random.default_rng(6)
    if one_sort:
        pop = generate_population([(n, c)] * draws, rng_seed=4)
        pairs = np.array([r.positions for r in run_random_select(pop, rng)])
    else:
        pop = generate_population([(n, c), (2000, 1)], rng_seed=4)
        pairs = np.array([run_random_select(pop, rng)[0].positions for _ in range(draws)])

    def chi2(counts, cells):
        expected = draws / len(cells)
        return sum((counts[cell] - expected) ** 2 / expected for cell in cells)

    ordered = Counter(map(tuple, pairs.tolist()))
    assert chi2(ordered, list(itertools.permutations(range(n), c))) <= ORDERED_PAIRS_CHI2_CRITICAL
    subsets = Counter(map(tuple, np.sort(pairs, axis=1).tolist()))
    assert chi2(subsets, list(itertools.combinations(range(n), c))) <= CHI2_CRITICAL
    p = c / n
    freqs = np.bincount(pairs.ravel(), minlength=n) / draws
    assert np.max(np.abs(freqs - p)) <= 4 * math.sqrt(p * (1 - p) / draws)


@pytest.mark.parametrize("big", [0, 3000])
def test_random_select_stays_inside_each_category(big):
    # c = n and n = 1 categories: picked in one sort, or, beside a 3,000-tag
    # category, by the same rng.choice calls as one per category; either way
    # each report holds its category's halves and distinct rows of them
    shape = [(1, 1), (5, 5), (6, 2), (1, 1), (3, 3)] + [(big, 7)] * bool(big)
    pop = generate_population(shape, rng_seed=4)
    reports = run_random_select(pop, np.random.default_rng(6))
    assert len(reports) == len(shape)
    for spec, report in zip(pop.categories, reports):
        assert np.array_equal(report.pool[0], spec.hi) and np.array_equal(report.pool[1], spec.lo)
        picked = [tid for tid, _ in report.ready]
        assert len(set(picked)) == len(picked) == spec.c
        assert set(picked) <= set(halves_to_ids(spec.hi, spec.lo))
        assert [o for _, o in report.ready] == list(range(1, spec.c + 1))
    if big:
        rng = np.random.default_rng(6)
        for (n, c), report in zip(shape, reports):
            assert np.array_equal(report.positions, rng.choice(n, c, replace=False))


def test_random_select_at_the_population_cap():
    # 2^20 one-tag categories: the largest first row a pick key carries
    # is 2^20 - 1, and every category picks its only row
    pop = generate_population([(1, 1)] * (1 << 20), rng_seed=1)
    reports = run_random_select(pop, np.random.default_rng(2))
    assert len(reports) == 1 << 20
    assert not np.concatenate([r.positions for r in reports]).any()
    assert reports[-1].ready == [(halves_to_ids(pop.hi[-1:], pop.lo[-1:])[0], 1)]


def test_naive_enumeration_matches_same_range():
    # one full-width exact-match mask per value in [0, 5]
    masks = ["000", "001", "010", "011", "100", "101"]
    assert naive_threshold_bits(5, 3) == sum(SELECT_FIXED_BITS + len(m) for m in masks)


def test_prefix_merging_always_at_most_naive():
    for width in range(1, 10):
        for tau in range(1 << width):
            merged = commands_bit_cost(selgen_commands(tau, width))
            assert merged <= naive_threshold_bits(tau, width)
