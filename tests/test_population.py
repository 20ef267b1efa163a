import numpy as np
import pytest

from rfid_sampler import ConfigurationError, category_tags, generate_population
from rfid_sampler.population import (
    _category_order,
    _first_occurrences,
    halves_to_ids,
    random_ids,
)


def test_sizes_and_partition():
    pop = generate_population([(10, 3), (25, 5)], rng_seed=1)
    assert [s.n for s in pop.categories] == [10, 25]
    assert [s.c for s in pop.categories] == [3, 5]
    assert len(category_tags(pop, 1)) == 10
    assert len(category_tags(pop, 2)) == 25
    assert pop.offsets.tolist() == [0, 10, 35]
    assert len(pop.hi) == len(pop.lo) == 35


def test_ids_unique_and_96_bit():
    pop = generate_population([(500, 1)], rng_seed=3)
    ids = [t.id for t in category_tags(pop, 1)]
    assert len(set(ids)) == len(ids) == 500
    assert all(0 <= i < (1 << 96) for i in ids)
    assert pop.hi.dtype == pop.lo.dtype == np.uint64
    assert not (pop.hi >> np.uint64(48)).any() and not (pop.lo >> np.uint64(48)).any()


def test_deterministic_in_seed():
    a = generate_population([(50, 2), (50, 2)], rng_seed=42)
    b = generate_population([(50, 2), (50, 2)], rng_seed=42)
    c = generate_population([(50, 2), (50, 2)], rng_seed=43)
    assert np.array_equal(a.hi, b.hi) and np.array_equal(a.lo, b.lo)
    assert not (np.array_equal(a.hi, c.hi) and np.array_equal(a.lo, c.lo))


def test_category_tags_sorted_by_id():
    pop = generate_population([(30, 1)], rng_seed=9)
    ids = [t.id for t in category_tags(pop, 1)]
    assert ids == sorted(ids)


def test_unknown_category_raises():
    pop = generate_population([(5, 1)], rng_seed=0)
    with pytest.raises(KeyError):
        category_tags(pop, 7)


@pytest.mark.parametrize("sizes", [[(3, 4)], [(0, 0)], []])
def test_invalid_specs_rejected(sizes):
    with pytest.raises(ConfigurationError):
        generate_population(sizes, rng_seed=0)


def _reference_ids(n, rng):
    """The per-ID draw loop the vectorised draw must reproduce: pairs of
    48-bit halves in draw order, a repeated ID skipped and made up for by
    the next batch."""
    ids, seen = [], set()
    while len(ids) < n:
        halves = rng.integers(0, 1 << 48, size=(n - len(ids), 2), dtype=np.uint64)
        for hi, lo in halves:
            v = (int(hi) << 48) | int(lo)
            if v not in seen:
                seen.add(v)
                ids.append(v)
    return ids


class _ScriptedRng:
    """Stands in for a generator, returning fixed batches of ID halves."""

    def __init__(self, batches):
        self.batches = [np.array(b, dtype=np.uint64) for b in batches]

    def integers(self, low, high, size, dtype):
        batch = self.batches.pop(0)
        assert batch.shape == size and batch.dtype == dtype
        return batch


@pytest.mark.parametrize("seed", [0, 1, 7, 2024, 99991])
def test_random_ids_match_reference_loop(seed):
    for n in (1, 2, 37, 5000):
        ref_rng = np.random.default_rng(np.random.SeedSequence([seed, n]))
        rng = np.random.default_rng(np.random.SeedSequence([seed, n]))
        assert halves_to_ids(*random_ids(n, rng)) == _reference_ids(n, ref_rng)
        # both consumed the same draws
        assert rng.integers(1 << 30) == ref_rng.integers(1 << 30)


def test_random_ids_redraw_repeats():
    batches = [
        # repeats inside the first batch: (1, 2) and (3, 4) come back
        [(1, 2), (3, 4), (1, 2), (5, 6), (3, 4)],
        # a repeat of an ID kept earlier, and a fresh one
        [(3, 4), (7, 8)],
        # same high half as (1, 2), same low half as (7, 8): both new
        [(1, 8)],
    ]
    expected = _reference_ids(5, _ScriptedRng(batches))
    assert expected == [(h << 48) | l for h, l in [(1, 2), (3, 4), (5, 6), (7, 8), (1, 8)]]
    rng = _ScriptedRng(batches)
    assert halves_to_ids(*random_ids(5, rng)) == expected
    assert rng.batches == []


def test_random_ids_shared_high_half_is_not_a_repeat():
    # the sort of the high halves finds (1, 2) and (1, 3) tied, so the
    # full-ID check runs and keeps both; a second batch would be unused
    rng = _ScriptedRng([[(1, 2), (1, 3)], [(5, 6)]])
    assert halves_to_ids(*random_ids(2, rng)) == [(1 << 48) | 2, (1 << 48) | 3]
    assert len(rng.batches) == 1


def test_population_matches_reference_loop():
    sizes = [(5, 1), (300, 2), (1, 1), (64, 8)]
    pop = generate_population(sizes, rng_seed=123)
    ref = _reference_ids(370, np.random.default_rng(np.random.SeedSequence(123)))
    pos = 0
    for spec in pop.categories:
        assert [t.id for t in category_tags(pop, spec.k)] == sorted(ref[pos:pos + spec.n])
        pos += spec.n


def test_desk_scale_cap():
    pop = generate_population([(1 << 19, 1), (1 << 19, 5)], rng_seed=4)
    assert len(pop.hi) == 1 << 20
    order = np.lexsort((pop.lo, pop.hi))
    h, l = pop.hi[order], pop.lo[order]
    assert not ((h[1:] == h[:-1]) & (l[1:] == l[:-1])).any()
    with pytest.raises(ConfigurationError):
        generate_population([(1 << 19, 1), ((1 << 19) + 1, 5)], rng_seed=4)


def _first_occurrences_by_lexsort(hi, lo):
    """The two-key lexsort the sort in `_first_occurrences` must reproduce."""
    order = np.lexsort((lo, hi))
    h, l = hi[order], lo[order]
    keep = np.ones(len(hi), dtype=bool)
    keep[order[1:][(h[1:] == h[:-1]) & (l[1:] == l[:-1])]] = False
    return keep


def test_category_order_matches_full_sort():
    rng = np.random.default_rng(3)
    # Few high halves, so IDs of one category share them and the order has
    # to separate them by the low halves.
    sizes = rng.integers(1, 40, size=6)
    hi = rng.integers(0, 4, size=sizes.sum(), dtype=np.uint64) << np.uint64(46)
    lo = rng.integers(0, 1 << 48, size=sizes.sum(), dtype=np.uint64)
    cases = [(sizes, hi, lo)]
    # IDs from a tiny alphabet: long runs of equal high halves, and repeated
    # (hi, lo) pairs inside a category.
    sizes = rng.integers(1, 40, size=6)
    cases.append((sizes, *rng.integers(0, 3, size=(2, sizes.sum()), dtype=np.uint64)))
    # Past 2^16 categories the packed sort key drops the low bits of hi, so
    # high halves that differ only there tie in the key.
    sizes = rng.integers(1, 3, size=(1 << 17) + 3)
    cases.append((sizes, *rng.integers(0, 8, size=(2, sizes.sum()), dtype=np.uint64)))

    for sizes, hi, lo in cases:
        category = np.repeat(np.arange(len(sizes)), sizes)
        order = _category_order(hi, lo, sizes)
        assert np.array_equal(order, np.lexsort((lo, hi, category)))
        ids = halves_to_ids(hi, lo)
        assert [(category[i], ids[i]) for i in order.tolist()] == sorted(
            zip(category.tolist(), ids)
        )
        assert np.array_equal(_first_occurrences(hi, lo), _first_occurrences_by_lexsort(hi, lo))
