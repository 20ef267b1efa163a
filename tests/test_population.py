import numpy as np
import pytest

from rfid_sampler import ConfigurationError, generate_population
from rfid_sampler.baselines import run_random_select
from rfid_sampler.population import (
    Population, _first_occurrences, check_categories, halves_to_ids, random_ids,
)
from rfid_sampler.protocol import optc1_round, optc2_round
from rfid_sampler.selgen import run_optc_impl


def test_sizes_and_partition():
    pop = generate_population([(10, 3), (25, 5)], rng_seed=1)
    assert [s.n for s in pop.categories] == [10, 25]
    assert [s.c for s in pop.categories] == [3, 5]
    assert pop.cs.tolist() == [3, 5] and np.diff(pop.offsets).tolist() == [10, 25]
    assert len(halves_to_ids(*pop.halves(1))) == 10
    assert len(halves_to_ids(*pop.halves(2))) == 25
    assert pop.offsets.tolist() == [0, 10, 35]
    assert len(pop.hi) == len(pop.lo) == 35
    # each category's halves are views of the population's arrays
    for cat in pop.categories:
        hi, lo = pop.halves(cat.k)
        assert np.shares_memory(cat.hi, pop.hi) and np.shares_memory(cat.lo, pop.lo)
        assert np.array_equal(cat.hi, hi) and np.array_equal(cat.lo, lo)
    assert pop.categories is pop.categories


def test_ids_unique_and_96_bit():
    pop = generate_population([(500, 1)], rng_seed=3)
    ids = halves_to_ids(*pop.halves(1))
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


def test_unknown_category_raises():
    pop = generate_population([(5, 1)], rng_seed=0)
    for k in (7, 2, 0, -1):
        with pytest.raises(KeyError, match=f"no category {k}"):
            pop.halves(k)


@pytest.mark.parametrize("sizes", [[(3, 4)], [(0, 0)], [], [(2.5, 1)], [(5, 1.5)], [("5", 2)]])
def test_invalid_specs_rejected(sizes):
    # a size or count that is not an integer is rejected, never truncated
    with pytest.raises((ConfigurationError, TypeError)):
        generate_population(sizes, rng_seed=0)


def test_check_categories_names_the_first_bad_category():
    # the vectorised check names the category the per-category loop stops at
    rng = np.random.default_rng(11)
    for _ in range(300):
        K = int(rng.integers(1, 6))
        ns, cs = rng.integers(-1, 4, size=(2, K)).tolist()
        bad = [k for k, (n, c) in enumerate(zip(ns, cs), start=1) if not 1 <= c <= n]
        if bad:
            with pytest.raises(ConfigurationError, match=rf"^category {bad[0]}: need 1 <= c <= n"):
                check_categories(ns, cs)
        else:
            assert [a.tolist() for a in check_categories(ns, cs)] == [ns, cs]


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


class _ScriptedWords(np.random.PCG64):
    """A PCG64 whose raw words are scripted (hi, lo) pairs, two words per
    pair, hi first, each half in a word's top 48 bits."""

    def __init__(self, batches):
        super().__init__(0)
        self.batches = batches

    def random_raw(self, size=None, output=True):
        batch = self.batches.pop(0)
        assert size == batch.size
        return batch.ravel() << np.uint64(16)


class _ScriptedRng:
    """Stands in for a generator, returning fixed batches of ID halves, as
    drawn pairs through `integers` and as raw words through `bit_generator`."""

    def __init__(self, batches):
        self.batches = [np.array(b, dtype=np.uint64) for b in batches]
        self.bit_generator = _ScriptedWords(self.batches)

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


def test_random_ids_reject_other_bit_generators():
    # MT19937's raw words are 32-bit: their top 48 bits are not all random
    with pytest.raises(TypeError, match="PCG64 generator, got MT19937"):
        random_ids(5, np.random.Generator(np.random.MT19937(1)))


def test_population_matches_reference_loop():
    sizes = [(5, 1), (300, 2), (1, 1), (64, 8)]
    pop = generate_population(sizes, rng_seed=123)
    ref = _reference_ids(370, np.random.default_rng(np.random.SeedSequence(123)))
    pos = 0
    for spec in pop.categories:
        assert halves_to_ids(spec.hi, spec.lo) == ref[pos:pos + spec.n]
        pos += spec.n


def test_desk_scale_cap():
    pop = generate_population([(1 << 19, 1), (1 << 19, 5)], rng_seed=4)
    assert len(pop.hi) == 1 << 20
    order = np.lexsort((pop.lo, pop.hi))
    h, l = pop.hi[order], pop.lo[order]
    assert not ((h[1:] == h[:-1]) & (l[1:] == l[:-1])).any()
    with pytest.raises(ConfigurationError):
        generate_population([(1 << 19, 1), ((1 << 19) + 1, 5)], rng_seed=4)


def test_desk_scale_cap_in_one_tag_categories():
    # the categories view is not read here: 2^20 views of one tag each
    # take seconds and hundreds of MB to build, and the arrays say the same
    sizes = [(1, 1)] * (1 << 20)
    pop = generate_population(sizes, rng_seed=4)
    assert len(pop.cs) == 1 << 20 and not (pop.cs != 1).any()
    assert np.array_equal(pop.offsets, np.arange((1 << 20) + 1))
    assert [len(h) for h in pop.halves(1 << 20)] == [1, 1]
    sizes[-1] = (1, 2)
    with pytest.raises(ConfigurationError, match=r"category 1048576: need 1 <= c <= n"):
        generate_population(sizes, rng_seed=4)


def _first_occurrences_by_loop(hi, lo):
    """The first occurrence seen of every (hi, lo) pair, one pair at a time."""
    seen = set()
    keep = []
    for pair in zip(hi.tolist(), lo.tolist()):
        keep.append(pair not in seen)
        seen.add(pair)
    return np.array(keep)


def test_first_occurrences_matches_python_loop():
    rng = np.random.default_rng(3)
    # Few high halves, so IDs share them and only the low halves tell
    # them apart.
    hi = rng.integers(0, 4, size=120, dtype=np.uint64) << np.uint64(46)
    lo = rng.integers(0, 1 << 48, size=120, dtype=np.uint64)
    cases = [(hi, lo)]
    # IDs from a tiny alphabet: long runs of equal high halves, and
    # repeated (hi, lo) pairs.
    cases.append(tuple(rng.integers(0, 3, size=(2, 150), dtype=np.uint64)))

    for hi, lo in cases:
        keep = _first_occurrences(hi, lo)
        assert np.array_equal(keep, _first_occurrences_by_loop(hi, lo))


def _shuffled(pop):
    """The population with each category's rows in a fixed other order."""
    order = np.concatenate([
        a + np.random.default_rng(99).permutation(b - a)
        for a, b in zip(pop.offsets[:-1].tolist(), pop.offsets[1:].tolist())
    ])
    return Population(pop.hi[order], pop.lo[order], pop.offsets, pop.cs)


def _sample_all(pop, seed):
    """What every protocol reports, drawn from one generator in turn, and
    the generator's next draw, which shows they all drew the same."""
    rng = np.random.default_rng(seed)
    record = []
    for spec in pop.categories:
        hi, lo = pop.halves(spec.k)
        first = optc1_round(hi, lo, spec.c, rng)
        out = optc2_round((hi[first.positions], lo[first.positions]), spec.c)
        record.append((out.ready, first.bits_sent, out.bits_sent, out.payload_bits))
    record += [(res.ready, res.bits_sent) for res in run_optc_impl(pop, rng)]
    record += [rep.bits_sent for rep in run_random_select(pop, rng)]
    return record, int(rng.integers(1 << 62))


@pytest.mark.parametrize("seed", [0, 5, 31])
def test_sampling_ignores_row_order(seed):
    # OPT-C and optc-impl decide from a category's set of IDs, so the order
    # of its rows (draw order) changes nothing they pick or broadcast;
    # random-select draws the same rows and sends the same bits.
    pop = generate_population([(1, 1), (2, 1), (6, 6), (40, 7), (300, 20), (1000, 50)],
                              rng_seed=seed)
    shuffled = _shuffled(pop)
    assert not np.array_equal(shuffled.hi, pop.hi)
    for spec in pop.categories:
        assert set(halves_to_ids(*shuffled.halves(spec.k))) == set(
            halves_to_ids(*pop.halves(spec.k))
        )
    assert _sample_all(shuffled, seed + 1) == _sample_all(pop, seed + 1)
