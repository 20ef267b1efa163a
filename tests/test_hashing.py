import math
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rfid_sampler import SeedSpec, find_suitable_seed, generate_population, hashing, run_optc_impl
from rfid_sampler.errors import ProtocolError
from rfid_sampler.hashing import (
    mod_hash_width,
    seed_spec,
    seed_trial_statistics,
    seed_windows,
    selection_threshold,
    substring_values,
    suitable_from_count,
    suitable_upper,
)
from tag_oracle import halves, hash_mod, substring_hash


def test_seed_spec_bounds():
    SeedSpec(start=1, length=96)
    SeedSpec(start=96, length=1)
    with pytest.raises(ValueError):
        SeedSpec(start=0, length=4)
    with pytest.raises(ValueError):
        SeedSpec(start=94, length=4)


def test_seed_spec_builds_each_window_once():
    assert seed_spec(3, 5) is seed_spec(3, 5) == SeedSpec(3, 5)
    assert seed_spec(3, 5).read is seed_spec(3, 5).read
    # an invalid window is rejected on every request, not cached
    for _ in range(2):
        with pytest.raises(ValueError):
            seed_spec(94, 4)


def test_a_read_window_and_the_results_holding_windows_pickle():
    # a built `read` is a closure; pickling must rebuild the window from its fields
    hi, lo = halves([0x0123_4567_89AB_CDEF_0123_4567, (1 << 96) - 1])
    window = seed_spec(3, 5)
    values = substring_values(hi, lo, window).tolist()
    copy = pickle.loads(pickle.dumps(window))
    assert copy == window and substring_values(hi, lo, copy).tolist() == values
    pop = generate_population([(25, 6), (40, 9)], rng_seed=5)
    results = run_optc_impl(pop, np.random.default_rng(3))  # each holds two read windows
    copies = pickle.loads(pickle.dumps(results))
    assert [r.ready for r in copies] == [r.ready for r in results]


def test_only_a_window_of_at_most_48_bits_is_read():
    # a window up to 96 bits wide is a valid SeedSpec; reading one wider
    # than a 48-bit half raises, on every request
    hi, lo = halves([(1 << 96) - 1])
    assert SeedSpec(1, 96).length == 96
    wide = SeedSpec(1, 49)
    for _ in range(2):
        with pytest.raises(ValueError, match="49 bits"):
            substring_values(hi, lo, wide)


def test_substring_hash_msb_first():
    # ID with bits 1..4 = 1011 and everything else zero
    tag_id = 0b1011 << 92
    hi, lo = halves([tag_id])
    for seed, value in ((SeedSpec(1, 4), 0b1011), (SeedSpec(2, 3), 0b011), (SeedSpec(5, 4), 0)):
        assert substring_hash(tag_id, seed) == value
        assert substring_values(hi, lo, seed).tolist() == [value]


def test_hash_mod():
    tag_id = 13 << 92
    assert hash_mod(tag_id, SeedSpec(1, 4), 12) == 1
    with pytest.raises(ValueError):
        hash_mod(tag_id, SeedSpec(1, 4), 0)


@given(
    ids=st.lists(st.integers(0, (1 << 96) - 1), min_size=1, max_size=40),
    start=st.integers(1, 96),
    length=st.integers(1, 48),
)
@settings(max_examples=200, deadline=None)
def test_vectorized_substring_matches_scalar(ids, start, length):
    if start + length - 1 > 96:
        length = 96 - start + 1
        if length > 48:
            return
    seed = SeedSpec(start=start, length=length)
    hi, lo = halves(ids)
    vec = substring_values(hi, lo, seed)
    for tag_id, v in zip(ids, vec.tolist()):
        assert substring_hash(tag_id, seed) == v


def test_every_window_matches_the_scalar_hash():
    # every window of width 1..48: inside the high half, inside the low
    # half and across bit 48, on all-ones, alternating-bit and random IDs
    rng = np.random.default_rng(12)
    ids = [(1 << 96) - 1, int("10" * 48, 2), int("01" * 48, 2)]
    ids += [int(h) << 48 | int(l) for h, l in rng.integers(0, 1 << 48, size=(5, 2))]
    hi, lo = halves(ids)
    for L in range(1, 49):
        for start in range(1, 98 - L):
            seed = SeedSpec(start, L)
            expected = [substring_hash(i, seed) for i in ids]
            assert substring_values(hi, lo, seed).tolist() == expected, seed


# Worked suitability example: 12 tags, c = 2, threshold 2 + 3*sqrt(2) ~ 6.24,
# acceptable selected counts lie in [2, 2 + 6*sqrt(2) ~ 10.49].
_HASHES_OVERFULL = [11, 6, 3, 4, 3, 5, 6, 1, 1, 0, 2, 2]   # 11 selected
_HASHES_GOOD = [0, 8, 2, 11, 3, 9, 4, 7, 6, 5, 10, 7]      # 6 selected


def _ids_with_top_nibble(values):
    return [v << 92 for v in values]


def _selected_count(ids, seed, c):
    """Tags whose hash mod n clears the coarse threshold, as the seed
    search counts them."""
    hashes = substring_values(*halves(ids), seed) % np.uint64(len(ids))
    return int((hashes <= selection_threshold(c)).sum())


def test_unsuitable_seed_rejected():
    ids = _ids_with_top_nibble(_HASHES_OVERFULL)
    count = _selected_count(ids, SeedSpec(1, 4), c=2)
    assert count == 11
    assert not suitable_from_count(count, 2)


def test_suitable_seed_accepted():
    ids = _ids_with_top_nibble(_HASHES_GOOD)
    count = _selected_count(ids, SeedSpec(1, 4), c=2)
    assert count == 6
    assert suitable_from_count(count, 2)


def test_threshold_values():
    assert selection_threshold(4) == 10.0
    assert suitable_upper(4) == 16.0
    assert math.isclose(selection_threshold(2), 2 + 3 * math.sqrt(2))


def test_seed_windows_follow_the_permutation():
    # draw i of rng.permutation(97 - L) is the window starting at i + 1
    # whenever no start reaches bit 81 (every OPT-C width, L >= 17), and
    # for every L each window comes up exactly once
    for L in (17, 23, 48, 96):
        draws = list(seed_windows(L, np.random.default_rng(L)))
        perm = np.random.default_rng(L).permutation(97 - L).tolist()
        assert [s.start for s in draws] == [i + 1 for i in perm]
    for L in (1, 4, 16, 17, 48, 96):
        draws = list(seed_windows(L, np.random.default_rng(L)))
        assert sorted(s.start for s in draws) == list(range(1, 97 - L + 1))
        assert {s.length for s in draws} == {L}


def test_selgen_relabel_keeps_the_cots_first_order():
    # optc-impl once drew i from rng.permutation(m) and used start
    # starts[i], with starts listing 81..m first and then 1..80; that
    # relabelling now lives in seed_windows, whose draw i must give that
    # same start for every L
    def cots_first_starts(L):
        full = list(range(1, 97 - L + 1))
        return full[80:] + full[:80]

    assert cots_first_starts(10)[:7] == list(range(81, 88))
    assert cots_first_starts(16) == [81] + list(range(1, 81))
    assert cots_first_starts(17) == list(range(1, 81))
    for L in range(1, 97):
        starts = cots_first_starts(L)
        draws = list(seed_windows(L, np.random.default_rng(L)))
        perm = np.random.default_rng(L).permutation(97 - L).tolist()
        assert [s.start for s in draws] == [starts[i] for i in perm]
        assert {s.length for s in draws} == {L}


def test_mod_hash_width_padding():
    assert mod_hash_width(6) == 19
    assert mod_hash_width(1000) == 26
    assert mod_hash_width(1 << 40) == 48  # capped at the vectorized limit


def test_find_suitable_seed_deterministic():
    rng1 = np.random.default_rng(7)
    rng2 = np.random.default_rng(7)
    ids = [int(x) for x in np.random.default_rng(0).integers(0, 1 << 63, 200)]
    hi, lo = halves(ids)
    pos1, st1 = find_suitable_seed(hi, lo, 10, rng=rng1)
    pos2, st2 = find_suitable_seed(hi, lo, 10, rng=rng2)
    assert st1.seed == st2.seed and st1.tests == st2.tests
    # the positions handed back are the tags whose scalar hash mod n under
    # the accepted seed clears the threshold, ascending
    assert np.array_equal(pos1, pos2)
    assert pos1.tolist() == [
        i for i, tag_id in enumerate(ids)
        if hash_mod(tag_id, st1.seed, len(ids)) <= selection_threshold(10)
    ]
    # the accepted seed selects a suitable count of tags
    assert suitable_from_count(len(pos1), 10)


def test_seed_trial_statistics_shape():
    stats = seed_trial_statistics(n=200, c=10, trials=50, rng_seed=3)
    assert stats["most_tests"] >= 1
    assert stats["avg_tests"] >= 1.0
    assert 0.0 <= stats["suitable_fraction"] <= 1.0


def test_seed_trial_statistics_exhaustion_raises(monkeypatch):
    # all-zero IDs hash to 0 in every window, so all 100 tags pass and none
    # of the 97 - 23 windows of mod_hash_width(100) = 23 bits suits c = 1
    zeros = lambda n, rng: (np.zeros(n, dtype=np.uint64), np.zeros(n, dtype=np.uint64))
    monkeypatch.setattr(hashing, "random_ids", zeros)
    with pytest.raises(ProtocolError, match=r"no suitable seed for n=100, c=1 after 74 tests"):
        seed_trial_statistics(n=100, c=1, trials=1, rng_seed=0)
