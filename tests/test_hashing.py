import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rfid_sampler import SeedSpec, find_suitable_seed, hash_mod, is_suitable, substring_hash
from rfid_sampler.hashing import (
    ids_to_halves,
    mod_hash_width,
    seed_pool,
    seed_trial_statistics,
    selection_threshold,
    substring_values,
    suitable_upper,
    window_starts,
)


def test_seed_spec_bounds():
    SeedSpec(start=1, length=96)
    SeedSpec(start=96, length=1)
    with pytest.raises(ValueError):
        SeedSpec(start=0, length=4)
    with pytest.raises(ValueError):
        SeedSpec(start=94, length=4)


def test_substring_hash_msb_first():
    # ID with bits 1..4 = 1011 and everything else zero
    tag_id = 0b1011 << 92
    assert substring_hash(tag_id, SeedSpec(1, 4)) == 0b1011
    assert substring_hash(tag_id, SeedSpec(2, 3)) == 0b011
    assert substring_hash(tag_id, SeedSpec(5, 4)) == 0


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
    hi, lo = ids_to_halves(ids)
    vec = substring_values(hi, lo, seed)
    for tag_id, v in zip(ids, vec.tolist()):
        assert substring_hash(tag_id, seed) == v


# Worked suitability example: 12 tags, c = 2, threshold 2 + 3*sqrt(2) ~ 6.24,
# acceptable selected counts lie in [2, 2 + 6*sqrt(2) ~ 10.49].
_HASHES_OVERFULL = [11, 6, 3, 4, 3, 5, 6, 1, 1, 0, 2, 2]   # 11 selected
_HASHES_GOOD = [0, 8, 2, 11, 3, 9, 4, 7, 6, 5, 10, 7]      # 6 selected


def _ids_with_top_nibble(values):
    return [v << 92 for v in values]


def test_unsuitable_seed_rejected():
    ids = _ids_with_top_nibble(_HASHES_OVERFULL)
    ok, count = is_suitable(ids, SeedSpec(1, 4), c=2)
    assert count == 11
    assert not ok


def test_suitable_seed_accepted():
    ids = _ids_with_top_nibble(_HASHES_GOOD)
    ok, count = is_suitable(ids, SeedSpec(1, 4), c=2)
    assert count == 6
    assert ok


def test_threshold_values():
    assert selection_threshold(4) == 10.0
    assert suitable_upper(4) == 16.0
    assert math.isclose(selection_threshold(2), 2 + 3 * math.sqrt(2))


def test_seed_pool_windows():
    assert seed_pool(4) == list(range(1, 94))
    assert seed_pool(16, "cots") == [81]
    assert seed_pool(10, "cots") == list(range(81, 88))
    # search order: the COTS starts, then the rest of the full window
    for L in (4, 10, 16, 17, 26):
        full = seed_pool(L)
        cots = seed_pool(L, "cots")
        starts = window_starts(L, "cots")
        assert starts[:len(cots)] == cots
        assert sorted(starts) == full and len(set(starts)) == len(starts)
        assert window_starts(L, "full") == full
    assert window_starts(16, "cots") == [81] + list(range(1, 81))
    assert window_starts(17, "cots") == list(range(1, 81))  # empty COTS pool


def test_mod_hash_width_padding():
    assert mod_hash_width(6) == 19
    assert mod_hash_width(1000) == 26
    assert mod_hash_width(1 << 40) == 48  # capped at the vectorized limit


def test_find_suitable_seed_deterministic():
    rng1 = np.random.default_rng(7)
    rng2 = np.random.default_rng(7)
    ids = [int(x) for x in np.random.default_rng(0).integers(0, 1 << 63, 200)]
    hi, lo = ids_to_halves(ids)
    s1, st1 = find_suitable_seed(hi, lo, 10, rng=rng1)
    s2, st2 = find_suitable_seed(hi, lo, 10, rng=rng2)
    assert s1 == s2 and st1.tests == st2.tests


def test_seed_trial_statistics_shape():
    stats = seed_trial_statistics(n=200, c=10, trials=50, rng_seed=3)
    assert stats["max_tests"] >= 1
    assert stats["avg_tests"] >= 1.0
    assert 0.0 <= stats["suitable_fraction"] <= 1.0
