import math
import statistics

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rfid_sampler import (
    cost_ratio_limit,
    expected_protocol_bits,
    generate_population,
    lower_bound_bits,
    mu,
    reliability_number,
    rho,
    run_optc,
    seed_success_lower_bound,
    success_probability,
    success_probability_approx,
    transmission_time,
)
from rfid_sampler.analysis import T96_SECONDS
from rfid_sampler.protocol import optc1_header_bits


class TestTiming:
    def test_t96_exact(self):
        assert transmission_time(96) == pytest.approx(3897.5e-6, abs=0)

    def test_linear_in_bits(self):
        assert transmission_time(48) == pytest.approx(transmission_time(96) / 2)
        assert transmission_time(0) == 0.0

    def test_from_rate_close_to_quoted_constant(self):
        # 96 bits at 26.7 kbps plus one 302 us inter-transmission gap
        assert 96 / 26_700 + 302e-6 == pytest.approx(T96_SECONDS, rel=1e-4)

    def test_negative_bits_rejected(self):
        with pytest.raises(ValueError):
            transmission_time(-1)


class TestLowerBound:
    def test_gamma_formula(self):
        assert lower_bound_bits([10] * 100) == pytest.approx(1000 * math.log2(math.e))
        assert lower_bound_bits([1]) == pytest.approx(math.log2(math.e))

    def test_single_sample_time(self):
        assert transmission_time(lower_bound_bits([1])) == pytest.approx(58.6e-6, rel=1e-2)

    def test_ratio_limit(self):
        assert cost_ratio_limit() == pytest.approx(1.8842, abs=1e-4)

    def test_expected_bits_dominated_by_ec(self):
        got = expected_protocol_bits([1000], [100])
        assert got == pytest.approx(math.e * 100 + optc1_header_bits(1000, 100) + 1)

    @pytest.mark.parametrize("n,c", [(100, 10), (1000, 50)])
    def test_expected_bits_match_the_ledger(self, n, c):
        # the closed form charges what run_optc's ledger charges: the mean
        # over 30 populations of K = 100 categories lands within 1 %
        K = 100
        per_category = [
            run_optc(generate_population([(n, c)] * K, rng_seed=t),
                     np.random.default_rng(1000 + t))[1].bits_reader_to_tag / K
            for t in range(30)
        ]
        assert statistics.fmean(per_category) == pytest.approx(
            expected_protocol_bits([n], [c]), rel=0.01)

    def test_ratio_decreases_toward_limit(self):
        ratios = [
            expected_protocol_bits([10 * c], [c]) / lower_bound_bits([c])
            for c in (10, 100, 1000, 10_000)
        ]
        assert all(a > b for a, b in zip(ratios, ratios[1:]))
        assert ratios[-1] == pytest.approx(cost_ratio_limit(), rel=1e-2)

    def test_validation(self):
        with pytest.raises(ValueError):
            lower_bound_bits([])
        with pytest.raises(ValueError):
            expected_protocol_bits([5], [6])


class TestSeedBounds:
    def test_anchor_values(self):
        assert mu(1) == pytest.approx(0.3996, abs=1e-4)
        assert rho(1) == pytest.approx(0.1991, abs=1e-4)

    def test_success_floor_above_04(self):
        assert seed_success_lower_bound(1) > 0.4
        assert seed_success_lower_bound(100) > 0.4

    @given(c=st.integers(1, 5000))
    @settings(max_examples=200, deadline=None)
    def test_strictly_decreasing(self, c):
        assert mu(c + 1) < mu(c)
        assert rho(c + 1) < rho(c)


class TestReliability:
    @pytest.mark.parametrize("alpha,eps,expected", [
        (0.9, 0.01, 44),
        (0.7, 0.01, 13),
        (0.05, 0.01, 2),
    ])
    def test_reference_points(self, alpha, eps, expected):
        assert reliability_number(alpha, eps) == expected

    def test_monotone_in_alpha(self):
        cs = [reliability_number(a / 100, 0.01) for a in range(5, 91, 5)]
        assert cs == sorted(cs)

    def test_guarantee_holds(self):
        for alpha in (0.3, 0.6, 0.9):
            c = reliability_number(alpha, 0.01)
            assert success_probability_approx(alpha, c) >= 0.99

    def test_validation(self):
        for bad in (0.0, 1.0, -1.0):
            with pytest.raises(ValueError):
                reliability_number(bad, 0.01)
            with pytest.raises(ValueError):
                reliability_number(0.5, bad)

    def test_subnormal_inputs(self):
        # 1/x overflows for a subnormal x; the logs of alpha and epsilon do not
        assert reliability_number(1e-320, 0.5) == 1
        assert reliability_number(0.5, 1e-320) == 1064


class TestSuccessProbability:
    def test_exact_known_values(self):
        # one missing of two, sample one: succeed half the time
        assert success_probability(2, 1, 1) == pytest.approx(0.5)
        # sampling more tags than are missing always succeeds
        assert success_probability(10, 3, 4) == 1.0
        # without replacement beats the with-replacement approximation
        exact = success_probability(100, 70, 5)
        approx = success_probability_approx(0.7, 5)
        assert exact >= approx

    def test_all_present(self):
        assert success_probability(50, 0, 1) == 1.0

    @given(
        n=st.integers(1, 200),
        data=st.data(),
    )
    @settings(max_examples=100, deadline=None)
    def test_bounds_and_monotonicity(self, n, data):
        missing = data.draw(st.integers(0, n))
        c = data.draw(st.integers(1, n))
        p = success_probability(n, missing, c)
        assert 0.0 <= p <= 1.0
        if c < n:
            assert success_probability(n, missing, c + 1) >= p
