"""Structure-function regression tests."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import roughvol as rv


def exact_fbm_log_vol(hurst, n, seed):
    inc = rv.simulate_fgn(rv.FgnSpec(hurst=hurst, n_steps=n, dt=1.0, seed=seed)).values
    return np.concatenate([[0.0], np.cumsum(inc)])


class TestStructureFunction:
    def test_constant_series(self):
        assert rv.structure_function(np.zeros(100), 2.0, 3) == 0.0

    def test_alternating_series(self):
        x = np.array([0.0, 1.0] * 50)
        assert rv.structure_function(x, 2.0, 1) == 1.0

    def test_lag_too_large(self):
        with pytest.raises(ValueError, match="lag"):
            rv.structure_function(np.arange(10.0), 1.0, 10)

    def test_fbm_moment_identity(self):
        # variance of lag increments of unit fBm is lag^(2H)
        x = exact_fbm_log_vol(0.3, 100_000, seed=6)
        for lag in (1, 4, 16):
            got = rv.structure_function(x, 2.0, lag)
            assert got == pytest.approx(float(lag) ** 0.6, rel=0.05)

    @given(
        shift=st.floats(min_value=-50.0, max_value=50.0),
        q=st.floats(min_value=0.5, max_value=3.0),
    )
    @settings(max_examples=25, deadline=None)
    def test_shift_invariance(self, shift, q):
        x = np.random.default_rng(11).standard_normal(200)
        a = rv.structure_function(x, q, 5)
        b = rv.structure_function(x + shift, q, 5)
        assert b == pytest.approx(a, rel=1e-9)

    @given(scale=st.floats(min_value=0.1, max_value=5.0), q=st.sampled_from([0.5, 1.0, 2.0]))
    @settings(max_examples=25, deadline=None)
    def test_positive_scaling(self, scale, q):
        x = np.random.default_rng(12).standard_normal(200)
        a = rv.structure_function(x, q, 3)
        b = rv.structure_function(scale * x, q, 3)
        assert b == pytest.approx(scale**q * a, rel=1e-9)


class TestFitScaling:
    def test_recovers_fbm_exponent(self):
        x = exact_fbm_log_vol(0.3, 100_000, seed=14)
        fit = rv.fit_scaling(x)
        assert fit.h_estimate == pytest.approx(0.3, abs=0.02)
        assert np.all(fit.r2_stage1 > 0.99)
        assert fit.r2_stage2 > 0.99

    def test_degenerate_input_rejected(self):
        with pytest.raises(ValueError, match="constant"):
            rv.fit_scaling(np.zeros(200))

    def test_q_reordering_invariance(self):
        x = exact_fbm_log_vol(0.4, 5000, seed=3)
        forward = rv.fit_scaling(x, qs=(0.5, 1.0, 2.0), lags=range(1, 20))
        shuffled = rv.fit_scaling(x, qs=(2.0, 0.5, 1.0), lags=range(1, 20))
        assert forward.h_estimate == pytest.approx(shuffled.h_estimate, rel=1e-12)

    def test_lag_permutation_invariance(self):
        x = exact_fbm_log_vol(0.4, 5000, seed=3)
        forward = rv.fit_scaling(x, qs=(1.0, 2.0), lags=(1, 2, 5, 10, 25))
        scrambled = rv.fit_scaling(x, qs=(1.0, 2.0), lags=(25, 5, 1, 10, 2))
        assert np.allclose(forward.zeta, scrambled.zeta)

    def test_carries_the_regressed_structure_functions(self):
        x = exact_fbm_log_vol(0.4, 2000, seed=5)
        fit = rv.fit_scaling(x, qs=(0.5, 2.0), lags=(7, 1, 3))
        assert fit.structure_functions.shape == (2, 3)
        for i, q in enumerate((0.5, 2.0)):
            for j, lag in enumerate((1, 3, 7)):
                assert fit.structure_functions[i, j] == rv.structure_function(x, q, lag)

    def test_monofractal_slope_doubling(self):
        x = exact_fbm_log_vol(0.3, 100_000, seed=21)
        fit = rv.fit_scaling(x, qs=(1.0, 2.0), lags=range(1, 30))
        assert fit.zeta[1] == pytest.approx(2.0 * fit.zeta[0], rel=0.05)

    def test_with_intercept_diagnostic_close_on_clean_data(self):
        x = exact_fbm_log_vol(0.5, 50_000, seed=9)
        fit = rv.fit_scaling(x)
        assert fit.h_with_intercept == pytest.approx(fit.h_estimate, abs=0.03)

    def test_smooth_vol_five_minute_rv_regresses_rough(self):
        # the headline artifact: realized-volatility noise drags the
        # regression exponent far below the true hurst = 1/2
        spec = rv.FouSpec(hurst=0.5, eta=0.8, alpha=10.0, c=-3.2,
                          delta=1.0 / 250.0, m=80, n_days=2500, seed=20260808)
        _, log_price = rv.simulate_fou_price(spec)
        series = rv.realized_variance(log_price, 80, 1.0 / 250.0)
        fit = rv.fit_scaling(0.5 * np.log(series.values))
        assert 0.05 < fit.h_estimate < 0.15

    def test_rough_crosscheck_dynamics_regress_near_published_value(self):
        # very rough dynamics with heavy vol-of-vol still regress near 0.12
        # at the five-minute frequency
        spec = rv.FouSpec(hurst=0.03, eta=2.5, alpha=0.005, c=-3.2,
                          delta=1.0 / 250.0, m=80, n_days=2500, seed=20260808)
        _, log_price = rv.simulate_fou_price(spec)
        series = rv.realized_variance(log_price, 80, 1.0 / 250.0)
        fit = rv.fit_scaling(0.5 * np.log(series.values))
        assert fit.h_estimate == pytest.approx(0.12, abs=0.03)
