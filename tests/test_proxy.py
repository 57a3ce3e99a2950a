"""Realized variance, integrated variance and proxy-error tests."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import roughvol as rv
from roughvol.fracsim import GridPath
from roughvol.proxy import AlignmentError


def brownian_log_price(sigma, n_days, m, delta, seed, s0=100.0):
    rng = np.random.default_rng(seed)
    dt = delta / m
    increments = sigma * math.sqrt(dt) * rng.standard_normal(n_days * m)
    values = math.log(s0) + np.concatenate([[0.0], np.cumsum(increments)])
    return GridPath(values, dt=dt, kind="log_price")


class TestRealizedVariance:
    def test_constant_price_rejected_with_diagnostic(self):
        path = GridPath(np.zeros(41), dt=1.0 / 40.0, kind="log_price")
        with pytest.raises(ValueError, match="nonpositive"):
            rv.realized_variance(path, m=4, delta=0.1)

    def test_deterministic_stair_price(self):
        # price advancing h per intraday step: every day sums m * h^2
        h = 0.01
        m, days = 5, 3
        path = GridPath(h * np.arange(m * days + 1.0), dt=1.0 / m, kind="log_price")
        series = rv.realized_variance(path, m=m, delta=1.0)
        assert np.allclose(series.values, m * h * h)

    def test_bm_price_mean_matches_quadratic_variation(self):
        sigma, m, days, delta = 0.2, 48, 10_000, 1.0 / 250.0
        path = brownian_log_price(sigma, days, m, delta, seed=17)
        series = rv.realized_variance(path, m=m, delta=delta)
        expected = sigma * sigma * delta
        tol = 3.0 * expected * math.sqrt(2.0 / m) / math.sqrt(days)
        assert abs(series.values.mean() - expected) < tol

    def test_alignment_error(self):
        path = GridPath(np.arange(101.0), dt=0.3, kind="log_price")
        with pytest.raises(AlignmentError):
            rv.realized_variance(path, m=7, delta=1.0)

    def test_shift_invariance(self):
        path = brownian_log_price(0.3, 20, 8, 1.0 / 250.0, seed=3)
        shifted = GridPath(path.values + 5.0, dt=path.dt, kind="log_price")
        a = rv.realized_variance(path, 8, 1.0 / 250.0).values
        b = rv.realized_variance(shifted, 8, 1.0 / 250.0).values
        # exact up to the float rounding the shift itself introduces
        assert np.allclose(a, b, rtol=1e-9)

    def test_time_relabeling_invariance(self):
        # only grid indices matter, not the clock labels
        path = brownian_log_price(0.3, 20, 8, 1.0 / 250.0, seed=3)
        relabeled = GridPath(path.values, dt=path.dt, t0=7.25, kind="log_price")
        a = rv.realized_variance(path, 8, 1.0 / 250.0).values
        b = rv.realized_variance(relabeled, 8, 1.0 / 250.0).values
        assert np.array_equal(a, b)

    @given(scale=st.floats(min_value=0.1, max_value=10.0))
    @settings(max_examples=20, deadline=None)
    def test_return_scaling_squares(self, scale):
        path = brownian_log_price(0.3, 6, 8, 1.0 / 250.0, seed=11)
        base = path.values[0]
        scaled = GridPath(base + scale * (path.values - base), dt=path.dt, kind="log_price")
        a = rv.realized_variance(path, 8, 1.0 / 250.0).values
        b = rv.realized_variance(scaled, 8, 1.0 / 250.0).values
        assert np.allclose(b, scale * scale * a, rtol=1e-12)

    def test_strided_grid_subsampling(self):
        # finer grid than the sampling frequency: stride > 1
        sigma, m_fine, days, delta = 0.2, 40, 6, 1.0 / 250.0
        path = brownian_log_price(sigma, days, m_fine, delta, seed=8)
        coarse = rv.realized_variance(path, m=8, delta=delta)
        manual = path.values[:: 5]
        returns = np.diff(manual[: days * 8 + 1])
        expect = (returns**2).reshape(days, 8).sum(axis=1)
        assert np.allclose(coarse.values, expect)


class TestIntegratedVariance:
    def test_constant_variance(self):
        path = GridPath(np.full(33, math.log(0.04)), dt=1.0 / 16.0, kind="log_variance")
        iv = rv.integrated_variance(path, delta=1.0)
        assert np.allclose(iv, 0.04)

    def test_linear_variance_trapezoid_exact(self):
        # variance linear from a to b over one day: integral is (a+b)/2 * delta
        a, b, steps = 0.01, 0.05, 64
        var = np.linspace(a, b, steps + 1)
        path = GridPath(np.log(var), dt=1.0 / steps, kind="log_variance")
        iv = rv.integrated_variance(path, delta=1.0)
        assert iv[0] == pytest.approx((a + b) / 2.0, rel=1e-12)

    def test_smooth_path_quadratic_convergence(self):
        # deterministic mean-reverting log variance: the day integral has a
        # closed form, and halving the step shrinks the trapezoid error 4x
        alpha, c, x0, delta = 3.0, -3.2, -1.0, 1.0 / 250.0

        def exact_day_integral(steps):
            t = np.linspace(0.0, delta, steps + 1)
            logvar = c + (x0 - c) * np.exp(-alpha * t)
            path = GridPath(logvar, dt=delta / steps, kind="log_variance")
            from scipy.integrate import quad

            truth, _ = quad(
                lambda u: math.exp(c + (x0 - c) * math.exp(-alpha * u)),
                0.0, delta, epsabs=1e-18,
            )
            return abs(rv.integrated_variance(path, delta)[0] - truth), truth

        err_64, truth = exact_day_integral(64)
        err_128, _ = exact_day_integral(128)
        assert err_64 / truth < 1e-6
        assert err_64 / err_128 == pytest.approx(4.0, rel=0.05)

    def test_self_convergence_on_rough_path(self):
        # fractional paths are only Hoelder-H, so refinement converges at a
        # reduced rate; check agreement at the realistic scale
        fine_spec = rv.FouSpec(hurst=0.3, eta=1.0, alpha=0.5, c=-3.2,
                               delta=1.0 / 250.0, m=32, n_days=6, seed=13, substeps=16)
        fine_lv, _ = rv.simulate_fou_price(fine_spec)
        iv_fine = rv.integrated_variance(fine_lv, 1.0 / 250.0)
        half = GridPath(fine_lv.values[::2], dt=fine_lv.dt * 2, kind="log_variance")
        iv_half = rv.integrated_variance(half, 1.0 / 250.0)
        assert np.allclose(iv_half, iv_fine, rtol=2e-2)
        assert len(iv_fine) == 6


class TestLogRvIncrements:
    def test_constant_series_zero(self):
        series = rv.RvSeries(np.full(5, 2.0e-4), delta=1.0 / 250.0, m=8)
        assert np.allclose(rv.log_rv_increments(series).y, 0.0)

    def test_geometric_series_unit_steps(self):
        series = rv.RvSeries(np.array([1.0, math.e, math.e**2]), delta=1.0, m=1)
        assert np.allclose(rv.log_rv_increments(series).y, 1.0)

    def test_telescoping_sum(self):
        values = np.random.default_rng(5).uniform(1e-5, 1e-3, size=50)
        series = rv.RvSeries(values, delta=1.0 / 250.0, m=8)
        y = rv.log_rv_increments(series).y
        assert y.sum() == pytest.approx(math.log(values[-1]) - math.log(values[0]), abs=1e-12)

    def test_nonpositive_rejected_at_construction(self):
        with pytest.raises(ValueError, match="nonpositive"):
            rv.RvSeries(np.array([1e-4, 0.0, 2e-4]), delta=1.0 / 250.0, m=8)


class TestIntradayCounts:
    """An intraday count is a whole number from 1 up; 8.0 reads as 8."""

    def test_whole_float_count_gives_the_same_bits(self):
        path = brownian_log_price(0.2, 30, 8, 1.0 / 250.0, seed=5)
        whole = rv.realized_variance(path, 8, 1.0 / 250.0)
        as_float = rv.realized_variance(path, 8.0, 1.0 / 250.0)
        assert as_float.values.tobytes() == whole.values.tobytes()
        assert type(as_float.m) is int and as_float.m == 8
        y = rv.LogRvIncrements(np.zeros(3), delta=1.0 / 250.0, m=8.0)
        assert type(y.m) is int and y.m == 8

    @pytest.mark.parametrize("make", [
        lambda m: rv.realized_variance(brownian_log_price(0.2, 2, 8, 1.0, seed=5), m, 1.0),
        lambda m: rv.RvSeries(np.ones(3), delta=1.0, m=m),
        lambda m: rv.LogRvIncrements(np.zeros(3), delta=1.0, m=m),
    ], ids=["realized_variance", "RvSeries", "LogRvIncrements"])
    @pytest.mark.parametrize("m", [8.5, 0])
    def test_other_counts_are_refused(self, make, m):
        with pytest.raises(ValueError, match=f"positive whole numbers, got {m}$"):
            make(m)


class TestErrorZscores:
    def test_equal_inputs_zero(self):
        series = rv.RvSeries(np.array([1e-4, 2e-4]), delta=1.0 / 250.0, m=100)
        z = rv.error_zscores(series, series.values.copy())
        assert np.allclose(z, 0.0)

    def test_length_mismatch(self):
        series = rv.RvSeries(np.array([1e-4, 2e-4]), delta=1.0 / 250.0, m=100)
        with pytest.raises(ValueError, match="mismatch"):
            rv.error_zscores(series, np.array([1e-4]))

    def test_bm_limit_variance_and_independence(self):
        # constant volatility: z = sqrt(m) log(chi2_m / m); variance tends to 2
        sigma, m, days, delta = 0.2, 1000, 2000, 1.0 / 250.0
        path = brownian_log_price(sigma, days, m, delta, seed=29)
        series = rv.realized_variance(path, m=m, delta=delta)
        iv = np.full(days, sigma * sigma * delta)
        z = rv.error_zscores(series, iv)
        assert np.var(z, ddof=1) == pytest.approx(2.0, rel=0.10)
        zc = z - z.mean()
        lag1 = float(zc[:-1] @ zc[1:] / (zc @ zc))
        assert abs(lag1) < 4.0 / math.sqrt(days)

    def test_variance_decreases_toward_two_in_m(self):
        # one underlying fine path per repetition, subsampled at coarser m;
        # the expected variances (2.041, 2.010, 2.003) sit within sampling
        # noise of each other at adjacent m, so the trend is asserted
        # between the endpoints
        sigma, delta, days = 0.2, 1.0 / 250.0, 3000
        m_values = (50, 200, 800)
        sums = {m: 0.0 for m in m_values}
        reps = 12
        for rep in range(reps):
            path = brownian_log_price(sigma, days, 800, delta, seed=100 + rep)
            iv = np.full(days, sigma * sigma * delta)
            for m in m_values:
                series = rv.realized_variance(path, m=m, delta=delta)
                sums[m] += float(np.var(rv.error_zscores(series, iv), ddof=1))
        means = {m: sums[m] / reps for m in m_values}
        assert means[50] > means[800]
        assert abs(means[800] - 2.0) < abs(means[50] - 2.0)
        for m in m_values:
            assert 1.9 < means[m] < 2.15
