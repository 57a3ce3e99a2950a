"""Noise generator and price-model simulation tests."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import roughvol as rv
from roughvol import fracsim
from roughvol.fracsim import (
    _EIG_TOLERANCE,
    GridPath,
    _circulant_eigenvalues,
    _fgn_unit_increments,
)


class TestFgnAutocovariance:
    def test_brownian_increments_uncorrelated(self):
        assert rv.fgn_autocovariance(0.5, 1) == 0.0

    def test_unit_variance_any_hurst(self):
        for hurst in (0.05, 0.3, 0.5, 0.77, 1.0):
            assert rv.fgn_autocovariance(hurst, 0) == 1.0

    def test_hurst_one_is_constant_unit(self):
        assert rv.fgn_autocovariance(1.0, 5) == pytest.approx(1.0, abs=1e-12)

    def test_rough_lag_one_value(self):
        # 0.5 * (2**0.2 - 2), negative correlation of rough increments
        expected = 0.5 * (2.0**0.2 - 2.0)
        assert rv.fgn_autocovariance(0.1, 1) == pytest.approx(expected, abs=1e-15)

    def test_rejects_bad_hurst(self):
        with pytest.raises(ValueError):
            rv.fgn_autocovariance(0.0, 1)
        with pytest.raises(ValueError):
            rv.fgn_autocovariance(1.2, 1)

    @given(
        hurst=st.sampled_from([0.1, 0.3, 0.5, 0.9]),
        big_lag=st.integers(min_value=1, max_value=100),
    )
    @settings(max_examples=60, deadline=None)
    def test_partial_sums_telescope(self, hurst, big_lag):
        # sum over |tau| <= L of gamma(tau) collapses to (L+1)^2H - L^2H
        lags = np.arange(-big_lag, big_lag + 1)
        direct = float(np.sum(rv.fgn_autocovariance(hurst, lags)))
        closed = (big_lag + 1.0) ** (2 * hurst) - float(big_lag) ** (2 * hurst)
        assert direct == pytest.approx(closed, rel=1e-10, abs=1e-10)


class TestSimulateFgn:
    def test_seed_determinism_and_sensitivity(self):
        spec = rv.FgnSpec(hurst=0.3, n_steps=512, dt=0.5, seed=99)
        a = rv.simulate_fgn(spec).values
        b = rv.simulate_fgn(spec).values
        c = rv.simulate_fgn(rv.FgnSpec(hurst=0.3, n_steps=512, dt=0.5, seed=100)).values
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_brownian_case_uncorrelated(self):
        x = rv.simulate_fgn(rv.FgnSpec(hurst=0.5, n_steps=100_000, dt=1.0, seed=5)).values
        lag1 = np.corrcoef(x[:-1], x[1:])[0, 1]
        assert abs(lag1) < 4.0 / math.sqrt(len(x))

    def test_rough_sample_variance(self):
        n = 100_000
        x = rv.simulate_fgn(rv.FgnSpec(hurst=0.1, n_steps=n, dt=1.0, seed=21)).values
        # fourth-moment bound for the variance of the sample variance
        assert abs(x.var() - 1.0) < 3.0 * math.sqrt(2.0 / n)

    def test_rough_lag_one_autocorrelation(self):
        x = rv.simulate_fgn(rv.FgnSpec(hurst=0.1, n_steps=100_000, dt=1.0, seed=22)).values
        lag1 = float(np.corrcoef(x[:-1], x[1:])[0, 1])
        assert lag1 == pytest.approx(0.5 * (2.0**0.2 - 2.0), abs=0.01)

    def test_dt_scaling(self):
        n = 50_000
        x = rv.simulate_fgn(rv.FgnSpec(hurst=0.3, n_steps=n, dt=0.01, seed=7)).values
        assert x.var() == pytest.approx(0.01**0.6, rel=0.05)

    def test_zero_mean_across_paths(self):
        # mean over independent paths at a fixed index is a 4-sigma bound
        paths = 2000
        index = 5
        dt = 1.0
        hurst = 0.9
        draws = np.array(
            [
                rv.simulate_fgn(rv.FgnSpec(hurst=hurst, n_steps=16, dt=dt, seed=s)).values[index]
                for s in range(paths)
            ]
        )
        assert abs(draws.mean()) < 4.0 * dt**hurst / math.sqrt(paths)

    def test_sample_acf_matches_closed_form(self):
        # averaged over paths: the single-path sample ACF converges only at
        # rate n**(2H-2) under long memory, far too slow at hurst 0.9
        n = 50_000
        paths = 8
        for hurst in (0.1, 0.5, 0.9):
            mean_acf = np.zeros(6)
            for k in range(paths):
                x = rv.simulate_fgn(rv.FgnSpec(hurst=hurst, n_steps=n, dt=1.0, seed=77 + k)).values
                level = float(x @ x) / n
                for lag in range(6):
                    mean_acf[lag] += (float(x[: n - lag] @ x[lag:]) / n) / level
            mean_acf /= paths
            for lag in range(6):
                assert mean_acf[lag] == pytest.approx(
                    rv.fgn_autocovariance(hurst, lag), abs=0.02
                )


# Hurst values and sizes over which the circulant embedding was scanned:
# small n, the sizes around powers of two, and up to 8192 steps; near
# H = 1 also the long grids where the difference form of the
# autocovariance cancelled catastrophically and the embedding went
# indefinite.
EMBEDDING_HURSTS = (0.001, 0.01, 0.05, 0.1, 0.2, 0.25, 0.3, 0.4, 0.5, 0.6, 0.7, 0.75,
                    0.8, 0.9, 0.95, 0.99, 0.999, 1.0)
EMBEDDING_SIZES = (*range(1, 130), 255, 256, 257, 1000, 1023, 4096, 8191, 8192)
EMBEDDING_CASES = [pytest.param(h, EMBEDDING_SIZES, id=str(h)) for h in EMBEDDING_HURSTS] + [
    pytest.param(0.99, (800_000,), id="0.99-800000"),
    pytest.param(0.999, (1_000_000,), id="0.999-1000000"),
]


def mirrored_eigenvalues(hurst, n):
    """All 2n embedding eigenvalues: complex FFT of the mirrored first row."""
    gamma = np.atleast_1d(rv.fgn_autocovariance(hurst, np.arange(n + 1)))
    return np.fft.fft(np.concatenate([gamma, gamma[-2:0:-1]])).real


def mirrored_fgn_draw(hurst, n, rng):
    """Reference draw: the full Hermitian 2n-vector of normals, scaled by the
    square roots of all 2n eigenvalues, through one complex FFT."""
    lam = np.clip(mirrored_eigenvalues(hurst, n), 0.0, None)
    v = np.empty(2 * n, dtype=complex)
    ends = rng.standard_normal(2)
    v[0] = ends[0]
    v[n] = ends[1]
    if n > 1:
        pairs = rng.standard_normal((n - 1, 2))
        inner = (pairs[:, 0] + 1j * pairs[:, 1]) / np.sqrt(2.0)
        v[1:n] = inner
        v[n + 1 :] = np.conj(inner[::-1])
    return np.fft.fft(np.sqrt(lam) * v)[:n].real / np.sqrt(2 * n)


class TestCirculantEmbedding:
    @pytest.mark.parametrize("hurst, sizes", EMBEDDING_CASES)
    def test_embedding_nonnegative_up_to_tolerance(self, hurst, sizes):
        worst = min(_circulant_eigenvalues(hurst, n).min() for n in sizes)
        assert worst >= _EIG_TOLERANCE

    @pytest.mark.parametrize("hurst", (0.1, 0.5, 0.9))
    @pytest.mark.parametrize("n", (1, 2, 3, 7, 4097, 100_000))
    def test_eigenvalues_are_first_half_of_mirrored_row_fft(self, hurst, n):
        full = mirrored_eigenvalues(hurst, n)
        eig = _circulant_eigenvalues(hurst, n)
        assert len(eig) == n + 1
        assert np.max(np.abs(eig - full[: n + 1])) <= 1e-13 * np.max(np.abs(full))

    @pytest.mark.parametrize("hurst", (0.1, 0.5, 0.9))
    @pytest.mark.parametrize("n", (1, 2, 3, 7, 4097, 100_000))
    def test_real_fft_draw_matches_mirrored_reference(self, hurst, n):
        draw = _fgn_unit_increments(hurst, n, np.random.default_rng(17))
        reference = mirrored_fgn_draw(hurst, n, np.random.default_rng(17))
        assert draw.shape == (n,)
        assert np.max(np.abs(draw - reference)) <= 1e-13

    def test_indefinite_embedding_raises(self, monkeypatch):
        eig = np.ones(64 + 1)
        eig[3] = -1e-3
        monkeypatch.setattr(fracsim, "_circulant_eigenvalues", lambda hurst, n: eig)
        message = r"hurst=0\.3, n=64: min eigenvalue -1\.000e-03"
        with pytest.raises(rv.SynthesisError, match=message):
            rv.simulate_fgn(rv.FgnSpec(hurst=0.3, n_steps=64, dt=1.0, seed=1))


class TestSimulateFouPrice:
    def test_grid_shape_and_dt(self):
        spec = rv.FouSpec(hurst=0.2, eta=1.0, alpha=0.5, c=-3.2, delta=1 / 250,
                          m=16, n_days=10, seed=3)
        log_var, log_price = rv.simulate_fou_price(spec)
        assert len(log_var) == len(log_price) == 10 * 16 + 1
        assert log_var.dt == pytest.approx((1 / 250) / 16)
        assert log_var.kind == "log_variance"
        assert log_price.kind == "log_price"
        assert log_price.values[0] == pytest.approx(math.log(100.0))

    def test_whole_float_count_gives_the_same_path(self):
        spec = dict(hurst=0.2, eta=1.0, alpha=0.5, c=-3.2, delta=1 / 250, n_days=4, seed=3)
        as_float = rv.FouSpec(m=8.0, **spec)
        assert type(as_float.m) is int and as_float.m == 8
        for whole, other in zip(rv.simulate_fou_price(rv.FouSpec(m=8, **spec)),
                                rv.simulate_fou_price(as_float)):
            assert (whole.dt, whole.values.tobytes()) == (other.dt, other.values.tobytes())

    def test_fractional_count_is_refused(self):
        # it used to pass validation and fail in the simulation with a TypeError
        with pytest.raises(ValueError, match="positive whole numbers, got 8.5$"):
            rv.FouSpec(hurst=0.2, eta=1.0, alpha=0.5, c=-3.2, delta=1 / 250, m=8.5,
                       n_days=4, seed=3)

    def test_degenerate_dynamics_constant(self):
        # alpha = 0 and eta -> 0 freezes log variance at its start
        spec = rv.FouSpec(hurst=0.5, eta=1e-12, alpha=0.0, c=-3.2, delta=1 / 250,
                          m=8, n_days=5, seed=1, logvar0=-2.0)
        log_var, _ = rv.simulate_fou_price(spec)
        assert np.allclose(log_var.values, -2.0, atol=1e-9)

    def test_zero_drift_reproduces_driving_path(self):
        # alpha = 0: log variance must equal logvar0 + eta * fBm exactly
        spec = rv.FouSpec(hurst=0.3, eta=2.0, alpha=0.0, c=5.0, delta=1 / 250,
                          m=20, n_days=8, seed=11, logvar0=-1.0)
        log_var, _ = rv.simulate_fou_price(spec)
        dt = spec.delta / spec.m
        rng = np.random.default_rng([spec.seed, 1])
        dw = dt**spec.hurst * _fgn_unit_increments(spec.hurst, 8 * 20, rng)
        expected = -1.0 + np.concatenate([[0.0], np.cumsum(2.0 * dw)])
        assert np.allclose(log_var.values, expected, rtol=0.0, atol=1e-12)

    def test_substeps_refine_grid(self):
        spec = rv.FouSpec(hurst=0.2, eta=1.0, alpha=0.1, c=-3.2, delta=1 / 250,
                          m=4, n_days=3, seed=9, substeps=5)
        log_var, _ = rv.simulate_fou_price(spec)
        assert len(log_var) == 3 * 4 * 5 + 1

    def test_overflow_guard_trips(self):
        spec = rv.FouSpec(hurst=0.5, eta=9.0, alpha=0.0, c=0.0, delta=1.0,
                          m=200, n_days=300, seed=2, logvar0=0.0)
        with pytest.raises(rv.VolatilityOverflowError):
            rv.simulate_fou_price(spec)

    def test_price_and_volatility_streams_independent(self):
        # same seed, different eta: price draws must be unchanged given vol
        spec_a = rv.FouSpec(hurst=0.5, eta=0.5, alpha=0.0, c=-3.2, delta=1 / 250,
                            m=8, n_days=4, seed=42, logvar0=-3.2)
        spec_b = rv.FouSpec(hurst=0.5, eta=1.0, alpha=0.0, c=-3.2, delta=1 / 250,
                            m=8, n_days=4, seed=42, logvar0=-3.2)
        lv_a, lp_a = rv.simulate_fou_price(spec_a)
        lv_b, lp_b = rv.simulate_fou_price(spec_b)
        ret_a = np.diff(lp_a.values) / np.exp(0.5 * lv_a.values[:-1])
        ret_b = np.diff(lp_b.values) / np.exp(0.5 * lv_b.values[:-1])
        assert np.allclose(ret_a, ret_b, rtol=1e-12)


class TestGridPath:
    def test_validation(self):
        with pytest.raises(ValueError):
            GridPath(np.array([1.0]), dt=1.0, kind="log_price")
        with pytest.raises(ValueError):
            GridPath(np.array([1.0, np.inf]), dt=1.0)
        with pytest.raises(ValueError):
            GridPath(np.array([1.0, 2.0]), dt=-1.0)
        with pytest.raises(ValueError):
            GridPath(np.array([1.0, 2.0]), dt=1.0, kind="mystery")

    def test_csv_roundtrip_bit_exact(self, tmp_path):
        values = np.random.default_rng(0).standard_normal(64)
        path = GridPath(values, dt=1.0 / 3.0, t0=0.25)
        target = tmp_path / "grid.csv"
        rv.write_csv(target, ["t", "value"], zip(path.times(), path.values))
        assert b"\r" not in target.read_bytes()
        back = rv.read_grid_csv(target, kind="log_variance")
        assert np.array_equal(back.values, path.values)
        assert back.dt == pytest.approx(path.dt, rel=1e-12)
        assert back.t0 == path.t0
        assert back.kind == "log_variance"

    def test_from_csv_rejects_nonuniform(self, tmp_path):
        target = tmp_path / "bad.csv"
        target.write_text("t,value\n0,1\n1,2\n3,4\n")
        with pytest.raises(ValueError, match="uniform"):
            rv.read_grid_csv(target)
