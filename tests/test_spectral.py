"""Spectral density, periodogram and autocovariance tests."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import roughvol as rv

TWO_PI = 2.0 * math.pi


def f_half_closed_form(lam):
    """Alias sum in closed form at hurst = 1/2: (2/3 + cos(lam)/3) / (2 pi)."""
    return (2.0 / 3.0 + np.cos(lam) / 3.0) / TWO_PI


def dense_alias_sum(lam, hurst, j_max=10**6):
    """Direct summation of the alias series to |j| <= j_max (slow oracle)."""
    total = np.abs(lam) ** (-(3.0 + 2.0 * hurst))
    j = np.arange(1, j_max + 1, dtype=float)
    for sign in (1.0, -1.0):
        total += np.sum(np.abs(lam + sign * TWO_PI * j) ** (-(3.0 + 2.0 * hurst)))
    return rv.c_h(hurst) * (2.0 * (1.0 - math.cos(lam))) ** 2 * total


class TestCh:
    def test_half(self):
        assert rv.c_h(0.5) == pytest.approx(1.0 / TWO_PI, abs=1e-15)

    def test_small_hurst_limit(self):
        assert 0.0 < rv.c_h(0.001) < 0.001

    def test_reference_value_at_03(self):
        # Gamma(1.6) = 0.8935153493 (tables), sin(0.3 pi) = 0.8090169944
        expected = 0.8935153493 * 0.8090169944 / TWO_PI
        assert rv.c_h(0.3) == pytest.approx(expected, abs=1e-9)

    def test_domain(self):
        with pytest.raises(ValueError):
            rv.c_h(0.0)
        with pytest.raises(ValueError):
            rv.c_h(-0.2)
        with pytest.raises(ValueError):
            rv.c_h(1.5)


class TestFh:
    def test_half_closed_form_at_pi(self):
        assert rv.f_h(math.pi, 0.5, 500) == pytest.approx(1.0 / (6.0 * math.pi), abs=1e-8)

    def test_half_closed_form_at_half_pi(self):
        assert rv.f_h(math.pi / 2.0, 0.5, 500) == pytest.approx(1.0 / (3.0 * math.pi), abs=1e-8)

    def test_dense_summation_spot_checks(self):
        for lam in (0.3, 1.0, math.pi):
            direct = dense_alias_sum(lam, 0.5, j_max=200_000)
            assert rv.f_h(lam, 0.5, 500) == pytest.approx(direct, abs=1e-8)
            assert f_half_closed_form(lam) == pytest.approx(direct, abs=1e-9)

    def test_low_frequency_power_law(self):
        hurst = 0.3
        lam = 1e-4
        ratio = rv.f_h(lam, hurst) / (rv.c_h(hurst) * lam ** (1.0 - 2.0 * hurst))
        assert ratio == pytest.approx(1.0, abs=1e-3)

    def test_even_in_lambda(self):
        lam = np.array([0.1, 0.7, 2.0, 3.0])
        assert np.allclose(rv.f_h(lam, 0.2), rv.f_h(-lam, 0.2), rtol=0.0, atol=0.0)

    def test_truncation_converged_at_default(self):
        lam = np.linspace(1e-3, math.pi, 101)
        for hurst in (0.05, 0.3, 0.7):
            drift = np.abs(rv.f_h(lam, hurst, 500) - rv.f_h(lam, hurst, 2000))
            assert drift.max() < 1e-9

    def test_origin_rules(self):
        assert rv.f_h(0.0, 0.3) == 0.0
        assert rv.f_h(0.0, 0.5) == pytest.approx(rv.c_h(0.5), abs=1e-15)
        with pytest.raises(ValueError, match="diverges"):
            rv.f_h(0.0, 0.7)

    def test_domain_errors(self):
        for density in (rv.f_h, rv.f_h_dense):
            with pytest.raises(ValueError):
                density(0.5, 1.5)
            with pytest.raises(ValueError):
                density(4.0, 0.3)
            with pytest.raises(ValueError, match="paxson_k"):
                density(0.5, 0.3, 0)

    @given(
        hurst=st.floats(min_value=0.02, max_value=0.99),
        lam=st.floats(min_value=1e-6, max_value=math.pi),
    )
    @settings(max_examples=60, deadline=None)
    def test_dense_rearrangement_agrees(self, hurst, lam):
        direct = rv.f_h(lam, hurst, 500)
        fast = rv.f_h_dense(lam, hurst, 500)
        assert fast == pytest.approx(direct, rel=1e-12, abs=1e-300)


def workspace_nodes(n):
    """The quadrature nodes of a workspace on n increments, levels 0 and 1
    in one node set."""
    y = rv.LogRvIncrements(np.random.default_rng(n).standard_normal(n), delta=1.0 / 250.0, m=80)
    return rv.WhittleObjective(y)._nodes.lam1


NODE_SET_HURSTS = (0.001, 0.01, 0.1, 0.5, 0.9, 0.99)


class TestDenseNodes:
    @pytest.mark.parametrize("n_days", [501, 2500])
    def test_node_set_equals_plain_call_and_direct_sum(self, n_days):
        nodes = workspace_nodes(n_days - 1)
        node_set = rv.DenseNodes(nodes, 500)
        for hurst in NODE_SET_HURSTS:
            fast = rv.f_h_dense(node_set, hurst)
            assert np.array_equal(fast, rv.f_h_dense(nodes, hurst))
            # the direct sum in chunks keeps its K x N temporaries small
            direct = np.concatenate(
                [rv.f_h(chunk, hurst, 500) for chunk in np.array_split(nodes, 8)]
            )
            assert np.max(np.abs(fast - direct) / direct) < 1e-12

    @pytest.mark.parametrize("paxson_k", [1, 2, 7])
    def test_small_truncation_matches_direct_sum(self, paxson_k):
        # K = 1 at lambda = pi puts the tail base 2 pi K - lambda at half its
        # size, where the folded tail series converges slowest.
        lam = np.concatenate([np.geomspace(1e-6, 1.0, 200), np.linspace(1.0, math.pi, 200)])
        for hurst in NODE_SET_HURSTS + (1.0,):
            fast = rv.f_h_dense(lam, hurst, paxson_k)
            direct = rv.f_h(lam, hurst, paxson_k)
            assert np.max(np.abs(fast - direct) / direct) <= 1e-12

    def test_reuse_across_hurst_matches_fresh_calls(self):
        lam = np.linspace(1e-6, math.pi, 257)
        node_set = rv.DenseNodes(lam)
        hursts = [0.3, 0.05, 0.9, 0.3, 0.5, 0.001, 0.05]
        reused = [rv.f_h_dense(node_set, hurst) for hurst in hursts]
        for hurst, value in zip(hursts, reused):
            assert np.array_equal(value, rv.f_h_dense(lam, hurst))

    def test_scalar_and_shaped_input_keep_their_shape(self):
        value = rv.f_h_dense(0.7, 0.3)
        assert isinstance(value, float)
        assert rv.f_h_dense(rv.DenseNodes(0.7), 0.3) == value
        assert rv.f_h_dense(np.float64(0.7), 0.3) == value
        lam = np.array([[0.1, -0.7, 2.0], [3.0, 0.0, -1.5]])
        for density_input in (lam, rv.DenseNodes(lam)):
            shaped = rv.f_h_dense(density_input, 0.3)
            assert shaped.shape == (2, 3)
            assert np.array_equal(shaped.ravel(), rv.f_h_dense(lam.ravel(), 0.3))
        assert rv.f_h_dense(np.array([0.7]), 0.3).shape == (1,)

    def test_origin_rules(self):
        lam = np.array([0.0, 0.5])
        for density_input in (lam, rv.DenseNodes(lam)):
            assert rv.f_h_dense(density_input, 0.3)[0] == 0.0
            assert rv.f_h_dense(density_input, 0.5)[0] == pytest.approx(rv.c_h(0.5), abs=1e-15)
            with pytest.raises(ValueError, match="diverges"):
                rv.f_h_dense(density_input, 0.7)
        assert rv.f_h_dense(0.0, 0.3) == 0.0

    def test_paxson_k_must_match_the_node_set(self):
        node_set = rv.DenseNodes(np.array([0.2, 1.0]), 400)
        with pytest.raises(ValueError, match="paxson_k=400"):
            rv.f_h_dense(node_set, 0.3)
        with pytest.raises(ValueError, match="paxson_k=400"):
            rv.f_h_dense(node_set, 0.3, 500)
        assert np.array_equal(rv.f_h_dense(node_set, 0.3, 400),
                              rv.f_h_dense(np.array([0.2, 1.0]), 0.3, 400))

    def test_every_array_has_one_entry_per_node(self):
        # a node set grows with the grid alone: no per-node powers, nothing per alias term
        lam = np.linspace(-math.pi, math.pi, 37).reshape(37, 1)
        for paxson_k in (1, 500):
            shapes = {name: value.shape for name, value in vars(rv.DenseNodes(lam, paxson_k)).items()
                      if isinstance(value, np.ndarray)}
            assert shapes and set(shapes.values()) == {(37,)}, shapes

    def test_rejects_bad_node_sets(self):
        with pytest.raises(ValueError, match="lambda must lie"):
            rv.DenseNodes(np.array([0.5, 4.0]))
        with pytest.raises(ValueError, match="paxson_k"):
            rv.DenseNodes(0.5, 0)


class TestEll:
    def test_values(self):
        assert rv.ell(0.0) == 0.0
        assert rv.ell(math.pi) == pytest.approx(2.0 / math.pi, abs=1e-15)

    def test_integrates_to_two(self):
        # forced by the differenced-noise variance: integral over a period is 2
        from scipy.integrate import quad

        total, err = quad(rv.ell, -math.pi, math.pi, epsabs=1e-12)
        assert total == pytest.approx(2.0, abs=1e-10)


def test_low_frequency_factors_match_their_taylor_series():
    # 2(1 - cos x)/x^2 = 1 - x^2/12 + x^4/360 - x^6/20160 + O(x^8), exact to
    # double precision for x <= 1e-2; forming 1 - cos x directly loses
    # digits to cancellation there, down to the cut frequency psi = 1e-5
    lam = np.geomspace(1e-5, 1e-2, 500)
    x2 = lam * lam
    ratio = 1.0 - x2 / 12.0 + x2 * x2 / 360.0 - x2 * x2 * x2 / 20160.0
    ratio2 = rv.DenseNodes(lam).ratio2
    assert np.max(np.abs(ratio2 - ratio**2) / ratio**2) <= 2e-15
    ell_series = x2 / TWO_PI * ratio
    assert np.max(np.abs(rv.ell(lam) - ell_series) / ell_series) <= 2e-15


class TestGSpectrum:
    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError, match="nu must be positive"):
            rv.g_spectrum(1.0, 0.3, 0.0, 80)
        with pytest.raises(ValueError, match="m must be >= 1"):
            rv.g_spectrum(1.0, 0.3, 1.0, 0)

    @pytest.mark.parametrize("nu", [math.nan, math.inf])
    def test_rejects_non_finite_nu(self, nu):
        # the check the objective makes: a nan passes nu <= 0 and spreads through g
        with pytest.raises(ValueError, match=f"nu must be positive and finite, got {nu}$"):
            rv.g_spectrum(np.array([0.5, 1.0]), 0.3, nu, 80)

    def test_noise_only(self):
        lam = 1.3
        assert rv.g_spectrum(lam, 0.3, 1e-30, 50) == pytest.approx((2.0 / 50) * rv.ell(lam), rel=1e-6)

    def test_large_m_limit(self):
        lam = 1.3
        assert rv.g_spectrum(lam, 0.3, 1.0, 10**9) == pytest.approx(rv.f_h(lam, 0.3), rel=1e-6)

    def test_additivity_at_closed_form_point(self):
        # noise term at pi is (2/m) * ell(pi) = 4/(m pi), since ell(pi) = 2/pi
        expected = 1.0 / (6.0 * math.pi) + 4.0 / (80.0 * math.pi)
        assert rv.g_spectrum(math.pi, 0.5, 1.0, 80) == pytest.approx(expected, abs=1e-8)

    def test_positive_and_vanishing_at_origin_for_rough(self):
        lam = np.array([1e-8, 1e-4, 0.1, 1.0, math.pi])
        for hurst in (0.05, 0.3, 0.49):
            g = rv.g_spectrum(lam, hurst, 2.0, 80)
            assert np.all(g > 0.0)
            # decay toward zero is lambda**(1-2H): fast for small hurst,
            # logarithmically slow as hurst approaches 1/2
            trail = [float(rv.g_spectrum(x, hurst, 2.0, 80)) for x in (1e-2, 1e-6, 1e-12)]
            assert trail[0] > trail[1] > trail[2] > 0.0
            limit_scale = 4.0 * rv.c_h(hurst) * 1e-12 ** (1.0 - 2.0 * hurst)
            assert trail[2] == pytest.approx(limit_scale, rel=1e-3)


class TestPeriodogram:
    def test_zeros(self):
        assert rv.periodogram(np.zeros(16), 0.7) == 0.0

    def test_single_spike(self):
        y = np.zeros(11)
        y[0] = 3.0
        for lam in (0.0, 0.3, 1.0, math.pi):
            assert rv.periodogram(y, lam) == pytest.approx(9.0 / (TWO_PI * 11), rel=1e-12)

    def test_alternating_sequence_concentrates_at_pi(self):
        for n in (10, 11):
            y = np.array([(-1.0) ** t for t in range(1, n + 1)])
            assert rv.periodogram(y, math.pi) == pytest.approx(n / TWO_PI, rel=1e-10)
            at_zero = rv.periodogram(y, 0.0)
            if n % 2 == 0:
                assert at_zero == pytest.approx(0.0, abs=1e-12)
            else:
                assert at_zero == pytest.approx(1.0 / (TWO_PI * n), rel=1e-10)

    @given(seed=st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=20, deadline=None)
    def test_even_and_nonnegative(self, seed):
        y = np.random.default_rng(seed).standard_normal(17)
        lam = np.array([0.03, 0.4, 1.1, 2.9])
        left = rv.periodogram(y, lam)
        right = rv.periodogram(y, -lam)
        assert np.all(left >= 0.0)
        assert np.allclose(left, right, rtol=1e-10)

    def test_parseval_by_quadrature(self):
        # trapezoid over a full period integrates this trigonometric
        # polynomial exactly once the grid exceeds its degree
        y = np.random.default_rng(3).standard_normal(64)
        grid_size = 2 * len(y) + 1
        lam = -math.pi + TWO_PI * np.arange(grid_size) / grid_size
        integral = rv.periodogram(y, lam).sum() * TWO_PI / grid_size
        assert integral == pytest.approx(float(y @ y) / len(y), rel=1e-12)

    def test_matches_fft_on_fourier_grid(self):
        y = np.random.default_rng(9).standard_normal(128)
        n = len(y)
        k = np.arange(n)
        lam = TWO_PI * k / n
        via_fft = np.abs(np.fft.fft(y)) ** 2 / (TWO_PI * n)
        assert np.allclose(rv.periodogram(y, lam), via_fft, rtol=1e-8, atol=1e-12)

    @pytest.mark.parametrize("n", [500, 2500, 20_000])
    @given(seed=st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=8, deadline=None)
    def test_goertzel_matches_exact_sum(self, n, seed):
        # The recurrence loses digits as lambda -> 0 and n grows; against a
        # direct sum added exactly (math.fsum) it stays within 1e-7 relative,
        # ten times the quadrature tolerance, down to lambda = 1e-5 at n = 2e4.
        rng = np.random.default_rng(seed)
        y = np.diff(np.cumsum(rng.standard_normal(n + 1)) + rng.standard_normal(n + 1))
        lam = np.geomspace(1e-5, 3.0, 25)
        t = np.arange(1, n + 1)
        exact = np.array([
            (math.fsum(y * np.cos(t * x)) ** 2 + math.fsum(y * np.sin(t * x)) ** 2) / (TWO_PI * n)
            for x in lam
        ])
        assert np.max(np.abs(rv.periodogram(y, lam) - exact) / exact) < 1e-7

    @pytest.mark.parametrize("n", [500, 2500, 20_000])
    @given(seed=st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=8, deadline=None)
    def test_low_frequency_precision(self, n, seed):
        # Horner's rule is stable on |z| = 1: on the increments and
        # frequencies of the test above it stays within 1e-10 relative of
        # the exact sum, a hundredth of the quadrature tolerance (the
        # largest error seen over 300 seeds at n = 2e4 is 4e-11)
        rng = np.random.default_rng(seed)
        y = np.diff(np.cumsum(rng.standard_normal(n + 1)) + rng.standard_normal(n + 1))
        lam = np.geomspace(1e-5, 3.0, 25)
        t = np.arange(1, n + 1)
        exact = np.array([
            (math.fsum(y * np.cos(t * x)) ** 2 + math.fsum(y * np.sin(t * x)) ** 2) / (TWO_PI * n)
            for x in lam
        ])
        assert np.max(np.abs(rv.periodogram(y, lam) - exact) / exact) < 1e-10


class TestAutocovarianceHat:
    def test_lag_zero_is_mean_square(self):
        y = np.random.default_rng(1).standard_normal(33)
        assert rv.autocovariance_hat(y)[0] == pytest.approx(float(y @ y) / 33, rel=1e-12)

    def test_hand_computed_small_case(self):
        y = np.array([1.0, -1.0, 1.0, -1.0])
        expected = np.array([1.0, -0.75, 0.5, -0.25])
        assert np.allclose(rv.autocovariance_hat(y), expected, atol=1e-14)

    def test_fft_equals_direct(self):
        y = np.random.default_rng(2).standard_normal(257)
        direct = np.array(
            [float(y[: 257 - tau] @ y[tau:]) / 257 for tau in range(257)]
        )
        assert np.allclose(rv.autocovariance_hat(y), direct, atol=1e-12)

    def test_inverse_transform_of_periodogram(self):
        # sampling the periodogram on a 2n-point Fourier grid and inverting
        # recovers the biased autocovariance (discrete transform pair)
        y = np.random.default_rng(4).standard_normal(48)
        n = len(y)
        grid_size = 2 * n
        lam = TWO_PI * np.arange(grid_size) / grid_size
        i_vals = rv.periodogram(y, lam)
        gamma = rv.autocovariance_hat(y)
        for tau in (0, 1, 2, 5, n - 1):
            inverted = TWO_PI / grid_size * float(
                (i_vals * np.cos(tau * lam)).sum()
            )
            assert inverted == pytest.approx(gamma[tau], abs=1e-10)
