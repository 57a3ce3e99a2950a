"""Objective, correction-term and estimator tests.

The correction terms are checked against direct quadrature of the small-
frequency integrals they replace; the steep integrands are tamed with the
substitution lam = u**(1/(2H)), which maps the full mass (including the
part below float resolution for small hurst) onto a smooth bounded
integrand.
"""

import dataclasses
import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.optimize import approx_fprime, minimize

import roughvol as rv
from roughvol import whittle
from roughvol.proxy import LogRvIncrements
from roughvol.whittle import AccuracyWarning, QuadratureError

TWO_PI = 2.0 * math.pi
CFG = rv.SpectralConfig()


def g_direct(lam, hurst, nu, m):
    return nu * nu * rv.f_h(lam, hurst, CFG.paxson_k) + (2.0 / m) * rv.ell(lam)


def b_by_quadrature(hurst, nu, tau, psi, m):
    """(1/2pi) * integral_0^psi cos(tau lam)/g(lam) dlam, smooth-substituted."""

    def integrand(u):
        lam = u ** (1.0 / (2.0 * hurst))
        return math.cos(tau * lam) * lam ** (1.0 - 2.0 * hurst) / g_direct(lam, hurst, nu, m)

    value, _ = quad(integrand, 0.0, psi ** (2.0 * hurst), epsabs=1e-15, epsrel=1e-12, limit=300)
    return value / (2.0 * hurst) / TWO_PI


def b1_by_quadrature(hurst, nu, psi, m):
    """(1/2pi) * integral_0^psi log g, the log-singular part integrated
    in closed form."""

    def integrand(lam):
        return math.log(g_direct(lam, hurst, nu, m) * lam ** (2.0 * hurst - 1.0))

    smooth, _ = quad(integrand, 0.0, psi, epsabs=1e-16, epsrel=1e-13, limit=200)
    singular = (1.0 - 2.0 * hurst) * psi * (math.log(psi) - 1.0)
    return (smooth + singular) / TWO_PI


def b2_by_quadrature(hurst, nu, psi, m, y):
    """(1/2pi) * integral_0^psi I_n/g, smooth-substituted."""

    def integrand(u):
        lam = u ** (1.0 / (2.0 * hurst))
        dens = g_direct(lam, hurst, nu, m)
        return rv.periodogram(y, lam) * lam ** (1.0 - 2.0 * hurst) / dens

    value, _ = quad(integrand, 0.0, psi ** (2.0 * hurst), epsabs=1e-15, epsrel=1e-12, limit=300)
    return value / (2.0 * hurst) / TWO_PI


def a_values_per_lag(hurst, nu, taus, psi, taylor_j, m):
    """Low-frequency weights a_tau lag by lag, each summed over its
    ``taylor_j`` + 1 cosine terms: the form the production moment sums
    sum_j bracket_j M_j rearrange."""
    denom = nu * nu * rv.c_h(hurst)
    j = np.arange(taylor_j + 1, dtype=float)
    bracket = psi ** (2.0 * hurst) / (2.0 * j + 2.0 * hurst)
    bracket -= psi ** (1.0 + 4.0 * hurst) / (
        denom * m * math.pi * (1.0 + 2.0 * j + 4.0 * hurst)
    )
    x = (taus * psi) ** 2
    out = np.zeros_like(x)
    power = np.ones_like(x)  # (-1)^j (tau psi)^(2j) / (2j)!
    for jj in range(taylor_j + 1):
        if jj > 0:
            power = power * (-x) / ((2.0 * jj - 1.0) * (2.0 * jj))
        out += power * bracket[jj]
    return out / (TWO_PI * denom)


def differenced_series(n, seed):
    """Increments of a slow random walk observed with noise, like log-RV
    increments: sum_tau c_tau gamma_tau telescopes to (sum y)^2 / n."""
    rng = np.random.default_rng(seed)
    level = 0.05 * np.cumsum(rng.standard_normal(n + 1)) + rng.standard_normal(n + 1)
    return np.diff(level)


def default_fit_series(seed):
    """Log-RV increments of one 501-day rough path (H = 0.1, m = 80)."""
    spec = rv.FouSpec(hurst=0.1, eta=1.0, alpha=0.001, c=-3.2,
                      delta=1.0 / 250.0, m=80, n_days=501, seed=seed)
    _, lp = rv.simulate_fou_price(spec)
    return rv.log_rv_increments(rv.realized_variance(lp, 80, 1.0 / 250.0))


def clamped_starts(y, starts, box=rv.ParamBox()):
    """Starts as the optimizer sees them: (hurst, log nu) clamped into the box."""
    lo, hi = box.nu_bounds(y.delta)
    return [(min(max(h, box.h_min), box.h_max),
             min(max(math.log(v), math.log(lo)), math.log(hi))) for h, v in starts]


def screened_order(y, starts):
    """(value, hurst, log nu) at every clamped start, best first."""
    workspace = rv.WhittleObjective(y)
    return sorted((workspace.value(h, math.exp(lv)), h, lv) for h, lv in clamped_starts(y, starts))


def starts_with_twin(y):
    """The default starts plus a second start next to the best-screened
    one, at the same hurst, so that the two best screened values share it."""
    starts = rv.default_starts(rv.ParamBox(), y.delta)
    _, h, lv = screened_order(y, starts)[0]
    return starts + [(h, 1.001 * math.exp(lv))]


def exhaustive_estimate(y):
    """The estimator before start screening: a full L-BFGS-B descent from
    every default start, keeping the best by (objective, hurst, nu).
    Returns (objective, h_hat, nu_hat, converged)."""
    box = rv.ParamBox()
    lo, hi = box.nu_bounds(y.delta)
    workspace = rv.WhittleObjective(y)

    def fun(x):
        return workspace.value(float(x[0]), math.exp(float(x[1])))

    bounds = [(box.h_min, box.h_max), (math.log(lo), math.log(hi))]
    results = []
    for x0 in clamped_starts(y, rv.default_starts(box, y.delta)):
        res = minimize(fun, np.array(x0), jac="3-point", method="L-BFGS-B", bounds=bounds,
                       options={"maxiter": 500, "ftol": 1e-12, "gtol": 1e-8})
        results.append((float(res.fun), float(res.x[0]), math.exp(float(res.x[1])),
                        bool(res.success)))
    return min(results, key=lambda r: r[:3])


def record_values(monkeypatch):
    """Wraps ``WhittleObjective.value`` for the test; returns the list of
    the (hurst, nu) it is called at, in call order."""
    calls = []
    value = rv.WhittleObjective.value

    def counting_value(self, hurst, nu):
        calls.append((hurst, nu))
        return value(self, hurst, nu)

    monkeypatch.setattr(rv.WhittleObjective, "value", counting_value)
    return calls


class CountingMinimize:
    """Stands in for ``whittle.minimize``: records each descent's start and
    result, raises on the calls listed in ``fail_calls`` and reports the
    calls in ``stop_calls`` as not converged."""

    def __init__(self, fail_calls=(), stop_calls=()):
        self.x0s = []
        self.results = []
        self.fail_calls = set(fail_calls)
        self.stop_calls = set(stop_calls)

    def __call__(self, fun, x0, **kwargs):
        self.x0s.append(tuple(float(v) for v in x0))
        if len(self.x0s) in self.fail_calls:
            raise FloatingPointError("injected descent failure")
        res = minimize(fun, x0, **kwargs)
        if len(self.x0s) in self.stop_calls:
            res.success, res.message = False, "injected stop"
        self.results.append(res)
        return res


class MovedMinimize(CountingMinimize):
    """Stands in for ``whittle.minimize``: moves the second descent's minimum
    to ``move(first minimum)`` and reports that descent as not converged."""

    def __init__(self, move):
        super().__init__(stop_calls={2})
        self.move = move

    def __call__(self, fun, x0, **kwargs):
        res = super().__call__(fun, x0, **kwargs)
        if len(self.results) == 2:
            res.fun = self.move(self.results[0].fun)
        return res


class StoppedMinimize(CountingMinimize):
    """Stands in for ``whittle.minimize``: runs the real descent, then reports
    it stopped with L-BFGS-B status ``status``; ``at_start`` also moves the
    result back to the descent's start, with the gradient there."""

    def __init__(self, status, at_start=False):
        super().__init__()
        self.status = status
        self.at_start = at_start

    def __call__(self, fun, x0, **kwargs):
        res = super().__call__(fun, x0, **kwargs)
        if self.at_start:
            res.x = np.array(x0, dtype=float)
            res.fun = fun(res.x)
            res.jac = approx_fprime(res.x, fun)
        res.success, res.status, res.message = False, self.status, f"injected status {self.status}"
        return res


ORACLE_POINTS = [
    # (hurst, nu, m) spanning rough to smooth, small and large noise floors
    (0.05, 2.0, 80),
    (0.1, 1.0, 80),
    (0.3, 2.0, 400),
    (0.5, 1.0, 80),
    (0.7, 3.0, 80),
    (0.9, 2.0, 400),
]


class TestACoefficient:
    def test_tau_zero_closed_form(self):
        hurst, nu, m, psi = 0.23, 1.7, 80, CFG.psi
        denom = nu * nu * rv.c_h(hurst)
        expected = (
            psi ** (2 * hurst) / (2 * hurst)
            - psi ** (1 + 4 * hurst) / (denom * m * math.pi * (1 + 4 * hurst))
        ) / (TWO_PI * denom)
        got = rv.a_coefficient(hurst, nu, 0, psi, CFG.taylor_j, m)
        assert got == pytest.approx(expected, rel=1e-12)

    def test_vanishes_for_large_nu(self):
        small = rv.a_coefficient(0.3, 1e6, 5, CFG.psi, CFG.taylor_j, 80)
        assert abs(small) < 1e-12

    @pytest.mark.parametrize("hurst,nu,m", ORACLE_POINTS)
    def test_matches_quadrature(self, hurst, nu, m):
        tau = 10
        got = rv.a_coefficient(hurst, nu, tau, CFG.psi, CFG.taylor_j, m)
        want = b_by_quadrature(hurst, nu, tau, CFG.psi, m)
        assert got == pytest.approx(want, abs=1e-9)

    def test_truncation_warning_fires(self):
        # huge lag * psi makes the cosine series hopeless at small taylor_j
        with pytest.warns(AccuracyWarning):
            rv.a_coefficient(0.1, 1.0, 10**7, 1e-3, 3, 80)

    def test_no_warning_at_defaults(self, recwarn):
        rv.a_coefficient(0.1, 1.0, 2499, CFG.psi, CFG.taylor_j, 80)
        assert not [w for w in recwarn if issubclass(w.category, AccuracyWarning)]


class TestCorrectionA1:
    def test_vanishes_as_psi_to_zero(self):
        values = [abs(rv.correction_a1(0.3, 1.0, psi, 80)) for psi in (1e-3, 1e-6, 1e-9)]
        assert values[0] > values[1] > values[2]
        assert values[2] < 1e-7

    def test_half_hurst_middle_term_cancels(self):
        psi, nu, m = 1e-4, 1.3, 80
        denom = nu * nu * rv.c_h(0.5)
        expected = (
            psi * math.log(denom) + psi**3 / (denom * m * math.pi * 3.0)
        ) / TWO_PI
        assert rv.correction_a1(0.5, nu, psi, m) == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("hurst,nu,m", ORACLE_POINTS)
    def test_matches_quadrature(self, hurst, nu, m):
        got = rv.correction_a1(hurst, nu, CFG.psi, m)
        want = b1_by_quadrature(hurst, nu, CFG.psi, m)
        assert got == pytest.approx(want, abs=1e-12)


class TestCorrectionA2:
    def test_zero_gamma(self):
        assert rv.correction_a2(0.3, 1.0, CFG.psi, CFG.taylor_j, 80, np.zeros(16)) == 0.0

    def test_single_lag(self):
        gamma = np.array([0.37])
        want = rv.a_coefficient(0.2, 1.1, 0, CFG.psi, CFG.taylor_j, 80) * 0.37 / TWO_PI
        got = rv.correction_a2(0.2, 1.1, CFG.psi, CFG.taylor_j, 80, gamma)
        assert got == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("psi,taylor_j,m,message", [
        (0.0, 20, 80, "psi must be in"),
        (4.0, 20, 80, "psi must be in"),
        (-1e-5, 20, 80, "psi must be in"),
        (1e-5, 20, 0, "m must be >= 1"),
        (1e-5, -1, 80, "taylor_j must be >= 0"),
    ])
    def test_rejects_bad_inputs(self, psi, taylor_j, m, message):
        with pytest.raises(ValueError, match=message):
            rv.correction_a2(0.3, 1.0, psi, taylor_j, m, np.ones(16))

    @pytest.mark.parametrize("n", [2500, 20_000])
    def test_moment_form_matches_per_lag_sum(self, n):
        # a2 is a cancelling sum (the series is differenced), so the two
        # summation orders are compared on the scale of the sum of the
        # absolute terms, which bounds the roundoff of either order.
        gamma = rv.autocovariance_hat(differenced_series(n, seed=n))
        lag_weight = np.full(n, 2.0)
        lag_weight[0] = 1.0
        for psi in (CFG.psi, 1e-4):
            for hurst in (0.01, 0.1, 0.3, 0.5, 0.9):
                for nu in (0.05, 1.0, 3.0):
                    a = a_values_per_lag(hurst, nu, np.arange(n, dtype=float), psi,
                                         CFG.taylor_j, 80)
                    terms = lag_weight * a * gamma / TWO_PI
                    got = rv.correction_a2(hurst, nu, psi, CFG.taylor_j, 80, gamma)
                    assert abs(got - terms.sum()) <= 1e-13 * np.abs(terms).sum()

    @pytest.mark.parametrize("hurst,nu", [(0.05, 2.0), (0.1, 1.0), (0.3, 0.5), (0.7, 2.0)])
    def test_matches_quadrature(self, hurst, nu):
        y = np.random.default_rng(31).standard_normal(128) * 0.1
        m = 80
        gamma = rv.autocovariance_hat(y)
        got = rv.correction_a2(hurst, nu, CFG.psi, CFG.taylor_j, m, gamma)
        want = b2_by_quadrature(hurst, nu, CFG.psi, m, y)
        assert got == pytest.approx(want, abs=1e-9)


class TestObjective:
    def test_matches_oracle_moderate_hurst(self, small_sim_series):
        for hurst in (0.3, 0.7):
            for nu in (0.5, 2.0):
                prod = rv.objective(small_sim_series, hurst, nu, CFG)
                ref = rv.objective_oracle(small_sim_series, hurst, nu, CFG)
                assert prod == pytest.approx(ref, abs=1e-6)

    def test_matches_oracle_small_hurst_with_tail_allowance(self, small_sim_series):
        # Below hurst ~ 0.2 the reference quadrature cannot reach the mass
        # hiding under its own cutoff eps: int_0^eps I/g ~ I(0+) eps^(2H) /
        # (2H nu^2 C_H).  The production value includes that mass through the
        # analytic corrections, so compare up to the computable deficit.
        eps = 1e-9
        i_origin = rv.periodogram(small_sim_series.y, eps)
        for nu in (0.5, 2.0):
            hurst = 0.05
            deficit = i_origin * eps ** (2 * hurst) / (
                2 * hurst * nu * nu * rv.c_h(hurst)
            ) / TWO_PI
            prod = rv.objective(small_sim_series, hurst, nu, CFG)
            ref = rv.objective_oracle(small_sim_series, hurst, nu, CFG)
            assert prod - ref == pytest.approx(deficit, rel=0.02)
            assert abs(prod - ref - deficit) < 1e-4

    def test_quadrature_refinement_invariance(self, small_sim_series):
        tight = rv.SpectralConfig(quad_rel_tol=1e-10, quad_abs_tol=1e-12)
        for hurst, nu in ((0.1, 1.0), (0.5, 0.5)):
            default_val = rv.objective(small_sim_series, hurst, nu, CFG)
            tight_val = rv.objective(small_sim_series, hurst, nu, tight)
            assert abs(default_val - tight_val) < 1e-7

    def test_nonconvergence_reports_error_estimate(self, small_sim_series):
        impossible = rv.SpectralConfig(quad_rel_tol=1e-300, quad_abs_tol=1e-300)
        with pytest.raises(QuadratureError) as excinfo:
            rv.objective(small_sim_series, 0.3, 1.0, impossible)
        assert excinfo.value.error_estimate >= 0.0

    def test_levels_that_agree_to_the_bit_miss_a_tolerance_below_roundoff(self, small_sim_series):
        # two levels that tie by chance do not show an error below an ulp
        impossible = rv.SpectralConfig(quad_rel_tol=1e-300, quad_abs_tol=1e-300)
        workspace = rv.WhittleObjective(small_sim_series, impossible)
        workspace._weights = [workspace._weights[1]] * (whittle._MAX_REFINEMENTS + 1)
        with pytest.raises(QuadratureError) as excinfo:
            workspace.value(0.3, 1.0)
        assert excinfo.value.error_estimate > 0.0

    @pytest.mark.parametrize("nu", [math.nan, math.inf])
    def test_non_finite_nu_rejected_without_deepening(self, small_sim_series, nu):
        # a non-finite objective used to walk the node set to its deepest level for good
        workspace = rv.WhittleObjective(small_sim_series, CFG)
        depth = len(workspace._weights)
        with pytest.raises(ValueError, match=f"nu must be positive and finite, got {nu}$"):
            workspace.value(0.1, nu)
        assert len(workspace._weights) == depth

    def test_explodes_for_large_nu(self, small_sim_series):
        at_huge = rv.objective(small_sim_series, 0.3, 1e3, CFG)
        at_sane = rv.objective(small_sim_series, 0.3, 1.0, CFG)
        assert at_huge > at_sane + 5.0

    def test_true_parameters_beat_wrong_hurst_on_average(self):
        delta, m = 1.0 / 250.0, 80
        nu0 = 1.0 * delta**0.1
        wins = 0
        for seed in range(20):
            spec = rv.FouSpec(hurst=0.1, eta=1.0, alpha=0.001, c=-3.2,
                              delta=delta, m=m, n_days=257, seed=500 + seed)
            _, lp = rv.simulate_fou_price(spec)
            y = rv.log_rv_increments(rv.realized_variance(lp, m, delta))
            if rv.objective(y, 0.1, nu0, CFG) < rv.objective(y, 0.7, nu0, CFG):
                wins += 1
        assert wins >= 15

    def test_correction_magnitudes_moderate_parameters(self, small_sim_series):
        # guard against series blowup where the corrections should be small;
        # at very small hurst the below-cut mass is genuinely non-negligible
        gamma = rv.autocovariance_hat(small_sim_series.y)
        for hurst in (0.3, 0.5, 0.7):
            for nu in (1.0, 2.0):
                a1 = rv.correction_a1(hurst, nu, CFG.psi, small_sim_series.m)
                a2 = rv.correction_a2(hurst, nu, CFG.psi, CFG.taylor_j,
                                      small_sim_series.m, gamma)
                assert abs(a1) + abs(a2) < 1e-3

    def test_truncation_warning_fires_through_value(self):
        y = LogRvIncrements(differenced_series(2500, seed=3), delta=1.0 / 250.0, m=80)
        short_series = rv.SpectralConfig(psi=1e-3, taylor_j=3)
        with pytest.warns(AccuracyWarning, match="lags up to 2499"):
            rv.WhittleObjective(y, short_series).value(0.1, 0.6)

    def test_hopeless_truncation_bound_saturates_and_warns(self):
        # (n - 1) * psi = 7,494 puts the bound's exp far past the float range.
        y = LogRvIncrements(differenced_series(2499, seed=3), delta=1.0 / 250.0, m=80)
        with pytest.warns(AccuracyWarning, match="error bound inf"):
            rv.objective(y, 0.3, 1.0, rv.SpectralConfig(psi=3.0, taylor_j=100))

    def test_no_truncation_warning_at_defaults(self, recwarn):
        y = LogRvIncrements(differenced_series(2500, seed=3), delta=1.0 / 250.0, m=80)
        rv.WhittleObjective(y, CFG).value(0.1, 0.6)
        assert not [w for w in recwarn if issubclass(w.category, AccuracyWarning)]

    def test_overflowing_moments_warn_once_without_numpy_warnings(self):
        y = LogRvIncrements(differenced_series(2499, seed=3), delta=1.0 / 250.0, m=80)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            warnings.simplefilter("error", RuntimeWarning)
            rv.objective(y, 0.3, 1.0, rv.SpectralConfig(psi=3.0, taylor_j=100))
        assert [w.category for w in caught] == [AccuracyWarning]
        assert "(2499 lags, psi=3, " in str(caught[0].message)

    def test_workspace_checks_truncation_once(self):
        # the check depends on (n, psi, taylor_j) only, not on (hurst, nu)
        y = LogRvIncrements(differenced_series(2500, seed=3), delta=1.0 / 250.0, m=80)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            workspace = rv.WhittleObjective(y, rv.SpectralConfig(psi=1e-3, taylor_j=3))
            for hurst, nu in ((0.1, 0.6), (0.3, 1.0), (0.5, 2.0)):
                workspace.value(hurst, nu)
        assert [w.category for w in caught] == [AccuracyWarning]

    @pytest.mark.parametrize("entry", [
        lambda y, cfg: rv.WhittleObjective(y, cfg),
        lambda y, cfg: rv.objective(y, 0.1, 0.6, cfg),
        lambda y, cfg: rv.estimate(y, starts=[(0.1, 0.6)], config=cfg),
        lambda y, cfg: rv.correction_a2(0.1, 0.6, cfg.psi, cfg.taylor_j, y.m,
                                        rv.autocovariance_hat(y.y)),
        lambda y, cfg: rv.a_coefficient(0.1, 0.6, len(y) - 1, cfg.psi, cfg.taylor_j, y.m),
    ], ids=["WhittleObjective", "objective", "estimate", "correction_a2", "a_coefficient"])
    def test_accuracy_warning_names_the_caller(self, entry):
        y = LogRvIncrements(differenced_series(500, seed=3), delta=1.0 / 250.0, m=80)
        with pytest.warns(AccuracyWarning) as caught:
            entry(y, rv.SpectralConfig(psi=1e-3, taylor_j=3))
        assert [w.filename for w in caught] == [__file__]

    def test_corrections_are_a1_plus_a2(self, small_sim_series):
        workspace = rv.WhittleObjective(small_sim_series, CFG)
        m = small_sim_series.m
        for hurst in np.linspace(0.01, 0.99, 7):
            for nu in (0.05, 1.0, 3.0):
                a1 = rv.correction_a1(hurst, nu, CFG.psi, m)
                a2 = rv.correction_a2(hurst, nu, CFG.psi, CFG.taylor_j, m, workspace.gamma_hat)
                assert workspace.corrections(hurst, nu) == a1 + a2


class TestDensityCache:
    """A workspace keeps the densities of its last few hurst values; reusing
    them changes no value, nor does deepening the node set."""

    def test_values_match_fresh_workspaces(self, small_sim_series):
        def outcome(workspace, hurst, nu):
            try:
                return workspace.value(hurst, nu)
            except rv.QuadratureError as exc:
                return str(exc), exc.error_estimate

        # stencil-like runs at one hurst, revisits after eviction, new hurst values
        hursts = [0.1, 0.1, 0.1, 0.2, 0.1, 0.3, 0.4, 0.1, 0.5, 0.5,
                  0.6, 0.1, 0.2, 0.7, 0.7, 0.7, 0.05, 0.3, 0.05, 0.9]
        nus = np.geomspace(0.2, 3.0, len(hursts))
        # the second config deepens the workspace's node set past level 1
        for config in (rv.SpectralConfig(),
                       rv.SpectralConfig(quad_rel_tol=1e-15, quad_abs_tol=1e-300)):
            workspace = rv.WhittleObjective(small_sim_series, config)
            for hurst, nu in zip(hursts, nus):
                fresh = rv.WhittleObjective(small_sim_series, config)
                assert outcome(workspace, hurst, nu) == outcome(fresh, hurst, nu)
                assert len(workspace._densities) <= whittle._DENSITY_CACHE

    def test_screening_computes_each_density_once(self, small_sim_series, monkeypatch):
        calls = []

        def counting(nodes, hurst, paxson_k):
            calls.append(hurst)
            return rv.f_h_dense(nodes, hurst, paxson_k)

        monkeypatch.setattr(whittle, "f_h_dense", counting)
        starts = rv.default_starts(rv.ParamBox(), small_sim_series.delta)
        screened_order(small_sim_series, starts)
        assert len(starts) == 44
        # one density on both quadrature levels for each of the 11 hurst values
        assert len(calls) == 11 and len(set(calls)) == 11


def random_walk_series(n, seed):
    """Increments of a random walk plus white noise: a periodogram with a
    steep low-frequency end and near-zeros scattered over (0, pi]."""
    rng = np.random.default_rng(seed)
    y = np.diff(np.cumsum(rng.standard_normal(n + 1)) + rng.standard_normal(n + 1))
    return LogRvIncrements(y, delta=1.0 / 250.0, m=80)


def exact_periodogram(y, lam):
    """|sum_t y_t e^{i t lam}|^2 / (2 pi n) with every phase exact: lam splits
    into a float32 head, whose multiples t * head are exact doubles, and a
    small tail, and math.fsum adds the terms exactly."""
    t = np.arange(1, len(y) + 1, dtype=float)
    out = []
    for x in lam:
        head = float(np.float32(x))
        a, b = t * head, t * (x - head)
        cos = np.cos(a) * np.cos(b) - np.sin(a) * np.sin(b)
        sin = np.sin(a) * np.cos(b) + np.cos(a) * np.sin(b)
        out.append((math.fsum(y * cos) ** 2 + math.fsum(y * sin) ** 2) / (TWO_PI * len(y)))
    return np.array(out)


def running_sum_levels(n, psi, depth):
    """Each level's nodes and weights, laid out apart from the workspace:
    panels from psi that grow 3-fold up to the width cap, then panels of
    that width (a running sum), the last ending at pi."""
    cap = min((math.pi - psi) / 16.0, 2.0 * TWO_PI / max(n, 8))
    points, x = [psi], psi
    while (x := x + min(2.0 * x, cap)) < math.pi * (1.0 - 1e-12):
        points.append(x)
    breaks = np.array(points + [math.pi])
    return [whittle._gauss_panels(breaks, 2**level, whittle._GL16_NODES, whittle._GL16_WEIGHTS)
            for level in range(depth + 1)]


class TestWorkspacePeriodogram:
    """The uniform panels' periodogram comes from FFTs, the rest from
    Horner's rule: both agree with an exact sum and with each other."""

    @pytest.mark.parametrize("n", [500, 2500, 20_000])
    @given(seed=st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=5, deadline=None)
    def test_matches_an_exact_sum_at_random_nodes(self, n, seed):
        series = random_walk_series(n, seed)
        workspace = rv.WhittleObjective(series)
        pick = np.random.default_rng(seed).choice(len(workspace._i_vals), 100, replace=False)
        exact = exact_periodogram(series.y, workspace._nodes.lam1[pick])
        assert np.max(np.abs(workspace._i_vals[pick] - exact) / exact) < 1e-10

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_matches_horner_at_every_node(self, seed):
        series = random_walk_series(2500, seed)
        workspace = rv.WhittleObjective(series)
        horner = rv.periodogram(series.y, workspace._nodes.lam1)
        assert np.max(np.abs(workspace._i_vals - horner) / horner) < 1e-9

    @pytest.mark.parametrize("n, config", [(40, CFG), (500, rv.SpectralConfig(psi=3.0))],
                             ids=["40-increments", "psi-3"])
    @pytest.mark.filterwarnings("ignore::roughvol.whittle.AccuracyWarning")  # psi = 3
    def test_panels_off_a_fourier_grid_use_horner(self, n, config):
        # the width cap is (pi - psi) / 16, not 4 pi / n: every node is Horner's
        series = random_walk_series(n, n)
        workspace = rv.WhittleObjective(series, config)
        assert np.array_equal(workspace._i_vals, rv.periodogram(series.y, workspace._nodes.lam1))

    def test_deepened_node_set_matches_horner(self, small_sim_series):
        # tolerances below roundoff, which no level meets, deepen the set to its last level
        workspace = rv.WhittleObjective(
            small_sim_series, rv.SpectralConfig(quad_rel_tol=1e-300, quad_abs_tol=1e-300))
        with pytest.raises(QuadratureError):
            workspace.value(0.3, 1.0)
        assert len(workspace._weights) == whittle._MAX_REFINEMENTS + 1  # levels 0..4
        horner = rv.periodogram(small_sim_series.y, workspace._nodes.lam1)
        assert np.max(np.abs(workspace._i_vals - horner) / horner) < 1e-9

    @pytest.mark.parametrize("n, psi", [(40, CFG.psi), (500, CFG.psi), (2499, CFG.psi),
                                        (500, 3.0)])
    @pytest.mark.filterwarnings("ignore::roughvol.whittle.AccuracyWarning")  # psi = 3
    def test_levels_keep_their_node_layout(self, n, psi):
        workspace = rv.WhittleObjective(random_walk_series(n, 0), rv.SpectralConfig(psi=psi))
        workspace._build(whittle._MAX_REFINEMENTS)  # levels 0..4, as the deepest value() builds
        nodes = workspace._nodes.lam1
        old_levels = running_sum_levels(n, psi, whittle._MAX_REFINEMENTS)
        for (part, weights), (old_nodes, _) in zip(workspace._weights, old_levels, strict=True):
            assert len(weights) == len(old_nodes)
            assert math.fsum(weights) == pytest.approx(math.pi - psi, rel=1e-14)
            assert np.max(np.abs(nodes[part] - old_nodes)) < 1e-12

    def test_progressions_reach_nodes_a_little_off_them(self):
        # a node 1e-11 off its Fourier frequency moves the sum by ~n * 1e-11
        # relative; the first-order step removes that, leaving roundoff
        y = random_walk_series(2000, 0).y
        rng = np.random.default_rng(0)
        lam = 0.01 + rng.uniform(0.0, 0.001, 3) + 2 * TWO_PI / 4000 * np.arange(900)[:, None]
        lam += rng.uniform(-1e-11, 1e-11, lam.shape)
        horner = rv.periodogram(y, lam)
        fft = rv.spectral.periodogram_progressions(y, lam, 4000, 2)
        assert np.max(np.abs(fft - horner) / horner) < 1e-10

    def test_rejects_nodes_off_their_progressions(self):
        y = random_walk_series(64, 0).y
        lam = 0.1 + 2 * TWO_PI / 128 * np.arange(10)[:, None] + np.zeros(3)
        lam[5] += 1e-6
        with pytest.raises(ValueError, match="progressions"):
            rv.spectral.periodogram_progressions(y, lam, 128, 2)


class TestObjectiveOracle:
    def test_zero_series_is_pure_penalty(self):
        y = LogRvIncrements(np.zeros(64), delta=1.0 / 250.0, m=80)
        got = rv.objective_oracle(y, 0.3, 1.0, CFG)

        def integrand(lam):
            return math.log(g_direct(lam, 0.3, 1.0, 80))

        want, _ = quad(integrand, 1e-9, math.pi, epsabs=1e-12, limit=200)
        assert got == pytest.approx(want / TWO_PI, abs=1e-8)

    def test_reversal_invariance(self, small_sim_series):
        flipped = LogRvIncrements(
            small_sim_series.y[::-1].copy(),
            delta=small_sim_series.delta,
            m=small_sim_series.m,
        )
        a = rv.objective_oracle(small_sim_series, 0.3, 1.0, CFG)
        b = rv.objective_oracle(flipped, 0.3, 1.0, CFG)
        assert a == pytest.approx(b, rel=1e-10)


class TestEstimate:
    def test_deterministic(self, small_sim_series):
        starts = [(0.1, 0.5), (0.5, 1.5)]
        fit_a = rv.estimate(small_sim_series, starts=starts)
        fit_b = rv.estimate(small_sim_series, starts=starts)
        assert fit_a.h_hat == fit_b.h_hat
        assert fit_a.nu_hat == fit_b.nu_hat
        assert fit_a.objective == fit_b.objective

    def test_back_transform_identity(self, small_sim_series):
        fit = rv.estimate(small_sim_series, starts=[(0.1, 0.5)])
        expected = fit.nu_hat * fit.delta ** (-fit.h_hat)
        assert fit.eta_hat == pytest.approx(expected, rel=1e-12)
        box = rv.ParamBox()
        assert box.h_min <= fit.h_hat <= box.h_max

    def test_reparametrization_consistency(self, small_sim_series):
        # same increments, two day lengths: identical (hurst, nu), and eta
        # rescales by exactly delta**(-hurst)
        starts = [(0.3, 0.05)]
        delta_a, delta_b = 1.0 / 250.0, 1.0 / 200.0
        y_a = small_sim_series
        y_b = LogRvIncrements(small_sim_series.y.copy(), delta=delta_b, m=small_sim_series.m)
        fit_a = rv.estimate(y_a, starts=starts)
        fit_b = rv.estimate(y_b, starts=starts)
        assert fit_a.h_hat == fit_b.h_hat
        assert fit_a.nu_hat == fit_b.nu_hat
        ratio = fit_b.eta_hat / fit_a.eta_hat
        assert ratio == pytest.approx((delta_a / delta_b) ** fit_a.h_hat, rel=1e-12)

    def test_empty_starts_rejected(self, small_sim_series):
        with pytest.raises(ValueError, match="starts"):
            rv.estimate(small_sim_series, starts=[])

    @pytest.mark.parametrize("nu", [0.0, -1.0, -math.inf])
    def test_nonpositive_nu_start_rejected_before_screening(self, small_sim_series,
                                                            monkeypatch, nu):
        screened = []
        monkeypatch.setattr(whittle.WhittleObjective, "value",
                            lambda self, hurst, nu: screened.append((hurst, nu)))
        with pytest.raises(ValueError, match=re.escape(f"start (0.1, {nu!r}): nu must be")):
            rv.estimate(small_sim_series, starts=[(0.3, 0.5), (0.1, nu)])
        assert screened == []

    def test_nan_nu_start_is_a_failed_start(self, small_sim_series):
        fit = rv.estimate(small_sim_series, starts=[(0.1, math.nan), (0.3, 0.5)])
        assert fit.failures == ("start (0.1, nan): nu must be positive and finite, got nan",)
        assert fit.start_used == (0.3, 0.5) and fit.converged

    def test_condition_warnings(self, small_sim_series, recwarn):
        # conditions are data for the caller to report; the fit never warns
        bad_box = rv.ParamBox(h_min=0.001, h_max=0.999, eta_min=0.1, eta_max=10.0)
        y_small_m = LogRvIncrements(small_sim_series.y.copy(), delta=small_sim_series.delta, m=4)
        rv.estimate(y_small_m, box=bad_box, starts=[(0.3, 0.05)])
        assert not [w for w in recwarn if issubclass(w.category, UserWarning)]
        messages = rv.check_conditions(y_small_m.delta, 4, len(y_small_m), bad_box)
        assert [msg.split()[:2] for msg in messages] == [["intraday", "count"], ["m", "*"]]

    def test_default_starts_grid(self):
        box = rv.ParamBox()
        starts = rv.default_starts(box, 1.0 / 250.0)
        h_values = sorted({h for h, _ in starts})
        assert h_values == [0.01, 0.05, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9]
        assert sorted({v for _, v in starts}) == [0.5, 1.5, 2.5, 3.5]
        lo, hi = box.nu_bounds(1.0 / 250.0)
        assert all(lo <= v <= hi for _, v in starts)

    def test_gradient_stencil_stays_below_one(self, small_sim_series):
        # a start on an upper hurst bound within one stencil step of 1: a
        # central difference would evaluate hurst > 1 and fail every start
        box = rv.ParamBox(h_max=1.0 - 1e-7)
        fit = rv.estimate(small_sim_series, box=box, starts=[(1.0, 0.5)])
        assert fit.start_used == (1.0, 0.5)
        assert box.h_min <= fit.h_hat <= box.h_max

    def test_gradient_stencil_stays_inside_the_box(self, small_sim_series, monkeypatch):
        # a start on a lower hurst bound within one stencil step of 0: a
        # central difference would evaluate hurst < 0 and fail every start
        box = rv.ParamBox(h_min=1e-7)
        calls = record_values(monkeypatch)
        fit = rv.estimate(small_sim_series, box=box, starts=[(1e-7, 0.5)])
        assert fit.failures == ()
        lo, hi = box.nu_bounds(small_sim_series.delta)
        assert all(box.h_min <= h <= box.h_max for h, _ in calls)
        assert all(lo * (1 - 1e-12) <= nu <= hi * (1 + 1e-12) for _, nu in calls)

    def test_default_fit_reproduces_recorded_estimate(self):
        # Recorded from this fit before the density and the a2 correction
        # were rearranged to reuse their (hurst, nu)-independent parts; the
        # bound is the benchmark fingerprints' tolerance, which evaluation
        # order changes of a few ulps must stay far inside.
        spec = rv.FouSpec(hurst=0.1, eta=1.0, alpha=0.001, c=-3.2,
                          delta=1.0 / 250.0, m=80, n_days=501, seed=2024)
        _, lp = rv.simulate_fou_price(spec)
        y = rv.log_rv_increments(rv.realized_variance(lp, 80, 1.0 / 250.0))
        fit = rv.estimate(y)
        assert fit.n_starts == 44
        assert fit.converged
        assert abs(fit.h_hat - 0.1023594485170736) <= 1e-6
        assert fit.eta_hat == pytest.approx(1.0594994336548946, rel=1e-6)
        assert fit.objective == pytest.approx(-1.5152387144471158, rel=1e-6)

    def test_recovers_parameters_on_one_long_path(self):
        delta, m = 1.0 / 250.0, 80
        spec = rv.FouSpec(hurst=0.3, eta=2.0, alpha=0.001, c=-3.2,
                          delta=delta, m=m, n_days=2500, seed=404)
        _, lp = rv.simulate_fou_price(spec)
        y = rv.log_rv_increments(rv.realized_variance(lp, m, delta))
        fit = rv.estimate(y, starts=[(0.3, 2.0 * delta**0.3)])
        assert fit.converged
        assert fit.h_hat == pytest.approx(0.3, abs=0.08)
        assert fit.eta_hat == pytest.approx(2.0, rel=0.25)


class TestStartScreening:
    """estimate screens every start by one objective value and descends from
    the best two at distinct hurst."""

    def test_default_starts_give_two_descents(self, small_sim_series, monkeypatch):
        counting = CountingMinimize()
        monkeypatch.setattr(whittle, "minimize", counting)
        fit = rv.estimate(small_sim_series)
        assert fit.n_starts == 44
        assert len(counting.x0s) == 2
        assert fit.failures == ()

    @pytest.mark.parametrize("twin", [False, True])
    def test_descents_start_from_best_screened_values(self, small_sim_series, monkeypatch,
                                                      twin):
        counting = CountingMinimize()
        monkeypatch.setattr(whittle, "minimize", counting)
        if twin:
            starts = starts_with_twin(small_sim_series)
        else:
            starts = rv.default_starts(rv.ParamBox(), small_sim_series.delta)
        rv.estimate(small_sim_series, starts=starts)
        order = [(h, lv) for _, h, lv in screened_order(small_sim_series, starts)]
        assert (order[0][0] == order[1][0]) == twin
        first = order[0]
        second = next(s for s in order if s[0] != first[0])
        assert counting.x0s == [first, second]

    def test_start_whose_screen_raises_is_recorded_and_skipped(self, small_sim_series,
                                                               monkeypatch):
        starts = rv.default_starts(rv.ParamBox(), small_sim_series.delta)
        _, h_bad, lv_bad = screened_order(small_sim_series, starts)[0]
        bad_start = next(s for s, x in zip(starts, clamped_starts(small_sim_series, starts))
                         if x == (h_bad, lv_bad))
        value = rv.WhittleObjective.value

        def failing_value(self, hurst, nu):
            if (hurst, nu) == (h_bad, math.exp(lv_bad)):
                raise QuadratureError("injected screen failure", error_estimate=1.0)
            return value(self, hurst, nu)

        monkeypatch.setattr(rv.WhittleObjective, "value", failing_value)
        counting = CountingMinimize()
        monkeypatch.setattr(whittle, "minimize", counting)
        fit = rv.estimate(small_sim_series)
        assert fit.failures == (f"start {bad_start}: injected screen failure",)
        assert (h_bad, lv_bad) not in counting.x0s
        assert len(counting.x0s) == 2

    def test_failed_descent_moves_on_to_next_start(self, small_sim_series, monkeypatch):
        counting = CountingMinimize(fail_calls={1})
        monkeypatch.setattr(whittle, "minimize", counting)
        starts = starts_with_twin(small_sim_series)
        fit = rv.estimate(small_sim_series, starts=starts)
        order = [(h, lv) for _, h, lv in screened_order(small_sim_series, starts)]
        # the failed start does not count as descended, so the second-ranked
        # start is descended from although it shares the first one's hurst
        assert order[0][0] == order[1][0]
        third = next(s for s in order[2:] if s[0] != order[1][0])
        assert counting.x0s == [order[0], order[1], third]
        assert len(fit.failures) == 1
        assert fit.failures[0].endswith(": injected descent failure")
        assert fit.converged

    @pytest.mark.parametrize("stopped", ["loser", "winner"])
    def test_descent_that_did_not_converge_is_recorded(self, small_sim_series, monkeypatch,
                                                       stopped):
        # a descent that stops without converging is named in failures and
        # stays a candidate: the same descent wins, converged or not
        counting = CountingMinimize()
        monkeypatch.setattr(whittle, "minimize", counting)
        want = rv.estimate(small_sim_series)
        starts = rv.default_starts(rv.ParamBox(), small_sim_series.delta)
        start_of = dict(zip(clamped_starts(small_sim_series, starts), starts))
        descended = [start_of[x0] for x0 in counting.x0s]
        call = descended.index(want.start_used) + 1
        if stopped == "loser":
            call = 3 - call
        monkeypatch.setattr(whittle, "minimize", CountingMinimize(stop_calls={call}))
        fit = rv.estimate(small_sim_series)
        assert want.converged and want.failures == () and len(descended) == 2
        assert fit == dataclasses.replace(
            want, converged=stopped == "loser",
            failures=(f"start {descended[call - 1]}: not converged: injected stop",))

    @pytest.mark.parametrize("move", [
        lambda f: np.nextafter(f, -np.inf),
        lambda f: f - 1e-14 * abs(f),
    ], ids=["one_ulp", "1e-14_relative"])
    def test_tied_descent_does_not_take_the_fit(self, small_sim_series, monkeypatch, move):
        # a later descent that reached the same optimum a few ulps lower, and
        # stopped without converging, leaves the fit to the better-screened one
        want = rv.estimate(small_sim_series)
        monkeypatch.setattr(whittle, "minimize", MovedMinimize(move))
        fit = rv.estimate(small_sim_series)
        assert (fit.start_used, fit.h_hat, fit.converged) == (want.start_used, want.h_hat, True)

    def test_distinctly_lower_descent_takes_the_fit(self, small_sim_series, monkeypatch):
        want = rv.estimate(small_sim_series)
        moved = MovedMinimize(lambda f: f - 1e-12 * abs(f))
        monkeypatch.setattr(whittle, "minimize", moved)
        fit = rv.estimate(small_sim_series)
        second = moved.results[1]
        assert (fit.objective, fit.h_hat, fit.converged) == (second.fun, second.x[0], False)
        assert fit.start_used != want.start_used

    @pytest.mark.parametrize("box", [
        rv.ParamBox(), rv.ParamBox(h_max=0.05), rv.ParamBox(h_min=0.2),
    ], ids=["interior", "at_h_max", "at_h_min"])
    def test_line_search_stop_at_the_optimum_is_converged(self, small_sim_series, monkeypatch,
                                                          box):
        # a status-2 stop where the predicted decrease is below roundoff; at a
        # bound, the gradient's push out of the box predicts no decrease
        starts = [(0.1, 0.5)]
        want = rv.estimate(small_sim_series, box=box, starts=starts)
        monkeypatch.setattr(whittle, "minimize", StoppedMinimize(status=2))
        fit = rv.estimate(small_sim_series, box=box, starts=starts)
        assert want.converged and fit == want

    def test_line_search_stop_at_the_start_is_not_converged(self, small_sim_series,
                                                            monkeypatch):
        starts = [(0.1, 0.5)]
        monkeypatch.setattr(whittle, "minimize", StoppedMinimize(status=2, at_start=True))
        fit = rv.estimate(small_sim_series, starts=starts)
        assert (fit.h_hat, fit.converged) == (0.1, False)
        assert fit.failures == (f"start {starts[0]}: not converged: injected status 2",)

    def test_iteration_limit_at_the_optimum_is_not_converged(self, small_sim_series,
                                                             monkeypatch):
        starts = [(0.1, 0.5)]
        want = rv.estimate(small_sim_series, starts=starts)
        monkeypatch.setattr(whittle, "minimize", StoppedMinimize(status=1))
        fit = rv.estimate(small_sim_series, starts=starts)
        assert fit == dataclasses.replace(
            want, converged=False,
            failures=(f"start {starts[0]}: not converged: injected status 1",))

    def test_descent_reuses_its_screened_value(self, small_sim_series, monkeypatch):
        # a descent's first point is its screened start: only that one of
        # its objective values is not computed again
        calls = record_values(monkeypatch)
        counting = CountingMinimize()
        monkeypatch.setattr(whittle, "minimize", counting)
        fit = rv.estimate(small_sim_series)
        # scipy's nfev counts the gradient stencils' values too
        descents = sum(res.nfev for res in counting.results)
        assert len(calls) == fit.n_starts + descents - len(counting.results)

    @pytest.mark.parametrize("seed", [2024, 1, 2])
    def test_matches_descents_from_every_start(self, seed):
        y = default_fit_series(seed)
        want_objective, want_h, _, want_converged = exhaustive_estimate(y)
        fit = rv.estimate(y)
        assert abs(fit.h_hat - want_h) <= 1e-6
        assert fit.objective == pytest.approx(want_objective, rel=1e-12)
        assert fit.converged == want_converged

    @pytest.mark.parametrize("n", [1, 2, 3, 7])
    def test_rejects_series_shorter_than_eight_increments(self, n):
        y = LogRvIncrements(0.3 * differenced_series(n, seed=n), delta=1.0 / 250.0, m=80)
        with pytest.raises(ValueError, match=f"at least 8 increments, got {n}$"):
            rv.estimate(y)

    def test_accepts_eight_increments(self):
        y = LogRvIncrements(0.3 * differenced_series(8, seed=8), delta=1.0 / 250.0, m=80)
        fit = rv.estimate(y)
        assert rv.ParamBox().h_min <= fit.h_hat <= rv.ParamBox().h_max


class TestParamBox:
    def test_nu_bounds(self):
        box = rv.ParamBox()
        lo, hi = box.nu_bounds(1.0 / 250.0)
        assert lo == pytest.approx(0.1 * (1.0 / 250.0) ** 0.99)
        assert hi == pytest.approx(10.0 * (1.0 / 250.0) ** 0.001)
        assert lo < hi

    def test_nu_bounds_above_unit_delta(self):
        # for delta > 1, delta**hurst grows with hurst: the range is taken
        # at the other two corners of the box
        box = rv.ParamBox()
        assert box.nu_bounds(2.0) == (0.1 * 2.0**0.001, 10.0 * 2.0**0.99)
        assert box.nu_bounds(1.0) == (0.1, 10.0)

    @pytest.mark.parametrize("box, delta", [
        (rv.ParamBox(eta_min=5e-324), 1.0 / 250.0),  # eta_min * delta**h_max underflows to 0
        (rv.ParamBox(eta_max=1e308), 2.0),  # eta_max * delta**h_max overflows
    ])
    def test_nu_bounds_outside_floats(self, box, delta):
        with pytest.raises(ValueError, match="not positive and finite"):
            box.nu_bounds(delta)

    def test_validation(self):
        with pytest.raises(ValueError):
            rv.ParamBox(h_min=0.5, h_max=0.2)
        with pytest.raises(ValueError):
            rv.ParamBox(eta_min=-1.0)
        with pytest.raises(ValueError, match="h_max < 1"):
            rv.ParamBox(h_max=1.0)  # c_h(1) vanishes: the density degenerates


class TestCheckConditions:
    def test_clean_configuration_is_quiet(self):
        assert rv.check_conditions(1.0 / 250.0, 80, 2500, rv.ParamBox()) == []

    def test_flags_small_m_and_large_delta(self):
        messages = rv.check_conditions(0.5, 4, 2500, rv.ParamBox())
        assert any("m=4" in msg for msg in messages)
        assert any("delta" in msg for msg in messages)

    def test_flags_vanishing_noise_scale(self):
        box = rv.ParamBox(h_max=0.999)
        messages = rv.check_conditions(1.0 / 250.0, 20, 2500, box)
        assert any("h_max" in msg for msg in messages)
