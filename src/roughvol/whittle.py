"""Spectral quasi-likelihood estimation of (hurst, eta) from log
realized-variance increments.

The objective integrates log g + I/g over frequencies, with g the model
spectral density (including the 2/m proxy-noise floor) and I the
periodogram. Below a small cut frequency ``psi`` the integral is replaced
by closed-form corrections derived from the low-frequency expansion of g,
which capture mass that no numerical quadrature can resolve when the
density is very steep (small hurst). Estimation runs in the day-scale
parametrization nu = eta * delta**hurst and back-transforms at the end.
"""

from __future__ import annotations

import math
import sys
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize

from .proxy import LogRvIncrements
from .spectral import (
    TWO_PI,
    DenseNodes,
    SpectralConfig,
    autocovariance_hat,
    c_h,
    ell,
    f_h,
    f_h_dense,
    periodogram,
    periodogram_progressions,
    validate_nu,
)

_MAX_REFINEMENTS = 4
# Densities a workspace keeps, keyed by hurst: enough for the three hurst
# values of one L-BFGS-B gradient stencil.
_DENSITY_CACHE = 3
# Successful L-BFGS-B descents per fit, from the best-screened starts.
_DESCENTS = 2
# Minima this close (relative) are one optimum; the earliest descent in
# walk order wins. Ties differ by ulps, distinct nearby minima by ~4e-12.
# A stopped line search with this little decrease left has converged too.
_TIE_RTOL = 1e-13
# Shortest increment series estimate accepts; the panel-width cap of the
# objective's quadrature grid treats shorter series as this long.
_MIN_INCREMENTS = 8
# Lower end of the objective_oracle integral.
_ORACLE_EPS = 1e-9
_TRUNCATION_WARN_LEVEL = 1e-10

_GL16_NODES, _GL16_WEIGHTS = np.polynomial.legendre.leggauss(16)
_GL24_NODES, _GL24_WEIGHTS = np.polynomial.legendre.leggauss(24)


class QuadratureError(RuntimeError):
    """Objective quadrature failed to converge; carries the achieved error."""

    def __init__(self, message: str, error_estimate: float):
        super().__init__(message)
        self.error_estimate = error_estimate


class AllStartsFailedError(RuntimeError):
    """Every optimizer start raised; the message lists per-start reasons."""


# What may fail one start of a fit: ``estimate`` records it and moves on.
START_ERRORS = (QuadratureError, FloatingPointError, ValueError)


class AccuracyWarning(UserWarning):
    """The low-frequency correction series is truncated too early."""


@dataclass(frozen=True)
class ParamBox:
    """Search box for (hurst, eta); the nu box follows from delta.

    ``h_max`` stays below 1, where c_h vanishes and the density degenerates.
    """

    h_min: float = 0.001
    h_max: float = 0.99
    eta_min: float = 0.1
    eta_max: float = 10.0

    def __post_init__(self):
        if not 0.0 < self.h_min < self.h_max < 1.0:
            raise ValueError("require 0 < h_min < h_max < 1")
        if not 0.0 < self.eta_min < self.eta_max:
            raise ValueError("require 0 < eta_min < eta_max")

    def nu_bounds(self, delta: float) -> tuple[float, float]:
        """Range of nu = eta * delta**hurst over the box; raises ``ValueError``
        where the range underflows to 0 or overflows to infinity."""
        if delta <= 0.0:
            raise ValueError("delta must be positive")
        corners = [eta * delta**h for eta in (self.eta_min, self.eta_max)
                   for h in (self.h_min, self.h_max)]
        lo, hi = min(corners), max(corners)
        if not 0.0 < lo < hi < math.inf:
            raise ValueError(f"nu range ({lo!r}, {hi!r}) at delta={delta!r} is not "
                             f"positive and finite: narrow eta_min, eta_max")
        return lo, hi


@dataclass(frozen=True)
class WhittleFit:
    """Best minimizer across descents, with the back-transformed eta.

    ``failures`` holds one message per start whose screen or descent raised
    or ended non-finite, including starts that did not produce the fit, and
    one per descent that stopped without converging; such a descent still
    competes for the fit. ``converged`` is the winning descent's, as
    ``_converged`` decides it.
    """

    h_hat: float
    nu_hat: float
    eta_hat: float
    objective: float
    n_starts: int
    converged: bool
    start_used: tuple[float, float]
    delta: float
    m: int
    failures: tuple[str, ...] = ()


def _validate_point(hurst: float, nu: float) -> None:
    if not 0.0 < hurst <= 1.0:
        raise ValueError(f"hurst must be in (0, 1], got {hurst}")
    validate_nu(nu)  # a nan would deepen the node set for good


def _validate_cut(psi: float, m: int) -> None:
    if not 0.0 < psi <= math.pi:
        raise ValueError("psi must be in (0, pi]")
    if m < 1:
        raise ValueError("m must be >= 1")


def _lag_moments(taus: np.ndarray, weights: np.ndarray, psi: float, taylor_j: int) -> np.ndarray:
    """M_j = sum_tau w_tau (-1)^j (tau psi)^(2j) / (2j)!, j = 0..taylor_j: the
    part of the weighted low-frequency sum that does not depend on (hurst, nu).

    The one accuracy check of the correction series: warns with
    :class:`AccuracyWarning` when the relative truncation bound
    (tau_max psi)^(2 taylor_j + 1) / (2 taylor_j + 1)! exceeds
    ``_TRUNCATION_WARN_LEVEL`` or when a moment overflows to non-finite.
    The warning names the first calling line outside the package.
    """
    x = (taus * psi) ** 2
    moments = np.empty(taylor_j + 1)
    power = np.ones_like(x)  # (-1)^j (tau psi)^(2j) / (2j)!
    with np.errstate(all="ignore"):  # an overflow shows as a non-finite moment
        for jj in range(taylor_j + 1):
            if jj > 0:
                power = power * (-x) / ((2.0 * jj - 1.0) * (2.0 * jj))
            moments[jj] = np.einsum("i,i->", weights, power)
        tau_max = float(np.max(taus))
        log_lead = (2 * taylor_j + 1) * np.log(tau_max * psi) - math.lgamma(2 * taylor_j + 2)
        bound = float(np.exp(log_lead))
    bad = int(np.count_nonzero(~np.isfinite(moments)))
    if bound > _TRUNCATION_WARN_LEVEL or bad:
        frame, stacklevel = sys._getframe(1), 2
        while frame.f_back is not None and frame.f_globals.get("__package__") == __package__:
            frame, stacklevel = frame.f_back, stacklevel + 1
        warnings.warn(f"low-frequency series truncated at {taylor_j} terms has relative error "
                      f"bound {bound:.3e} for lags up to {int(tau_max)} ({len(taus)} lags, "
                      f"psi={psi:g}, {bad} non-finite moments); increase taylor_j or decrease psi",
                      AccuracyWarning, stacklevel=stacklevel)
    return moments


def _autocovariance_moments(gamma_hat: np.ndarray, psi: float, taylor_j: int) -> np.ndarray:
    """:func:`_lag_moments` of the two-sided autocovariance sum: lag 0 once,
    every other lag twice."""
    weights = 2.0 * gamma_hat
    weights[0] = gamma_hat[0]
    return _lag_moments(np.arange(len(gamma_hat), dtype=float), weights, psi, taylor_j)


def _weighted_a(hurst: float, nu: float, psi: float, m: int, moments: np.ndarray) -> float:
    """sum_tau w_tau a_tau for the lag weights behind ``moments``.

    Each a_tau approximates (1/2pi) * integral_0^psi cos(tau * lam) / g(lam)
    dlam through the expansion of 1/g near zero, summed to taylor_j =
    len(moments) - 1 cosine terms; only the coefficients ``bracket`` depend on
    (hurst, nu). :func:`_lag_moments` checks the truncation.
    """
    taylor_j = len(moments) - 1
    denom = nu * nu * c_h(hurst)
    j = np.arange(taylor_j + 1, dtype=float)
    bracket = psi ** (2.0 * hurst) / (2.0 * j + 2.0 * hurst)
    bracket -= psi ** (1.0 + 4.0 * hurst) / (
        denom * m * math.pi * (1.0 + 2.0 * j + 4.0 * hurst)
    )
    return float(np.einsum("i,i->", bracket, moments)) / (TWO_PI * denom)


def a_coefficient(
    hurst: float, nu: float, tau: int, psi: float, taylor_j: int, m: int
) -> float:
    """Single low-frequency weight for lag ``tau``; see :func:`_weighted_a`."""
    _validate_point(hurst, nu)
    _validate_cut(psi, m)
    if tau < 0:
        raise ValueError("tau must be >= 0")
    if taylor_j < 0:
        raise ValueError("taylor_j must be >= 0")
    moments = _lag_moments(np.asarray([float(tau)]), np.ones(1), psi, taylor_j)
    return _weighted_a(hurst, nu, psi, m, moments)


def correction_a1(hurst: float, nu: float, psi: float, m: int) -> float:
    """Closed form for (1/2pi) * integral_0^psi log g(lam) dlam.

    Exact up to the low-frequency expansion of g; the middle term vanishes
    at hurst = 1/2 where the log-frequency slope changes sign.
    """
    _validate_point(hurst, nu)
    _validate_cut(psi, m)
    denom = nu * nu * c_h(hurst)
    total = psi * math.log(denom)
    total += psi * (math.log(psi) - 1.0) * (1.0 - 2.0 * hurst)
    total += psi ** (2.0 + 2.0 * hurst) / (denom * m * math.pi * (2.0 + 2.0 * hurst))
    return total / TWO_PI


def correction_a2(
    hurst: float, nu: float, psi: float, taylor_j: int, m: int, gamma_hat
) -> float:
    """Weighted autocovariance sum approximating (1/2pi) *
    integral_0^psi I_n(lam)/g(lam) dlam.

    Evaluated in moment form, sum_j bracket_j M_j / (4 pi^2 nu^2 C_H), with
    the lag moments M_j of :func:`_autocovariance_moments`.
    """
    _validate_point(hurst, nu)
    _validate_cut(psi, m)
    if taylor_j < 0:
        raise ValueError("taylor_j must be >= 0")
    gamma_hat = np.asarray(gamma_hat, dtype=float)
    if gamma_hat.ndim != 1 or len(gamma_hat) < 1:
        raise ValueError("gamma_hat must be a nonempty 1-d sequence")
    moments = _autocovariance_moments(gamma_hat, psi, taylor_j)
    return _weighted_a(hurst, nu, psi, m, moments) / TWO_PI


def _panel_breakpoints(lo: float, hi: float, growth: float, width_cap: float) -> np.ndarray:
    """Quadrature panels on [lo, hi]: each panel ``growth`` times its left
    end wide, grading away from the steep left endpoint, until the width
    reaches ``width_cap``, which callers size to resolve the fastest
    periodogram oscillation cos(n * lam)."""
    points = [lo]
    x = lo
    while True:
        x = x + min(growth * x, width_cap)
        if x >= hi * (1.0 - 1e-12):
            break
        points.append(x)
    points.append(hi)
    return np.asarray(points)


def _gauss_panels(
    breaks: np.ndarray, splits: int, gl_nodes: np.ndarray, gl_weights: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    a = breaks[:-1]
    b = breaks[1:]
    if splits > 1:
        frac = np.linspace(0.0, 1.0, splits + 1)
        edges = a[:, None] + (b - a)[:, None] * frac[None, :]
        a = edges[:, :-1].ravel()
        b = edges[:, 1:].ravel()
    half = 0.5 * (b - a)
    mid = 0.5 * (a + b)
    nodes = (mid[:, None] + half[:, None] * gl_nodes[None, :]).ravel()
    weights = (half[:, None] * gl_weights[None, :]).ravel()
    return nodes, weights


class WhittleObjective:
    """Reusable objective for one increment series.

    Precomputes once the sample autocovariance and its lag moments for the
    a2 correction, and one node set for quadrature levels 0..depth, level L
    splitting each panel 2**L ways: its :class:`DenseNodes`, periodogram,
    noise floor and each level's slice and weights. The periodogram of the
    panels 4 pi / n wide comes from FFTs (:func:`periodogram_progressions`),
    that of the rest from one call of Horner's rule. A (hurst, nu) value then
    takes one density, kept for the last ``_DENSITY_CACHE`` hurst values as it
    does not depend on nu, and is that of the first level L >= 1 within the
    configured tolerances of level L - 1; if none is, the set deepens for
    good, up to level ``_MAX_REFINEMENTS``. Its long sums are ``einsum``
    reductions, whose bits, unlike a threaded BLAS dot's, do not depend on
    the BLAS thread count.
    """

    def __init__(self, y: LogRvIncrements, config: SpectralConfig | None = None):
        self.config = config if config is not None else SpectralConfig()
        self.y = np.asarray(y.y, dtype=float)
        self.n = len(self.y)
        self.m = y.m
        self.delta = y.delta
        self.gamma_hat = autocovariance_hat(self.y)
        psi = self.config.psi
        width_cap = min((math.pi - psi) / 16.0, 2.0 * TWO_PI / max(self.n, _MIN_INCREMENTS))
        self._breaks = _panel_breakpoints(psi, math.pi, 2.0, width_cap)
        # Level-0 node range of the panels 4 pi / n wide (the ungraded ones but the last), or
        # None: at level L, the nodes at one Gauss offset there step by 4 pi / (n 2**L).
        first = 16 * int(np.count_nonzero(2.0 * self._breaks < width_cap))
        on_grid = 16.0 * width_cap < math.pi - psi
        self._fourier = (first, 16 * (len(self._breaks) - 2)) if on_grid else None
        self._a2_moments = _autocovariance_moments(self.gamma_hat, psi, self.config.taylor_j)
        self._densities: dict[float, np.ndarray] = {}  # oldest first
        self._build(1)

    def _build(self, depth: int) -> None:
        levels = [_gauss_panels(self._breaks, 2**level, _GL16_NODES, _GL16_WEIGHTS)
                  for level in range(depth + 1)]
        nodes = np.concatenate([level_nodes for level_nodes, _ in levels])
        ends = np.cumsum([0] + [len(weights) for _, weights in levels]).tolist()
        self._i_vals, by_horner = np.empty_like(nodes), np.ones(len(nodes), dtype=bool)
        for level, start in enumerate(ends[:-1] if self._fourier else []):
            block = slice(start + self._fourier[0] * 2**level, start + self._fourier[1] * 2**level)
            self._i_vals[block] = periodogram_progressions(
                self.y, nodes[block].reshape(-1, 16), self.n * 2**level, 2).ravel()
            by_horner[block] = False
        self._i_vals[by_horner] = periodogram(self.y, nodes[by_horner])
        self._nodes = DenseNodes(nodes, self.config.paxson_k)
        self._noise = (2.0 / self.m) * ell(nodes)
        self._weights = [(slice(a, b), w) for a, b, (_, w) in zip(ends, ends[1:], levels)]
        self._densities.clear()

    def corrections(self, hurst: float, nu: float) -> float:
        """Objective mass below the cut frequency: a1 + a2."""
        psi = self.config.psi
        a1 = correction_a1(hurst, nu, psi, self.m)
        return a1 + _weighted_a(hurst, nu, psi, self.m, self._a2_moments) / TWO_PI

    def value(self, hurst: float, nu: float) -> float:
        _validate_point(hurst, nu)
        corr = self.corrections(hurst, nu)
        while True:
            f = self._densities.get(hurst)
            if f is None:
                f = f_h_dense(self._nodes, hurst, self.config.paxson_k)
                if len(self._densities) == _DENSITY_CACHE:
                    del self._densities[next(iter(self._densities))]
                self._densities[hurst] = f
            g = nu * nu * f
            g += self._noise
            integrand = np.log(g) + self._i_vals / g
            integrals = [float(np.einsum("i,i->", weights, integrand[part])) / TWO_PI
                         for part, weights in self._weights]
            for previous, current in zip(integrals, integrals[1:]):
                error = max(abs(current - previous), math.ulp(current))  # ties are roundoff
                total = current + corr
                tol = max(self.config.quad_abs_tol, self.config.quad_rel_tol * abs(total))
                if error <= tol:
                    return total
            if len(self._weights) > _MAX_REFINEMENTS:
                raise QuadratureError(
                    f"objective quadrature did not converge after {_MAX_REFINEMENTS} "
                    f"refinements (last change {error:.3e})",
                    error_estimate=error,
                )
            self._build(len(self._weights))


def objective(
    y: LogRvIncrements, hurst: float, nu: float, config: SpectralConfig | None = None
) -> float:
    """Quasi-likelihood objective at (hurst, nu) for the given increments.

    Adaptive panel quadrature of log g + I/g above the cut frequency plus
    the closed-form corrections below it. Builds a fresh workspace per
    call; evaluate many points through one :class:`WhittleObjective`.
    """
    return WhittleObjective(y, config).value(hurst, nu)


def objective_oracle(
    y: LogRvIncrements,
    hurst: float,
    nu: float,
    config: SpectralConfig | None = None,
) -> float:
    """Brute-force evaluation of the full-interval objective.

    Uses evenness to integrate (1/2pi) * (log g + I/g) over
    [_ORACLE_EPS, pi] on dense graded panels, with the direct alias-sum
    density and no low-frequency corrections. Slow; intended as a test
    reference.
    """
    _validate_point(hurst, nu)
    config = config if config is not None else SpectralConfig()
    breaks = _panel_breakpoints(_ORACLE_EPS, math.pi, 4.0, 1.5 * TWO_PI / max(len(y), 8))
    nodes, weights = _gauss_panels(breaks, 1, _GL24_NODES, _GL24_WEIGHTS)
    g = nu * nu * f_h(nodes, hurst, config.paxson_k) + (2.0 / y.m) * ell(nodes)
    i_vals = periodogram(y.y, nodes)
    return float(np.einsum("i,i->", weights, np.log(g) + i_vals / g)) / TWO_PI


def check_conditions(delta: float, m: int, n: int, box: ParamBox) -> list[str]:
    """Heuristic sanity checks on (delta, m, horizon) for the asymptotic
    regime the estimator targets. Returns warning messages, never raises;
    ``estimate`` does not check them, the ``estimate`` command prints them."""
    messages = []
    if m < 10:
        messages.append(
            f"intraday count m={m} is small; the proxy-error variance "
            "approximation 2/m is unreliable below a few dozen returns per day"
        )
    if delta > 0.1:
        messages.append(
            f"day length delta={delta:g} is large; the within-day "
            "approximations assume delta well below 1"
        )
    span = n * delta
    if not 0.5 <= span <= 200.0:
        messages.append(
            f"observation span n*delta={span:g} is outside the moderate "
            "range (0.5, 200) the method is designed for"
        )
    floor = m * delta ** (2.0 * box.h_max)
    if floor < 1e-3:
        messages.append(
            f"m * delta^(2*h_max) = {floor:.2e} is tiny: near h_max the "
            "noise floor dominates and estimates there are poorly identified"
        )
    return messages


def default_starts(box: ParamBox, delta: float) -> list[tuple[float, float]]:
    """Grid of optimizer starts: a spread of hurst values crossed with a
    spread of nu values, intersected with the feasible box.

    Published variants of this start grid list integer hurst entries
    (1, 2, ..., 9) that no admissible box can contain; they are read here
    as tenths, giving the even spread 0.1 .. 0.9 alongside 0.01 and 0.05.
    """
    h_values = (0.01, 0.05, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9)
    nu_values = (0.5, 1.5, 2.5, 3.5)
    nu_lo, nu_hi = box.nu_bounds(delta)
    starts = [
        (h, v)
        for h in h_values
        if box.h_min <= h <= box.h_max
        for v in nu_values
        if nu_lo <= v <= nu_hi
    ]
    if not starts:
        starts = [(0.5 * (box.h_min + box.h_max), math.sqrt(nu_lo * nu_hi))]
    return starts


def _converged(res, bounds) -> bool:
    """Whether an L-BFGS-B descent reached its optimum: it reports success,
    or its line search failed (status 2) where the decrease its own model
    still predicts, 1/2 g' H^-1 g with the gradient projected on the box,
    is within ``_TIE_RTOL`` relative of the minimum, below what the
    objective's roundoff can resolve."""
    if res.success:
        return True
    if res.status != 2:
        return False
    g = np.array(res.jac, dtype=float)
    lo, hi = np.array(bounds).T
    g[((res.x <= lo) & (g > 0.0)) | ((res.x >= hi) & (g < 0.0))] = 0.0
    decrease = 0.5 * float(np.einsum("i,i->", g, res.hess_inv.matvec(g)))
    return decrease <= _TIE_RTOL * abs(res.fun)


def estimate(
    y: LogRvIncrements,
    box: ParamBox | None = None,
    starts: list[tuple[float, float]] | None = None,
    config: SpectralConfig | None = None,
) -> WhittleFit:
    """Screen every start with one objective value, descend from the best
    and keep the lowest minimum, ties to the better-screened start.

    Starts are clamped into the box, evaluated once and walked best first
    (ties by smaller hurst, then smaller nu); a start is descended from
    unless a successful descent already began at its hurst, until
    ``_DESCENTS`` descents succeed. A start whose screen or descent raises
    or ends non-finite goes into ``failures`` and the walk moves on; a
    descent that stops without converging goes there too but stays a
    candidate; a line search that stops below roundoff has converged (see
    :func:`_converged`). Descents run in (hurst, log nu) with bounded
    L-BFGS-B and its own three-point difference gradients, one-sided within
    a step of a bound, so no evaluation leaves the box. The fit is the
    first descent in walk order whose minimum is within ``_TIE_RTOL``
    relative of the lowest, so when descents reach the same optimum the
    better-screened start supplies (h_hat, nu_hat) and ``start_used``,
    whatever the last ulp of each minimum. The diffusion estimate is eta =
    nu * delta**(-hurst). A start with nu <= 0 raises ``ValueError``.
    """
    if len(y) < _MIN_INCREMENTS:
        raise ValueError(f"estimate needs at least {_MIN_INCREMENTS} increments, got {len(y)}")
    box = box if box is not None else ParamBox()
    if starts is None:
        starts = default_starts(box, y.delta)
    starts = [(float(h), float(v)) for h, v in starts]
    if not starts:
        raise ValueError("starts must be nonempty")
    nonpositive = [start for start in starts if start[1] <= 0.0]
    if nonpositive:
        raise ValueError(f"start {nonpositive[0]}: nu must be positive")
    nu_lo, nu_hi = box.nu_bounds(y.delta)

    workspace = WhittleObjective(y, config)
    screened_values = {}  # (hurst, log nu) of each screened start -> its value

    def fun(x):
        x = (float(x[0]), float(x[1]))
        if x in screened_values:  # a descent's first point is its screened start
            return screened_values[x]
        return workspace.value(x[0], math.exp(x[1]))

    bounds = [(box.h_min, box.h_max), (math.log(nu_lo), math.log(nu_hi))]
    options = {"maxiter": 500, "ftol": 1e-12, "gtol": 1e-8}

    failures = []
    screened = []
    for start in starts:
        x0 = (
            min(max(start[0], box.h_min), box.h_max),
            min(max(math.log(start[1]), bounds[1][0]), bounds[1][1]),
        )
        try:
            value = fun(x0)
        except START_ERRORS as exc:
            failures.append(f"start {start}: {exc}")
            continue
        if not math.isfinite(value):
            failures.append(f"start {start}: non-finite objective")
            continue
        screened_values[x0] = value
        screened.append((value, *x0, start))
    screened.sort(key=lambda s: s[:3])

    candidates = []
    descended_h = set()
    for _, h0, log_nu0, start in screened:
        if len(candidates) == _DESCENTS:
            break
        if h0 in descended_h:
            continue
        try:
            res = minimize(
                fun,
                np.array([h0, log_nu0]),
                jac="3-point",
                method="L-BFGS-B",
                bounds=bounds,
                options=options,
            )
        except START_ERRORS as exc:
            failures.append(f"start {start}: {exc}")
            continue
        if not np.isfinite(res.fun):
            failures.append(f"start {start}: non-finite objective")
            continue
        converged = _converged(res, bounds)
        if not converged:
            failures.append(f"start {start}: not converged: {res.message}")
        descended_h.add(h0)
        candidates.append(
            (float(res.fun), float(res.x[0]), math.exp(float(res.x[1])), converged, start)
        )

    if not candidates:
        raise AllStartsFailedError(
            "no optimizer start produced a finite minimum:\n  "
            + "\n  ".join(failures)
        )

    lowest = min(c[0] for c in candidates)
    obj_val, h_hat, nu_hat, converged, start_used = next(
        c for c in candidates if c[0] - lowest <= _TIE_RTOL * abs(lowest)
    )
    eta_hat = nu_hat * y.delta ** (-h_hat)
    return WhittleFit(
        h_hat=h_hat,
        nu_hat=nu_hat,
        eta_hat=eta_hat,
        objective=obj_val,
        n_starts=len(starts),
        converged=converged,
        start_used=start_used,
        delta=y.delta,
        m=y.m,
        failures=tuple(failures),
    )
