"""Two-stage log-log regression of volatility structure functions.

Stage one regresses the log of the empirical q-th absolute moment of
lag-increments on the log lag, one slope per q; stage two regresses those
slopes on q through the origin, reading off a self-similarity exponent.
Applied to realized volatility this is the popular roughness diagnostic
whose output this package's spectral estimator is designed to audit:
proxy noise drags the regression exponent down regardless of the true
path roughness.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

DEFAULT_QS = (0.5, 1.0, 1.5, 2.0, 3.0)
DEFAULT_LAGS = tuple(range(1, 51))


@dataclass(frozen=True, eq=False)
class ScalingFit:
    """Structure-function regression summary.

    ``structure_functions`` holds the regressed moments, one row per q and
    one column per lag; ``zeta`` is the stage-one slope per q;
    ``h_estimate`` is the origin-constrained stage-two slope, with the
    unconstrained variant kept as a diagnostic.
    """

    qs: np.ndarray
    lags: np.ndarray
    structure_functions: np.ndarray
    zeta: np.ndarray
    h_estimate: float
    h_with_intercept: float
    r2_stage1: np.ndarray
    r2_stage2: float

    def __post_init__(self):
        for name in ("qs", "lags", "structure_functions", "zeta", "r2_stage1"):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=float))


def structure_function(log_vol, q: float, lag: int) -> float:
    """Mean of |x[t+lag] - x[t]|**q over all valid t."""
    x = np.asarray(log_vol, dtype=float)
    if x.ndim != 1:
        raise ValueError("log_vol must be 1-d")
    if q <= 0.0:
        raise ValueError("q must be positive")
    if lag < 1:
        raise ValueError("lag must be >= 1")
    if lag >= len(x):
        raise ValueError(f"lag {lag} leaves no increments in a series of length {len(x)}")
    inc = np.abs(x[lag:] - x[:-lag])
    return float(np.mean(inc**q))


def _ols_line(x: np.ndarray, y: np.ndarray) -> tuple[float, float, float]:
    slope, intercept = np.polyfit(x, y, 1)
    fitted = slope * x + intercept
    ss_res = float(np.sum((y - fitted) ** 2))
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0.0 else 1.0
    return float(slope), float(intercept), r2


def fit_scaling(log_vol, qs=DEFAULT_QS, lags=DEFAULT_LAGS) -> ScalingFit:
    """Run both regressions on a log-volatility series.

    Stage one: for each q, OLS of log structure function on log lag.
    Stage two: OLS of the stage-one slopes on q through the origin (the
    model being slope = H * q); the with-intercept slope is also reported.
    The stage-two r2 is uncentered, matching the origin constraint.
    """
    x = np.asarray(log_vol, dtype=float)
    qs_arr = np.asarray(qs, dtype=float)
    lags_arr = np.asarray(sorted(int(lag) for lag in lags))
    if len(qs_arr) < 1:
        raise ValueError("need at least one q")
    if len(lags_arr) < 2:
        raise ValueError("need at least two lags")
    if np.any(qs_arr <= 0.0):
        raise ValueError("qs must be positive")
    if lags_arr[0] < 1 or len(np.unique(lags_arr)) != len(lags_arr):
        raise ValueError("lags must be distinct positive integers")

    sf = np.array([[structure_function(x, q, lag) for lag in lags_arr] for q in qs_arr])
    if np.all(sf == 0.0):
        raise ValueError("all structure functions vanish; the series is constant")
    if np.any(sf <= 0.0):
        raise ValueError("zero structure function encountered; series too degenerate")

    log_lag = np.log(lags_arr.astype(float))
    zeta = np.empty(len(qs_arr))
    r2_1 = np.empty(len(qs_arr))
    for i in range(len(qs_arr)):
        zeta[i], _, r2_1[i] = _ols_line(log_lag, np.log(sf[i]))

    h_origin = float(zeta @ qs_arr / (qs_arr @ qs_arr))
    fitted = h_origin * qs_arr
    ss_res = float(np.sum((zeta - fitted) ** 2))
    ss_tot = float(np.sum(zeta**2))
    r2_2 = 1.0 - ss_res / ss_tot if ss_tot > 0.0 else 1.0
    if len(qs_arr) >= 2:
        h_free, _, _ = _ols_line(qs_arr, zeta)
    else:
        h_free = h_origin

    return ScalingFit(
        qs=qs_arr,
        lags=lags_arr,
        structure_functions=sf,
        zeta=zeta,
        h_estimate=h_origin,
        h_with_intercept=h_free,
        r2_stage1=r2_1,
        r2_stage2=r2_2,
    )
