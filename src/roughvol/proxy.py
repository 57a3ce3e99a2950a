"""Daily realized variance and related proxies computed from grid paths.

Realized variance sums m squared intraday log returns per day; integrated
variance is the trapezoidal integral of exp(log variance) per day. The
scaled log difference between the two is the proxy error whose limiting
law (iid centered Gaussian, variance 2/m) the estimator builds on.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fracsim import GridPath


class AlignmentError(ValueError):
    """The path grid does not contain the sampling times implied by (m, delta)."""


@dataclass(frozen=True, eq=False)
class RvSeries:
    """Daily realized-variance values together with the (delta, m) that
    produced them. Nonpositive values are rejected at construction."""

    values: np.ndarray
    delta: float
    m: int

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", values)
        if values.ndim != 1 or len(values) < 1:
            raise ValueError("need at least one daily value")
        if self.delta <= 0.0:
            raise ValueError("delta must be positive")
        if self.m < 1:
            raise ValueError("m must be >= 1")
        bad = ~(values > 0.0) | ~np.isfinite(values)
        if np.any(bad):
            days = np.flatnonzero(bad)[:5] + 1
            raise ValueError(
                f"{int(bad.sum())} nonpositive/non-finite realized-variance "
                f"value(s), first at day(s) {days.tolist()}; drop or clean "
                "them before constructing the series"
            )

    def __len__(self):
        return len(self.values)


@dataclass(frozen=True, eq=False)
class LogRvIncrements:
    """First differences of log realized variance, the estimator's input."""

    y: np.ndarray
    delta: float
    m: int

    def __post_init__(self):
        y = np.asarray(self.y, dtype=float)
        object.__setattr__(self, "y", y)
        if y.ndim != 1 or len(y) < 1:
            raise ValueError("need at least one increment")
        if not np.all(np.isfinite(y)):
            raise ValueError("increments must be finite")
        if self.delta <= 0.0:
            raise ValueError("delta must be positive")
        if self.m < 1:
            raise ValueError("m must be >= 1")

    def __len__(self):
        return len(self.y)


def _grid_stride(dt: float, span: float, label: str) -> int:
    stride_f = span / dt
    stride = int(round(stride_f))
    if stride < 1 or abs(stride_f - stride) > 1e-8 * max(stride, 1):
        raise AlignmentError(
            f"{label}: step {dt!r} does not divide {span!r} into a whole "
            f"number of grid intervals (ratio {stride_f!r})"
        )
    return stride


def realized_variance(log_price: GridPath, m: int, delta: float) -> RvSeries:
    """Sum of m squared intraday log returns for each complete day.

    The grid must align: delta/(m*dt) is required to be an integer, so the
    intraday sampling times are grid points.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    stride = _grid_stride(log_price.dt, delta / m, "realized_variance")
    per_day = m * stride
    n_days = (len(log_price.values) - 1) // per_day
    if n_days < 1:
        raise AlignmentError("log-price grid shorter than one complete day")
    sampled = log_price.values[: n_days * per_day + 1 : stride]
    returns = np.diff(sampled)
    rv = (returns * returns).reshape(n_days, m).sum(axis=1)
    return RvSeries(rv, delta=delta, m=m)


def integrated_variance(log_variance: GridPath, delta: float) -> np.ndarray:
    """Per-day trapezoidal integral of exp(log variance) over the grid."""
    per_day = _grid_stride(log_variance.dt, delta, "integrated_variance")
    n_days = (len(log_variance.values) - 1) // per_day
    if n_days < 1:
        raise AlignmentError("log-variance grid shorter than one complete day")
    var = np.exp(log_variance.values[: n_days * per_day + 1])
    areas = 0.5 * (var[:-1] + var[1:]) * log_variance.dt
    return areas.reshape(n_days, per_day).sum(axis=1)


def log_rv_increments(rv: RvSeries) -> LogRvIncrements:
    """y[t] = log rv[t+1] - log rv[t]; length len(rv) - 1."""
    if len(rv) < 2:
        raise ValueError("need at least two daily values to difference")
    y = np.diff(np.log(rv.values))
    return LogRvIncrements(y, delta=rv.delta, m=rv.m)


def error_zscores(rv: RvSeries, iv) -> np.ndarray:
    """sqrt(m) * (log realized variance - log integrated variance), per day.

    Converges in law to sqrt(2) times an iid standard Gaussian sequence as
    the intraday count m grows.
    """
    iv = np.asarray(iv, dtype=float)
    if iv.shape != rv.values.shape:
        raise ValueError(
            f"length mismatch: {len(rv.values)} rv values vs {len(iv)} integrated values"
        )
    if not np.all(iv > 0.0):
        raise ValueError("integrated variance must be positive")
    return np.sqrt(rv.m) * (np.log(rv.values) - np.log(iv))
