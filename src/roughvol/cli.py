"""Command-line entry point.

Subcommands: simulate, rv, estimate, scaling, spectrum, mc, illusion,
zscore, ingest-check. Exit codes: 0 success; 1 for a ``ValueError`` (bad
flags, missing, unreadable or malformed inputs, invariant violations),
which the package raises for every input it rejects; 2 for any other
failure, such as a simulation overflow or a fit whose every start failed.
``dispatch`` alone maps exceptions to exit codes. Files are opened only in
``ingest``: inputs by ``open_input``, outputs by ``atomic_write``. Experiment
subcommands refuse to run without an explicit --seed. This is the one
module that prints: the library returns records and reasons as data.
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import sys

import numpy as np

from .fracsim import FouSpec, simulate_fou_price
from .harness import (
    DEFAULT_ALPHA,
    DEFAULT_C,
    ILLUSION_FREQUENCIES,
    ILLUSION_N_DAYS,
    McConfig,
    intraday_counts,
    run_illusion_experiment,
    run_mc_table,
    run_zscore_experiment,
    single_blas_thread,
)
from .ingest import (
    DATE_COLUMN,
    DEFAULT_DELTA,
    RV_COLUMN,
    atomic_write,
    csv_lines,
    format_cell,
    open_input,
    read_float_table,
    read_grid_csv,
    read_rv_csv,
    write_csv,
)
from .proxy import log_rv_increments, realized_variance
from .scaling import DEFAULT_LAGS, DEFAULT_QS, fit_scaling
from .spectral import SpectralConfig, ell, f_h_dense, g_spectrum
from .whittle import ParamBox, check_conditions, estimate

# Help text appended to a flag's description; argparse fills in the value.
_DEFAULT = " (default %(default)s)"

# Significant digits of the printed experiment summaries.
SUMMARY_DIGITS = 6


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would sys.exit(2); keep codes stable
        raise ValueError(message)


def _float_tuple(text: str) -> tuple:
    return tuple(float(part) for part in text.split(",") if part.strip() != "")


def _int_tuple(text: str) -> tuple:
    # argparse shows an ArgumentTypeError's own text, which names the rejected count
    try:
        return intraday_counts(part.strip() for part in text.split(",") if part.strip() != "")
    except ValueError as exc:
        raise argparse.ArgumentTypeError(exc) from None


def _summary(record, names) -> str:
    """``name=value`` for each attribute of ``record`` in ``names``, at
    ``SUMMARY_DIGITS`` significant digits, joined by spaces."""
    return " ".join(f"{name}={getattr(record, name):.{SUMMARY_DIGITS}g}" for name in names)


def _show(value) -> str:
    """A default as its flag spells it: tuples become comma lists."""
    return ",".join(str(v) for v in value) if isinstance(value, tuple) else str(value)


# Monte Carlo settings: --config key, parser of its text, and the mc flag
# that overrides it (None: config file only) with that flag's help.
_MC_SETTINGS = (
    ("h0_list", _float_tuple, "h0", "comma list of true hurst values"),
    ("eta0_list", _float_tuple, "eta0", "comma list of true eta values"),
    ("m_list", _int_tuple, "m", "comma list of intraday counts"),
    ("n_paths", int, "paths", "paths per cell"),
    ("n_days", int, "days", "days per path"),
    ("delta", float, "delta", "day length in years"),
    ("alpha", float, "alpha", "mean reversion"),
    ("c", float, "c", "long-run mean"),
    ("substeps", int, None, None),
)


def _parse_lags(text: str) -> tuple:
    # accepts "1:50" ranges or comma lists
    if ":" in text:
        lo, _, hi = text.partition(":")
        return tuple(range(int(lo), int(hi) + 1))
    return tuple(int(part) for part in text.split(",") if part.strip() != "")


# Descriptions of the estimate flags generated from ParamBox and
# SpectralConfig, one per field.
_FIELD_HELP = {
    "h_min": "lower hurst bound",
    "h_max": "upper hurst bound",
    "eta_min": "lower eta bound",
    "eta_max": "upper eta bound",
    "paxson_k": "alias-sum truncation",
    "taylor_j": "cosine-series terms in the corrections",
    "psi": "cut frequency for the analytic corrections",
    "quad_rel_tol": "relative quadrature tolerance",
    "quad_abs_tol": "absolute quadrature tolerance",
}


def _add_field_flags(parser, cls) -> None:
    """One flag per field of the dataclass ``cls``, defaulting to its default."""
    for f in dataclasses.fields(cls):
        parser.add_argument(f"--{f.name.replace('_', '-')}", type=type(f.default),
                            default=f.default, help=_FIELD_HELP[f.name] + _DEFAULT)


def _from_field_flags(cls, args):
    """The ``cls`` instance that the flags of :func:`_add_field_flags` describe."""
    return cls(**{f.name: getattr(args, f.name) for f in dataclasses.fields(cls)})


def _add_rv_flags(parser) -> None:
    """The input flags of the commands that read a realized-variance CSV."""
    parser.add_argument("--rv", required=True, help="realized-variance CSV")
    parser.add_argument("--column", default=RV_COLUMN, help="value column name" + _DEFAULT)
    parser.add_argument("--delta", type=float, default=DEFAULT_DELTA,
                        help="day length in years" + _DEFAULT)


def _read_rv(args, m: int, date_column: str = DATE_COLUMN, strict: bool = False):
    return read_rv_csv(args.rv, m=m, delta=args.delta, column=args.column,
                       date_column=date_column, strict=strict)


def build_parser() -> _Parser:
    parser = _Parser(prog="roughvol",
                     description="Roughness estimation for stochastic volatility "
                                 "from daily realized variance")
    sub = parser.add_subparsers(dest="subcommand", required=True, parser_class=_Parser)

    p = sub.add_parser("simulate",
                       help="simulate the fractional volatility price model")
    p.add_argument("--h", type=float, required=True, help="hurst parameter of the volatility noise")
    p.add_argument("--eta", type=float, required=True, help="volatility-of-volatility")
    p.add_argument("--alpha", type=float, default=DEFAULT_ALPHA, help="mean-reversion speed" + _DEFAULT)
    p.add_argument("--c", type=float, default=DEFAULT_C, help="long-run mean of log variance" + _DEFAULT)
    p.add_argument("--logvar0", type=float, default=None, help="initial log variance (default: c)")
    p.add_argument("--s0", type=float, default=FouSpec.s0, help="initial price" + _DEFAULT)
    p.add_argument("--days", type=int, required=True, help="number of days to simulate")
    p.add_argument("--m", type=int, required=True, help="grid steps per day")
    p.add_argument("--delta", type=float, default=DEFAULT_DELTA, help="day length in years" + _DEFAULT)
    p.add_argument("--substeps", type=int, default=FouSpec.substeps,
                   help="simulation substeps per grid step" + _DEFAULT)
    p.add_argument("--seed", type=int, required=True, help="random seed (required)")
    p.add_argument("--out", required=True, help="log-price CSV output path")
    p.add_argument("--out-logvar", default=None, help="optional log-variance CSV output path")

    p = sub.add_parser("rv",
                       help="compute daily realized variance from a log-price grid")
    p.add_argument("--price", required=True, help="log-price CSV (t,value)")
    p.add_argument("--m", type=int, required=True, help="intraday returns per day")
    p.add_argument("--delta", type=float, default=DEFAULT_DELTA, help="day length in years" + _DEFAULT)
    p.add_argument("--out", required=True, help="realized-variance CSV output path")

    p = sub.add_parser("estimate",
                       help="fit (hurst, eta) to a realized-variance series")
    _add_rv_flags(p)
    p.add_argument("--m", type=int, required=True, help="intraday returns behind each value")
    p.add_argument("--starts", default=None,
                   help="CSV of optimizer starts with columns h,nu (default: built-in grid)")
    p.add_argument("--out", default=None, help="result CSV path (default: stdout)")
    p.add_argument("--diagnostics", default=None, help="key=value sidecar path")
    _add_field_flags(p, ParamBox)
    _add_field_flags(p, SpectralConfig)

    p = sub.add_parser("scaling",
                       help="structure-function regressions on realized volatility")
    _add_rv_flags(p)
    p.add_argument("--qs", type=_float_tuple, default=_show(DEFAULT_QS),
                   help="comma-separated moments" + _DEFAULT)
    p.add_argument("--lags", type=_parse_lags, default=f"{DEFAULT_LAGS[0]}:{DEFAULT_LAGS[-1]}",
                   help="lag range lo:hi or comma list" + _DEFAULT)
    p.add_argument("--out", required=True, help="long-form (q,lag,log_lag,log_m) CSV output")
    p.add_argument("--summary-out", default=None, help="optional summary CSV path")

    p = sub.add_parser("spectrum",
                       help="dump (lambda, f_h, ell, g) on a frequency grid")
    p.add_argument("--h", type=float, required=True, help="hurst parameter")
    p.add_argument("--nu", type=float, required=True, help="day-scale diffusion nu")
    p.add_argument("--m", type=int, required=True, help="intraday count for the noise weight")
    p.add_argument("--points", type=int, default=200, help="grid size" + _DEFAULT)
    p.add_argument("--lambda-min", type=float, default=1e-4,
                   help="smallest frequency, log-spaced up to pi" + _DEFAULT)
    p.add_argument("--paxson-k", type=int, default=SpectralConfig.paxson_k,
                   help=_FIELD_HELP["paxson_k"] + _DEFAULT)
    p.add_argument("--out", required=True, help="CSV output path")

    p = sub.add_parser("mc",
                       help="Monte Carlo table of estimator mean/variance per cell")
    keys = ", ".join(key for key, _, _, _ in _MC_SETTINGS)
    p.add_argument("--config", default=None, help=f"key=value file with grids ({keys})")
    for key, parse, flag, text in _MC_SETTINGS:
        if flag is not None:
            p.add_argument(f"--{flag}", type=parse, default=None,
                           help=f"{text} (default {_show(getattr(McConfig, key))})")
    p.add_argument("--seed", type=int, required=True, help="base seed (required)")
    p.add_argument("--workers", type=int, default=1, help="parallel workers" + _DEFAULT)
    p.add_argument("--out", required=True, help="per-cell CSV output path")
    p.add_argument("--summary-out", default=None, help="optional text summary path")

    p = sub.add_parser("illusion",
                       help="regression vs spectral estimates across RV frequencies "
                            "on one smooth-volatility path")
    p.add_argument("--seed", type=int, required=True, help="random seed (required)")
    p.add_argument("--frequencies", type=_int_tuple, default=_show(ILLUSION_FREQUENCIES),
                   help="comma list of intraday counts" + _DEFAULT)
    p.add_argument("--days", type=int, default=ILLUSION_N_DAYS, help="days to simulate" + _DEFAULT)
    p.add_argument("--workers", type=int, default=1, help="parallel workers" + _DEFAULT)
    p.add_argument("--out", required=True, help="CSV output path")

    p = sub.add_parser("zscore",
                       help="variance / independence check of the scaled log proxy error")
    p.add_argument("--m", type=int, required=True, help="intraday returns per day")
    p.add_argument("--days", type=int, required=True, help="days to simulate")
    p.add_argument("--seed", type=int, required=True, help="random seed (required)")
    p.add_argument("--out", default=None, help="optional CSV output path")

    p = sub.add_parser("ingest-check",
                       help="validate and canonicalize a realized-variance CSV")
    _add_rv_flags(p)
    p.add_argument("--date-column", default=DATE_COLUMN, help="date column name" + _DEFAULT)
    p.add_argument("--m", type=int, required=True, help="intraday count metadata")
    p.add_argument("--strict", action="store_true", help="fail if any row must be dropped")
    p.add_argument("--out", default=None, help="canonical date,rv CSV output path")

    return parser


def _cmd_simulate(args) -> int:
    spec = FouSpec(
        hurst=args.h, eta=args.eta, alpha=args.alpha, c=args.c,
        delta=args.delta, m=args.m, n_days=args.days, seed=args.seed,
        logvar0=args.logvar0, s0=args.s0, substeps=args.substeps,
    )
    log_var, log_price = simulate_fou_price(spec)
    for path, grid in ((args.out, log_price), (args.out_logvar, log_var)):
        if path:
            write_csv(path, ["t", "value"], zip(grid.times(), grid.values))
    return 0


def _cmd_rv(args) -> int:
    grid = read_grid_csv(args.price, kind="log_price")
    rv = realized_variance(grid, args.m, args.delta)
    write_csv(args.out, [DATE_COLUMN, RV_COLUMN], enumerate(rv.values, start=1))
    return 0


def _read_starts(path: str) -> list[tuple[float, float]]:
    table = read_float_table(path, ("h", "nu"))
    if not len(table):
        raise ValueError(f"{path}: no starts found")
    return [(float(h), float(nu)) for h, nu in table]


def _cmd_estimate(args) -> int:
    box = _from_field_flags(ParamBox, args)
    config = _from_field_flags(SpectralConfig, args)
    rv, _report = _read_rv(args, args.m)
    y = log_rv_increments(rv)
    starts = _read_starts(args.starts) if args.starts else None
    sys.stderr.writelines(f"warning: {message}\n"
                          for message in check_conditions(y.delta, y.m, len(y), box))
    fit = estimate(y, box=box, starts=starts, config=config)
    header = ["h_hat", "nu_hat", "eta_hat", "objective", "converged"]
    row = [fit.h_hat, fit.nu_hat, fit.eta_hat, fit.objective, fit.converged]
    if args.out:
        write_csv(args.out, header, [row])
    else:
        sys.stdout.writelines(csv_lines(header, [row]))
    if args.diagnostics:
        diag = [
            ("n", len(y)),
            ("delta", fit.delta),
            ("m", fit.m),
            ("n_starts", fit.n_starts),
            ("failed_starts", len(fit.failures)),
            ("evaluations", fit.evaluations),
            ("start_used_h", fit.start_used[0]),
            ("start_used_nu", fit.start_used[1]),
            ("converged", fit.converged),
            ("objective", fit.objective),
            ("psi", config.psi),
            ("paxson_k", config.paxson_k),
            ("taylor_j", config.taylor_j),
        ]
        atomic_write(args.diagnostics, (f"{key}={format_cell(value)}\n" for key, value in diag))
    return 0


def _cmd_scaling(args) -> int:
    rv, _report = _read_rv(args, 1)  # fit_scaling reads no m
    log_vol = 0.5 * np.log(rv.values)  # variance series in, volatility out
    fit = fit_scaling(log_vol, qs=args.qs, lags=args.lags)
    rows = [
        (q, int(lag), math.log(lag), math.log(sf))
        for q, sf_row in zip(fit.qs, fit.structure_functions)
        for lag, sf in zip(fit.lags, sf_row)
    ]
    write_csv(args.out, ["q", "lag", "log_lag", "log_m"], rows)

    if args.summary_out:
        write_csv(args.summary_out, ["h_estimate", "h_with_intercept", "r2_stage2"],
                  [(fit.h_estimate, fit.h_with_intercept, fit.r2_stage2)])
    print(_summary(fit, ("h_estimate", "h_with_intercept", "r2_stage2")))
    return 0


def _cmd_spectrum(args) -> int:
    if args.points < 2:
        raise ValueError("--points must be >= 2")
    if not 0.0 < args.lambda_min < math.pi:
        raise ValueError("--lambda-min must be in (0, pi)")
    grid = np.exp(np.linspace(math.log(args.lambda_min), math.log(math.pi), args.points))
    f_vals = f_h_dense(grid, args.h, args.paxson_k)
    g_vals = g_spectrum(grid, args.h, args.nu, args.m, args.paxson_k)
    write_csv(args.out, ["lambda", "f_h", "ell", "g"], zip(grid, f_vals, ell(grid), g_vals))
    return 0


def _parse_kv_file(path: str) -> dict:
    values = {}
    with open_input(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}: line {lineno}: expected key = value")
            key, _, val = line.partition("=")
            values[key.strip()] = val.strip()
    return values


def _mc_config_from_args(args) -> McConfig:
    """Defaults, overridden by --config keys, overridden by flags (which
    argparse has already parsed with the same parsers)."""
    fields = {}
    if args.config:
        parsers = {key: parse for key, parse, _, _ in _MC_SETTINGS}
        for key, val in _parse_kv_file(args.config).items():
            if key not in parsers:
                raise ValueError(f"{args.config}: unknown key {key!r}")
            try:
                fields[key] = parsers[key](val)
            except (ValueError, argparse.ArgumentTypeError):
                raise ValueError(f"{args.config}: cannot parse {key} = {val!r}") from None
    for key, _, flag, _ in _MC_SETTINGS:
        if flag is not None and getattr(args, flag) is not None:
            fields[key] = getattr(args, flag)
    fields["base_seed"] = args.seed
    return McConfig(**fields)


def _cmd_mc(args) -> int:
    config = _mc_config_from_args(args)
    report = run_mc_table(config, workers=args.workers)
    sys.stderr.writelines(f"cell {(c.h0, c.eta0, c.m)} {reason}\n"
                          for c in report.cells for reason in c.failures)
    header = ["h0", "eta0", "m", "n_paths", "n_converged", "n_failed",
              "h_mean", "h_var", "eta_mean", "eta_var", "cell_failed"]
    rows = (
        (c.h0, c.eta0, c.m, c.n_paths, c.n_converged, c.n_failed,
         c.h_mean, c.h_var, c.eta_mean, c.eta_var, c.failed)
        for c in report.cells
    )
    write_csv(args.out, header, rows)
    summary = [
        f"h0={c.h0:g} eta0={c.eta0:g} m={c.m}: "
        f"{_summary(c, ('h_mean', 'h_var', 'eta_mean', 'eta_var'))} "
        f"converged={c.n_converged}/{c.n_paths} [{'FAILED' if c.failed else 'ok'}]\n"
        for c in report.cells
    ]
    if args.summary_out:
        atomic_write(args.summary_out, summary)
    else:
        sys.stdout.writelines(summary)
    print(f"total wall time {report.wall_time:.1f}s", file=sys.stderr)
    return 0


def _cmd_illusion(args) -> int:
    rows = run_illusion_experiment(
        seed=args.seed, frequencies=args.frequencies, n_days=args.days,
        workers=args.workers,
    )
    write_csv(args.out, ["m", "scaling_h", "whittle_h", "whittle_eta"],
              ((r.m, r.scaling_h, r.whittle_h, r.whittle_eta) for r in rows))
    for r in rows:
        print(f"m={r.m}: {_summary(r, ('scaling_h', 'whittle_h'))}")
    return 0


def _cmd_zscore(args) -> int:
    result = run_zscore_experiment(m=args.m, n_days=args.days, seed=args.seed)
    header = ["m", "n_days", "sample_variance", "lag1_autocorr", "skewness"]
    row = [result.m, result.n_days, result.sample_variance,
           result.lag1_autocorr, result.skewness]
    if args.out:
        write_csv(args.out, header, [row])
    print(_summary(result, ("sample_variance", "lag1_autocorr", "skewness")))
    return 0


def _cmd_ingest_check(args) -> int:
    rv, report = _read_rv(args, args.m, args.date_column, args.strict)
    if args.out:
        write_csv(args.out, [DATE_COLUMN, RV_COLUMN], zip(report.kept_dates, rv.values))
    reasons = ", ".join(f"{k}={v}" for k, v in sorted(report.reasons.items())) or "none"
    print(
        f"rows_read={report.rows_read} kept={report.rows_kept} "
        f"dropped={report.rows_dropped} ({reasons}) "
        f"span={report.date_span[0]}..{report.date_span[1]}"
    )
    return 0


_HANDLERS = {
    "simulate": _cmd_simulate,
    "rv": _cmd_rv,
    "estimate": _cmd_estimate,
    "scaling": _cmd_scaling,
    "spectrum": _cmd_spectrum,
    "mc": _cmd_mc,
    "illusion": _cmd_illusion,
    "zscore": _cmd_zscore,
    "ingest-check": _cmd_ingest_check,
}


def dispatch(argv) -> int:
    """Parse arguments and run one subcommand, mapping failures to exit codes:
    1 for a ``ValueError``, 2 for any other exception."""
    try:
        args = build_parser().parse_args(argv)
        return _HANDLERS[args.subcommand](args)
    except SystemExit as exc:  # --help and friends
        return int(exc.code or 0)
    except ValueError as exc:  # bad flags or input, or an invariant violation
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    single_blas_thread()  # the command owns its process; dispatch leaves it alone
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
