"""Command-line interface tests."""

import dataclasses
import itertools
import math
import sys

import numpy as np
import pytest

import roughvol as rv
from roughvol import cli, harness
from roughvol.cli import dispatch
from roughvol.harness import DEFAULT_ALPHA, DEFAULT_C
from roughvol.ingest import DEFAULT_DELTA, csv_lines, format_cell


def run(argv):
    return dispatch([str(a) for a in argv])


class TestSimulateAndRv:
    def test_simulate_writes_csv(self, tmp_path):
        out = tmp_path / "path.csv"
        code = run(["simulate", "--h", 0.1, "--eta", 1, "--days", 20, "--m", 16,
                    "--seed", 7, "--out", out])
        assert code == 0
        header = out.read_text().splitlines()[0]
        assert header == "t,value"
        assert len(out.read_text().splitlines()) == 20 * 16 + 2

    def test_simulate_requires_seed(self, tmp_path):
        code = run(["simulate", "--h", 0.1, "--eta", 1, "--days", 5, "--m", 4,
                    "--out", tmp_path / "x.csv"])
        assert code == 1

    def test_rv_pipeline(self, tmp_path):
        price = tmp_path / "price.csv"
        series = tmp_path / "rv.csv"
        assert run(["simulate", "--h", 0.3, "--eta", 1, "--days", 12, "--m", 8,
                    "--seed", 3, "--out", price]) == 0
        assert run(["rv", "--price", price, "--m", 8, "--out", series]) == 0
        lines = series.read_text().splitlines()
        assert lines[0] == "date,rv"
        assert len(lines) == 13

    def test_rv_misaligned_m_fails_cleanly(self, tmp_path):
        price = tmp_path / "price.csv"
        run(["simulate", "--h", 0.3, "--eta", 1, "--days", 4, "--m", 8,
             "--seed", 3, "--out", price])
        assert run(["rv", "--price", price, "--m", 7, "--out", tmp_path / "r.csv"]) == 1


class TestEstimateCommand:
    def test_missing_input_exit_one(self, tmp_path, capsys):
        code = run(["estimate", "--rv", tmp_path / "missing.csv", "--m", 78])
        captured = capsys.readouterr()
        assert code == 1
        assert "missing.csv" in captured.err

        series = tmp_path / "rv.csv"
        series.write_text("date,rv\n1,1e-4\n2,2e-4\n3,1.5e-4\n")
        code = run(["estimate", "--rv", series, "--m", 78,
                    "--starts", tmp_path / "missing-starts.csv"])
        captured = capsys.readouterr()
        assert code == 1
        assert "missing-starts.csv" in captured.err

    def test_end_to_end_fit_row(self, tmp_path, capsys):
        price = tmp_path / "price.csv"
        series = tmp_path / "rv.csv"
        starts = tmp_path / "starts.csv"
        out = tmp_path / "fit.csv"
        diag = tmp_path / "fit.diag"
        run(["simulate", "--h", 0.1, "--eta", 1, "--days", 400, "--m", 40,
             "--seed", 5, "--out", price])
        run(["rv", "--price", price, "--m", 40, "--out", series])
        starts.write_text("h,nu\n0.1,0.5757\n")
        code = run(["estimate", "--rv", series, "--m", 40, "--starts", starts,
                    "--out", out, "--diagnostics", diag])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "h_hat,nu_hat,eta_hat,objective,converged"
        fields = lines[1].split(",")
        assert 0.001 <= float(fields[0]) <= 0.99
        assert fields[4] in ("true", "false")
        assert "n_starts=1" in diag.read_text()
        assert "failed_starts=0" in diag.read_text().splitlines()

    def test_condition_messages_are_printed(self, rv300, tmp_path, capsys, recwarn):
        # the command prints check_conditions' messages as warnings; the
        # library fit raises none and gives the row the command writes
        out = tmp_path / "fit.csv"
        assert run(["estimate", "--rv", rv300, "--m", 4, "--out", out]) == 0
        y = rv.log_rv_increments(rv.read_rv_csv(rv300, m=4)[0])
        messages = rv.check_conditions(y.delta, 4, len(y), rv.ParamBox())
        assert len(messages) == 2
        assert capsys.readouterr().err == "".join(f"warning: {msg}\n" for msg in messages)
        fit = rv.estimate(y)
        assert not [w for w in recwarn if issubclass(w.category, UserWarning)]
        header = ["h_hat", "nu_hat", "eta_hat", "objective", "converged"]
        row = [fit.h_hat, fit.nu_hat, fit.eta_hat, fit.objective, fit.converged]
        assert out.read_text() == "".join(csv_lines(header, [row]))

    def test_diagnostics_write_the_evaluation_count(self, rv300, tmp_path):
        diag = tmp_path / "fit.diag"
        starts = tmp_path / "starts.csv"
        starts.write_text("h,nu\n0.1,0.5\n0.3,1.5\n")
        assert run(["estimate", "--rv", rv300, "--m", 80, "--starts", starts,
                    "--out", tmp_path / "fit.csv", "--diagnostics", diag]) == 0
        y = rv.log_rv_increments(rv.read_rv_csv(rv300, m=80)[0])
        fit = rv.estimate(y, starts=[(0.1, 0.5), (0.3, 1.5)])
        assert fit.evaluations > 2
        assert f"evaluations={fit.evaluations}" in diag.read_text().splitlines()

    def test_unknown_flag_exit_one(self, tmp_path, capsys):
        code = run(["estimate", "--rvv", tmp_path / "x.csv"])
        assert code == 1
        assert capsys.readouterr().err.startswith("error:")


class TestPipelineComposition:
    def test_cli_equals_in_process_bit_for_bit(self, tmp_path):
        # file-based simulate | rv | estimate must reproduce the in-process
        # experiment path exactly for the same derived seed
        h0, eta0, m, n_days, delta = 0.1, 1.0, 40, 300, 1.0 / 250.0
        seed = rv.derive_path_seed(4242, h0, eta0, m, 0)

        spec = rv.FouSpec(hurst=h0, eta=eta0, alpha=0.001, c=-3.2, delta=delta,
                          m=m, n_days=n_days, seed=seed)
        _, log_price = rv.simulate_fou_price(spec)
        series = rv.realized_variance(log_price, m, delta)
        y = rv.log_rv_increments(series)
        fit = rv.estimate(y, starts=[(h0, eta0 * delta**h0)])

        price_csv = tmp_path / "price.csv"
        rv_csv = tmp_path / "rv.csv"
        starts_csv = tmp_path / "starts.csv"
        fit_csv = tmp_path / "fit.csv"
        assert run(["simulate", "--h", h0, "--eta", eta0, "--alpha", 0.001,
                    "--c", -3.2, "--days", n_days, "--m", m, "--seed", seed,
                    "--out", price_csv]) == 0
        assert run(["rv", "--price", price_csv, "--m", m, "--out", rv_csv]) == 0
        starts_csv.write_text(f"h,nu\n{h0!r},{eta0 * delta**h0!r}\n")
        assert run(["estimate", "--rv", rv_csv, "--m", m, "--starts", starts_csv,
                    "--out", fit_csv]) == 0
        fields = fit_csv.read_text().splitlines()[1].split(",")
        assert float(fields[0]) == fit.h_hat
        assert float(fields[1]) == fit.nu_hat
        assert float(fields[2]) == fit.eta_hat


class TestScalingCommand:
    def test_long_form_output(self, tmp_path):
        price = tmp_path / "price.csv"
        series = tmp_path / "rv.csv"
        out = tmp_path / "scaling.csv"
        summary = tmp_path / "summary.csv"
        run(["simulate", "--h", 0.3, "--eta", 1, "--days", 200, "--m", 20,
             "--seed", 9, "--out", price])
        run(["rv", "--price", price, "--m", 20, "--out", series])
        code = run(["scaling", "--rv", series, "--qs", "0.5,1,2", "--lags", "1:20",
                    "--out", out, "--summary-out", summary])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "q,lag,log_lag,log_m"
        assert len(lines) == 1 + 3 * 20
        assert summary.read_text().splitlines()[0] == "h_estimate,h_with_intercept,r2_stage2"


class TestSpectrumCommand:
    def test_dump_columns_and_values(self, tmp_path):
        out = tmp_path / "spectrum.csv"
        code = run(["spectrum", "--h", 0.5, "--nu", 1, "--m", 80,
                    "--points", 32, "--out", out])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "lambda,f_h,ell,g"
        last = [float(x) for x in lines[-1].split(",")]
        assert last[0] == pytest.approx(math.pi, rel=1e-9)
        assert last[1] == pytest.approx(1.0 / (6.0 * math.pi), abs=1e-8)
        assert last[2] == pytest.approx(2.0 / math.pi, abs=1e-12)
        assert last[3] == pytest.approx(last[1] + (2.0 / 80) * last[2], abs=1e-8)

    @pytest.mark.parametrize("nu", ["nan", "inf"])
    def test_non_finite_nu_exits_one(self, nu, tmp_path, capsys):
        out = tmp_path / "spectrum.csv"
        assert run(["spectrum", "--h", 0.3, "--nu", nu, "--m", 80, "--points", 3,
                    "--out", out]) == 1
        assert capsys.readouterr().err == f"error: nu must be positive and finite, got {nu}\n"
        assert not out.exists()


class TestHelpListsDefaults:
    @pytest.mark.parametrize("sub", ["simulate", "rv", "estimate", "scaling",
                                     "spectrum", "mc", "illusion", "zscore",
                                     "ingest-check"])
    def test_help_exits_zero(self, sub, capsys):
        assert run([sub, "--help"]) == 0
        assert "--" in capsys.readouterr().out

    def test_estimate_help_shows_spec_defaults(self, capsys):
        run(["estimate", "--help"])
        text = " ".join(capsys.readouterr().out.split())  # undo line wrapping
        options = text.split("options:", 1)[1]
        defaults = {f.name: f.default for spec in (rv.ParamBox, rv.SpectralConfig)
                    for f in dataclasses.fields(spec)}
        defaults["delta"] = DEFAULT_DELTA
        for name, value in defaults.items():
            flag = "--" + name.replace("_", "-")
            entry = options.split(f" {flag} ", 1)[1].split(" --", 1)[0]
            assert f"(default {value})" in entry, flag


class TestRequiredFlagsOnly:
    """Commands run with only their required flags use the library defaults."""

    def test_estimate_builds_default_box_and_config(self, tmp_path, monkeypatch):
        seen = {}

        def fake_estimate(y, box, starts, config):
            seen.update(delta=y.delta, box=box, starts=starts, config=config)
            return rv.WhittleFit(h_hat=0.1, nu_hat=0.5, eta_hat=1.0, objective=0.0,
                                 n_starts=1, converged=True, start_used=(0.1, 0.5),
                                 delta=y.delta, m=y.m)

        monkeypatch.setattr(cli, "estimate", fake_estimate)
        series = tmp_path / "rv.csv"
        series.write_text("date,rv\n1,1e-4\n2,2e-4\n3,1.5e-4\n")
        assert run(["estimate", "--rv", series, "--m", 78]) == 0
        assert seen == {"delta": DEFAULT_DELTA, "box": rv.ParamBox(), "starts": None,
                        "config": rv.SpectralConfig()}

    def test_simulate_builds_default_spec(self, tmp_path, monkeypatch):
        specs = []

        def recording_simulate(spec):
            specs.append(spec)
            return rv.simulate_fou_price(spec)

        monkeypatch.setattr(cli, "simulate_fou_price", recording_simulate)
        assert run(["simulate", "--h", 0.2, "--eta", 1, "--days", 2, "--m", 4,
                    "--seed", 1, "--out", tmp_path / "price.csv"]) == 0
        assert specs == [rv.FouSpec(hurst=0.2, eta=1.0, alpha=DEFAULT_ALPHA, c=DEFAULT_C,
                                    delta=DEFAULT_DELTA, m=4, n_days=2, seed=1)]

    def test_mc_builds_the_acceptance_configuration(self, tmp_path, monkeypatch):
        configs = []

        def fake_run(config, workers):
            configs.append(config)
            return rv.McReport(cells=(), base_seed=config.base_seed, wall_time=0.0)

        monkeypatch.setattr(cli, "run_mc_table", fake_run)
        assert run(["mc", "--seed", 5, "--out", tmp_path / "mc.csv"]) == 0
        assert configs == [rv.McConfig(base_seed=5)]
        # the acceptance suite's Monte Carlo settings
        config = configs[0]
        assert (config.n_paths, config.n_days, config.delta, config.substeps) == (
            30, 2500, 1.0 / 250.0, 4)


class TestIngestCheckCommand:
    def test_report_and_canonical_output(self, tmp_path, capsys):
        src = tmp_path / "raw.csv"
        src.write_text("date,rv\n2020-01-02,1e-4\n2020-01-03,0\n2020-01-06,2e-4\n")
        out = tmp_path / "canonical.csv"
        code = run(["ingest-check", "--rv", src, "--m", 78, "--out", out])
        assert code == 0
        assert capsys.readouterr().out == ("rows_read=3 kept=2 dropped=1 (nonpositive=1) "
                                           "span=2020-01-02..2020-01-06\n")
        assert out.read_text().splitlines()[0] == "date,rv"

    def test_byte_order_mark(self, tmp_path, capsys):
        body = "date,rv\n2020-01-02,1e-4\n2020-01-03,0\n2020-01-06,2e-4\n"
        outputs = []
        for prefix in ("", "\ufeff"):
            src, out = tmp_path / f"raw{len(prefix)}.csv", tmp_path / f"out{len(prefix)}.csv"
            src.write_text(prefix + body, encoding="utf-8")
            assert run(["ingest-check", "--rv", src, "--m", 78, "--out", out]) == 0
            outputs.append((capsys.readouterr().out, out.read_bytes()))
        assert outputs[1] == outputs[0]

    def test_strict_fails(self, tmp_path):
        src = tmp_path / "raw.csv"
        src.write_text("date,rv\n1,1e-4\n2,0\n")
        assert run(["ingest-check", "--rv", src, "--m", 78, "--strict"]) == 1


class TestZscoreCommand:
    def test_writes_row(self, tmp_path):
        out = tmp_path / "z.csv"
        code = run(["zscore", "--m", 100, "--days", 200, "--seed", 11, "--out", out])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "m,n_days,sample_variance,lag1_autocorr,skewness"
        assert len(lines) == 2


class TestMcCommand:
    def test_config_file_and_overrides(self, tmp_path):
        cfg = tmp_path / "mc.cfg"
        cfg.write_text("h0_list = 0.3\neta0_list = 1\nm_list = 20\nn_paths = 2\nn_days = 120\n")
        out = tmp_path / "mc.csv"
        code = run(["mc", "--config", cfg, "--seed", 77, "--out", out])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0].startswith("h0,eta0,m,n_paths,n_converged")
        assert len(lines) == 2

    def test_config_file_with_byte_order_mark(self, tmp_path):
        cfg = tmp_path / "mc.cfg"
        cfg.write_text("\ufeffn_paths = 2\n", encoding="utf-8")
        assert cli._parse_kv_file(str(cfg)) == {"n_paths": "2"}

    def test_non_integer_intraday_count_in_config(self, tmp_path, capsys):
        cfg = tmp_path / "mc.cfg"
        cfg.write_text("m_list = 80.5\n")
        out = tmp_path / "o.csv"
        assert run(["mc", "--config", cfg, "--seed", 1, "--out", out]) == 1
        assert capsys.readouterr().err == f"error: {cfg}: cannot parse m_list = '80.5'\n"
        assert not out.exists()

    def test_failure_reasons_and_summary_file(self, tmp_path, monkeypatch, capsys):
        # path 0 raises, path 1 returns an unconverged fit
        unconverged = rv.WhittleFit(h_hat=0.1, nu_hat=0.5, eta_hat=1.0, objective=0.0,
                                    n_starts=1, converged=False, start_used=(0.1, 0.5),
                                    delta=1.0 / 250.0, m=40)
        outcomes = itertools.cycle([rv.SynthesisError("boom"), unconverged])  # two runs

        def fake_estimate(y, **kwargs):
            outcome = next(outcomes)
            if isinstance(outcome, Exception):
                raise outcome
            return outcome

        monkeypatch.setattr(harness, "estimate", fake_estimate)
        argv = ["mc", "--h0", 0.1, "--eta0", 1, "--m", 40, "--paths", 2, "--days", 40,
                "--workers", 1, "--seed", 3, "--out", tmp_path / "mc.csv"]
        summary = tmp_path / "summary.txt"
        assert run(argv + ["--summary-out", summary]) == 0
        to_file = capsys.readouterr()
        assert to_file.out == ""
        assert to_file.err.splitlines()[:2] == [
            "cell (0.1, 1.0, 40) path 0: SynthesisError: boom",
            "cell (0.1, 1.0, 40) path 1: not converged",
        ]
        assert to_file.err.splitlines()[2].startswith("total wall time ")
        assert len(to_file.err.splitlines()) == 3
        assert run(argv) == 0
        to_stdout = capsys.readouterr()
        assert summary.read_text() == to_stdout.out
        assert to_stdout.out == ("h0=0.1 eta0=1 m=40: h_mean=nan h_var=nan eta_mean=nan "
                                 "eta_var=nan converged=0/2 [FAILED]\n")

    def test_undocumented_exception_exits_two(self, tmp_path, monkeypatch, capsys):
        def faulty_estimate(y, **kwargs):
            raise TypeError("stand-in fault")

        monkeypatch.setattr(harness, "estimate", faulty_estimate)
        out = tmp_path / "mc.csv"
        code = run(["mc", "--h0", 0.1, "--eta0", 1, "--m", 40, "--paths", 2, "--days", 40,
                    "--seed", 3, "--out", out])
        assert code == 2
        assert capsys.readouterr().err == "error: TypeError: stand-in fault\n"
        assert not out.exists()

    def test_integral_float_counts_still_parse(self):
        assert cli._int_tuple("80,4e2,1000.0") == (80, 400, 1000)

    def test_unknown_config_key(self, tmp_path):
        cfg = tmp_path / "mc.cfg"
        cfg.write_text("h0_lst = 0.3\n")
        assert run(["mc", "--config", cfg, "--seed", 1, "--out", tmp_path / "o.csv"]) == 1


@pytest.fixture
def rv300(tmp_path):
    """A 300-day realized-variance file."""
    path = tmp_path / "rv300.csv"
    values = np.exp(np.random.default_rng(0).normal(-9.0, 0.5, 300))
    rv.write_csv(path, ["date", "rv"], enumerate(values, start=1))
    return path


class TestExitCodes:
    """A ValueError from anywhere in the package is bad input: exit 1."""

    @pytest.mark.parametrize("command", [
        "scaling --lags 1",
        "scaling --lags 1:400",
        "scaling --qs -1",
        "zscore --m 0 --days 10",
        "zscore --m 10 --days 0",
        "illusion --frequencies 80,300",
        "illusion --frequencies=",
        "illusion --days 0",
        "mc --m 0",
    ])
    def test_library_value_error_exits_one(self, command, rv300, tmp_path, capsys):
        out = tmp_path / "out.csv"
        required = {"scaling": ["--rv", rv300, "--out", out], "zscore": ["--seed", 1],
                    "illusion": ["--seed", 1, "--out", out], "mc": ["--seed", 1, "--out", out]}
        argv = command.split()
        assert run(argv + required[argv[0]]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and not err.startswith("error: ValueError")

    @pytest.mark.parametrize("command, message", [pytest.param(*case, id=case[0]) for case in [
        ("scaling --qs 0.5,abc", "invalid _float_tuple value: '0.5,abc'"),
        ("scaling --lags 1:x", "invalid _parse_lags value: '1:x'"),
        ("scaling --lags 1,x", "invalid _parse_lags value: '1,x'"),
        ("illusion --frequencies abc", "could not convert string to float: 'abc'"),
        # an intraday count is named as it was typed
        ("illusion --frequencies 80.7", "intraday counts must be positive whole numbers, got 80.7"),
        ("illusion --frequencies 0,80", "intraday counts must be positive whole numbers, got 0"),
        ("mc --m 399.9", "intraday counts must be positive whole numbers, got 399.9"),
        ("mc --m 80,-1", "intraday counts must be positive whole numbers, got -1"),
    ]])
    def test_malformed_list_flag_exits_one(self, command, message, rv300, tmp_path, capsys):
        out = tmp_path / "out.csv"
        required = {"scaling": ["--rv", rv300, "--out", out],
                    "illusion": ["--seed", 1, "--out", out],
                    "mc": ["--seed", 1, "--out", out]}
        sub, flag, value = command.split()
        assert run([sub, flag, value] + required[sub]) == 1
        assert capsys.readouterr().err == f"error: argument {flag}: {message}\n"
        assert not out.exists()

    def test_nonpositive_nu_start_exits_one(self, rv300, tmp_path, capsys):
        starts = tmp_path / "starts.csv"
        starts.write_text("h,nu\n0.3,0.5\n0.1,-1\n")
        assert run(["estimate", "--rv", rv300, "--m", 80, "--starts", starts]) == 1
        err = capsys.readouterr().err.splitlines()
        assert err[-1] == "error: start (0.1, -1.0): nu must be positive"

    def test_underflowing_nu_range_exits_one(self, rv300, capsys):
        # eta_min * delta**h_max underflows to 0: the log-nu box would be unbounded
        assert run(["estimate", "--rv", rv300, "--m", 80, "--eta-min", 5e-324]) == 1
        assert capsys.readouterr().err.startswith("error: nu range (0.0, ")

    def test_all_starts_failed_exits_two(self, rv300, tmp_path, capsys):
        starts = tmp_path / "starts.csv"
        starts.write_text("h,nu\n0.1,0.5\n0.3,0.5\n")
        code = run(["estimate", "--rv", rv300, "--m", 80, "--starts", starts,
                    "--quad-rel-tol", 1e-300, "--quad-abs-tol", 1e-300])
        lines = capsys.readouterr().err.splitlines()
        assert code == 2
        assert lines[0] == ("error: AllStartsFailedError: "
                            "no optimizer start produced a finite minimum:")
        assert [line.partition(":")[0] for line in lines[1:]] == [
            "  start (0.1, 0.5)", "  start (0.3, 0.5)"]

    def test_estimate_on_too_short_series_exits_one(self, tmp_path, capsys):
        series = tmp_path / "rv.csv"
        series.write_text("date,rv\n1,1e-4\n2,2e-4\n3,1.5e-4\n4,1.2e-4\n")
        code = run(["estimate", "--rv", series, "--m", 78])
        assert code == 1
        assert capsys.readouterr().err == (
            "warning: observation span n*delta=0.012 is outside the moderate range "
            "(0.5, 200) the method is designed for\n"
            "error: estimate needs at least 8 increments, got 3\n")

    @pytest.mark.parametrize("sub", [["estimate", "--m", 78], ["scaling"],
                                     ["ingest-check", "--m", 78]])
    def test_short_row_exits_one(self, sub, tmp_path, capsys):
        series = tmp_path / "rv.csv"
        series.write_text("rv,date\n1e-4,2020-01-02\n2e-4\n3e-4,2020-01-06\n")
        out = tmp_path / "out.csv"
        assert run(sub + ["--rv", series, "--out", out]) == 1
        assert capsys.readouterr().err == f"error: {series}: line 3: too few columns\n"
        assert not out.exists()

    @pytest.mark.parametrize("argv", [["ingest-check", "--rv", "{bad}", "--m", 78],
                                      ["estimate", "--rv", "{rv}", "--m", 78, "--starts", "{bad}"]],
                             ids=["ingest-check --rv", "estimate --starts"])
    def test_csv_module_error_exits_one_naming_the_line(self, argv, rv300, tmp_path, capsys):
        # a quoted cell longer than the csv module's field size limit (131,072)
        bad = tmp_path / "input.csv"
        bad.write_text('h,nu,rv\n0.1,0.5,1e-4\n"' + "1" * 140_000 + '",0.5,1e-4\n')
        assert run([str(a).format(bad=bad, rv=rv300) for a in argv]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {bad}: line 3: field larger than field limit"), err

    @pytest.mark.parametrize("sub", [["mc"], ["illusion", "--days", 10]])
    def test_zero_workers_rejected_by_the_library(self, sub, tmp_path, capsys):
        code = run(sub + ["--seed", 1, "--workers", 0, "--out", tmp_path / "out.csv"])
        assert code == 1
        assert capsys.readouterr().err == "error: workers must be >= 1\n"


# Each input flag: the argv that reads it, the path under test as {bad},
# and a well-formed version of the input with a non-ASCII note in it.
INPUTS = {
    "estimate --rv": (["estimate", "--rv", "{bad}", "--m", 78],
                      "date,rv,note\n1,1e-4,café\n"),
    "estimate --starts": (["estimate", "--rv", "{rv}", "--m", 78, "--starts", "{bad}"],
                          "h,nu,note\n0.1,0.5,café\n"),
    "rv --price": (["rv", "--price", "{bad}", "--m", 2, "--out", "{out}"],
                   "t,value,note\n0,0,café\n0.5,0.1,x\n1,0.3,x\n"),
    "mc --config": (["mc", "--config", "{bad}", "--seed", 1, "--out", "{out}"],
                    "n_paths = 2  # café\n"),
}


class TestUnreadableInputs:
    """A missing, unreadable or non-UTF-8 input exits 1 naming the file."""

    @pytest.mark.parametrize("kind", ["missing", "directory", "latin-1"])
    @pytest.mark.parametrize("flag", INPUTS)
    def test_exits_one_naming_the_file(self, flag, kind, rv300, tmp_path, capsys):
        argv, text = INPUTS[flag]
        bad = tmp_path / "input"
        if kind == "directory":
            bad.mkdir()
        elif kind == "latin-1":
            bad.write_text(text, encoding="latin-1")
        out = tmp_path / "out.csv"
        assert run([str(a).format(bad=bad, rv=rv300, out=out) for a in argv]) == 1
        assert capsys.readouterr().err.startswith(f"error: {bad}: ")
        assert not out.exists()


@pytest.fixture(scope="module")
def cli_inputs(tmp_path_factory):
    inputs = tmp_path_factory.mktemp("inputs")
    assert run(["simulate", "--h", 0.2, "--eta", 1, "--days", 120, "--m", 8,
                "--seed", 5, "--out", inputs / "price.csv"]) == 0
    assert run(["rv", "--price", inputs / "price.csv", "--m", 8,
                "--out", inputs / "rv.csv"]) == 0
    (inputs / "starts.csv").write_text("h,nu\n0.2,0.33\n")
    (inputs / "raw.csv").write_text("date,rv\n2020-01-02,1e-4\n2020-01-03,0\n2020-01-06,2.7e-4\n")
    (inputs / "mc.cfg").write_text("h0_list = 0.3\neta0_list = 1\nm_list = 20\n"
                                   "n_paths = 2\nn_days = 120\n")
    return inputs


# Every subcommand that writes CSV files; {in} is the inputs directory and
# {out} the directory the outputs go to.
CSV_WRITERS = {
    "simulate": ["simulate", "--h", 0.2, "--eta", 1, "--days", 10, "--m", 8, "--seed", 1,
                 "--out", "{out}/price.csv", "--out-logvar", "{out}/logvar.csv"],
    "rv": ["rv", "--price", "{in}/price.csv", "--m", 8, "--out", "{out}/rv.csv"],
    "estimate": ["estimate", "--rv", "{in}/rv.csv", "--m", 8, "--starts", "{in}/starts.csv",
                 "--out", "{out}/fit.csv"],
    "scaling": ["scaling", "--rv", "{in}/rv.csv", "--lags", "1:5", "--out", "{out}/scaling.csv",
                "--summary-out", "{out}/summary.csv"],
    "spectrum": ["spectrum", "--h", 0.1, "--nu", 0.5, "--m", 80, "--points", 16,
                 "--out", "{out}/spectrum.csv"],
    "mc": ["mc", "--config", "{in}/mc.cfg", "--seed", 3, "--out", "{out}/mc.csv"],
    "illusion": ["illusion", "--seed", 3, "--frequencies", "4,8", "--days", 60,
                 "--out", "{out}/illusion.csv"],
    "zscore": ["zscore", "--m", 50, "--days", 50, "--seed", 2, "--out", "{out}/z.csv"],
    "ingest-check": ["ingest-check", "--rv", "{in}/raw.csv", "--m", 78,
                     "--out", "{out}/canonical.csv"],
}


class TestOutputFormat:
    @pytest.mark.parametrize("sub", sorted(CSV_WRITERS))
    def test_lf_rows_reread_bit_exactly(self, sub, cli_inputs, tmp_path):
        argv = [str(a).format(**{"in": cli_inputs, "out": tmp_path}) for a in CSV_WRITERS[sub]]
        assert run(argv) == 0
        outputs = sorted(tmp_path.glob("*.csv"))
        assert outputs
        n_floats = 0
        for path in outputs:
            data = path.read_bytes()
            assert b"\r" not in data and data.endswith(b"\n")
            for cell in data.decode().replace("\n", ",").split(","):
                try:
                    value = float(cell)
                except ValueError:
                    continue  # header, date or boolean
                assert format_cell(value) == cell  # 17 digits: float(cell) is exact
                n_floats += "." in cell or "e" in cell
        assert n_floats


class TestMain:
    def test_runs_blas_on_one_thread_before_dispatch(self, monkeypatch):
        # the command owns its process, so its OpenBLAS runs on one thread
        calls = []
        monkeypatch.setattr(cli, "single_blas_thread", lambda: calls.append("single_blas_thread"))
        monkeypatch.setattr(cli, "dispatch", lambda argv: calls.append(argv) or 3)
        monkeypatch.setattr(sys, "argv", ["roughvol", "zscore", "--help"])
        with pytest.raises(SystemExit) as stop:
            cli.main()
        assert calls == ["single_blas_thread", ["zscore", "--help"]]
        assert stop.value.code == 3

    def test_dispatch_leaves_the_process_alone(self, monkeypatch):
        # tests and benchmarks call dispatch in their own process
        def refuse():
            raise AssertionError("dispatch set the BLAS thread count")

        monkeypatch.setattr(cli, "single_blas_thread", refuse)
        monkeypatch.setattr(harness, "single_blas_thread", refuse)
        assert run(["zscore", "--m", 10, "--days", 10, "--seed", 1]) == 0
