"""Experiment-driver tests at reduced desk scale.

Statistical invariants here run on shortened horizons and small path
counts with fixed seeds, sized so the asserted orderings dominate the
Monte Carlo noise; the published-table reproduction runs at full scale in
the acceptance suite.
"""

import ctypes
import dataclasses
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import roughvol as rv
from roughvol import harness


def small_config(**overrides):
    base = dict(
        h0_list=(0.1,),
        eta0_list=(1.0,),
        m_list=(40,),
        n_paths=4,
        n_days=300,
        base_seed=900,
    )
    base.update(overrides)
    return rv.McConfig(**base)


class TestSeedDerivation:
    def test_stable_and_distinct(self):
        a = rv.derive_path_seed(1, 0.1, 1.0, 80, 0)
        b = rv.derive_path_seed(1, 0.1, 1.0, 80, 0)
        assert a == b
        others = {
            rv.derive_path_seed(1, 0.1, 1.0, 80, 1),
            rv.derive_path_seed(2, 0.1, 1.0, 80, 0),
            rv.derive_path_seed(1, 0.3, 1.0, 80, 0),
            rv.derive_path_seed(1, 0.1, 2.0, 80, 0),
            rv.derive_path_seed(1, 0.1, 1.0, 400, 0),
        }
        assert a not in others
        assert len(others) == 5

    def test_adding_cells_never_perturbs_existing(self):
        lone = rv.run_mc_table(small_config())
        grid = rv.run_mc_table(small_config(h0_list=(0.1, 0.3)))
        original = [c for c in grid.cells if c.h0 == 0.1][0]
        assert original.h_mean == lone.cells[0].h_mean
        assert original.eta_mean == lone.cells[0].eta_mean


class TestRunMcTable:
    def test_worker_count_invariance(self):
        serial = rv.run_mc_table(small_config(), workers=1)
        parallel = rv.run_mc_table(small_config(), workers=4)
        assert serial.cells == parallel.cells

    def test_repeat_run_bit_identical(self):
        first = rv.run_mc_table(small_config())
        second = rv.run_mc_table(small_config())
        assert first.cells[0].h_mean == second.cells[0].h_mean
        assert first.cells[0].eta_var == second.cells[0].eta_var

    def test_mean_monotone_in_true_hurst(self):
        config = rv.McConfig(
            h0_list=(0.05, 0.3, 0.7), eta0_list=(1.0,), m_list=(80,),
            n_paths=8, n_days=600, base_seed=42,
        )
        report = rv.run_mc_table(config, workers=2)
        means = [c.h_mean for c in report.cells]
        assert means[0] < means[1] < means[2]

    def test_finer_sampling_does_not_worsen_bias(self):
        # trend check: average |mean - truth| at the finer frequency stays
        # within a small slack of the coarser one
        config = rv.McConfig(
            h0_list=(0.1, 0.3), eta0_list=(1.0,), m_list=(40, 160),
            n_paths=8, n_days=600, base_seed=77,
        )
        report = rv.run_mc_table(config, workers=2)
        bias = {}
        for cell in report.cells:
            bias.setdefault(cell.m, []).append(abs(cell.h_mean - cell.h0))
        assert np.mean(bias[160]) <= np.mean(bias[40]) + 0.01

    def test_rejects_zero_workers(self):
        with pytest.raises(ValueError, match="workers must be >= 1"):
            rv.run_mc_table(small_config(), workers=0)

    def test_failure_accounting(self):
        # an unconvergeable setup must be counted, not raised
        config = small_config(n_paths=2, n_days=40)
        report = rv.run_mc_table(config)
        cell = report.cells[0]
        assert cell.n_converged + cell.n_failed == 2

    def test_failed_paths_counted_and_logged(self, monkeypatch):
        # path 0 raises, path 1 returns an unconverged fit
        unconverged = rv.WhittleFit(h_hat=0.1, nu_hat=0.5, eta_hat=1.0, objective=0.0,
                                    n_starts=1, converged=False, start_used=(0.1, 0.5),
                                    delta=1.0 / 250.0, m=40)
        outcomes = iter([rv.SynthesisError("boom"), unconverged])

        def fake_estimate(y, **kwargs):
            outcome = next(outcomes)
            if isinstance(outcome, Exception):
                raise outcome
            return outcome

        monkeypatch.setattr(harness, "estimate", fake_estimate)
        report = rv.run_mc_table(small_config(n_paths=2, n_days=40), workers=1)
        cell = report.cells[0]
        assert (cell.n_converged, cell.n_failed, cell.failed) == (0, 2, True)
        assert math.isnan(cell.h_mean)
        assert cell.failures == ("path 0: SynthesisError: boom", "path 1: not converged")

    @pytest.mark.parametrize("workers", [1, 2])
    def test_undocumented_exception_propagates(self, workers, monkeypatch):
        # a fault, unlike a documented fit or simulation failure, is not a failed path
        def faulty_estimate(y, **kwargs):
            raise TypeError("stand-in fault")

        monkeypatch.setattr(harness, "estimate", faulty_estimate)
        with pytest.raises(TypeError, match="stand-in fault"):
            rv.run_mc_table(small_config(n_paths=2, n_days=40), workers=workers)


# Fits path 1 of the (0.1, 1.0, 80) acceptance cell at base seed 9, from the
# truth and from the default starts, and prints the bits of each fit.
FIT_ONE_PATH = """
import json
import roughvol as rv
config = rv.McConfig(base_seed=9)
seed = rv.derive_path_seed(config.base_seed, 0.1, 1.0, 80, 1)
spec = rv.FouSpec(hurst=0.1, eta=1.0, alpha=config.alpha, c=config.c, delta=config.delta,
                  m=80, n_days=config.n_days, seed=seed, substeps=config.substeps)
_, log_price = rv.simulate_fou_price(spec)
y = rv.log_rv_increments(rv.realized_variance(log_price, 80, config.delta))
fits = [rv.estimate(y, starts=[(0.1, config.delta**0.1)]), rv.estimate(y)]
print(json.dumps([[f.h_hat.hex(), f.objective.hex(), list(f.start_used)] for f in fits]))
"""


def fit_bits_with_blas_threads(threads: int) -> list:
    src = str(Path(rv.__file__).resolve().parents[1])
    env = dict(os.environ, OPENBLAS_NUM_THREADS=str(threads),
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", FIT_ONE_PATH], env=env, capture_output=True,
                          text=True, check=True)
    return json.loads(done.stdout)


def test_fit_bits_do_not_depend_on_blas_threads():
    # the thread count is set in each child's environment only
    assert fit_bits_with_blas_threads(1) == fit_bits_with_blas_threads(2)


# The thread-count getters that match harness._BLAS_THREAD_SETTERS.
BLAS_THREAD_GETTERS = ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_", "openblas_get_num_threads")


def blas_thread_counts(task=None) -> dict:
    """The thread count of each OpenBLAS loaded in this process, by path,
    found among the files mapped into the process."""
    with open("/proc/self/maps", encoding="utf-8") as maps:
        paths = {line.split(maxsplit=5)[-1].strip() for line in maps if "openblas" in line}
    counts = {}
    for path in sorted(paths):
        library = ctypes.CDLL(path)
        getter = next(name for name in BLAS_THREAD_GETTERS if hasattr(library, name))
        counts[path] = getattr(library, getter)()
    return counts


def set_blas_threads(counts: dict) -> None:
    """Set each OpenBLAS in ``counts``, by path, to its thread count there."""
    for path, threads in counts.items():
        library = ctypes.CDLL(path)
        getter = next(name for name in BLAS_THREAD_GETTERS if hasattr(library, name))
        getattr(library, getter.replace("_get_", "_set_"))(threads)


class TestSingleBlasThread:
    def test_pool_workers_run_blas_on_one_thread(self):
        caller = blas_thread_counts()
        assert caller  # numpy's and scipy's wheels each bring one
        in_workers = harness._map(blas_thread_counts, [(task,) for task in range(4)], workers=2)
        assert in_workers == [dict.fromkeys(caller, 1)] * 4
        assert blas_thread_counts() == caller  # the caller's process is left alone

    def test_does_nothing_without_openblas(self, monkeypatch):
        before = blas_thread_counts()
        monkeypatch.setattr(harness, "_BLAS_MODULES", (np.random._mt19937,))  # links no BLAS
        assert harness.single_blas_thread() is None
        monkeypatch.undo()
        assert blas_thread_counts() == before

    def test_opens_no_handle_of_the_whole_process(self, monkeypatch):
        # Windows' ctypes cannot open CDLL(None): it raises TypeError
        real_cdll = ctypes.CDLL

        def windows_cdll(name, *args, **kwargs):
            if name is None:
                raise TypeError("argument of type 'NoneType' is not iterable")
            return real_cdll(name, *args, **kwargs)

        before = blas_thread_counts()
        monkeypatch.setattr(harness.ctypes, "CDLL", windows_cdll)
        try:
            assert harness.single_blas_thread() is None
            assert blas_thread_counts() == dict.fromkeys(before, 1)
        finally:
            set_blas_threads(before)
        assert blas_thread_counts() == before


class TestIllusionExperiment:
    def test_frequencies_must_divide(self):
        with pytest.raises(ValueError, match="divide"):
            rv.run_illusion_experiment(seed=1, frequencies=(80, 300), n_days=60)

    def test_rejects_zero_workers(self):
        with pytest.raises(ValueError, match="workers must be >= 1"):
            rv.run_illusion_experiment(seed=1, frequencies=(8, 16), n_days=60, workers=0)

    def test_deterministic_rows(self):
        rows_a = rv.run_illusion_experiment(seed=5, frequencies=(8, 16), n_days=120)
        rows_b = rv.run_illusion_experiment(seed=5, frequencies=(8, 16), n_days=120)
        assert rows_a == rows_b

    def test_worker_invariance(self):
        rows_a = rv.run_illusion_experiment(seed=5, frequencies=(8, 16), n_days=120, workers=1)
        rows_b = rv.run_illusion_experiment(seed=5, frequencies=(8, 16), n_days=120, workers=2)
        assert rows_a == rows_b

    def test_simulates_the_path_once(self, monkeypatch):
        specs = []

        def counting(spec):
            specs.append(spec)
            return rv.simulate_fou_price(spec)

        monkeypatch.setattr(harness, "simulate_fou_price", counting)
        rows = rv.run_illusion_experiment(seed=5, frequencies=(8, 16), n_days=120)
        assert [row.m for row in rows] == [8, 16]
        assert [(spec.m, spec.n_days, spec.seed) for spec in specs] == [(16, 120, 5)]

    def test_rejects_fractional_frequency(self):
        with pytest.raises(ValueError, match="whole numbers, got 8.5$"):
            rv.run_illusion_experiment(seed=1, frequencies=(8.5, 16), n_days=60)

    def test_rejects_zero_frequency(self):
        # a zero count used to reach m_grid % m and raise ZeroDivisionError
        with pytest.raises(ValueError, match="positive whole numbers, got 0$"):
            rv.run_illusion_experiment(seed=1, frequencies=(0, 80), n_days=20)


class TestZscoreExperiment:
    def test_moments_near_limit(self):
        result = rv.run_zscore_experiment(m=400, n_days=1500, seed=8)
        assert result.sample_variance == pytest.approx(2.0, abs=0.35)
        assert abs(result.lag1_autocorr) < 4.0 / np.sqrt(1500)
        assert abs(result.skewness) < 0.3

    def test_deterministic(self):
        a = rv.run_zscore_experiment(m=100, n_days=300, seed=3)
        b = rv.run_zscore_experiment(m=100, n_days=300, seed=3)
        assert a == b


class TestConfigValidation:
    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError):
            rv.McConfig(h0_list=())

    def test_fractional_intraday_counts_rejected(self):
        with pytest.raises(ValueError, match="whole numbers, got 80.5, 399.9$"):
            rv.McConfig(m_list=(80.5, 399.9))

    def test_intraday_counts_below_one_rejected(self):
        with pytest.raises(ValueError, match="positive whole numbers, got 0, -4$"):
            harness.intraday_counts((0, 80, -4))
        with pytest.raises(ValueError, match="positive whole numbers, got 0.0$"):
            rv.McConfig(m_list=(80, 0.0))

    def test_integral_float_intraday_counts_become_ints(self):
        m_list = rv.McConfig(m_list=(80.0, 4e2, np.int64(1000))).m_list
        assert m_list == (80, 400, 1000)
        assert all(type(m) is int for m in m_list)

    def test_config_immutable(self):
        config = small_config()
        with pytest.raises(dataclasses.FrozenInstanceError):
            config.n_paths = 5
