"""Roughness and diffusion estimation for stochastic volatility from daily
realized variance, with simulation, proxy construction, a noise-corrected
spectral quasi-likelihood, the log-log regression alternative, and
reproducible Monte Carlo experiment drivers."""

from .fracsim import (
    FgnSpec,
    FouSpec,
    GridPath,
    SynthesisError,
    VolatilityOverflowError,
    fgn_autocovariance,
    simulate_fgn,
    simulate_fou_price,
)
from .harness import (
    CellStats,
    IllusionRow,
    McConfig,
    McReport,
    ZscoreResult,
    derive_path_seed,
    run_illusion_experiment,
    run_mc_table,
    run_zscore_experiment,
)
from .ingest import (
    IngestError,
    IngestReport,
    MarketCalendar,
    compute_m,
    read_grid_csv,
    read_rv_csv,
    write_csv,
)
from .proxy import (
    AlignmentError,
    LogRvIncrements,
    RvSeries,
    error_zscores,
    integrated_variance,
    log_rv_increments,
    realized_variance,
)
from .scaling import ScalingFit, fit_scaling, structure_function
from .spectral import (
    DenseNodes,
    SpectralConfig,
    autocovariance_hat,
    c_h,
    ell,
    f_h,
    f_h_dense,
    g_spectrum,
    periodogram,
)
from .whittle import (
    AccuracyWarning,
    AllStartsFailedError,
    ParamBox,
    QuadratureError,
    WhittleFit,
    WhittleObjective,
    a_coefficient,
    check_conditions,
    correction_a1,
    correction_a2,
    default_starts,
    estimate,
    objective,
    objective_oracle,
)

__version__ = "0.1.0"
