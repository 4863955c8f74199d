"""Frog-model chains on the complete graph, deterministic limits, and experiments."""

__version__ = "0.1.0"  # before the imports: harness builds its VERSION from it

from .occupancy import (
    OccupancySpec,
    empbox_mean,
    empbox_pmf,
    empbox_variance,
    sample_binomial,
    sample_empbox,
)
from .chain import (
    ChainState,
    ModelParams,
    initial_state,
    moments,
    replication_rng,
    run_to_absorption,
    simulate_trajectory,
    step_geometric,
    step_nongeometric,
)
from .dynamics import (
    DetState,
    LimitResult,
    alpha_peak_index,
    det_initial,
    det_step,
    fixed_point_tauN,
    fixed_points_tau,
    iota_infinity,
    iterate_limit,
    lambert_w0,
    phi,
)
from .harness import ExperimentConfig, RunSummary, run_experiment
