"""Sequential resource allocation under a unit budget with unknown
per-job difficulty cut-offs: environment model, optimistic allocation with
weighted reciprocal confidence intervals, halving initialisation, and a
Monte-Carlo experiment harness."""

from .allocator import (
    PolicyOptions,
    RunTrace,
    allocate,
    default_delta,
    run_episode,
    regret_upper_bound,
)
from .estimator import EstimatorState, confidence_radius_f
from .harness import (
    ArmSpec,
    ExperimentConfig,
    ExperimentResult,
    MinimaxStressResult,
    bootstrap_ci,
    emit_csv,
    minimax_family,
    minimax_stress,
    run_experiment,
)
from .initialization import (
    InitRecord,
    halving_init,
    run_modified,
    sample_eta,
)
from .model import (
    Allocation,
    OptimalProfile,
    ProblemInstance,
    optimal_profile,
    split_rng,
)

__version__ = "0.1.0"

__all__ = [
    "Allocation",
    "ArmSpec",
    "EstimatorState",
    "ExperimentConfig",
    "ExperimentResult",
    "InitRecord",
    "MinimaxStressResult",
    "OptimalProfile",
    "PolicyOptions",
    "ProblemInstance",
    "RunTrace",
    "allocate",
    "bootstrap_ci",
    "confidence_radius_f",
    "default_delta",
    "emit_csv",
    "halving_init",
    "minimax_family",
    "minimax_stress",
    "optimal_profile",
    "run_episode",
    "run_experiment",
    "run_modified",
    "sample_eta",
    "split_rng",
    "regret_upper_bound",
]
