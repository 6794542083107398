"""Sequential resource allocation under a unit budget with unknown
per-job difficulty cut-offs: environment model, optimistic allocation with
weighted reciprocal confidence intervals, halving initialisation, and a
Monte-Carlo experiment harness."""

from .allocator import PolicyOptions, run_episode
from .harness import (
    ArmSpec,
    ExperimentConfig,
    ExperimentResult,
    MinimaxStressResult,
    emit_csv,
    minimax_stress,
    run_experiment,
)
from .initialization import halving_init, run_modified
from .model import ProblemInstance, split_rng

__version__ = "0.1.0"

# Every name here has a caller in cli.py, harness.py or scripts/
# (tests/test_exports.py checks this).
__all__ = [
    "ArmSpec",
    "ExperimentConfig",
    "ExperimentResult",
    "MinimaxStressResult",
    "PolicyOptions",
    "ProblemInstance",
    "emit_csv",
    "halving_init",
    "minimax_stress",
    "run_episode",
    "run_experiment",
    "run_modified",
    "split_rng",
]
