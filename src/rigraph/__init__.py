"""Random intersection graphs with group-heterogeneous ring sizes:
closed-form edge/isolation quantities, a seeded sampler, graph observables,
brute-force oracles, and Monte Carlo estimators of the connectivity
zero-one transition."""

from .errors import (
    EnumerationBudgetError,
    InvalidParamsError,
    InvariantViolation,
    RegimeViolationError,
    RigraphError,
    UnachievableError,
)
from .graph_analysis import analyze
from .model_core import (
    ModelParams,
    b_vector,
    beta,
    cross_moment_ratio,
    diagnostics,
    exact_quantities,
    expected_isolated,
    expected_isolated_from_b,
    no_overlap_ratio,
    solve_k1,
)
from .montecarlo import EstimateRow, run_trials
from .oracle import enumerate_event_probs, enumerate_pair_prob
from .sampler import GraphBatch, SeedSpec, sample_batch, sample_graph
from .sweeps import SweepSpec, run_sweep, write_sweep_csv

__version__ = "0.10.0"
