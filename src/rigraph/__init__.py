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
    ExactQuantities,
    ModelParams,
    RegimeDiagnostics,
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
from .montecarlo import EstimateRow, TrialAggregate, run_trials
from .oracle import EventProbs, enumerate_event_probs, enumerate_pair_prob
from .sampler import GraphBatch, SeedSpec, sample_batch, sample_graph
from .sweeps import (
    SweepRow,
    SweepSpec,
    load_sweep_spec,
    run_sweep,
    simulate_row,
    solve_k1_nearest,
    write_sweep_csv,
)

__version__ = "0.7.0"
