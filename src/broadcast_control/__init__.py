"""Broadcast control of multi-agent systems.

A supervisor broadcasts one identical signal to all agents; each agent
combines it with private random signs to descend a global objective.  The
package implements the baseline two-stage law (BC), the virtual-perturbation
law (PBC), the coverage/rendezvous/assignment objectives, a deterministic
keyed randomness contract for reproducible Monte Carlo, and an oracle suite
that certifies the laws' exact and statistical properties.
"""

from ._version import __version__
from .config import ConfigError, ExperimentConfig, load_config, parse_config
from .controllers import (
    BcLocalState,
    bc_step,
    pbc_broadcast,
    pbc_local_input,
    pbc_step,
)
from .engine import (
    DivergenceError,
    MonteCarloResult,
    SummaryStats,
    TrialRecord,
    moving_distance,
    run_and_write,
    run_monte_carlo,
    run_paired,
    run_trial,
)
from .gains import (
    GainSchedule,
    InvalidScheduleError,
    bc_gains_at,
    gain_a,
    gain_c,
)
from .objectives import (
    AssignmentPayload,
    CoveragePayload,
    ObjectiveSpec,
    QuadraticPayload,
    RendezvousPayload,
    assignment_objective,
    barrier_weight,
    circle_formation,
    coverage_objective,
    evaluate,
    hungarian,
    quadratic_objective,
    rendezvous_objective,
    smooth_min,
    unit_cube_grid,
)
from .oracle import (
    EnumerationDomain,
    EnumerationTooLarge,
    check_distance_dominance,
    check_k_monotonicity,
    check_twice_speed,
    descent_fraction,
    enumerate_estimator_variance,
    enumerate_expected_gradient,
    expected_distance_power,
    expected_next_cost,
    finite_difference_gradient,
    spsa_estimate,
)
from .state import (
    SIGN_GENERATOR_ID,
    NonFiniteError,
    apply_input,
    draw_block,
)

__all__ = [
    "__version__",
    "AssignmentPayload",
    "BcLocalState",
    "ConfigError",
    "CoveragePayload",
    "DivergenceError",
    "EnumerationDomain",
    "EnumerationTooLarge",
    "ExperimentConfig",
    "GainSchedule",
    "InvalidScheduleError",
    "MonteCarloResult",
    "NonFiniteError",
    "ObjectiveSpec",
    "QuadraticPayload",
    "RendezvousPayload",
    "SIGN_GENERATOR_ID",
    "SummaryStats",
    "TrialRecord",
    "apply_input",
    "assignment_objective",
    "barrier_weight",
    "bc_gains_at",
    "bc_step",
    "check_distance_dominance",
    "check_k_monotonicity",
    "check_twice_speed",
    "circle_formation",
    "coverage_objective",
    "descent_fraction",
    "draw_block",
    "enumerate_estimator_variance",
    "enumerate_expected_gradient",
    "evaluate",
    "expected_distance_power",
    "expected_next_cost",
    "finite_difference_gradient",
    "gain_a",
    "gain_c",
    "hungarian",
    "load_config",
    "moving_distance",
    "parse_config",
    "pbc_broadcast",
    "pbc_local_input",
    "pbc_step",
    "quadratic_objective",
    "rendezvous_objective",
    "run_and_write",
    "run_monte_carlo",
    "run_paired",
    "run_trial",
    "smooth_min",
    "spsa_estimate",
    "unit_cube_grid",
]
