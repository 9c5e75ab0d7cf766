"""Broadcast control of multi-agent systems.

A supervisor broadcasts one identical signal to all agents; each agent
combines it with private random signs to descend a global objective.  The
package implements the baseline two-stage law (BC), the virtual-perturbation
law (PBC), the coverage/rendezvous/assignment objectives, a deterministic
keyed randomness contract for reproducible Monte Carlo, and an oracle suite
that certifies the laws' exact and statistical properties.

This module exports the user surface only; everything else is imported from
its submodule (``broadcast_control.objectives``, ``.oracle``, ``.engine``...).

Importing the package loads numpy and the standard library only.  scipy is
loaded by the first ``hungarian`` call (the assignment task), and the
process pool by the first run with ``workers > 1``.
"""

from ._version import __version__
from .config import ConfigError, ExperimentConfig, load_config, parse_config
from .controllers import bc_step, pbc_step
from .engine import DivergenceError, run_and_write, run_monte_carlo, run_paired, run_trial
from .gains import GainSchedule, InvalidScheduleError
from .objectives import hungarian
from .oracle import (
    EnumerationTooLarge,
    check_distance_dominance,
    check_twice_speed,
    enumerate_estimator_variance,
    expected_distance_power,
    expected_next_cost,
)
from .state import NonFiniteError, draw_block

__all__ = [
    "__version__",
    # configuration
    "ConfigError",
    "ExperimentConfig",
    "load_config",
    "parse_config",
    # runs
    "run_and_write",
    "run_monte_carlo",
    "run_paired",
    "run_trial",
    # the step laws and what they consume
    "GainSchedule",
    "bc_step",
    "draw_block",
    "pbc_step",
    # errors
    "DivergenceError",
    "EnumerationTooLarge",
    "InvalidScheduleError",
    "NonFiniteError",
    # oracles
    "check_distance_dominance",
    "check_twice_speed",
    "enumerate_estimator_variance",
    "expected_distance_power",
    "expected_next_cost",
    "hungarian",
]
