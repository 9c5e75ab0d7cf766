"""The paired-run identities, measured on shared sample paths.

When both laws consume the same sign stream and the two-stage law's gains
are stair-stepped (steps 2t and 2t+1 reuse the single-stage gains at t),
the single-stage state at t retraces the two-stage state at 2t exactly, and
the two-stage law never travels less.  Both facts hold path by path, not
just on average, so we can check them on individual runs.
"""

from dataclasses import replace

from broadcast_control import (
    ExperimentConfig,
    check_distance_dominance,
    check_twice_speed,
    run_paired,
)

SEEDS = 10

config = ExperimentConfig(task="rendezvous", law="paired", mode="theorem")
pairs = [run_paired(replace(config, master_seed=seed), 0) for seed in range(SEEDS)]
speed = check_twice_speed(pairs)
dist = check_distance_dominance(pairs)

print(f"paired rendezvous runs over {SEEDS} seeds, 300 single-stage steps each\n")
print(
    f"sup_t |x_pbc(t) - x_bc(2t)|      : {speed.max_state_deviation:.3e}"
    "   (identity up to roundoff)"
)
print(f"sup_t |J deviation| / (1 + J)    : {speed.max_objective_deviation:.3e}")
print(
    f"min_t,seed D_bc(2t) - D_pbc(t)   : {dist.min_margin:.3e}"
    "   (zero up to roundoff, never below)"
)
print(f"strictly positive margin at T    : {dist.strict}/{SEEDS} seeds")

print(
    "\nReading: one virtual-probe step does the work of two physical-probe"
    "\nsteps, and the probe motion the two-stage law performs physically is"
    "\npure extra mileage."
)
