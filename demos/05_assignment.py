"""Assignment control: agents claim target slots through the objective.

The objective pairs each agent with a target by solving a minimum-cost
assignment (re-solved every evaluation, so agents can trade targets while
moving).  Note the step-size scale: this objective is an unnormalized sum
of squares, so it needs a smaller a0 than the other tasks to stay stable
at 15 agents.
"""

import numpy as np

from broadcast_control import ExperimentConfig, hungarian, run_monte_carlo

# the solver itself, on a small worked instance
cost = np.array(
    [
        [4.0, 1.0, 3.0],
        [2.0, 0.0, 5.0],
        [3.0, 2.0, 2.0],
    ]
)
perm = hungarian(cost)
print("assignment solver on a 3x3 cost matrix:")
print(cost)
pairing = [int(p) for p in perm]
print(f"optimal pairing: {pairing}, cost {cost[np.arange(3), perm].sum():.0f}\n")

config = ExperimentConfig(
    task="assignment", law="pbc", K=3, trials=10, master_seed=3, a0=0.2
)
res = run_monte_carlo(config)
print("assignment task, 15 agents moving to a circle of targets, 10 trials:")
print(f"  mean J(0)   = {res.stats.j_mean[0]:.4f}")
print(f"  mean J(300) = {res.stats.j_mean[-1]:.6f}")
print(f"  mean D(300) = {res.stats.d_mean[-1]:.3f}")

rec = res.records[0]
final = rec.states[-1].reshape(rec.N, rec.n)
targets = config.objective_spec().payload.targets
dists = np.linalg.norm(final[:, None, :] - targets[None, :, :], axis=2).min(axis=1)
print(f"  worst final distance of any agent to its nearest target: {dists.max():.4f}")
