"""Rendezvous with formation selection: the flagship comparison.

Fifteen agents start on a diagonal line and must settle into a circular
formation, with the formation's rotation chosen automatically by the
objective.  We run the two-stage law (BC) and the virtual-perturbation law
(PBC) at several probe counts K, then compare the final objective and the
total distance traveled.  More probes mean smoother, shorter paths.
"""

import numpy as np

from broadcast_control import ExperimentConfig, run_monte_carlo

TRIALS = 20

print(f"Rendezvous, 15 agents, 300 steps, {TRIALS} trials per law\n")
print(f"{'law':>10} {'mean J(300)':>14} {'mean D(300)':>14}")

results = {}
for law, K in (("bc", 1), ("pbc", 1), ("pbc", 3), ("pbc", 10)):
    config = ExperimentConfig(
        task="rendezvous", law=law, K=K, trials=TRIALS, master_seed=42
    )
    res = run_monte_carlo(config)
    label = "BC" if law == "bc" else f"PBC K={K}"
    results[label] = res
    print(
        f"{label:>10} {res.stats.j_mean[-1]:>14.6f} {res.stats.d_mean[-1]:>14.3f}"
    )

print(
    "\nAt the same horizon the two-stage law spends half its steps on probe"
    "\njumps, so it travels further yet lands on a worse objective.  Raising K"
    "\nsharpens the gradient estimate: residual objective and distance both drop."
)

# One representative trajectory per law, if a plotting backend is around.
try:
    import matplotlib

    matplotlib.use("Agg")
    import matplotlib.pyplot as plt
except ImportError:
    print("\nmatplotlib not installed; skipping the trajectory figure")
else:
    fig, axes = plt.subplots(1, 4, figsize=(16, 4), sharex=True, sharey=True)
    for ax, (label, res) in zip(axes, results.items()):
        rec = res.records[0]
        pts = rec.states.reshape(-1, rec.N, rec.n)
        for i in range(rec.N):
            ax.plot(pts[:, i, 0], pts[:, i, 1], lw=0.6)
        ax.scatter(pts[0, :, 0], pts[0, :, 1], marker="x", c="k", s=14)
        ax.scatter(pts[-1, :, 0], pts[-1, :, 1], marker="o", c="k", s=14)
        ax.set_title(label)
        ax.set_aspect("equal")
    fig.suptitle("x = start, o = end")
    fig.tight_layout()
    fig.savefig("rendezvous_trajectories.png", dpi=120)
    print("\nwrote rendezvous_trajectories.png")
