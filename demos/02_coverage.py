"""Coverage control: spread agents so every point of the unit square is
close to one of them.

The objective is the grid-sampled mean squared distance to the nearest
agent.  It is not convex around the clustered start, so raising the probe
count K mostly buys smoother motion (shorter paths) rather than a lower
final objective; the objective lands in the same place either way.
"""

import numpy as np

from broadcast_control import ExperimentConfig, run_monte_carlo

TRIALS = 20

print(f"Coverage of [0,1]^2, 15 agents, 300 steps, {TRIALS} trials\n")
print(f"{'law':>10} {'mean J(300)':>14} {'mean D(300)':>14}")

finals = {}
for law, K in (("bc", 1), ("pbc", 1), ("pbc", 10)):
    config = ExperimentConfig(
        task="coverage", law=law, K=K, trials=TRIALS, master_seed=7
    )
    res = run_monte_carlo(config)
    label = "BC" if law == "bc" else f"PBC K={K}"
    finals[label] = res.records[0]
    print(
        f"{label:>10} {res.stats.j_mean[-1]:>14.6f} {res.stats.d_mean[-1]:>14.3f}"
    )

print(
    "\nJ(300) barely moves with K (the objective is locally non-convex, so"
    "\nextra probes cannot promise a better point), but the distance shrinks:"
    "\nunavailing wiggle is averaged away."
)

try:
    import matplotlib

    matplotlib.use("Agg")
    import matplotlib.pyplot as plt
except ImportError:
    print("\nmatplotlib not installed; skipping the layout figure")
else:
    fig, axes = plt.subplots(1, 3, figsize=(12, 4), sharex=True, sharey=True)
    for ax, (label, rec) in zip(axes, finals.items()):
        pts = rec.states.reshape(-1, rec.N, rec.n)
        for i in range(rec.N):
            ax.plot(pts[:, i, 0], pts[:, i, 1], lw=0.5)
        ax.scatter(pts[-1, :, 0], pts[-1, :, 1], c="k", s=16)
        ax.set_title(label)
        ax.set_xlim(0, 1)
        ax.set_ylim(0, 1)
        ax.set_aspect("equal")
    fig.suptitle("final agent layout after 300 steps")
    fig.tight_layout()
    fig.savefig("coverage_layout.png", dpi=120)
    print("\nwrote coverage_layout.png")
