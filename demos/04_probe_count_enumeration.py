"""Why more probes help: exact enumeration on a desk-size instance.

On tiny instances every sign assignment can be enumerated, so expectations
are computed exactly, with no sampling error.  Three facts fall out:

  * on a convex objective, the expected next cost is non-increasing in the
    probe count K (and strictly decreasing when strictly convex);
  * on a concave one the ordering flips (probe averaging is a hedge, and
    hedging is the wrong move when the objective rewards gambling);
  * the expected squared step length always shrinks with K, because the
    K-probe mean has 1/K times the variance of a single probe.
"""

import numpy as np

from broadcast_control import check_k_monotonicity, enumerate_estimator_variance

x = np.array([1.0])
a, c = 0.1, 0.5
convex = lambda v: float(v[0] ** 2)
concave = lambda v: 10.0 - float(v[0] ** 2)
Ks = (1, 2, 3, 4)
vex = check_k_monotonicity(x, a, c, Ks, convex)
cave = check_k_monotonicity(x, a, c, Ks, concave)

print("scalar instance: x = 1, a = 0.1, c = 0.5, all expectations exact\n")
print(f"{'K':>3} {'E[J next] convex':>18} {'E[J next] concave':>18} {'E[|u|^2]':>12}")
for K, ec, eg, ed in zip(Ks, vex.cost_values, cave.cost_values, vex.distance_values[2.0]):
    print(f"{K:>3} {ec:>18.10f} {eg:>18.10f} {ed:>12.8f}")

print("\nvariance of the K-probe mean estimate (component 0):")
var1 = enumerate_estimator_variance(x, c, 1, convex)[0]
for K in (1, 2, 3, 4):
    varK = enumerate_estimator_variance(x, c, K, convex)[0]
    print(f"  K = {K}: {varK:.10f}   (Var_1 / K = {var1 / K:.10f})")

print(
    "\nThe convex column decreases in K, the concave column increases, and"
    "\nthe variance column is exactly Var_1 / K: probe averaging trades"
    "\nexploration for precision."
)
