"""Block statistics from the ground up.

A tiny worked example: index the exceedances of a series over a threshold, evaluate
the built-in block functionals over sliding and disjoint windows, and
split the series into big blocks.
"""

import numpy as np

from exindex import (
    BLOCK_MAX,
    FIRST_EXCEED,
    RUNS,
    BlockFunctional,
    BlockScheme,
    NormalizedSeries,
    ThresholdSpec,
    big_block_sums,
    disjoint_block_sum,
    sliding_block_sum,
)

x = [5.0, 1.0, 6.0, 2.0, 0.0, 7.0]
print("series:", x)

# -- thresholds --------------------------------------------------------------
# the exceedance index of (x, u) holds the positions of x > u; v_hat is
# the share of them, count(n) / n
ns = NormalizedSeries(x, 4.0)
rank = NormalizedSeries(x, ThresholdSpec.rank(2).resolve(x).u)
print(f"deterministic u=4: v_hat={ns.count(ns.n) / ns.n:.3f}")
print(f"rank k=2 resolves to u={rank.u} (2nd largest), "
      f"v_hat={rank.count(rank.n) / rank.n:.3f}")

# -- normalization -----------------------------------------------------------
# only the exceedances are kept: x/u at their positions, every other point is 0
print("exceedance positions:", ns.positions)
print("normalized values there (x/u):", ns.exceeding / ns.u)

# -- window sums -------------------------------------------------------------
s = 2
print(f"\nwindow sums at block length s={s}:")
for g in (BLOCK_MAX, FIRST_EXCEED, RUNS):
    print(
        f"  {g.name:13s} sliding={sliding_block_sum(g, ns, s):.0f}  "
        f"disjoint={disjoint_block_sum(g, ns, s):.0f}"
    )

# windows: (5,1) (1,6) (6,2) (2,0) (0,7); maxima 5 6 6 2 7 -> four exceed u=4
# disjoint blocks: (5,1) (6,2) (0,7) -> all three exceed

# -- big blocks --------------------------------------------------------------
scheme = BlockScheme(n=6, s=2, r=2)
print(f"\nbig blocks: r={scheme.r}, m={scheme.m} complete blocks")
print("  per-block sliding sums of block_max:",
      big_block_sums(BLOCK_MAX, ns, scheme, "sliding"))
print("  per-block disjoint sums of block_max:",
      big_block_sums(BLOCK_MAX, ns, scheme, "disjoint"))

# -- custom functionals ------------------------------------------------------
# any map on normalized windows that vanishes on an all-zero block works
excess_mass = BlockFunctional("excess_mass", lambda w: float(np.sum(w[w > 1] - 1.0)))
print("\ncustom functional (total excess above the threshold, per window):")
print("  sliding sum:", sliding_block_sum(excess_mass, ns, s))
