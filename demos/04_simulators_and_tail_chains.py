"""Simulators with known extremes, and two independent routes to their
cluster constants.

Every family has exact unit Frechet margins.  The tail chain gives the
per-lag exceedance probabilities in closed form, and the closed forms are
checked on the path: the conditional exceedance profile, estimated by
``conditional_exceedance_profile`` from one long simulated path, must agree.
"""

import numpy as np

from exindex import (
    ModelSpec,
    conditional_exceedance_profile,
    count_variance_limit,
    simulate,
    tail_chain_probs,
    theta_oracle_mc,
)

specs = [ModelSpec.iid(), ModelSpec.armax(0.5), ModelSpec.moving_max(1)]

print("family                theta   count-variance constant")
for spec in specs:
    print(f"{spec.label():22s} {spec.theta_true:.3f}   {count_variance_limit(spec):.3f}")

# -- marginal sanity ----------------------------------------------------------
x = simulate(ModelSpec.armax(0.5), 100_000, seed=1)
u_sorted = np.sort(x)
emp = np.arange(1, x.size + 1) / x.size
dev = np.max(np.abs(emp - np.exp(-1.0 / u_sorted)))
print(f"\narmax marginal vs unit Frechet, sup CDF deviation: {dev:.4f}")

# -- theta oracle -------------------------------------------------------------
print("\nbrute-force window oracle for theta (s=64, 99.5% quantile, 1e4 reps):")
for spec in specs:
    got = theta_oracle_mc(spec, s=64, quantile=0.995, reps=10_000, seed=11)
    print(f"  {spec.label():22s} oracle={got:.3f}  true={spec.theta_true:.3f}")
print("(the oracle carries a known finite-level bias; it vanishes as the")
print(" quantile rises and the window grows)")

# -- tail chains: the closed forms checked on the path -----------------------
spec = ModelSpec.armax(0.5)
prof = conditional_exceedance_profile(spec, k_max=8, quantile=0.999,
                                      target_events=50_000, seed=5)
c_hat, se = prof.count_variance_estimate()
print(f"\n{spec.label()} tail-chain exceedance probabilities P{{W_k > 1}}, lags 1..6,")
print("beside the conditional exceedance profile P(X_k > u | X_0 > u) at the 99.9%")
print(f"quantile ({prof.n_events} conditioning events):")
print("  closed form:", np.round(tail_chain_probs(spec, 6), 4))
print("  path       :", np.round(prof.probs[:6], 4))
print(f"  count-variance estimate {c_hat:.3f} +/- {se:.3f} "
      f"(closed form {count_variance_limit(spec):.3f})")
