#!/usr/bin/env python3
"""Where do reputations settle?

A compliant population climbs the reputation ladder and occasionally gets
knocked back to zero by service errors.  This demo computes the long-run
profile three ways: the closed form for the harsh-punishment uniform rule,
a direct solve of the period kernel, and the same kernel with probabilistic
forgiveness switched on.
"""

import numpy as np

from normforge import (
    NetworkEnv,
    ProtocolParams,
    stationary_closed_form,
    stationary_fixed_point,
)

env = NetworkEnv(r=1.0, c=0.2, eps=0.1, lam=1.0, delta=0.8)
params = ProtocolParams(L=3, h_o=1, b=2)


def show(label, dist):
    eta = ", ".join(f"{v:.5f}" for v in dist.eta)
    print(f"  {label:<28} eta = [{eta}]   mu = {dist.mu:.5f}")


print("=" * 72)
print("Harsh punishment, uniform thresholds (L=3, h_o=1, b=2, eps=0.1)")
print("=" * 72)
closed = stationary_closed_form(params, env)
solved = stationary_fixed_point(params, env)
show("closed form", closed)
show("direct solve", solved)
print(f"  sup-norm gap: {np.max(np.abs(closed.eta - solved.eta)):.2e}")
print(f"  error-punishment probability alpha = {closed.alpha:.4f}"
      f"  (two uploads per period, 10% error each)")

print()
print("=" * 72)
print("Forgiveness raises the active mass (same network, growing beta)")
print("=" * 72)
for beta in (0.0, 0.25, 0.5, 0.75, 1.0):
    d = stationary_fixed_point(params.replace(beta=beta), env)
    bar = "#" * int(round(d.mu * 40))
    print(f"  beta = {beta:.2f}   mu = {d.mu:.5f}  {bar}")
print("  (a punished peer keeps its reputation with probability"
      " beta**(L - rep + 1), so high reputations are forgiven most)")

print()
print("=" * 72)
print("Higher activity thresholds idle more of the population")
print("=" * 72)
for h_o in (1, 2, 3):
    d = stationary_closed_form(ProtocolParams(L=3, h_o=h_o, b=2), env)
    print(f"  h_o = {h_o}   mu = {d.mu:.5f}   (= 1 / (1 + alpha * h_o))")
