#!/usr/bin/env python3
"""Solving the four design problems on one network.

Each problem widens the design space: thresholds and connections first, then
probabilistic forgiveness, then per-reputation client thresholds, then a
designer-deployed altruist fraction.  Wider spaces can only help, so the
optimal utilities nest.
"""

from normforge import DesignSpec, NetworkEnv, solve

env = NetworkEnv(r=1.0, c=0.25, eps=0.1, lam=1.0, delta=0.8)

print("=" * 72)
print("Network: c/r = 0.25, eps = 0.1, delta = 0.8, ladder L = 3, cap b <= 6")
print("=" * 72)

results = {}
for problem in ("OSNE", "OSNE_VP", "OSNE_VPS", "OSNE_AH"):
    spec = DesignSpec(problem=problem, L=3, b_cap=6, env=env,
                      beta_grid=0.05, pC_grid=0.05)
    res = solve(spec)
    results[problem] = res
    p = res.params
    extras = ""
    if problem in ("OSNE_VP", "OSNE_VPS"):
        extras += f"  beta* = {p.beta:.4f}"
    if problem == "OSNE_VPS":
        extras += f"  m_o* = {p.m_o}"
    if problem == "OSNE_AH":
        extras += f"  p_c* = {res.pC_star:.2f}"
    print(f"  {problem:<9} h_o* = {p.h_o}  b* = {p.b}{extras}")
    print(f"            social utility = {res.utility:.4f}   "
          f"candidates = {res.stats['candidates']}   "
          f"points checked = {res.stats['points_checked']}")

print()
print("Nesting check (each relaxation can only help):")
u1, u2, u3 = (results[k].utility for k in ("OSNE", "OSNE_VP", "OSNE_VPS"))
print(f"  {u1:.4f} (base)  <=  {u2:.4f} (+forgiveness)  <=  {u3:.4f} (+thresholds)")
assert u1 <= u2 + 1e-12 <= u3 + 2e-12

print()
print("Why the threshold-vector variant wins: its best design keeps the")
print("bottom active rung serving everyone while higher rungs serve only")
print("established peers, which deepens the punishment for free-riding and")
print("therefore sustains a busier network (larger b or softer beta).")

print()
print("A harsher network collapses outright:")
res = solve(DesignSpec(problem="OSNE", L=3, b_cap=6, env=env.replace(c=0.8)))
print(f"  c/r = 0.8 -> feasible: {res.feasible} (no sustainable design exists)")
