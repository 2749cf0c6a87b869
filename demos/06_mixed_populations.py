#!/usr/bin/env python3
"""Attackers and seeds: how mixed populations bend the incentives.

Malicious peers corrupt what they upload, wasting their victims' download
slots and cycling over the bottom of the reputation ladder.  Altruistic seeds
serve anyone (capacity permitting) and feed even excluded peers, which is
generous but erodes the punishment that keeps everyone else honest.
"""

import numpy as np

from normforge import (
    NetworkEnv,
    PeerKind,
    ProtocolParams,
    SimConfig,
    check_equilibrium,
    collapsed_social_utility,
    max_altruist_fraction,
    one_period_utilities,
    run_sim,
    social_utility,
    stationary_for_regime,
)

params = ProtocolParams(L=3, h_o=1, b=2)
base = dict(r=1.0, c=0.2, eps=0.1, lam=1.0, delta=0.8)

print("=" * 72)
print("Malicious fraction p_d: wasted slots shrink everyone's rate")
print("=" * 72)
print("  p_d    active utility   slack     sustainable")
for p_d in (0.0, 0.1, 0.2, 0.3, 0.45):
    env = NetworkEnv(p_d=p_d, **base)
    dist = stationary_for_regime(params, env)
    v = one_period_utilities(params, env, dist)
    rep = check_equilibrium(params, env)
    print(f"  {p_d:.2f}      {v[params.h_o]:.4f}       {rep.serve_slack:+.4f}   "
          f"{rep.is_equilibrium}")

print()
print("  simulated cross-check at p_d = 0.3, eps = 0 (mechanism and formula")
print("  coincide exactly without the error feedback):")
env0 = NetworkEnv(p_d=0.3, **{**base, "eps": 0.0})
cfg = SimConfig(n_peers=1200, n_periods=400, seed=5, params=params, env=env0,
                population_mix={PeerKind.RECIPROCATIVE: 0.7, PeerKind.MALICIOUS: 0.3})
tr = run_sim(cfg)
v = one_period_utilities(params, env0, stationary_for_regime(params, env0))
print(f"    simulated reciprocator mean {np.mean(tr.mean_utility['reciprocative'][-100:]):.4f}"
      f"  vs analytic active rate {v[1]:.4f}")
print(f"    corrupted deliveries in the final window: "
      f"{tr.counts['corrupted'][-100:].sum()}")

print()
print("=" * 72)
print("Altruist fraction p_c: generosity up to the incentive cliff")
print("=" * 72)
env = NetworkEnv(**base)
p_bar = max_altruist_fraction(params, env)
print(f"  compliance survives up to p_c = {p_bar:.3f} (ceiling is always <= 0.5)")
print("  p_c    social utility (compliant / collapsed)")
for p_c in (0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.7, 0.9):
    if p_c > 0.5:
        u = env.lam * params.b * (1 - p_c) * ((1 - env.eps) * env.r - env.c)
        tag = "altruists alone"
    else:
        e = env.replace(p_c=p_c)
        if check_equilibrium(params, e).is_equilibrium:
            u = social_utility(params, e, stationary_for_regime(params, e))
            tag = "compliant"
        else:
            u = collapsed_social_utility(env, params.b, p_c)
            tag = "collapsed"
    print(f"  {p_c:.2f}   {u:.4f}  ({tag})")
print("  the drop past the ceiling is the incentive collapse: free chunks")
print("  from seeds make exclusion toothless, so reciprocators stop serving")
