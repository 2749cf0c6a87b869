"""Expected utilities and one-shot-deviation incentive analysis.

A protocol sustains cooperation when no peer can profit from a single-period
deviation followed by a return to compliance.  The binding deviation for an
active peer is refusing every prescribed upload in one period, which saves
lam*b*c now and triggers the punishment lottery next period; an inactive peer
can only deviate by serving someone it should refuse, a pure instant loss of
c.  This module computes one-period and discounted utilities in every
population regime, evaluates the two constraint families, and solves the
existence thresholds (minimum activity threshold, maximum connections,
cost-ratio and discount boundaries, maximum forgiveness, maximum altruist
fraction) by closed form or bisection on proved monotonicities.
`check_equilibrium` is the one analytic evaluation of a protocol point, and
`stationary.check_regime` alone decides which populations it can model.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .model import NetworkEnv, ProtocolParams, error_punish_prob, forgiveness_prob
from .stationary import (
    ReputationDistribution,
    check_regime,
    stationary_for_regime,
    transition_matrix,
)

SLACK_TOL = 1e-12          # float guard when classifying slack signs
BISECT_TOL_BETA = 1e-8
BISECT_TOL_DELTA = 1e-10
BISECT_TOL_PC = 1e-6
SCAN_STEP_PC = 0.01


@dataclass
class UtilityProfile:
    """One-period and discounted utilities indexed by reputation 0..L."""

    v_one: np.ndarray
    v_inf: np.ndarray


@dataclass
class IncentiveReport:
    """Constraint slacks, the equilibrium verdict and the social utility for
    one protocol, with the profile and utilities they were computed on.

    per_theta_slacks[t] is the service-constraint slack for active t and the
    refusal-constraint slack for inactive t.  A protocol is an equilibrium
    exactly when every slack is non-negative.  social_utility is the
    population average under compliance over dist, utilities by reputation.
    """

    serve_slack: float
    refuse_slack: float
    per_theta_slacks: np.ndarray
    is_equilibrium: bool
    social_utility: float
    dist: ReputationDistribution
    utilities: UtilityProfile


def upload_cost_profile(params: ProtocolParams, env: NetworkEnv,
                        dist: ReputationDistribution) -> np.ndarray:
    """Expected per-period upload cost by server reputation under variable
    client thresholds.

    Matching model: every service-eligible client (reputation >= m_o(h_o))
    emits lam*b requests per period; a request from a t-client is routed
    uniformly among the servers willing to take it (reputation s >= h_o with
    m_o(s) <= t), so each willing server carries an equal share of that
    client class's demand.  With uniform thresholds this reduces to lam*b*c
    for every active server.
    """
    L, h_o = params.L, params.h_o
    eta = dist.eta
    rate = env.lam * params.b
    elig = params.client_eligibility
    willing_mass = np.zeros(L + 1)  # indexed by client reputation
    for t in range(elig, L + 1):
        willing_mass[t] = sum(eta[s] for s in range(h_o, L + 1) if params.m_o_at(s) <= t)
    q = np.zeros(L + 1)
    for s in range(h_o, L + 1):
        load = 0.0
        for t in range(max(elig, params.m_o_at(s)), L + 1):
            if willing_mass[t] > 0.0:
                load += rate * eta[t] / willing_mass[t]
        q[s] = env.c * load
    return q


def one_period_utilities(params: ProtocolParams, env: NetworkEnv,
                         dist: ReputationDistribution) -> np.ndarray:
    """Expected one-period utility by reputation for a compliant
    reciprocative peer, in the regime implied by (params, env).

    Baseline: active peers net lam*b*[(1-eps)*r - c], inactive peers get 0.
    Malicious mix: the active rate shrinks by the share of download slots
    wasted on corrupt deliveries.  Altruistic mix: altruists absorb part of
    the upload burden and feed inactive peers.  Variable thresholds: benefit
    requires service eligibility and the upload cost follows the matching
    model in upload_cost_profile.
    """
    check_regime(params, env)
    L, h_o = params.L, params.h_o
    rate = env.lam * params.b
    gross = (1.0 - env.eps) * env.r
    v = np.zeros(L + 1)

    if env.p_d > 0.0:
        share = (dist.mu - env.p_d / (h_o + 1)) / (dist.mu + h_o * env.p_d / (h_o + 1))
        v[h_o:] = rate * share * (gross - env.c)
        return v

    if env.p_c > 0.0:
        p_c, mu_c = env.p_c, dist.mu
        v[h_o:] = rate * gross - rate * ((mu_c - p_c) / mu_c) * env.c
        if p_c <= 0.5:
            v[:h_o] = rate * (1.0 - env.eps) * fed_while_punished(p_c) * env.r
        else:
            v[:h_o] = rate * gross
        return v

    if params.uniform_thresholds:
        v[h_o:] = rate * (gross - env.c)
        return v

    q = upload_cost_profile(params, env, dist)
    elig = params.client_eligibility
    for t in range(L + 1):
        benefit = rate * gross if t >= elig else 0.0
        v[t] = benefit - q[t]
    return v


def overall_utilities(params: ProtocolParams, env: NetworkEnv,
                      dist: ReputationDistribution = None) -> UtilityProfile:
    """Discounted overall utilities by solving the compliance recursion.

    v_inf = v_one + delta * P @ v_inf with P the compliant reputation kernel;
    delta < 1 keeps (I - delta * P) nonsingular, so one dense solve suffices.
    """
    if dist is None:
        dist = stationary_for_regime(params, env)
    v_one = one_period_utilities(params, env, dist)
    P = transition_matrix(params, env)
    n = params.L + 1
    v_inf = np.linalg.solve(np.eye(n) - env.delta * P, v_one)
    return UtilityProfile(v_one=v_one, v_inf=v_inf)


def social_utility(params: ProtocolParams, env: NetworkEnv,
                   dist: ReputationDistribution) -> float:
    """Average per-period utility across the whole population.

    The malicious regime averages the compliant one-period utilities over the
    stationary profile.  An all-reciprocative population gets the active
    peers' benefit minus the cost of serving every eligible client
    (lam*b*mu*[(1-eps)*r - c] under uniform thresholds).  The altruistic
    regime accounts for altruists' upload costs with a two-branch formula
    split at p_c = 0.5, above which reciprocative demand alone caps the
    exchanged volume.
    """
    return _population_average(params, env, dist, one_period_utilities(params, env, dist))


def _population_average(params: ProtocolParams, env: NetworkEnv,
                        dist: ReputationDistribution, v_one: np.ndarray) -> float:
    """social_utility given the compliant one-period utilities v_one."""
    rate = env.lam * params.b
    if env.p_c > 0.0:
        p_c, mu_c = env.p_c, dist.mu
        if p_c > 0.5:
            return collapsed_social_utility(env, params.b, p_c)
        fed = fed_while_punished(p_c)
        benefit = rate * (1.0 - env.eps) * (fed * (1.0 - mu_c) + (mu_c - p_c)) * env.r
        cost = rate * ((mu_c - p_c) ** 2 / mu_c - p_c) * env.c
        return benefit - cost
    if env.p_d > 0.0:
        return float(np.dot(dist.eta, v_one))
    # every eligible client's requests land on some active server: summing
    # the cost that way, vectors sharing m_o(h_o) tie exactly, not by rounding
    eta, elig = dist.eta, params.client_eligibility
    gross = (1.0 - env.eps) * env.r
    return rate * (gross * float(eta[max(params.h_o, elig):].sum())
                   - env.c * float(eta[elig:].sum()))


def fed_while_punished(p_c: float) -> float:
    """Share of its requests a punished reciprocative peer still gets served:
    altruist supply p_c over reciprocative demand 1 - p_c, capped at 1."""
    return min(1.0, p_c / (1.0 - p_c)) if p_c < 1.0 else 1.0


def collapsed_social_utility(env: NetworkEnv, b: int, p_c: float) -> float:
    """Average utility when reciprocative peers free-ride and only altruists
    serve: the exchanged volume is capped by whichever side is scarcer,
    altruist supply (p_c) or reciprocative demand (1 - p_c)."""
    return env.lam * b * min(p_c, 1.0 - p_c) * ((1.0 - env.eps) * env.r - env.c)


def _deviation_slacks(params: ProtocolParams, env: NetworkEnv,
                      v_inf: np.ndarray) -> np.ndarray:
    """Per-reputation one-shot-deviation slacks.

    For active t the deviation is refusing all prescribed uploads: it saves
    lam*b*c this period (once punishment is certain the peer refuses every
    remaining request too) and swaps the compliance lottery for the deviation
    lottery (keep t w.p. beta**(L-t+1), else drop to 0).  For inactive t the
    deviation is serving someone, an instant loss of c followed by the same
    deviation lottery.  Slack >= 0 for every t means no deviation profits.
    """
    L, h_o = params.L, params.h_o
    alpha = error_punish_prob(env, params.b)
    delta = env.delta
    rate_cost = env.lam * params.b * env.c
    slacks = np.empty(L + 1)
    for t in range(L + 1):
        keep = forgiveness_prob(params, t)
        up = v_inf[min(L, t + 1)]
        future_gap = delta * (1.0 - alpha) * (up - keep * v_inf[t] - (1.0 - keep) * v_inf[0])
        if t >= h_o:
            slacks[t] = future_gap - rate_cost
        else:
            slacks[t] = future_gap + env.c
    return slacks


def check_equilibrium(params: ProtocolParams, env: NetworkEnv) -> IncentiveReport:
    """Verdict on whether the protocol survives every one-shot deviation.

    Returns the binding service slack (minimum over active reputations), the
    binding refusal slack (minimum over inactive reputations), the full
    per-reputation slack vector, the equilibrium flag, the social utility,
    and the stationary profile and utilities all of these were computed on.
    Raises ValueError when check_regime cannot model (params, env).
    """
    dist = stationary_for_regime(params, env)
    utilities = overall_utilities(params, env, dist)
    slacks = _deviation_slacks(params, env, utilities.v_inf)
    return IncentiveReport(
        serve_slack=float(slacks[params.h_o:].min()),
        refuse_slack=float(slacks[:params.h_o].min()),
        per_theta_slacks=slacks,
        is_equilibrium=bool(slacks.min() >= -SLACK_TOL),
        social_utility=_population_average(params, env, dist, utilities.v_one),
        dist=dist,
        utilities=utilities,
    )


def _require_baseline(env: NetworkEnv, what: str) -> None:
    if env.p_c > 0.0 or env.p_d > 0.0:
        raise ValueError(f"{what} assumes an all-reciprocative population (p_c = p_d = 0)")


def _bisect(ok, lo: float, hi: float, tol: float):
    """Halve [lo, hi] to width tol, keeping ok(lo) and not ok(hi)."""
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if ok(mid):
            lo = mid
        else:
            hi = mid
    return lo, hi


def _uniform_service_slack(env: NetworkEnv, b: int, h_o: int) -> float:
    """Per-request service-constraint slack in the harsh-punishment uniform
    regime.  The discounted value has the closed form
    v(h_o) = lam*b*[(1-eps)*r - c] / (1 - delta*(1-alpha) - alpha*delta**(h_o+1))
    and the binding constraint delta*(1-alpha)*(1 - delta**h_o)*v(h_o) >=
    lam*b*c divides through by lam*b:

        delta*(1-alpha)*(1 - delta**h_o)*net/denominator - c.

    The per-request form is monotone non-increasing in b (the raw difference
    is not: both sides scale with lam*b); the sign is shared, which is what
    the feasibility searches use.  Independent of L.
    """
    alpha = error_punish_prob(env, b)
    delta = env.delta
    net = (1.0 - env.eps) * env.r - env.c
    denom = 1.0 - delta * (1.0 - alpha) - alpha * delta ** (h_o + 1)
    return delta * (1.0 - alpha) * (1.0 - delta ** h_o) * net / denom - env.c


def min_service_threshold(env: NetworkEnv, b: int) -> Optional[int]:
    """Smallest activity threshold h_o sustaining the protocol, or None.

    The binding service constraint rearranges to
    delta**h_o <= 1 - (1-delta)*c / (delta*[(1-alpha)*((1-eps)*r - c) - alpha*c]),
    so the minimum integer threshold is the ceiling of the log ratio.  As
    h_o grows the slack rises toward a finite limit; when even that limit
    falls short no threshold exists and None is returned.
    """
    _require_baseline(env, "min_service_threshold")
    alpha = error_punish_prob(env, b)
    delta = env.delta
    net = (1.0 - env.eps) * env.r - env.c
    if env.c <= 0.0:
        return 1
    if delta == 0.0:
        return None
    limit = delta * (1.0 - alpha) * net / (1.0 - delta + delta * alpha)
    if limit <= env.c:
        return None
    arg = 1.0 - (1.0 - delta) * env.c / (delta * ((1.0 - alpha) * net - alpha * env.c))
    h = max(1, int(np.ceil(np.log(arg) / np.log(delta) - 1e-12)))
    # float-boundary polish: the closed form and the slack must agree exactly
    walked = 0
    while _uniform_service_slack(env, b, h) < 0.0:
        h += 1
        walked += 1
        if walked > 2:
            raise AssertionError("closed-form threshold drifted from the slack sweep")
    while h > 1 and _uniform_service_slack(env, b, h - 1) >= 0.0:
        h -= 1
        walked += 1
        if walked > 2:
            raise AssertionError("closed-form threshold drifted from the slack sweep")
    return h


def max_connections(env: NetworkEnv, h_o: int, b_cap: int) -> Optional[int]:
    """Largest connection count b in 1..b_cap that keeps the protocol
    sustainable at the given activity threshold, or None if even b = 1 fails.

    The service slack is non-increasing in b (more transactions raise the
    false-punishment rate faster than they raise the stake), so an integer
    binary search is exact.
    """
    _require_baseline(env, "max_connections")
    if b_cap < 1:
        raise ValueError(f"b_cap must be >= 1, got {b_cap}")
    if _uniform_service_slack(env, 1, h_o) < 0.0:
        return None
    lo, hi = 1, b_cap
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if _uniform_service_slack(env, mid, h_o) >= 0.0:
            lo = mid
        else:
            hi = mid - 1
    return lo


def existence_cost_threshold(env: NetworkEnv, L: int) -> float:
    """Largest sustainable cost-to-benefit ratio c/r, evaluated at the
    incentive-maximal design point (activity threshold = L, one connection,
    unit per-connection utilization):

        T_c = delta*(1-eps)**2*(1-delta**L) / (1 - delta + delta*(1-delta**L)).
    """
    _require_baseline(env, "existence_cost_threshold")
    if L < 1:
        raise ValueError(f"L must be >= 1, got {L}")
    delta, eps = env.delta, env.eps
    k = delta * (1.0 - delta ** L)
    return k * (1.0 - eps) ** 2 / (1.0 - delta + k)


def existence_discount_threshold(env: NetworkEnv, L: int) -> Optional[float]:
    """Smallest discount factor sustaining any protocol, by bisection.

    Solves g(delta) = 0 where g is the service slack at the incentive-maximal
    design point (threshold L, one connection, unit utilization); g increases
    in delta.  Returns 0.0 when the constraint holds for every delta (c = 0)
    and None when it holds for none (cost too high even for fully patient
    peers).  Requires c/r < 1 - eps so that serving has positive net value.
    """
    _require_baseline(env, "existence_discount_threshold")
    if L < 1:
        raise ValueError(f"L must be >= 1, got {L}")
    eps, r, c = env.eps, env.r, env.c
    if not c / r < 1.0 - eps:
        raise ValueError("discount threshold needs c/r < 1 - eps")
    if c <= 0.0:
        return 0.0
    net = (1.0 - eps) * r - c

    def g(d: float) -> float:
        denom = 1.0 - d * (1.0 - eps) - eps * d ** (L + 1)
        return d * (1.0 - eps) * (1.0 - d ** L) * net / denom - c

    # limit as delta -> 1: (1-eps)*L*net / (1 + eps*L)
    if (1.0 - eps) * L * net / (1.0 + eps * L) <= c:
        return None
    lo, hi = _bisect(lambda d: g(d) < 0.0, 0.0, 1.0 - 1e-15, BISECT_TOL_DELTA)
    return 0.5 * (lo + hi)


def max_forgiveness(params: ProtocolParams, env: NetworkEnv) -> Optional[float]:
    """Largest forgiveness base beta keeping the protocol sustainable.

    Forgiveness weakens the punishment threat, so the per-reputation slacks
    fall as beta rises and the feasible set is an interval [0, beta_max].
    Returns None when even beta = 0 fails and 1.0 when beta = 1 still passes;
    otherwise bisects the boundary to 1e-8 after validating the bracket.
    """
    def passes(beta: float) -> bool:
        return check_equilibrium(params.replace(beta=beta), env).is_equilibrium

    if not passes(0.0):
        return None
    if passes(1.0):
        return 1.0
    return _bisect(passes, 0.0, 1.0, BISECT_TOL_BETA)[0]


def max_altruist_fraction(params: ProtocolParams, env: NetworkEnv) -> float:
    """Largest altruist fraction p_c (capped at 0.5) under which
    reciprocative peers still comply.

    Altruists feed inactive peers, shrinking the punishment gap, and above
    one half of the population the gap is gone entirely, so the cap is 0.5.
    A scan in steps of SCAN_STEP_PC locates the pass/fail boundary and
    bisection refines it.
    """
    if env.p_d != 0.0:
        raise ValueError("altruist threshold assumes p_d = 0")

    def passes(p_c: float) -> bool:
        return check_equilibrium(params, env.replace(p_c=p_c)).is_equilibrium

    if not passes(0.0):
        return 0.0
    if passes(0.5):
        return 0.5
    lo, hi = 0.0, 0.5
    p = SCAN_STEP_PC
    while p < 0.5:
        if passes(p):
            lo = p
        else:
            hi = p
            break
        p += SCAN_STEP_PC
    return _bisect(passes, lo, hi, BISECT_TOL_PC)[0]
