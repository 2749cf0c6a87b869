"""Expected utilities and one-shot-deviation incentive analysis.

A protocol sustains cooperation when no peer can profit from a single-period
deviation followed by a return to compliance.  The binding deviation for an
active peer is refusing every prescribed upload in one period, which saves
lam*b*c now and triggers the punishment lottery next period; an inactive peer
can only deviate by serving someone it should refuse, a pure instant loss of
c.  This module computes one-period and discounted utilities in every
population regime and evaluates the two constraint families.  Like the
stationary layer, it answers one point (params, env) or a `Points` batch.
`check_equilibria` is the one analytic evaluation: it checks a batch in one
rung-major pass, and `check_equilibrium` is its batch of one.  Every design
boundary but the closed-form cost ratio is read off that check along one
axis: one call checks a grid, `_edge` finds where it stops passing and
`_bisect` refines a continuous axis.  No slack is walked or binary-searched.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .model import NetworkEnv, Points, ProtocolParams, batched, error_punish_prob, point_of
from .stationary import ReputationDistribution, check_regime, stationary_for_regime

SLACK_TOL = 1e-12          # float guard when classifying slack signs
BISECT_TOL_BETA = 1e-8
BISECT_TOL_DELTA = 1e-10
BISECT_TOL_PC = 1e-6
SCAN_STEP_PC = 0.01
BISECT_DEPTH = 4  # halvings per evaluator call: 2**4 - 1 = 15 midpoints
# willing-table entries, (L + 1)**2 a point, per evaluator call: a wider grid
# costs calls, not memory
BLOCK_ENTRIES = 1 << 15


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


@batched
def upload_cost_profile(points: Points, dist: ReputationDistribution) -> np.ndarray:
    """Expected per-period upload cost by server reputation under variable
    client thresholds.

    Matching model: every service-eligible client (reputation >= m_o(h_o))
    emits lam*b requests per period; a request from a t-client is routed
    uniformly among the servers willing to take it (`Points.willing`), so
    each willing server carries an equal share of that client class's
    demand.  With uniform thresholds this reduces to lam*b*c for every
    active server.  It sums point-major, the willing table's layout.
    """
    eta, willing = np.ascontiguousarray(dist.eta), points.willing.astype(float)
    mass = np.einsum("is,ist->it", eta, willing)
    share = np.divide(eta, mass, out=np.zeros_like(eta), where=mass > 0.0)
    return (points.c * (points.lam * points.b))[:, None] * np.einsum("ist,it->is", willing, share)


@batched
def one_period_utilities(points: Points, dist: ReputationDistribution) -> np.ndarray:
    """Expected one-period utility by reputation for a compliant
    reciprocative peer, in the regime implied by (params, env).

    Baseline: active peers net lam*b*[(1-eps)*r - c], inactive peers get 0.
    Malicious mix: the active rate shrinks by the share of download slots
    wasted on corrupt deliveries.  Altruistic mix: altruists absorb part of
    the upload burden and feed inactive peers.  Variable thresholds: benefit
    requires service eligibility and the upload cost follows the matching
    model in upload_cost_profile; a rung below eligibility gets what altruists
    feed a punished peer.  On tit-for-tat's row (h_o = 0) that cost counts
    altruists as requesters: its verdict reads only the rung gap, and no
    output reports its levels.
    """
    check_regime(points)
    act, h_o, p_c, p_d = points.active, points.h_o, points.p_c, points.p_d
    rate, gross = points.lam * points.b, (1.0 - points.eps) * points.r
    v, mu = np.where(act, rate * (gross - points.c), 0.0), dist.mu
    if (p_d > 0.0).any():
        share = (mu - p_d / (h_o + 1)) / (mu + h_o * p_d / (h_o + 1))
        v = np.where(p_d > 0.0, np.where(act, rate * share * (gross - points.c), 0.0), v)
    punished = 0.0
    if (p_c > 0.0).any():
        punished = np.where(p_c <= 0.5, rate * (1.0 - points.eps) * fed_while_punished(p_c)
                            * points.r, rate * gross)
        v = np.where(p_c > 0.0, np.where(act, rate * gross - rate * ((mu - p_c) / mu)
                                         * points.c, punished), v)
    if not points.uniform.all():
        benefit = np.where(points.rung >= points.eligibility, rate * gross, punished)
        v = np.where(points.uniform, v, benefit - upload_cost_profile(points, dist).T)
    return v.T


@batched
def overall_utilities(points: Points, dist: ReputationDistribution = None) -> UtilityProfile:
    """Discounted overall utilities v_inf = v_one + delta * P @ v_inf, with P
    the compliant ladder, by back-substitution.

    A peer at rung t climbs to t+1, stays or falls to 0 (`Points.moves`), so
    from L down to 0 each rung solves as v[t] = a[t] + z[t] * v[0], and then
    v[0] = a[0] / (1 - z[0]).  delta < 1 keeps every divisor positive:
    1 - delta * stay >= 1 - delta, and z[0] <= delta.  O(L) a point: no
    kernel and no linear solve.
    """
    if dist is None:
        dist = stationary_for_regime(points)
    v_one = one_period_utilities(points, dist).T
    climb, stay, fall = points.moves
    held = 1.0 - points.delta * stay
    up = points.delta * climb / held
    az = np.stack([v_one, points.delta * fall]) / held
    for t in range(points.L - 1, -1, -1):
        az[:, t] += up[t] * az[:, t + 1]
    a, z = az
    return UtilityProfile(v_one=v_one.T, v_inf=(a + z * (a[:1] / (1.0 - z[:1]))).T)


@batched
def social_utility(points: Points, dist: ReputationDistribution,
                   v_one: np.ndarray = None) -> np.ndarray:
    """Average per-period utility across the whole population.

    The malicious regime averages the compliant one-period utilities v_one
    (computed unless given) over the stationary profile.  An
    all-reciprocative population gets the active peers' benefit minus the
    cost of serving every eligible client (lam*b*mu*[(1-eps)*r - c] under
    uniform thresholds).  The altruistic regime has two branches.  Up to
    p_c = 0.5 it equals (1 - p_c) times the reciprocators' profile-weighted
    v_one plus c*lam*b*p_c: the altruists' term adds their upload cost
    rather than charging it.  Above one half, reciprocative demand alone
    caps the exchanged volume, and c is charged per unit exchanged.
    """
    rate, eta, t, p_c = points.lam * points.b, dist.eta.T, points.rung, points.p_c
    # every eligible client's requests land on some active server: summing
    # the cost that way, vectors sharing m_o(h_o) tie exactly, not by rounding
    elig = points.eligibility
    served = points.rung_sum(eta * (t >= np.maximum(points.h_o, elig)))
    asking = points.rung_sum(eta * (t >= elig))
    u = rate * ((1.0 - points.eps) * points.r * served - points.c * asking)
    if (points.p_d > 0.0).any():
        v_one = one_period_utilities(points, dist) if v_one is None else v_one
        u = np.where(points.p_d > 0.0, points.rung_sum(eta * v_one.T), u)
    if (p_c > 0.0).any():
        mu = dist.mu
        benefit = (rate * (1.0 - points.eps) * (fed_while_punished(p_c) * (1.0 - mu)
                                                + (mu - p_c)) * points.r)
        cost = rate * ((mu - p_c) ** 2 / mu - p_c) * points.c
        u = np.where(p_c > 0.5, collapsed_social_utility(points, points.b, p_c),
                     np.where(p_c > 0.0, benefit - cost, u))
    return u


def fed_while_punished(p_c):
    """Share of its requests a punished reciprocative peer still gets served:
    altruist supply p_c over reciprocative demand 1 - p_c, capped at 1."""
    return np.minimum(1.0, p_c / np.maximum(1.0 - p_c, p_c))


def collapsed_social_utility(env: NetworkEnv, b: int, p_c: float) -> float:
    """Average utility when reciprocative peers free-ride and only altruists
    serve: the exchanged volume is capped by whichever side is scarcer,
    altruist supply (p_c) or reciprocative demand (1 - p_c)."""
    return env.lam * b * np.minimum(p_c, 1.0 - p_c) * ((1.0 - env.eps) * env.r - env.c)


def check_equilibria(points: Points) -> IncentiveReport:
    """check_equilibrium for every point of a batch, a row per point.

    The slack at rung t: for active t the deviation is refusing all
    prescribed uploads, which saves lam*b*c this period (once punishment is
    certain the peer refuses every remaining request too) and swaps the
    compliance lottery for the deviation lottery (keep t w.p. beta**(L-t+1),
    else drop to 0); for inactive t it is serving someone, an instant loss of
    c followed by the same lottery.  Slack >= 0 at every t: no deviation pays."""
    dist = stationary_for_regime(points)
    utilities = overall_utilities(points, dist)
    v, keep = utilities.v_inf.T, points.keep
    gap = points.delta * (1.0 - points.alpha) * (
        np.concatenate([v[1:], v[-1:]]) - keep * v - (1.0 - keep) * v[:1])
    slacks = np.where(points.active, gap - points.lam * points.b * points.c, gap + points.c)
    return IncentiveReport(
        serve_slack=np.where(points.active, slacks, np.inf).min(axis=0),
        refuse_slack=np.where(points.active, np.inf, slacks).min(axis=0),
        per_theta_slacks=slacks.T,
        is_equilibrium=slacks.min(axis=0) >= -SLACK_TOL,
        social_utility=social_utility(points, dist, utilities.v_one),
        dist=dist,
        utilities=utilities,
    )


def blocks(items: list, L: int, points_per_item: int = 1):
    """Slices of items (points_per_item points each) for one evaluator call."""
    size = max(1, BLOCK_ENTRIES // ((L + 1) ** 2 * points_per_item))
    for i in range(0, len(items), size):
        yield items[i:i + size]


def check_equilibrium(params: ProtocolParams, env: NetworkEnv) -> IncentiveReport:
    """Verdict on whether the protocol survives every one-shot deviation.

    Returns the binding service slack (minimum over active reputations), the
    binding refusal slack (minimum over inactive reputations), the full
    per-reputation slack vector, the equilibrium flag, the social utility,
    and the stationary profile and utilities all of these were computed on.
    Raises ValueError when check_regime cannot model (params, env).
    """
    return point_of(check_equilibria(Points.of([params], env)), 0)


def _require_baseline(env: NetworkEnv, what: str) -> None:
    if env.p_c > 0.0 or env.p_d > 0.0:
        raise ValueError(f"{what} assumes an all-reciprocative population (p_c = p_d = 0)")


def _bisect(passes, lo: float, hi: float, tol: float):
    """Halve [lo, hi] to width tol, keeping passes at lo and not at hi.  One
    passes(values) call checks the midpoints of the next BISECT_DEPTH
    halvings, the floats that halving one at a time computes, and the path
    is walked through them: the bracket is bit-identical."""
    while hi - lo > tol:
        cells, level = [], [(lo, hi)]
        for _ in range(BISECT_DEPTH):
            level = [(a, b) for a, b in level if b - a > tol]
            cells += level
            level = [half for a, b in level for half in ((a, 0.5 * (a + b)), (0.5 * (a + b), b))]
        ok = dict(zip(cells, passes([0.5 * (a + b) for a, b in cells])))
        while (lo, hi) in ok:
            mid = 0.5 * (lo + hi)
            lo, hi = (mid, hi) if ok[lo, hi] else (lo, mid)
    return lo, hi


def _along(params: ProtocolParams, env: NetworkEnv, field: str, values) -> np.ndarray:
    """The check's verdicts on (params, env) with the `field` column (beta, b,
    p_c or delta) set to each of values, in one check_equilibria call."""
    values = np.asarray(values, dtype=float)
    return check_equilibria(Points.of([params] * len(values), env).replace(**{field: values})
                            ).is_equilibrium


def _edge(passes, grid: list, tol: Optional[float] = None):
    """Edge of the passing set along an ascending grid, with passes(values)
    checking the whole grid in one call: None if grid[0] fails, grid[-1] if
    nothing fails, else the last passing value, or with tol the boundary
    bisected inside the first failing cell."""
    ok = passes(grid)
    if not ok[0]:
        return None
    k = int(np.argmin(ok))  # the first failing value
    if ok[k]:
        return grid[-1]
    return grid[k - 1] if tol is None else _bisect(passes, grid[k - 1], grid[k], tol)[0]


def min_service_threshold(env: NetworkEnv, b: int) -> Optional[int]:
    """Smallest activity threshold h_o sustaining the protocol, or None.

    The binding service constraint rearranges to
    delta**h_o <= 1 - (1-delta)*c / (delta*[(1-alpha)*((1-eps)*r - c) - alpha*c]),
    so the minimum integer threshold is the ceiling of the log ratio.  As
    h_o grows the slack rises toward a finite limit; when even that limit
    falls short no threshold exists and None is returned.  One check of the
    thresholds within two of the ceiling (at one L: the slack does not depend
    on L) gives the answer; a boundary outside that window is an error.
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
    window = range(max(1, h - 2), h + 3)
    ok = check_equilibria(Points.of([ProtocolParams(L=window[-1], h_o=k, b=b) for k in window],
                                    env)).is_equilibrium
    if not ok[-1] or (ok[0] and window[0] > 1):
        raise AssertionError("closed-form threshold drifted from the check")
    return window[int(np.argmax(ok))]


def max_connections(env: NetworkEnv, h_o: int, b_cap: int) -> Optional[int]:
    """Largest connection count b in 1..b_cap that keeps the protocol
    sustainable at the given activity threshold, or None if even b = 1 fails.

    The service slack is non-increasing in b (more transactions raise the
    false-punishment rate faster than they raise the stake), so the edge of
    the passing set along b = 1..b_cap, checked in one call at L = h_o (the
    slack does not depend on L), is the answer.
    """
    _require_baseline(env, "max_connections")
    if b_cap < 1:
        raise ValueError(f"b_cap must be >= 1, got {b_cap}")
    base = ProtocolParams(L=h_o, h_o=h_o, b=1)
    return _edge(lambda bs: _along(base, env, "b", bs), list(range(1, b_cap + 1)))


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

    Bisects delta on the check's verdict at the incentive-maximal design
    point (threshold L, one connection, unit utilization), whose service
    slack increases in delta.  Returns 0.0 when the constraint holds for
    every delta (c = 0) and None when it holds for none (cost too high even
    for fully patient peers).  Requires c/r < 1 - eps so that serving has
    positive net value.
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
    # limit as delta -> 1: (1-eps)*L*net / (1 + eps*L)
    if (1.0 - eps) * L * net / (1.0 + eps * L) <= c:
        return None
    design = ProtocolParams(L=L, h_o=L, b=1)
    unit = env.replace(lam=1.0)  # unit utilization: lam*b = 1 at b = 1
    lo, hi = _bisect(lambda ds: ~_along(design, unit, "delta", ds), 0.0, 1.0 - 1e-15,
                     BISECT_TOL_DELTA)
    return float(0.5 * (lo + hi))


def max_forgiveness(params: ProtocolParams, env: NetworkEnv) -> Optional[float]:
    """Largest forgiveness base beta keeping the protocol sustainable.

    Forgiveness weakens the punishment threat, so the per-reputation slacks
    fall as beta rises and the feasible set is an interval [0, beta_max].
    Returns None when even beta = 0 fails and 1.0 when beta = 1 still passes;
    otherwise bisects the boundary to BISECT_TOL_BETA.
    """
    return _edge(lambda betas: _along(params, env, "beta", betas), [0.0, 1.0], BISECT_TOL_BETA)


def max_altruist_fraction(params: ProtocolParams, env: NetworkEnv) -> float:
    """Largest altruist fraction p_c (capped at 0.5) under which
    reciprocative peers still comply.

    Altruists feed inactive peers, shrinking the punishment gap, and above
    one half of the population the gap is gone entirely, so the cap is 0.5.
    One batched check of 0, every SCAN_STEP_PC scan point and 0.5 locates
    the pass/fail boundary, and bisection refines it.
    """
    if env.p_d != 0.0:
        raise ValueError("altruist threshold assumes p_d = 0")
    scan = [0.0]
    while scan[-1] + SCAN_STEP_PC < 0.5:
        scan.append(scan[-1] + SCAN_STEP_PC)
    scan.append(0.5)
    return _edge(lambda p_cs: _along(params, env, "p_c", p_cs), scan, BISECT_TOL_PC) or 0.0
