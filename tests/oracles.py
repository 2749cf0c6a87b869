"""Independent oracles used to cross-check the library's fast paths.

Everything here recomputes quantities through a different route than the
library: discounted values by value iteration and by a dense linear solve on
the full kernel instead of back-substitution down the ladder, stationary
profiles by an LU null-space solve on the full kernel instead of
the product over the reputation ladder, and equilibrium verdicts by
enumerating every deterministic one-period deviation rule instead of the
two-constraint reduction, tit-for-tat's verdict by its hand-derived two-state
closed form instead of the check on its ladder row, the harsh-punishment
service slack by its closed form instead of the check, and the simulator's
self-service fix by trying every reassignment of a pool's servers instead of
swapping clashes away, a bracket search by halving one point at a time
instead of checking several halvings per call, a batch's uniform pick by
ranking each replica's row instead of partitioning it, and a deviation gain
by running every period instead of stopping once the discount freezes it.  The
scalar decision rules at the end (one server, one client, one peer at a time)
are the reference for the simulator's vectorised service table and
reputation update.
"""

from __future__ import annotations

import enum
import itertools

import numpy as np

from normforge import (
    DeviantPolicy,
    NetworkEnv,
    ProtocolParams,
    SimConfig,
    error_punish_prob,
    one_period_utilities,
    run_replicas,
    sim,
    stationary_for_regime,
    transition_matrix,
)


def value_iterate_v_inf(params: ProtocolParams, env: NetworkEnv,
                        tol: float = 1e-13, max_iter: int = 2_000_000) -> np.ndarray:
    """Discounted values by straight value iteration on the compliance
    recursion (contraction with modulus delta)."""
    dist = stationary_for_regime(params, env)
    v_one = one_period_utilities(params, env, dist)
    P = transition_matrix(params, env)
    v = np.zeros(params.L + 1)
    for _ in range(max_iter):
        nxt = v_one + env.delta * (P @ v)
        if np.max(np.abs(nxt - v)) <= tol:
            return nxt
        v = nxt
    raise AssertionError("value iteration did not converge")


def utilities_dense(params: ProtocolParams, env: NetworkEnv) -> np.ndarray:
    """Discounted values by one dense solve of (I - delta P) v = v_one on the
    full kernel; delta < 1 keeps the system nonsingular."""
    v_one = one_period_utilities(params, env, stationary_for_regime(params, env))
    A = np.eye(params.L + 1) - env.delta * transition_matrix(params, env)
    return np.linalg.solve(A, v_one)


def stationary_nullspace(params: ProtocolParams, env: NetworkEnv) -> np.ndarray:
    """Stationary profile as the normalized solution of eta (P - I) = 0,
    solved with a replaced normalization row (no iteration involved).

    Only the rungs that rung 0 reaches enter the solve: the ladder up to the
    first rung that cannot be climbed out of.  That rung keeps every peer
    when it is absorbing, and past it the kernel may hold further absorbing
    rungs (alpha = 1 with beta = 1 makes every active rung one), which
    would leave the full system singular; unreached rungs get no mass.
    """
    P = transition_matrix(params, env)
    stuck = [t for t in range(params.L) if P[t, t + 1] == 0.0]
    n = (stuck[0] if stuck else params.L) + 1
    A = (P[:n, :n] - np.eye(n)).T
    A[-1, :] = 1.0
    rhs = np.zeros(n)
    rhs[-1] = 1.0
    eta = np.zeros(params.L + 1)
    eta[:n] = np.linalg.solve(A, rhs)
    return eta


def brute_force_equilibrium(params: ProtocolParams, env: NetworkEnv,
                            tol: float = 1e-9) -> bool:
    """Equilibrium verdict by enumerating every deterministic one-period
    deviation rule (a full map from client reputation to serve / refuse) for
    every own reputation.

    Deviation algebra, from first principles: a deviating peer's compliance
    bit trips with certainty (every contact is reported), so its end-of-
    period lottery is keep-own-reputation with probability
    beta**(L - t + 1), else fall to 0, regardless of which entries deviated.
    Refusing prescribed uploads saves their share of the period's lam*b*c
    cost (client reputations weighted by the stationary profile of active
    requesters); serving an extra client class costs c per off-path contact.
    """
    L, h_o, beta = params.L, params.h_o, params.beta
    alpha = error_punish_prob(env, params.b)
    delta = env.delta
    rate_cost = env.lam * params.b * env.c

    dist = stationary_for_regime(params, env)
    v_inf = value_iterate_v_inf(params, env)
    P = transition_matrix(params, env)

    # requester weights: active clients, conditioned on being active
    weights = np.zeros(L + 1)
    active_mass = dist.eta[h_o:].sum()
    if active_mass > 0:
        weights[h_o:] = dist.eta[h_o:] / active_mass

    for t in range(L + 1):
        e_comply = float(P[t] @ v_inf)
        keep = beta ** (L - t + 1)
        e_deviate = keep * v_inf[t] + (1.0 - keep) * v_inf[0]
        prescribed = np.array([t >= h_o and c >= params.m_o[t - h_o] if t >= h_o else False
                               for c in range(L + 1)])
        for rule in itertools.product((False, True), repeat=L + 1):
            rule = np.array(rule)
            if (rule == prescribed).all():
                continue
            saved = rate_cost * float(weights[prescribed & ~rule].sum())
            extra = env.c * int((rule & ~prescribed).sum())
            gain = saved - extra + delta * (e_deviate - e_comply)
            if gain > tol:
                return False
    return True


def tft_closed_form(env: NetworkEnv, b: int, p_c: float = 0.0) -> bool:
    """Tit-for-tat's one-shot-deviation verdict in closed form.

    Compliant play makes next-period reputation independent of the current
    one (1 when the period was clean), so the discounted gap between the two
    reputations equals the one-period service gap: full service minus
    whatever altruists feed a zero-reputation peer (their supply p_c over the
    reciprocative demand 1 - p_c, capped at 1).  A deviator saves up to a
    full period of upload cost (lam*b*c) and spends one period at reputation
    0, so the rule survives iff lam*b*c <= delta*(1-alpha)*gap, alpha being
    the per-period error-punishment probability.  Malicious peers are left
    out (env.p_d is ignored).
    """
    rate = env.lam * b
    fed = min(1.0, p_c / max(1.0 - p_c, p_c)) if p_c > 0.0 else 0.0
    gap = rate * (1.0 - env.eps) * env.r * (1.0 - fed)
    return env.c * rate <= env.delta * (1.0 - error_punish_prob(env, b)) * gap + 1e-12


def uniform_service_slack(env: NetworkEnv, b: int, h_o: int) -> float:
    """Per-request service-constraint slack in the harsh-punishment uniform
    regime, in closed form.  Every active rung has the same discounted value
    v(h_o) = lam*b*[(1-eps)*r - c] / (1 - delta*(1-alpha) - alpha*delta**(h_o+1)),
    and the binding constraint delta*(1-alpha)*(1 - delta**h_o)*v(h_o) >=
    lam*b*c divides through by lam*b:

        delta*(1-alpha)*(1 - delta**h_o)*net/denominator - c.

    Independent of L; the check's serve_slack is lam*b times it.
    """
    alpha = error_punish_prob(env, b)
    delta = env.delta
    net = (1.0 - env.eps) * env.r - env.c
    denom = 1.0 - delta * (1.0 - alpha) - alpha * delta ** (h_o + 1)
    return delta * (1.0 - alpha) * (1.0 - delta ** h_o) * net / denom - env.c


def smallest_feasible_h_o(env: NetworkEnv, b: int, check, h_max: int = 200):
    """Sweep 1..h_max for the first activity threshold passing `check`."""
    for h_o in range(1, h_max + 1):
        if check(env, b, h_o):
            return h_o
    return None


def fewest_self_service_drops(clients, servers) -> int:
    """Fewest (client, server) pairs a pool must drop so that no peer serves
    itself, when its servers may be reassigned freely: every distinct
    ordering of the server multiset is tried."""
    best = max(sum(c != s for c, s in zip(clients, order))
               for order in set(itertools.permutations(servers)))
    return len(clients) - best


def serial_bisect(ok, lo: float, hi: float, tol: float):
    """Halve [lo, hi] to width tol one midpoint at a time, keeping ok(lo) and
    not ok(hi); returns the bracket and the number of halvings."""
    halvings = 0
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if ok(mid):
            lo = mid
        else:
            hi = mid
        halvings += 1
    return lo, hi, halvings


def pick_by_rank(runs: list, quota) -> np.ndarray:
    """The replicas' picks laid end to end: replica r picks the elements
    holding the quota[r] smallest of its run's uniforms runs[r]."""
    masks = []
    for u, q in zip(runs, quota):
        mask = np.zeros(len(u), dtype=bool)
        mask[np.argsort(u, kind="stable")[:q]] = True
        masks.append(mask)
    return np.concatenate(masks)


def deviation_gain_full_horizon(config: SimConfig, theta: int, n_pairs: int) -> float:
    """`measure_deviation_gain` as one batch of every pair run for all
    n_periods, with no early stop: the same start reputations, deviant and
    pairing, so it must give the same gain bit for bit."""
    dist = stationary_for_regime(config.params, config.analytic_env())
    configs = []
    for i in range(n_pairs):
        seed_i = config.seed + i
        reps = sim._run_rng((seed_i,), 0xD5).choice(config.params.L + 1, size=config.n_peers,
                                                     p=dist.eta)
        reps[0] = theta
        base = config.replace(seed=seed_i, init_reputations=reps, deviant_policy=None)
        configs += [base, base.replace(deviant_policy=DeviantPolicy(peer_id=0, window=(0, 1)))]
    traces = run_replicas(configs)
    return float(np.mean([dev.discounted_utility[0] - base.discounted_utility[0]
                          for base, dev in zip(traces[::2], traces[1::2])]))


class Action(enum.Enum):
    """What a server can do with an incoming chunk request."""

    SERVE = "serve"
    NOT_SERVE = "not_serve"


def social_strategy(params: ProtocolParams, server_rep: int, client_rep: int) -> Action:
    """Prescribed action of a server toward a client, by reputations alone.

    Serve iff the server is active (server_rep >= h_o) and the client clears
    the server's client threshold (client_rep >= m_o(server_rep)).
    """
    if server_rep >= params.h_o and client_rep >= params.m_o[server_rep - params.h_o]:
        return Action.SERVE
    return Action.NOT_SERVE


def phi_compliance(params: ProtocolParams, server_rep: int, client_rep: int,
                   action_taken: Action) -> int:
    """Per-transaction compliance bit: 0 if the action matches the prescribed
    rule, 1 otherwise.  The tracker ORs these bits over a period."""
    return 0 if action_taken == social_strategy(params, server_rep, client_rep) else 1


def reputation_update(params: ProtocolParams, rep: int, x: int, forgiven: int = 0) -> int:
    """End-of-period reputation transition.

    x = 0 (clean period): climb one step, capped at L.
    x = 1 (at least one non-compliant transaction): drop to 0, unless the
    forgiveness lottery came up (forgiven = 1), in which case the reputation
    is unchanged.  The caller draws `forgiven` with probability
    forgiveness_prob(params, rep); the analytic modules integrate over that
    lottery and the simulator samples it.
    """
    if x == 0:
        return min(params.L, rep + 1)
    if forgiven:
        return rep
    return 0
