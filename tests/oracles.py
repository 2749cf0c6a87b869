"""Independent oracles used to cross-check the library's fast paths.

Everything here recomputes quantities through a different route than the
library: discounted values by value iteration and by a dense linear solve on
the full kernel instead of back-substitution down the ladder, stationary
profiles by an LU null-space solve on the full kernel instead of
the product over the reputation ladder, and equilibrium verdicts by
enumerating every deterministic one-period deviation rule instead of the
two-constraint reduction, and the simulator's self-service fix by trying every
reassignment of a pool's servers instead of swapping clashes away.  The
scalar decision rules at the end (one server, one client, one peer at a time)
are the reference for the simulator's vectorised service table and
reputation update.
"""

from __future__ import annotations

import enum
import itertools

import numpy as np

from normforge import (
    NetworkEnv,
    ProtocolParams,
    error_punish_prob,
    one_period_utilities,
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
        prescribed = np.array([t >= h_o and c >= params.m_o_at(t) if t >= h_o else False
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


class Action(enum.Enum):
    """What a server can do with an incoming chunk request."""

    SERVE = "serve"
    NOT_SERVE = "not_serve"


def social_strategy(params: ProtocolParams, server_rep: int, client_rep: int) -> Action:
    """Prescribed action of a server toward a client, by reputations alone.

    Serve iff the server is active (server_rep >= h_o) and the client clears
    the server's client threshold (client_rep >= m_o(server_rep)).
    """
    if server_rep >= params.h_o and client_rep >= params.m_o_at(server_rep):
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
