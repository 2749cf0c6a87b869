"""Optimal protocol design: pick the utility-maximizing sustainable protocol.

Four nested problems share one pattern: enumerate candidate designs, keep the
ones that survive the one-shot-deviation check, and return the social-utility
maximizer.  The searches lean on proved monotonicities (utility rises with b
and with forgiveness, slack falls with b and forgiveness, slack rises with the
activity threshold) but stay exhaustive over the small discrete axes so they
provably match brute-force enumeration.

Ties in utility break deterministically: smallest activity threshold, then
most connections, then most forgiveness, then the lexicographically smallest
client-threshold vector, then the smallest altruist fraction.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Optional

from .incentives import (
    check_equilibrium,
    collapsed_social_utility,
    max_connections,
    max_forgiveness,
    social_utility,
)
from .model import NetworkEnv, ProtocolParams
from .stationary import stationary_for_regime

PROBLEMS = ("OSNE", "OSNE_VP", "OSNE_VPS", "OSNE_AH")


@dataclass(frozen=True)
class DesignSpec:
    """Inputs to one design problem.

    problem    one of OSNE (threshold + connections), OSNE_VP (+ forgiveness),
               OSNE_VPS (+ per-reputation client thresholds), OSNE_AH
               (+ deployed altruist fraction)
    L          reputation ladder length (an input, not a decision variable)
    b_cap      system cap on concurrent connections
    beta_grid  resolution of the forgiveness search (the winner is then
               refined by bisection)
    pC_grid    resolution of the altruist-fraction grid (OSNE_AH only)
    """

    problem: str
    L: int
    b_cap: int
    env: NetworkEnv
    beta_grid: float = 0.01
    pC_grid: float = 0.01

    def __post_init__(self):
        if self.problem not in PROBLEMS:
            raise ValueError(f"problem must be one of {PROBLEMS}, got {self.problem!r}")
        if self.L < 1:
            raise ValueError(f"L must be >= 1, got {self.L}")
        if self.b_cap < 1:
            raise ValueError(f"b_cap must be >= 1, got {self.b_cap}")
        if not 0.0 < self.beta_grid <= 1.0:
            raise ValueError(f"beta_grid must be in (0, 1], got {self.beta_grid}")
        if not 0.0 < self.pC_grid <= 1.0:
            raise ValueError(f"pC_grid must be in (0, 1], got {self.pC_grid}")


@dataclass
class DesignResult:
    """Outcome of a design search.

    feasible is True when some candidate sustains cooperation (for OSNE_AH an
    altruist fraction above one half also counts: service then runs on
    altruists alone and needs no incentive constraint).  search_log holds one
    (candidate, slack, utility) triple per evaluated candidate; slack is None
    for candidates whose constraint check was not applicable.
    """

    params: Optional[ProtocolParams]
    utility: float
    feasible: bool
    pC_star: Optional[float] = None
    search_log: list = field(default_factory=list)


def _tie_key(utility: float, params: ProtocolParams, p_c: float = 0.0):
    return (-utility, params.h_o, -params.b, -params.beta, params.m_o, p_c)


def _uniform_utility(params: ProtocolParams, env: NetworkEnv) -> float:
    return social_utility(params, env, stationary_for_regime(params, env))


def solve(spec: DesignSpec) -> DesignResult:
    """Dispatch to the solver matching spec.problem."""
    return {
        "OSNE": solve_osne,
        "OSNE_VP": solve_osne_vp,
        "OSNE_VPS": solve_osne_vps,
        "OSNE_AH": solve_osne_ah,
    }[spec.problem](spec)


def solve_osne(spec: DesignSpec) -> DesignResult:
    """Best (h_o, b) under harsh punishment and uniform thresholds.

    For each activity threshold the slack is non-increasing in b, so the best
    sustainable b comes from a binary search; the utility comparison across
    thresholds is then exhaustive.
    """
    env = spec.env
    log = []
    best = None
    for h_o in range(1, spec.L + 1):
        b_star = max_connections(env, h_o, spec.b_cap)
        if b_star is None:
            log.append(((h_o, None), None, None))
            continue
        params = ProtocolParams(L=spec.L, h_o=h_o, b=b_star)
        rep = check_equilibrium(params, env)
        u = _uniform_utility(params, env)
        log.append(((h_o, b_star), rep.serve_slack, u))
        key = _tie_key(u, params)
        if best is None or key < best[0]:
            best = (key, params, u)
    if best is None:
        return DesignResult(params=None, utility=0.0, feasible=False, search_log=log)
    _, params, u = best
    return DesignResult(params=params, utility=u, feasible=True, search_log=log)


def _beta_grid_floor(beta_max: float, grid: float, params: ProtocolParams,
                     env: NetworkEnv) -> float:
    """Largest grid multiple at or below beta_max that still passes the check
    (guards the float boundary of the bisection)."""
    k = int(beta_max / grid + 1e-12)
    beta = min(1.0, k * grid)
    while beta > 0.0 and not check_equilibrium(params.replace(beta=beta), env).is_equilibrium:
        beta = max(0.0, beta - grid)
    return beta


def solve_osne_vp(spec: DesignSpec) -> DesignResult:
    """Best (h_o, b, beta): forgiveness is pushed to its feasibility boundary.

    Social utility rises with beta while the slack falls, so for each (h_o, b)
    the best forgiveness is the largest feasible one.  Candidates compete at
    beta_grid resolution; the incumbent's beta is then refined by bisection.
    """
    env = spec.env
    log = []
    best = None
    for h_o in range(1, spec.L + 1):
        for b in range(1, spec.b_cap + 1):
            base = ProtocolParams(L=spec.L, h_o=h_o, b=b)
            beta_max = max_forgiveness(base, env)
            if beta_max is None:
                log.append(((h_o, b, None), None, None))
                continue
            beta = _beta_grid_floor(beta_max, spec.beta_grid, base, env)
            params = base.replace(beta=beta)
            rep = check_equilibrium(params, env)
            u = _uniform_utility(params, env)
            log.append(((h_o, b, beta), rep.serve_slack, u))
            key = _tie_key(u, params)
            if best is None or key < best[0]:
                best = (key, params, u, beta_max)
    if best is None:
        return DesignResult(params=None, utility=0.0, feasible=False, search_log=log)
    _, params, _, beta_max = best
    refined = params.replace(beta=beta_max)
    u = _uniform_utility(refined, env)
    log.append((("refined", params.h_o, params.b, beta_max), None, u))
    return DesignResult(params=refined, utility=u, feasible=True, search_log=log)


def solve_osne_vps(spec: DesignSpec) -> DesignResult:
    """Best (h_o, b, beta, m_o) over per-reputation client thresholds.

    Raising a server's client threshold lightens its upload load and deepens
    the punishment (a punished peer re-enters through costly rungs), so
    non-uniform vectors trade a sliver of utility for feasibility headroom.
    The search covers every non-decreasing vector over 1..L (the ladder is
    short, L <= 6).  Utility depends on m_o only through the lowest threshold
    m_o(h_o), so ties are common and break toward the lexicographically
    smallest vector (the most uniform one).
    """
    if spec.L > 6:
        raise ValueError("threshold-vector search enumerates m_o; keep L <= 6")
    env = spec.env
    n_beta = int(round(1.0 / spec.beta_grid))
    log = []
    best = None
    for h_o in range(1, spec.L + 1):
        for m_o in itertools.combinations_with_replacement(range(1, spec.L + 1),
                                                         spec.L - h_o + 1):
            for b in range(1, spec.b_cap + 1):
                base = ProtocolParams(L=spec.L, h_o=h_o, b=b, m_o=m_o)
                # top-down grid scan: under non-uniform thresholds the
                # forgiveness-feasible set need not be an interval (a vector
                # can fail harsh punishment yet pass at interior beta), so
                # bisection from beta = 0 would miss candidates
                beta = None
                for k in range(n_beta, -1, -1):
                    cand = min(1.0, k * spec.beta_grid)
                    if check_equilibrium(base.replace(beta=cand, m_o=m_o), env).is_equilibrium:
                        beta = cand
                        break
                if beta is None:
                    log.append(((h_o, b, m_o, None), None, None))
                    continue
                params = base.replace(beta=beta, m_o=m_o)
                rep = check_equilibrium(params, env)
                u = _uniform_utility(params, env)
                log.append(((h_o, b, m_o, beta), rep.serve_slack, u))
                key = _tie_key(u, params)
                if best is None or key < best[0]:
                    best = (key, params, u)
    if best is None:
        return DesignResult(params=None, utility=0.0, feasible=False, search_log=log)
    _, params, u = best
    refined = _refine_beta_within_cell(params, env, spec.beta_grid)
    u = _uniform_utility(refined, env)
    log.append((("refined", refined.h_o, refined.b, refined.m_o, refined.beta), None, u))
    return DesignResult(params=refined, utility=u, feasible=True, search_log=log)


def _refine_beta_within_cell(params: ProtocolParams, env: NetworkEnv,
                             grid: float) -> ProtocolParams:
    """Push the incumbent's forgiveness toward the boundary inside its grid
    cell; the result is always re-verified so a non-monotone pocket can only
    leave beta at the already-feasible grid value."""
    lo = params.beta
    hi = min(1.0, lo + grid)
    if check_equilibrium(params.replace(beta=hi, m_o=params.m_o), env).is_equilibrium:
        return params.replace(beta=hi, m_o=params.m_o)
    for _ in range(40):
        mid = 0.5 * (lo + hi)
        if check_equilibrium(params.replace(beta=mid, m_o=params.m_o), env).is_equilibrium:
            lo = mid
        else:
            hi = mid
    return params.replace(beta=lo, m_o=params.m_o)


def solve_osne_ah(spec: DesignSpec) -> DesignResult:
    """Best (h_o, b, p_c) with a designer-deployed altruist fraction.

    Below one half the objective needs reciprocative compliance, checked with
    the altruist-aware utilities; above one half altruists alone carry the
    network (free-riding is the anticipated behavior), the objective becomes
    lam*b*(1-p_c)*((1-eps)*r - c), and no incentive constraint applies.  The
    two regimes compete on utility, which is why the optimum can sit above
    the compliance boundary.
    """
    env = spec.env
    if env.p_d != 0.0:
        raise ValueError("altruist design assumes p_d = 0")
    n_steps = int(round(1.0 / spec.pC_grid))
    log = []
    best = None
    for i in range(n_steps + 1):
        p_c = min(1.0, i * spec.pC_grid)
        if p_c > 0.5:
            b = spec.b_cap
            params = ProtocolParams(L=spec.L, h_o=1, b=b)
            u = collapsed_social_utility(env, b, p_c)
            log.append(((1, b, p_c), None, u))
            key = _tie_key(u, params, p_c)
            if best is None or key < best[0]:
                best = (key, params, u, p_c)
            continue
        env_pc = env.replace(p_c=p_c)
        for h_o in range(1, spec.L + 1):
            for b in range(1, spec.b_cap + 1):
                params = ProtocolParams(L=spec.L, h_o=h_o, b=b)
                rep = check_equilibrium(params, env_pc)
                if not rep.is_equilibrium:
                    log.append(((h_o, b, p_c), rep.serve_slack, None))
                    continue
                u = social_utility(params, env_pc, stationary_for_regime(params, env_pc))
                log.append(((h_o, b, p_c), rep.serve_slack, u))
                key = _tie_key(u, params, p_c)
                if best is None or key < best[0]:
                    best = (key, params, u, p_c)
    if best is None:
        return DesignResult(params=None, utility=0.0, feasible=False, search_log=log)
    _, params, u, p_c = best
    return DesignResult(params=params, utility=u, feasible=True, pC_star=p_c, search_log=log)
