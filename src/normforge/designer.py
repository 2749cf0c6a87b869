"""Optimal protocol design: pick the utility-maximizing sustainable protocol.

Each of the four nested problems only generates candidates; one search loop
keeps the best sustainable one.  `check_equilibria` scores a block of
candidates per call: all (h_o, b) cells for OSNE and for each altruist
fraction of OSNE_AH, and a threshold vector's beta column for every b in
the forgiveness search, which OSNE_VPS runs over every client-threshold
vector and OSNE_VP over the uniform ones.  The discrete axes stay
exhaustive, so every problem matches brute force.

Ties in utility break deterministically: smallest activity threshold, then
most connections, then most forgiveness, then the lexicographically smallest
client-threshold vector, then the smallest altruist fraction.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .incentives import (BISECT_TOL_BETA, _bisect, blocks, check_equilibria, check_equilibrium,
                         collapsed_social_utility)
from .model import NetworkEnv, Points, ProtocolParams
from .stationary import check_regime

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

    stationary.check_regime must admit the env for what the problem explores.
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
        # check_regime on what the problem explores: forgiveness (VP, VPS), a
        # non-uniform threshold vector (VPS), deployed altruists (AH)
        check_regime(ProtocolParams(
            L=self.L, h_o=1, b=1, beta=float(self.problem in ("OSNE_VP", "OSNE_VPS")),
            m_o=(1,) * (self.L - 1) + (self.L,) if self.problem == "OSNE_VPS" else None),
            self.env.replace(p_c=self.pC_grid) if self.problem == "OSNE_AH" else self.env)


@dataclass
class DesignResult:
    """Outcome of a design search.

    feasible is True when some candidate sustains cooperation (for OSNE_AH an
    altruist fraction above one half also counts: service then runs on
    altruists alone and needs no incentive constraint).  search_log holds one
    (candidate, slack, utility) triple per evaluated candidate; utility is
    None when the check fails and slack is None where no check applies.
    """

    params: Optional[ProtocolParams]
    utility: float
    feasible: bool
    pC_star: Optional[float] = None
    search_log: list = field(default_factory=list)


def _tie_key(utility: float, params: ProtocolParams, p_c: Optional[float]):
    return (-utility, params.h_o, -params.b, -params.beta, params.m_o, p_c or 0.0)


def _search(cells, refine=None) -> DesignResult:
    """Log every cell (log entry, params, slack, utility or None when not
    sustainable, deployed altruist fraction or None) and keep the best one.
    `refine(params)` moves the winner's beta off its grid and returns it with
    its utility; the winner's entry, beta last, is then logged again as
    ("refined", ..., beta).
    """
    log, best = [], None
    for entry, params, slack, u, p_c in cells:
        log.append((entry, slack, u))
        if u is None:
            continue
        key = _tie_key(u, params, p_c)
        if best is None or key < best[0]:
            best = (key, entry, params, u, p_c)
    if best is None:
        return DesignResult(params=None, utility=0.0, feasible=False, search_log=log)
    _, entry, params, u, p_c = best
    if refine is not None:
        params, u = refine(params)
        log.append((("refined", *entry[:-1], params.beta), None, u))
    return DesignResult(params=params, utility=u, feasible=True, pC_star=p_c, search_log=log)


def solve(spec: DesignSpec) -> DesignResult:
    """Dispatch to the solver matching spec.problem."""
    return {"OSNE": solve_osne, "OSNE_VP": solve_osne_vp, "OSNE_VPS": solve_osne_vps,
            "OSNE_AH": solve_osne_ah}[spec.problem](spec)


def _osne_grid(spec: DesignSpec) -> list:
    return [ProtocolParams(L=spec.L, h_o=h_o, b=b)
            for h_o in range(1, spec.L + 1) for b in range(1, spec.b_cap + 1)]


def _osne_cells(grid: list, env: NetworkEnv, p_c=None):
    for block in blocks(grid, grid[0].L):
        rep = check_equilibria(Points.of(block, env))
        scored = zip(rep.serve_slack.tolist(), rep.social_utility.tolist(), rep.is_equilibrium)
        for params, (slack, u, ok) in zip(block, scored):
            yield ((params.h_o, params.b) if p_c is None else (params.h_o, params.b, p_c),
                   params, slack, u if ok else None, p_c)


def solve_osne(spec: DesignSpec) -> DesignResult:
    """Best (h_o, b) under harsh punishment and uniform thresholds, by
    checking every pair in the env's population regime."""
    return _search(_osne_cells(_osne_grid(spec), spec.env))


def _forgiveness_search(spec: DesignSpec, vectors) -> DesignResult:
    """Best (h_o, b, beta, m_o) over the given (h_o, m_o) threshold vectors.

    For each vector every b's beta column is checked top-down on the
    beta_grid, and each cell's candidate is its first passing beta.  The scan
    does not assume that the forgiveness-feasible set is an interval: under
    non-uniform thresholds a vector can fail harsh punishment yet pass at
    interior beta, which a bisection from beta = 0 would miss.  The winner's
    beta is then bisected toward the boundary inside its grid cell.
    """
    env = spec.env
    betas = np.minimum(1.0, np.arange(int(round(1.0 / spec.beta_grid)), -1, -1) * spec.beta_grid)

    def cells():
        for h_o, m_o in vectors:
            bases = [ProtocolParams(L=spec.L, h_o=h_o, b=b, m_o=m_o)
                     for b in range(1, spec.b_cap + 1)]
            for block in blocks(bases, spec.L, len(betas)):
                column = Points.of(block, env).take(np.repeat(np.arange(len(block)), len(betas)))
                rep = check_equilibria(column.replace(beta=np.tile(betas, len(block))[:, None]))
                first = rep.is_equilibrium.reshape(len(block), -1).argmax(axis=1)
                for j, (base, k) in enumerate(zip(block, first)):
                    i = j * len(betas) + k
                    if not rep.is_equilibrium[i]:
                        yield (h_o, base.b, m_o, None), base, None, None, None
                        continue
                    params = base.replace(beta=float(betas[k]))
                    yield ((h_o, base.b, m_o, params.beta), params,
                           float(rep.serve_slack[i]), float(rep.social_utility[i]), None)

    def refine(params):
        # the scan saw every grid beta above the winner fail; above the top of
        # a grid that does not divide 1, beta = 1 is still unchecked
        def ok(beta):
            return check_equilibrium(params.replace(beta=beta), env).is_equilibrium

        hi = float(betas[betas > params.beta].min(initial=1.0))
        beta = hi if hi > betas[0] and ok(hi) else _bisect(ok, params.beta, hi, BISECT_TOL_BETA)[0]
        refined = params.replace(beta=beta)
        return refined, check_equilibrium(refined, env).social_utility

    return _search(cells(), refine)


def solve_osne_vp(spec: DesignSpec) -> DesignResult:
    """Best (h_o, b, beta) under uniform client thresholds.

    Social utility rises with beta while the slack falls, so for each (h_o, b)
    the best forgiveness is the largest feasible one.  This is OSNE_VPS's
    search restricted to the L uniform vectors: candidates compete at
    beta_grid resolution, and the winner's beta is raised to the boundary.
    """
    return _forgiveness_search(spec, ((h_o, (h_o,) * (spec.L - h_o + 1))
                                      for h_o in range(1, spec.L + 1)))


def solve_osne_vps(spec: DesignSpec) -> DesignResult:
    """Best (h_o, b, beta, m_o) over per-reputation client thresholds.

    Raising a server's client threshold lightens its upload load and deepens
    the punishment (a punished peer re-enters through costly rungs), so
    non-uniform vectors trade a sliver of utility for feasibility headroom.
    Every b's beta column is checked for each of the C(2L, L) - 1 vectors
    (923 at L = 6, 3,431 at L = 7), so L stays <= 6.  Utility depends on m_o
    only through m_o(h_o); ties break toward the smallest vector.
    """
    if spec.L > 6:
        raise ValueError("threshold-vector search enumerates m_o; keep L <= 6")
    return _forgiveness_search(spec, (
        (h_o, m_o) for h_o in range(1, spec.L + 1) for m_o in
        itertools.combinations_with_replacement(range(1, spec.L + 1), spec.L - h_o + 1)))


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
    n_steps = int(round(1.0 / spec.pC_grid))
    grid = _osne_grid(spec)

    def cells():
        for i in range(n_steps + 1):
            p_c = min(1.0, i * spec.pC_grid)
            if p_c <= 0.5:
                yield from _osne_cells(grid, env.replace(p_c=p_c), p_c)
            else:
                params = ProtocolParams(L=spec.L, h_o=1, b=spec.b_cap)
                yield ((1, spec.b_cap, p_c), params, None,
                       collapsed_social_utility(env, spec.b_cap, p_c), p_c)

    return _search(cells())
