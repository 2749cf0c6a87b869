"""Optimal protocol design: pick the utility-maximizing sustainable protocol.

The four nested problems are one search over (m_o, b) cells: over the
uniform threshold vectors or, for OSNE_VPS, all of them; with a beta column
per cell for OSNE_VP and OSNE_VPS, and once per altruist fraction for
OSNE_AH.  `check_equilibria` scores the cells in blocks, and one np.lexsort
over the candidates' columns picks the winner.  The discrete axes stay
exhaustive, so every problem matches brute force.

Ties in utility break deterministically: smallest activity threshold, then
most connections, then most forgiveness, then the lexicographically smallest
client-threshold vector, then the smallest altruist fraction.
"""

from __future__ import annotations

import collections
import functools
import itertools
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .incentives import (BISECT_TOL_BETA, _along, _edge, blocks, check_equilibria,
                         check_equilibrium, collapsed_social_utility)
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
        if self.problem == "OSNE_VPS" and self.L > 6:
            raise ValueError("threshold-vector search enumerates m_o; keep L <= 6")
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
    altruists alone and needs no incentive constraint).  stats counts the
    candidates, the check_equilibria calls and the points they checked.
    search_log, built on first read, holds a (candidate, slack, utility) per
    candidate, utility None if the check fails, slack None if none applies.
    """

    params: Optional[ProtocolParams]
    utility: float
    feasible: bool
    pC_star: Optional[float] = None
    stats: dict = field(default_factory=dict)
    _log: Callable = field(default=list, repr=False, compare=False)

    @functools.cached_property
    def search_log(self) -> list:
        return self._log()


def _search(spec: DesignSpec, vectors=None, scan=False, fractions=(),
            collapsed=(np.empty(0), np.empty(0))) -> DesignResult:
    """Best sustainable candidate over every (m_o, b) cell, once per altruist
    fraction (outermost; fractions replace the env's p_c), then over the
    `collapsed` (p_c, utility) pairs: OSNE_AH's fractions above one half,
    candidates at h_o = 1 and b = b_cap that no check applies to.  vectors
    default to the uniform ones.  The cells go to check_equilibria in blocks
    that span vectors and fractions.  With a scan a cell is a column of betas
    on the beta_grid, and its candidate is its first passing beta (its first
    if none passes): the passing set need not be an interval.  The candidates
    are the columns of one array, with rows utility, h_o, b, beta, m_o (an
    index into vectors), p_c, verdict and slack, and one np.lexsort picks the
    winner: within one h_o the vectors come sorted, so their index orders
    them as m_o does.  A scanned winner is refined, and its entry then ends
    the log as ("refined", ..., beta)."""
    vectors = vectors or [(h_o,) * (spec.L - h_o + 1) for h_o in range(1, spec.L + 1)]
    p_cs, parts = np.array(fractions or [spec.env.p_c]), []
    betas = np.minimum(1.0, np.arange(int(round(1.0 / spec.beta_grid)), -1, -1)
                       * spec.beta_grid) if scan else np.zeros(1)
    grid = Points.of([ProtocolParams(L=spec.L, h_o=spec.L + 1 - len(m_o), b=b, m_o=m_o)
                      for m_o in vectors for b in range(1, spec.b_cap + 1)], spec.env)
    for cells in blocks(np.arange(len(p_cs) * len(grid)), spec.L, len(betas)):
        rows = np.repeat(cells, len(betas))
        block = grid.take(rows % len(grid)).replace(beta=np.tile(betas, len(cells)),
                                                    p_c=p_cs[rows // len(grid)])
        rep = check_equilibria(block)
        first = np.arange(0, len(block), len(betas)) + \
            rep.is_equilibrium.reshape(-1, len(betas)).argmax(axis=1)
        parts.append(np.array([rep.social_utility, block.h_o, block.b, block.beta,
                               rows % len(grid) // spec.b_cap, block.p_c, rep.is_equilibrium,
                               rep.serve_slack])[:, first])
    high, objective = collapsed
    one, zero = np.ones(len(high)), np.zeros(len(high))
    cols = np.concatenate(parts + [[objective, one, spec.b_cap * one, zero, zero, high, one,
                                    zero]], axis=1)
    checked = cols.shape[1] - len(high)
    # an unchecked entry has no slack and keeps the numpy float of its utility
    unchecked = [((1, spec.b_cap, p_c), None, u) for p_c, u in zip(high.tolist(), objective)]
    stats = collections.Counter(candidates=cols.shape[1], evaluator_calls=len(parts),
                                points_checked=len(p_cs) * len(grid) * len(betas))
    log = functools.partial(_log, vectors=vectors, scan=scan, altruists=bool(fractions))
    passing, refined = np.flatnonzero(cols[6]), []
    result = DesignResult(None, 0.0, len(passing) > 0, stats=stats,
                          _log=lambda: log(cols[:, :checked]) + unchecked + refined)
    if len(passing):
        u, h_o, b, beta, v, p_c = cols[:6, passing]
        i = passing[np.lexsort((p_c, v, -beta, -b, h_o, -u))[0]]
        entry, _, result.utility = log(cols[:, [i]])[0] if i < checked else unchecked[i - checked]
        result.params = ProtocolParams(L=spec.L, h_o=int(cols[1, i]), b=int(cols[2, i]),
                                       beta=cols[3, i].item(), m_o=vectors[int(cols[4, i])])
        result.pC_star = cols[5, i].item() if fractions else None
        if scan:
            result.params, result.utility = _refine(result.params, spec.env, betas, stats)
            refined.append((("refined", *entry[:-1], result.params.beta), None, result.utility))
    return result


def _log(cols: np.ndarray, vectors: list, scan: bool, altruists: bool) -> list:
    """search_log triples of checked candidates' columns.  An entry is
    (h_o, b); a scan adds m_o and the first passing beta (None, and no slack,
    if none passes), and altruists add p_c."""
    log = []
    for u, h_o, b, beta, v, p_c, ok, slack in cols.T.tolist():
        entry = (int(h_o), int(b))
        if scan:
            entry, slack = entry + (vectors[int(v)], beta if ok else None), slack if ok else None
        elif altruists:
            entry += (p_c,)
        log.append((entry, slack, u if ok else None))
    return log


def _refine(params: ProtocolParams, env: NetworkEnv, betas: np.ndarray, stats) -> tuple:
    """params with beta bisected to the boundary in its grid cell, and its utility."""
    def passes(values):
        stats.update(evaluator_calls=1, points_checked=len(values))
        return _along(params, env, "beta", values)
    # the cell up to the next grid beta, or to 1.0 above the top of a grid
    # that does not divide 1 (the one end the scan left unchecked)
    hi = float(betas[betas > params.beta].min(initial=1.0))
    refined = params.replace(beta=_edge(passes, [params.beta, hi], BISECT_TOL_BETA))
    stats.update(evaluator_calls=1, points_checked=1)  # the refined utility's check
    return refined, check_equilibrium(refined, env).social_utility


def solve(spec: DesignSpec) -> DesignResult:
    """Dispatch to the solver matching spec.problem."""
    return {"OSNE": solve_osne, "OSNE_VP": solve_osne_vp, "OSNE_VPS": solve_osne_vps,
            "OSNE_AH": solve_osne_ah}[spec.problem](spec)


def solve_osne(spec: DesignSpec) -> DesignResult:
    """Best (h_o, b) under harsh punishment and uniform thresholds, by
    checking every pair in the env's population regime."""
    return _search(spec)


def solve_osne_vp(spec: DesignSpec) -> DesignResult:
    """Best (h_o, b, beta) under uniform client thresholds.

    Social utility rises with beta while the slack falls, so for each (h_o, b)
    the best forgiveness is the largest feasible one.  This is OSNE_VPS's
    search restricted to the L uniform vectors: candidates compete at
    beta_grid resolution, and the winner's beta is raised to the boundary.
    """
    return _search(spec, scan=True)


def solve_osne_vps(spec: DesignSpec) -> DesignResult:
    """Best (h_o, b, beta, m_o) over per-reputation client thresholds.

    Raising a server's client threshold lightens its upload load and deepens
    the punishment (a punished peer re-enters through costly rungs), so
    non-uniform vectors trade a sliver of utility for feasibility headroom.
    Every b's beta column is checked for each of the C(2L, L) - 1 vectors
    (923 at L = 6, 3,431 at L = 7); DesignSpec caps L at 6.  Utility depends
    on m_o only through m_o(h_o); ties break toward the smallest vector.
    """
    return _search(spec, scan=True, vectors=[
        m_o for h_o in range(1, spec.L + 1) for m_o in
        itertools.combinations_with_replacement(range(1, spec.L + 1), spec.L - h_o + 1)])


def solve_osne_ah(spec: DesignSpec) -> DesignResult:
    """Best (h_o, b, p_c) with a designer-deployed altruist fraction.

    Below one half the objective needs reciprocative compliance, checked with
    the altruist-aware utilities; above one half altruists alone carry the
    network (free-riding is the anticipated behavior), the objective becomes
    lam*b*(1-p_c)*((1-eps)*r - c), and no incentive constraint applies.  The
    two regimes compete on utility, which is why the optimum can sit above
    the compliance boundary.
    """
    p_cs = np.minimum(1.0, np.arange(int(round(1.0 / spec.pC_grid)) + 1) * spec.pC_grid)
    high = p_cs[p_cs > 0.5]
    return _search(spec, fractions=p_cs[p_cs <= 0.5].tolist(),
                   collapsed=(high, collapsed_social_utility(spec.env, spec.b_cap, high)))
