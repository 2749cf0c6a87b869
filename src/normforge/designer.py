"""Optimal protocol design: pick the utility-maximizing sustainable protocol.

The four nested problems are one exact best-first search over (m_o, b)
cells: over the uniform threshold vectors or, for OSNE_VPS, all of them;
with a beta column per cell for OSNE_VP and OSNE_VPS, and once per altruist
fraction for OSNE_AH.  A candidate's utility depends on its vector only
through m_o(h_o), so the points sharing (h_o, m_o(h_o), b, beta, p_c), a
class, share one stationary profile and one utility.  A utility pass solves
one point per class and ranks the classes by the tie key.  The walk then
checks the points of the classes in that order, in blocks, on their class's
profile, and stops at the first class ranked after the best candidate found:
no point it skips can beat that one, so every problem matches brute force.

Ties in utility break deterministically: smallest activity threshold, then
most connections, then most forgiveness, then the lexicographically smallest
client-threshold vector, then the smallest altruist fraction.
"""

from __future__ import annotations

import collections
import functools
import itertools
import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .incentives import (BISECT_TOL_BETA, _along, _edge, blocks, check_equilibria,
                         check_equilibrium, collapsed_social_utility, social_utility)
from .model import NetworkEnv, Points, ProtocolParams
from .stationary import ReputationDistribution, check_regime, stationary_for_regime

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
        if self.problem == "OSNE_VPS" and self.L > 8:
            raise ValueError("threshold-vector search checks vectors by class; keep L <= 8")
        if self.problem == "OSNE_AH" and self.env.p_c != 0.0:
            raise ValueError("OSNE_AH deploys its own altruist fraction: keep the env's p_c 0")
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
    candidates, the evaluator calls (the utility pass's and the checks') and
    the points they took.  search_log, built on first read, holds a
    (candidate, slack, utility) per candidate, utility None if the check
    fails, slack None if none applies.
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
    fraction (ascending, with one vector per class; they replace the env's
    p_c), and over the `collapsed` (p_c, utility) pairs: OSNE_AH's fractions
    above one half, candidates at h_o = 1 and b = b_cap that no check applies
    to, ranked among the classes.  vectors default to the uniform ones.  With
    a scan a cell is a column of betas on the beta_grid, and its candidate is
    its first passing beta: the passing set need not be an interval, so a
    cell that passes has its unchecked higher betas checked first.  A scanned
    winner is refined, and its entry then ends the log as ("refined", ...,
    beta).  search_log takes the walk without the stop."""
    L, B, (high, objective) = spec.L, spec.b_cap, collapsed
    vectors = vectors or [(h_o,) * (L - h_o + 1) for h_o in range(1, L + 1)]
    p_cs, grid = np.array(fractions or [spec.env.p_c]), Points.of_vectors(L, vectors, spec.env)
    betas = np.minimum(1.0, np.arange(int(round(1.0 / spec.beta_grid)), -1, -1)
                       * spec.beta_grid) if scan else np.zeros(1)
    cells = (len(p_cs), len(vectors), B)
    stats = collections.Counter(candidates=math.prod(cells) + len(high))
    # a class's vectors are a run of the list, which is sorted by h_o, then m_o
    first = np.flatnonzero(np.diff(grid.h_o * (L + 1) + grid.eligibility, prepend=0))
    cls = np.repeat(np.arange(len(first)), np.diff(first, append=len(vectors)))
    shape = (len(p_cs), len(first), B, len(betas))
    # the class points, beta innermost, then the collapsed pairs as points at
    # h_o = 1, b = b_cap and beta = 0 with no vectors to check
    n, tail = math.prod(shape), np.arange(len(high))
    f, c, b, k = np.concatenate([np.indices(shape).reshape(4, -1), [
        len(p_cs) + tail, 0 * tail, B - 1 + 0 * tail, len(betas) - 1 + 0 * tail]], axis=1)

    def points(q, v):
        return grid.take(v).replace(b=b[q] + 1.0, beta=betas[k[q]], p_c=p_cs[f[q]])

    u, eta, mu = np.append(np.empty(n), objective), np.empty((L + 1, n)), np.empty(n)
    for q in blocks(np.arange(n), L):
        block = points(q, first[c[q]])
        dist = stationary_for_regime(block)
        u[q], eta[:, q], mu[q] = social_utility(block, dist), dist.eta.T, dist.mu
        stats.update(evaluator_calls=1, points_checked=len(q))
    order = np.argsort(np.ravel_multi_index(  # by the tie key
        (np.unique(-u, return_inverse=True)[1], grid.h_o[first[c]].astype(int), B - 1 - b, k,
         first[c], f), (len(u), L + 1, B, len(betas), len(vectors), len(p_cs) + len(high))))
    rank, sizes = np.argsort(order), np.where(f < len(p_cs), np.bincount(cls)[c], 0)[order]
    ends = np.cumsum(sizes)  # where each class point's points end in the walk

    def check(q, v, stats):
        ok, slack = np.zeros(len(q), bool), np.empty(len(q))
        for rows in blocks(np.arange(len(q)), L):
            block = points(q[rows], v[rows])
            rep = check_equilibria(block, ReputationDistribution(
                eta.take(q[rows], axis=1).T, mu[q[rows]], block.alpha))
            ok[rows], slack[rows] = rep.is_equilibrium, rep.serve_slack
            stats.update(evaluator_calls=1, points_checked=len(rows))
        return ok, slack

    def walk(stats, stop=True):
        """Each cell's candidate class point (its first beta's if none
        passes), whether it passes and its slack, and the best rank."""
        fi, v, bi = np.indices(cells).reshape(3, -1)
        cand, won = np.ravel_multi_index((fi, cls[v], bi, 0 * v), shape), np.zeros(len(v), bool)
        slack, checked = np.full(len(v), np.nan), np.zeros((len(v), len(betas)), bool)
        best = rank[n:].min(initial=len(rank))  # the collapsed pairs enter first
        for span in blocks(range(ends[-1]), L):
            pos = np.arange(span.start, span.stop)
            i = np.searchsorted(ends, pos, "right")
            if stop and i[0] > best:
                break
            q, v = order[i], first[c[order[i]]] + pos - ends[i] + sizes[i]
            cell = np.ravel_multi_index((f[q], v, b[q]), cells)
            todo = np.flatnonzero(~won[cell])[np.argsort(k[q][~won[cell]], kind="stable")]
            q, v, cell = q[todo], v[todo], cell[todo]  # higher betas first
            (ok, s), checked[cell, k[q]] = check(q, v, stats), True
            slack[cell] = s
            # a passing cell's unchecked higher betas, then its candidate: its
            # first passing point, higher betas first
            new, at = np.unique(cell[ok], return_index=True)
            r, j = np.nonzero((np.arange(len(betas)) < k[q[ok][at]][:, None]) & ~checked[new])
            up = q[ok][at][r] - k[q[ok][at][r]] + j  # beta is the class points' last axis
            ok_up, s_up = check(up, v[ok][at][r], stats)
            new, at = np.unique(np.concatenate([new[r][ok_up], cell[ok]]), return_index=True)
            cand[new], won[new] = np.concatenate([up[ok_up], q[ok]])[at], True
            slack[new] = np.concatenate([s_up[ok_up], s[ok]])[at]
            best = min(best, rank[cand[new]].min(initial=best))
        return cand, won, slack, best

    def entries(cand, won, slack, cell):
        """search_log triples of cells.  An entry is (h_o, b); a scan adds m_o
        and the first passing beta (None, and no slack, if none passes), and
        fractions add p_c."""
        log = []
        for q, v, ok, gap in zip(cand[cell].tolist(), np.unravel_index(cell, cells)[1].tolist(),
                                 won[cell].tolist(), slack[cell].tolist()):
            entry = (int(grid.h_o[v]), int(b[q]) + 1)
            if scan:
                entry, gap = entry + (vectors[v], betas[k[q]].item() if ok else None), \
                    gap if ok else None
            elif fractions:
                entry += (p_cs[f[q]].item(),)
            log.append((entry, gap, u[q].item() if ok else None))
        return log

    cand, won, slack, best = walk(stats)
    win = np.flatnonzero(won & (rank[cand] == best))[:1]  # the smallest vector of its class
    # an unchecked entry has no slack and keeps the numpy float of its utility
    unchecked, refined = [((1, B, p_c), None, u) for p_c, u in zip(high.tolist(), objective)], []
    result = DesignResult(None, 0.0, bool(best < len(rank)), stats=stats, _log=lambda: entries(
        *walk(collections.Counter(), stop=False)[:3], np.arange(len(cand))) + unchecked + refined)
    if best < len(rank):  # the winner's entry gives its params
        entry, _, result.utility = entries(cand, won, slack, win)[0] if len(win) else \
            unchecked[int(np.flatnonzero(rank[n:] == best)[0])]
        result.params = ProtocolParams(L=L, h_o=entry[0], b=entry[1], **(
            {"m_o": entry[2], "beta": entry[3]} if scan else {}))
        result.pC_star = entry[2] if fractions else None
    if scan and result.feasible:
        result.params, result.utility = _refine(result.params, spec.env, betas, stats)
        refined.append((("refined", *entry[:-1], result.params.beta), None, result.utility))
    return result


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
    There are C(2L, L) - 1 vectors (12,869 at L = 8) but only L**2 classes
    per (b, beta), and the walk checks the vectors of the classes that rank
    above the winner; DesignSpec caps L at 8.  Ties break toward the
    smallest vector.
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
