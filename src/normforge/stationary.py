"""Stationary reputation distributions under compliant play.

The population's reputation profile evolves by a simple per-period kernel:
active peers (reputation >= h_o) climb one step unless a service error gets
them punished, punished peers fall to 0 unless forgiven, and inactive peers
climb unconditionally.  No peer climbs more than one rung and every fall
lands on 0, so the long-run distribution of that kernel is a running product
of per-rung ratios (the harsh-punishment closed form is its beta = 0 case).
This module computes that product directly (never by iteration), plus the
mixtures induced by malicious and altruistic sub-populations, for one point
(params, env) or a `Points` batch (answers then gain a leading batch axis: a
(B, L + 1) profile is a view of a rung-major one).  The ladder law is
`Points.moves`; the kernel and the product both read it.  `check_regime`
alone decides which populations the analysis can model, and mixtures come
through `stationary_for_regime` only.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import NetworkEnv, Points, ProtocolParams, batched, error_punish_prob


@dataclass
class ReputationDistribution:
    """A population profile over reputations 0..L (one row per batch point).

    eta    probability vector, eta[t] = fraction of peers at reputation t
    mu     mass at or above the activity threshold h_o
    alpha  per-period error-punishment probability the profile was built with
    """

    eta: np.ndarray
    mu: float
    alpha: float


@batched
def transition_matrix(points: Points) -> np.ndarray:
    """Row-stochastic one-period reputation kernel for a compliant peer: row
    t puts the ladder moves of `Points.moves` on t+1 (climb), t (stay) and
    0 (fall)."""
    climb, stay, fall = (m.T for m in points.moves)
    t = points.rung[:, 0]
    P = np.zeros((len(points), points.L + 1, points.L + 1))
    P[:, t[:-1], t[1:]] = climb[:, :-1]
    P[:, t, t] += stay
    P[:, t, 0] += fall
    return P


@batched
def check_regime(points: Points) -> None:
    """Raise ValueError unless the analysis can model every point: one
    non-reciprocative kind at a time, uniform client thresholds with either
    kind present (altruists also on a row where every rung uploads, h_o = 0,
    as tit-for-tat's), and harsh punishment (beta = 0) with malicious peers.
    A batch it admits is not checked again."""
    if points.admitted:
        return
    altruists, malicious = points.p_c > 0.0, points.p_d > 0.0
    if (altruists & malicious).any():
        raise ValueError("analytic profiles handle one non-reciprocative kind at a time")
    if (((altruists & (points.h_o > 0)) | malicious) & ~points.uniform).any():
        raise ValueError("mixed populations are analyzed under uniform client thresholds")
    if (malicious & (points.beta != 0.0)).any():
        raise ValueError("the malicious mixture is analyzed under harsh punishment (beta = 0)")
    points.admitted = True


def stationary_closed_form(params: ProtocolParams, env: NetworkEnv) -> ReputationDistribution:
    """Closed-form stationary profile for the harsh-punishment uniform rule.

    mu = 1 / (1 + alpha * h_o); the ladder below h_o is flat at alpha * mu,
    the stretch above decays geometrically, and the remainder piles up at L.
    Rejects beta != 0 or non-uniform thresholds (use stationary_fixed_point).
    """
    if params.beta != 0.0 or not params.uniform_thresholds:
        raise ValueError("stationary_closed_form requires beta = 0 and uniform client "
                         f"thresholds m_o = h_o, got beta={params.beta}, m_o={params.m_o}")
    L, h_o = params.L, params.h_o
    alpha = error_punish_prob(env, params.b)
    mu = 1.0 / (1.0 + alpha * h_o)
    eta = np.zeros(L + 1)
    eta[0:h_o + 1] = alpha * mu
    for t in range(h_o + 1, L):
        eta[t] = (1.0 - alpha) ** (t - h_o) * alpha * mu
    eta[L] = 1.0 - (1.0 + h_o * alpha) * mu + (1.0 - alpha) ** (L - h_o) * mu
    return ReputationDistribution(eta=eta, mu=mu, alpha=alpha)


@batched
def stationary_fixed_point(points: Points) -> ReputationDistribution:
    """Stationary profile of the general (L, beta) scheme as a product over
    the reputation ladder.

    Rung t >= 1 is entered only by a climb from t-1: no move skips a rung and
    every fall lands on 0.  Balance at t is then
    eta[t] * (climb(t) + fall(t)) = eta[t-1] * climb(t-1), with the moves of
    `Points.moves` (no peer climbs out of L).
    A running product of these non-negative ratios along the ladder gives
    the profile accurate to rounding, with no matrix, no tolerance and no
    iteration.  A rung with zero outflow keeps every peer that reaches it
    (L when alpha = 0 or beta = 1, h_o when alpha = 1 and beta = 1), so the
    first one on the way up takes all the mass.
    """
    climb, _, fall = points.moves
    out = climb[1:] + fall[1:]
    eta = np.ones_like(climb)
    np.divide(climb[:-1], out, out=eta[1:], where=out > 0.0)
    eta = np.cumprod(eta, axis=0)
    dead = out == 0.0
    if dead.any():
        sink = np.where(dead.any(axis=0), dead.argmax(axis=0) + 1, -1)
        eta = np.where(sink < 0, eta, points.rung == sink)
    eta /= points.rung_sum(eta)
    return ReputationDistribution(eta=eta.T, mu=points.rung_sum(eta * points.active),
                                  alpha=points.alpha)


@batched
def stationary_for_regime(points: Points, recip: ReputationDistribution = None
                          ) -> ReputationDistribution:
    """Stationary profile of the population mix, once check_regime admits it:
    each malicious peer cycles uniformly through 0..h_o (it climbs while
    inactive and is punished the moment it must upload), altruists sit at L.
    recip, the reciprocators' own profile, is solved unless given."""
    check_regime(points)
    recip = stationary_fixed_point(points) if recip is None else recip
    if not (points.p_c + points.p_d > 0.0).any():
        return recip
    cycle = np.where(points.rung <= points.h_o, 1.0 / (points.h_o + 1), 0.0)
    eta = ((1.0 - points.p_c - points.p_d) * recip.eta.T + points.p_d * cycle
           + points.p_c * (points.rung == points.L))
    return ReputationDistribution(eta=eta.T, mu=points.rung_sum(eta * points.active),
                                  alpha=recip.alpha)
