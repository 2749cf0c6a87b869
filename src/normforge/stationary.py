"""Stationary reputation distributions under compliant play.

The population's reputation profile evolves by a simple per-period kernel:
active peers (reputation >= h_o) climb one step unless a service error gets
them punished, punished peers fall to 0 unless forgiven, and inactive peers
climb unconditionally.  No peer climbs more than one rung and every fall
lands on 0, so the long-run distribution of that kernel is a running product
of per-rung ratios (the harsh-punishment closed form is its beta = 0 case).
This module computes that product directly (never by iteration), plus the
mixtures induced by malicious and altruistic sub-populations, for one point
(params, env) or a `Points` batch (answers then gain a leading batch axis).
`check_regime` alone decides which populations the analysis can model.
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
    """Row-stochastic one-period reputation kernel for a compliant peer.

    Row t is the distribution of next-period reputation given reputation t:
      t <  h_o : climb to t+1 with probability 1 (no uploads, no errors)
      t >= h_o : climb to min(L, t+1) w.p. 1 - alpha; on an error event
                 (prob alpha) stay put w.p. beta**(L - t + 1), else drop to 0.
    """
    t, act, alpha, keep = points.rung, points.active, points.alpha, points.keep
    P = np.zeros((len(points), points.L + 1, points.L + 1))
    P[:, t, np.minimum(points.L, t + 1)] = np.where(act, 1.0 - alpha, 1.0)
    P[:, t, t] += np.where(act, alpha * keep, 0.0)
    P[:, t, 0] += np.where(act, alpha * (1.0 - keep), 0.0)
    return P


@batched
def check_regime(points: Points) -> None:
    """Raise ValueError unless the analysis can model every point: one
    non-reciprocative kind at a time, uniform client thresholds with either
    kind present, and harsh punishment (beta = 0) with malicious peers."""
    altruists, malicious = points.p_c > 0.0, points.p_d > 0.0
    if (altruists & malicious).any():
        raise ValueError("analytic profiles handle one non-reciprocative kind at a time")
    if ((altruists | malicious) & ~points.uniform).any():
        raise ValueError("mixed populations are analyzed under uniform client thresholds")
    if (malicious & (points.beta != 0.0)).any():
        raise ValueError("the malicious mixture is analyzed under harsh punishment (beta = 0)")


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
    eta[t] * outflow(t) = eta[t-1] * climb(t-1), where outflow(t) is climb
    plus reset below the top and reset alone at L (a climb from L stays put).
    A running product of these non-negative ratios along the ladder gives
    the profile accurate to rounding, with no matrix, no tolerance and no
    iteration.  A rung with zero outflow keeps every peer that reaches it
    (L when alpha = 0 or beta = 1, h_o when alpha = 1 and beta = 1), so the
    first one on the way up takes all the mass.
    """
    act, alpha = points.active, points.alpha
    climb = np.where(act, 1.0 - alpha, 1.0)  # climb[:, t] leaves rung t
    climb[:, -1] = 0.0
    out = climb[:, 1:] + np.where(act, alpha * (1.0 - points.keep), 0.0)[:, 1:]
    eta = np.ones_like(climb)
    np.divide(climb[:, :-1], out, out=eta[:, 1:], where=out > 0.0)
    eta = np.cumprod(eta, axis=1)
    dead = out == 0.0
    if dead.any():
        sink = np.where(dead.any(axis=1), dead.argmax(axis=1) + 1, -1)[:, None]
        eta = np.where(sink < 0, eta, points.rung == sink)
    eta /= eta.sum(axis=1, keepdims=True)
    return ReputationDistribution(eta=eta, mu=(eta * act).sum(axis=1), alpha=alpha[:, 0])


@batched
def stationary_for_regime(points: Points) -> ReputationDistribution:
    """Stationary profile of the population mix, once check_regime admits it:
    each malicious peer cycles uniformly through 0..h_o (it climbs while
    inactive and is punished the moment it must upload), altruists sit at L."""
    check_regime(points)
    recip = stationary_fixed_point(points)
    if not (points.p_c + points.p_d > 0.0).any():
        return recip
    cycle = np.where(points.rung <= points.h_o, 1.0 / (points.h_o + 1), 0.0)
    eta = ((1.0 - points.p_c - points.p_d) * recip.eta + points.p_d * cycle
           + points.p_c * (points.rung == points.L))
    return ReputationDistribution(eta=eta, mu=(eta * points.active).sum(axis=1),
                                  alpha=recip.alpha)


@batched
def stationary_malicious(points: Points) -> ReputationDistribution:
    """Population profile with a malicious fraction p_d mixed in."""
    if np.any(points.p_c != 0.0):
        raise ValueError("malicious mixture assumes p_c = 0 (no altruists)")
    return stationary_for_regime(points)


@batched
def stationary_altruistic(points: Points) -> ReputationDistribution:
    """Population profile with an altruistic fraction p_c pinned at L."""
    if np.any(points.p_d != 0.0):
        raise ValueError("altruistic mixture assumes p_d = 0 (no malicious peers)")
    return stationary_for_regime(points)
