"""Stationary reputation distributions under compliant play.

The population's reputation profile evolves by a simple per-period kernel:
active peers (reputation >= h_o) climb one step unless a service error gets
them punished, punished peers fall to 0 unless forgiven, and inactive peers
climb unconditionally.  No peer climbs more than one rung and every fall
lands on 0, so the long-run distribution of that kernel is a running product
of per-rung ratios (the harsh-punishment closed form is its beta = 0 case).
This module computes that product directly (never by iteration), plus the
mixtures induced by malicious and altruistic sub-populations.
`check_regime` alone decides which populations the analysis can model.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import NetworkEnv, ProtocolParams, error_punish_prob, forgiveness_prob

@dataclass
class ReputationDistribution:
    """A population profile over reputations 0..L.

    eta    probability vector, eta[t] = fraction of peers at reputation t
    mu     mass at or above the activity threshold h_o
    alpha  per-period error-punishment probability the profile was built with
    """

    eta: np.ndarray
    mu: float
    alpha: float

    def __post_init__(self):
        self.eta = np.asarray(self.eta, dtype=float)


def transition_matrix(params: ProtocolParams, env: NetworkEnv) -> np.ndarray:
    """Row-stochastic one-period reputation kernel for a compliant peer.

    Row t is the distribution of next-period reputation given reputation t:
      t <  h_o : climb to t+1 with probability 1 (no uploads, no errors)
      t >= h_o : climb to min(L, t+1) w.p. 1 - alpha; on an error event
                 (prob alpha) stay put w.p. beta**(L - t + 1), else drop to 0.
    """
    L, h_o = params.L, params.h_o
    alpha = error_punish_prob(env, params.b)
    P = np.zeros((L + 1, L + 1))
    for t in range(L + 1):
        if t < h_o:
            P[t, t + 1] = 1.0
        else:
            keep = forgiveness_prob(params, t)
            P[t, min(L, t + 1)] += 1.0 - alpha
            P[t, t] += alpha * keep
            P[t, 0] += alpha * (1.0 - keep)
    return P


def check_regime(params: ProtocolParams, env: NetworkEnv) -> None:
    """Raise ValueError unless the analysis can model (params, env): one
    non-reciprocative kind at a time, uniform client thresholds with either
    kind present, and harsh punishment (beta = 0) with malicious peers."""
    if env.p_c > 0.0 and env.p_d > 0.0:
        raise ValueError("analytic profiles handle one non-reciprocative kind at a time")
    if (env.p_c > 0.0 or env.p_d > 0.0) and not params.uniform_thresholds:
        raise ValueError("mixed populations are analyzed under uniform client thresholds")
    if env.p_d > 0.0 and params.beta != 0.0:
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


def stationary_fixed_point(params: ProtocolParams, env: NetworkEnv) -> ReputationDistribution:
    """Stationary profile of the general (L, beta) scheme as a product over
    the reputation ladder.

    Rung t >= 1 is entered only by a climb from t-1: no move skips a rung and
    every fall lands on 0.  Balance at t is then
    eta[t] * outflow(t) = eta[t-1] * climb(t-1), where outflow(t) is climb
    plus reset below the top and reset alone at L (a climb from L stays put).
    Walking t = 1..L multiplies these ratios out of non-negative terms, so
    the profile is accurate to rounding with no matrix, no tolerance and no
    iteration.  A rung with zero outflow keeps every peer that reaches it
    (L when alpha = 0 or beta = 1, h_o when alpha = 1 and beta = 1), so the
    first one on the way up takes all the mass.
    """
    L, h_o = params.L, params.h_o
    alpha = error_punish_prob(env, params.b)
    climb = [1.0] * h_o + [1.0 - alpha] * (L - h_o) + [0.0]  # climb[t] leaves rung t
    w, weights = 1.0, [1.0]
    for t in range(1, L + 1):
        reset = alpha * (1.0 - forgiveness_prob(params, t)) if t >= h_o else 0.0
        out = climb[t] + reset
        if out == 0.0:
            weights = [0.0] * t + [1.0]
            break
        w = w * climb[t - 1] / out
        weights.append(w)
    eta = np.zeros(L + 1)
    eta[:len(weights)] = weights
    eta /= eta.sum()
    return ReputationDistribution(eta=eta, mu=float(eta[h_o:].sum()), alpha=alpha)


def stationary_malicious(params: ProtocolParams, env: NetworkEnv) -> ReputationDistribution:
    """Population profile with a malicious fraction p_d mixed in.

    A malicious peer never delivers usable data, so it climbs while inactive
    (refusing is what an inactive peer is supposed to do) and is punished the
    moment it reaches the activity threshold: its reputation cycles
    0 -> 1 -> ... -> h_o -> 0, i.e. uniform mass 1/(h_o+1) on 0..h_o.  The
    reciprocative remainder sits at its profile under the harsh uniform rule
    check_regime demands, and the population profile is the p_d mixture.
    """
    if env.p_c != 0.0:
        raise ValueError("malicious mixture assumes p_c = 0 (no altruists)")
    check_regime(params, env)
    p_d = env.p_d
    recip = stationary_fixed_point(params, env)
    omega_d = np.zeros(params.L + 1)
    omega_d[0:params.h_o + 1] = 1.0 / (params.h_o + 1)
    eta = (1.0 - p_d) * recip.eta + p_d * omega_d
    mu = float(eta[params.h_o:].sum())
    return ReputationDistribution(eta=eta, mu=mu, alpha=recip.alpha)


def stationary_altruistic(params: ProtocolParams, env: NetworkEnv) -> ReputationDistribution:
    """Population profile with an altruistic fraction p_c pinned at L.

    Altruists are deployed by the operator and keep reputation L no matter
    what; reciprocative peers follow their usual stationary profile.
    """
    if env.p_d != 0.0:
        raise ValueError("altruistic mixture assumes p_d = 0 (no malicious peers)")
    p_c = env.p_c
    recip = stationary_fixed_point(params, env)
    eta = (1.0 - p_c) * recip.eta
    eta[params.L] += p_c
    mu = float(eta[params.h_o:].sum())
    return ReputationDistribution(eta=eta, mu=mu, alpha=recip.alpha)


def stationary_for_regime(params: ProtocolParams, env: NetworkEnv) -> ReputationDistribution:
    """Stationary profile of the population mix, once check_regime admits it."""
    check_regime(params, env)
    if env.p_d > 0.0:
        return stationary_malicious(params, env)
    if env.p_c > 0.0:
        return stationary_altruistic(params, env)
    return stationary_fixed_point(params, env)
