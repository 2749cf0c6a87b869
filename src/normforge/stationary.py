"""Stationary reputation distributions under compliant play.

The population's reputation profile evolves by a simple per-period kernel:
active peers (reputation >= h_o) climb one step unless a service error gets
them punished, punished peers fall to 0 unless forgiven, and inactive peers
climb unconditionally.  This module computes the long-run distribution of
that kernel, in closed form where one exists (harsh punishment, uniform
client thresholds) and by a direct elimination solve otherwise (never by
iteration), plus the mixtures induced by malicious and altruistic
sub-populations.
`check_regime` alone decides which populations the analysis can model.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import NetworkEnv, ProtocolParams, error_punish_prob

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
    L, h_o, beta = params.L, params.h_o, params.beta
    alpha = error_punish_prob(env, params.b)
    P = np.zeros((L + 1, L + 1))
    for t in range(L + 1):
        if t < h_o:
            P[t, t + 1] = 1.0
        else:
            keep = beta ** (L - t + 1)
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
    """Stationary profile of the general (L, beta) scheme by Grassmann-Taksar-
    Heyman elimination on the one-period kernel.

    Rungs 0..L-1 are censored out in order, each one's transitions folded
    into the rungs above it.  Eliminating a rung divides by its outflow to
    the rungs that remain; the top rung's outflow vanishes at alpha = 0 or
    beta = 1, so it is never eliminated.  Back-substitution from the top then
    rebuilds the profile.  The elimination only adds,
    multiplies and divides non-negative numbers, so the result is accurate to
    rounding with no tolerance and no iteration.
    """
    L = params.L
    A = transition_matrix(params, env)
    top = L
    for k in range(L):
        up = A[k, k + 1:].sum()
        if up == 0.0:
            # every error punishes (alpha rounds to 1): nothing climbs past
            # rung k, so the profile reached from rung 0 lives on 0..k
            top = k
            break
        A[k + 1:, k] /= up
        A[k + 1:, k + 1:] += np.outer(A[k + 1:, k], A[k, k + 1:])
    eta = np.zeros(L + 1)
    eta[top] = 1.0
    for k in range(top - 1, -1, -1):
        eta[k] = eta[k + 1:top + 1] @ A[k + 1:top + 1, k]
    eta /= eta.sum()
    mu = float(eta[params.h_o:].sum())
    return ReputationDistribution(eta=eta, mu=mu, alpha=error_punish_prob(env, params.b))


def stationary_malicious(params: ProtocolParams, env: NetworkEnv) -> ReputationDistribution:
    """Population profile with a malicious fraction p_d mixed in.

    A malicious peer never delivers usable data, so it climbs while inactive
    (refusing is what an inactive peer is supposed to do) and is punished the
    moment it reaches the activity threshold: its reputation cycles
    0 -> 1 -> ... -> h_o -> 0, i.e. uniform mass 1/(h_o+1) on 0..h_o.  The
    reciprocative remainder sits at the harsh-punishment stationary profile,
    and the population profile is the p_d-weighted mixture.
    """
    if env.p_c != 0.0:
        raise ValueError("malicious mixture assumes p_c = 0 (no altruists)")
    p_d = env.p_d
    recip = stationary_closed_form(params, env)
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
    recip = _reciprocative(params, env)
    eta = (1.0 - p_c) * recip.eta
    eta[params.L] += p_c
    mu = float(eta[params.h_o:].sum())
    return ReputationDistribution(eta=eta, mu=mu, alpha=recip.alpha)


def _reciprocative(params: ProtocolParams, env: NetworkEnv) -> ReputationDistribution:
    """Reciprocative profile: closed form where one exists, else GTH."""
    if params.beta == 0.0 and params.uniform_thresholds:
        return stationary_closed_form(params, env)
    return stationary_fixed_point(params, env)


def stationary_for_regime(params: ProtocolParams, env: NetworkEnv) -> ReputationDistribution:
    """Stationary profile of the population mix, once check_regime admits it."""
    check_regime(params, env)
    if env.p_d > 0.0:
        return stationary_malicious(params, env)
    if env.p_c > 0.0:
        return stationary_altruistic(params, env)
    return _reciprocative(params, env)
