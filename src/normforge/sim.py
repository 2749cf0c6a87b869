"""Seeded agent-based Monte-Carlo simulator of the discrete-time sharing game.

One period: every reciprocative peer emits round(lam*b) chunk requests; each
request is routed among the servers willing to take it (compliant active
peers for clients above their thresholds, malicious peers posing as willing
toward anyone, altruists up to their per-period capacity); accepted uploads
fail with the connectivity error probability; the tracker ORs each server's
per-transaction compliance bits and, at the period boundary, moves every
reputation synchronously (climb when clean, fall to 0 unless forgiven).

Matching model: within each pool the period's demand is spread as evenly as
possible across willing servers with uniformly random pairing.  The analytic
model treats per-peer upload volume as deterministic, so the even spread is
the faithful discretization; independent per-request draws would blur the
per-period punishment probability.  Malicious peers accept any request (the
corrupt delivery wastes the client's slot; the client re-requests next
period) but never emit requests of their own.

Each pool pass routes its requests over one table of server groups (refusers
on the first pass only, serving reciprocators, malicious peers, altruists with
capacity left); bounced and overflowing requests try the next pass.  Random
stream version 2 (trace schema 2): one counter-based Philox generator per run,
keyed by the seed, makes every draw in a fixed order, so a config replays
byte-for-byte; a pass shuffles its requests once against server slots in
member order, and self-pairs among reciprocators swap with uniformly drawn
partners.  A finished run checks that outcomes partition `emitted` in every
period, that histograms sum to 1 and that altruists stay pinned, and raises
RuntimeError naming the first bad period otherwise.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .incentives import check_equilibrium, fed_while_punished
from .model import NetworkEnv, PeerKind, ProtocolParams, error_punish_prob, forgiveness_prob
from .stationary import stationary_for_regime

KIND_ORDER = (PeerKind.RECIPROCATIVE, PeerKind.ALTRUISTIC, PeerKind.MALICIOUS)
_K_RECIP, _K_ALT, _K_MAL = 0, 1, 2

SOCIAL_NORM = "SocialNorm"
TFT = "TFT"
COUNT_NAMES = ("emitted", "served", "errored", "corrupted", "unserved", "refusals",
               "served_by_recip")


@dataclass(frozen=True)
class DeviantPolicy:
    """Per-peer strategy override for empirical deviation measurement.

    The tagged peer refuses every prescribed upload during the given period
    window [start, stop) (all periods when window is None) and complies
    otherwise.  Refusing is the binding deviation; serving extra clients only
    burns cost.
    """

    peer_id: int
    window: Optional[tuple] = None  # (start, stop) in periods, None = always

    def active(self, period: int) -> bool:
        return self.window is None or self.window[0] <= period < self.window[1]


@dataclass(frozen=True)
class SimConfig:
    n_peers: int
    n_periods: int
    seed: int
    params: ProtocolParams
    env: NetworkEnv
    population_mix: dict = None  # PeerKind -> fraction, defaults to all reciprocative
    protocol_flavor: str = SOCIAL_NORM
    deviant_policy: Optional[DeviantPolicy] = None
    strategic: bool = False      # free-ride when the analytic check fails
    init_reputations: Optional[tuple] = None

    def __post_init__(self):
        if self.n_peers < 2:
            raise ValueError(f"n_peers must be >= 2, got {self.n_peers}")
        if self.n_periods < 1:
            raise ValueError(f"n_periods must be >= 1, got {self.n_periods}")
        if self.protocol_flavor not in (SOCIAL_NORM, TFT):
            raise ValueError(f"unknown protocol flavor {self.protocol_flavor!r}")
        mix = {PeerKind.RECIPROCATIVE: 1.0} if self.population_mix is None else self.population_mix
        norm = {PeerKind(kind): float(frac) for kind, frac in mix.items()}
        if PeerKind.TFT_AGENT in norm:  # the one kind outside KIND_ORDER
            raise ValueError(f"{PeerKind.TFT_AGENT} cannot appear in a population mix")
        if abs(sum(norm.values()) - 1.0) > 1e-9:
            raise ValueError(f"population fractions must sum to 1, got {sum(norm.values())}")
        object.__setattr__(self, "population_mix", norm)
        if self.requests_per_peer < 1:
            raise ValueError("round(lam * b) must be >= 1")
        if self.init_reputations is not None:
            object.__setattr__(self, "init_reputations", tuple(int(v) for v in self.init_reputations))

    @property
    def requests_per_peer(self) -> int:
        return int(round(self.env.lam * self.params.b))

    def replace(self, **kw) -> "SimConfig":
        return dataclasses.replace(self, **kw)

    def kind_counts(self) -> dict:
        """Deterministic integer split of n_peers by kind (largest remainder)."""
        n = self.n_peers
        raw = {k: self.population_mix.get(k, 0.0) * n for k in KIND_ORDER}
        counts = {k: int(np.floor(v)) for k, v in raw.items()}
        short = n - sum(counts.values())
        for k in sorted(KIND_ORDER, key=lambda k: raw[k] - counts[k], reverse=True)[:short]:
            counts[k] += 1
        return counts

    def analytic_env(self) -> NetworkEnv:
        """The env with p_c / p_d set to the simulated population's shares."""
        counts = self.kind_counts()
        return self.env.replace(p_c=counts[PeerKind.ALTRUISTIC] / self.n_peers,
                                p_d=counts[PeerKind.MALICIOUS] / self.n_peers)

    def as_dict(self) -> dict:
        return {
            "n_peers": self.n_peers,
            "n_periods": self.n_periods,
            "seed": self.seed,
            "protocol_flavor": self.protocol_flavor,
            "strategic": self.strategic,
            "population_mix": {k.value: v for k, v in self.population_mix.items()},
            "params": self.params.to_dict(),
            "env": self.env.to_dict(),
            "deviant_policy": self.deviant_policy and dataclasses.asdict(self.deviant_policy),
            "init_reputations": list(self.init_reputations) if self.init_reputations else None,
        }


@dataclass
class SimTrace:
    """Time series and per-peer outcomes of one run.

    eta[t] is the population reputation histogram at the start of period t.
    Request outcomes partition per period into served / errored / corrupted /
    unserved; refusals count bounced contacts (they redirect, consuming no
    download slot).  discounted_utility accumulates delta**t * (benefit -
    cost) per peer, truncated after n_periods with tail bound
    truncation_bound.
    """

    config: SimConfig
    top_rep: int
    eta: np.ndarray                  # (T, top_rep + 1)
    counts: dict                     # name -> (T,) int arrays
    mean_utility: dict               # kind value -> (T,) float arrays
    discounted_utility: np.ndarray   # (n_peers,)
    final_reputation: np.ndarray     # (n_peers,)
    kinds: np.ndarray                # (n_peers,) kind codes
    truncation_bound: float
    collapsed: bool = False

    def window_eta(self, last: int = None) -> np.ndarray:
        """Mean reputation histogram over the final `last` periods (default:
        final quarter)."""
        if last is None:
            last = max(1, self.config.n_periods // 4)
        return self.eta[-last:].mean(axis=0)

    def window_mu(self, last: int = None) -> float:
        """Share at or above the activity threshold, averaged like window_eta."""
        h_o = self.config.params.h_o if self.config.protocol_flavor == SOCIAL_NORM else 1
        return float(self.window_eta(last)[h_o:].sum())

    def strategic_kind(self) -> str:
        """Label under which strategic agents report."""
        return _kind_labels(self.config.protocol_flavor)[_K_RECIP]

    def summary(self) -> dict:
        last = max(1, self.config.n_periods // 4)
        per_kind = {kind: float(np.mean(series[-last:]))
                    for kind, series in self.mean_utility.items()}
        totals = {name: int(arr.sum()) for name, arr in self.counts.items()}
        emitted = max(1, totals["emitted"])
        return {
            "final_window_eta": [float(v) for v in self.window_eta()],
            "final_window_mu": self.window_mu(),
            "final_window_mean_utility": per_kind,
            "totals": totals,
            "delivery_rate": totals["served"] / emitted,
            "recip_delivery_rate": int(self.counts["served_by_recip"].sum()) / emitted,
            "truncation_bound": self.truncation_bound,
        }

    def to_json_dict(self) -> dict:
        return {
            "schema": 2,
            "config": self.config.as_dict(),
            "top_rep": self.top_rep,
            "periods": {
                "eta": [[float(v) for v in row] for row in self.eta],
                "counts": {k: [int(v) for v in arr] for k, arr in self.counts.items()},
                "mean_utility": {k: [float(v) for v in arr] for k, arr in self.mean_utility.items()},
            },
            "per_peer": {
                "discounted_utility": [float(v) for v in self.discounted_utility],
                "final_reputation": [int(v) for v in self.final_reputation],
                "kind": [_kind_labels(self.config.protocol_flavor)[k] for k in self.kinds],
            },
            "summary": self.summary(),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True, indent=1)


def _kind_labels(flavor: str) -> list:
    """Trace label of each kind code (tit-for-tat strategic peers: tft_agent)."""
    return [PeerKind.TFT_AGENT.value if flavor == TFT and kind is PeerKind.RECIPROCATIVE
            else kind.value for kind in KIND_ORDER]


def _protocol_tables(config: SimConfig):
    """Flavor adapter: the top reputation, the prescribed willingness
    willing[s, c] (a compliant s-server accepts a c-client) and keep_prob[r],
    the chance that a punished r-peer keeps r instead of falling to 0.
    Tit-for-tat is a two-rung ladder that serves anyone whose last period was
    clean and never forgives."""
    params = config.params
    if config.protocol_flavor == TFT:
        return 1, np.array([[False, True], [False, True]]), np.zeros(2)
    L = params.L
    willing = np.zeros((L + 1, L + 1), dtype=bool)
    for s in range(params.h_o, L + 1):
        willing[s, params.m_o_at(s):] = True
    return L, willing, forgiveness_prob(params, np.arange(L + 1))


def tft_sustainable(env: NetworkEnv, b: int, p_c: float = 0.0) -> bool:
    """One-shot-deviation verdict for the binary tit-for-tat rule.

    Compliant play makes next-period reputation independent of the current
    one (1 when the period was clean), so the discounted gap between the two
    reputations equals the one-period service gap: full service minus
    whatever altruists feed a zero-reputation peer.  A deviator saves up to a
    full period of upload cost (lam*b*c, the same worst case the activity-
    threshold check uses) and spends one period at reputation 0, so the rule
    survives iff lam*b*c <= delta*(1-alpha)*gap with the usual per-period
    error-punishment probability alpha.
    """
    rate = env.lam * b
    alpha_t = error_punish_prob(env, b)
    gap = rate * (1.0 - env.eps) * env.r * (1.0 - fed_while_punished(p_c))
    return env.c * rate <= env.delta * (1.0 - alpha_t) * gap + 1e-12


def _strategic_collapse(config: SimConfig) -> bool:
    """True when the configured protocol cannot sustain compliance, in which
    case strategic reciprocative peers free-ride."""
    env = config.analytic_env()
    if config.protocol_flavor == TFT:
        return not tft_sustainable(config.env, config.params.b, env.p_c)
    return not check_equilibrium(config.params, env).is_equilibrium


def _run_rng(seed: int, stream: int = 0) -> np.random.Generator:
    """A run's one Philox generator (stream 0), or one for side draws."""
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(
        (int(seed) & (2 ** 64 - 1), stream))))


def _fix_self_service(rng, clients, servers):
    """Swap servers in place so no peer serves itself: three vectorised rounds
    swap each clash with a uniformly drawn non-clash position (each at most
    once a round), then each clash left picks uniformly among all valid
    partners.  Returns the mask of pairs kept: a pair is dropped only when the
    pool has no valid partner."""
    m = len(clients)
    keep = np.ones(m, dtype=bool)
    bad = np.flatnonzero(clients == servers)
    for _ in range(3):
        if not len(bad):
            return keep
        j = rng.integers(0, m, len(bad))
        once = np.zeros(len(j), dtype=bool)
        once[np.unique(j, return_index=True)[1]] = True
        ok = (once & (servers[j] != clients[bad]) & (servers[bad] != clients[j])
              & (clients[j] != servers[j]))
        i, j = bad[ok], j[ok]
        servers[i], servers[j] = servers[j], servers[i]
        bad = bad[~ok]
    for i in bad:
        if clients[i] == servers[i]:  # else an earlier clash's swap fixed it
            cand = np.flatnonzero(keep & (servers != clients[i]) & (clients != servers[i]))
            if len(cand):
                j = cand[rng.integers(len(cand))]
                servers[i], servers[j] = servers[j], servers[i]
            else:
                keep[i] = False
    return keep


def _spread(rng, n_items: int, members: np.ndarray) -> np.ndarray:
    """Even-load server slots in member order: every member gets floor(n/g)
    requests and a uniformly chosen subset gets one more.  Callers pair them
    with requests already in uniform random order."""
    g = len(members)
    base, rem = divmod(n_items, g)
    loads = np.full(g, base, dtype=np.int64)
    if rem:
        loads[rng.choice(g, rem, replace=False)] += 1
    return np.repeat(members, loads)


def run_sim(config: SimConfig) -> SimTrace:
    """Execute the configured social-norm run; identical configs replay
    bit-for-bit."""
    return _run(config, SOCIAL_NORM)


def run_tft(config: SimConfig) -> SimTrace:
    """Binary tit-for-tat baseline on the same engine: two reputations,
    service decided by the client's last-period compliance alone."""
    return _run(config, TFT)


def _run(config: SimConfig, flavor: str) -> SimTrace:
    if config.protocol_flavor != flavor:
        raise ValueError(f"run_sim drives {SOCIAL_NORM} and run_tft {TFT}, "
                         f"got protocol_flavor={config.protocol_flavor!r}")
    top, willing, keep_prob = _protocol_tables(config)
    env = config.env
    n = config.n_peers
    k = config.requests_per_peer
    T = config.n_periods

    counts = config.kind_counts()
    kinds = np.repeat(np.arange(len(KIND_ORDER), dtype=np.int8),
                      [counts[kind] for kind in KIND_ORDER])
    recip_mask = kinds == _K_RECIP
    alt_ids = np.flatnonzero(kinds == _K_ALT)
    alt0 = counts[PeerKind.RECIPROCATIVE]  # altruists are one contiguous id block
    mal_ids = np.flatnonzero(kinds == _K_MAL)

    rep = np.array((0,) * n if config.init_reputations is None else config.init_reputations,
                   dtype=np.int64)
    if rep.shape != (n,) or rep.min() < 0 or rep.max() > top:
        raise ValueError("init_reputations must give every peer a reputation in range")
    rep[alt_ids] = top  # altruists are pinned at the top rung

    collapsed = _strategic_collapse(config) if config.strategic else False
    deviant = config.deviant_policy
    if deviant is not None and not (0 <= deviant.peer_id < n and recip_mask[deviant.peer_id]):
        raise ValueError("deviant peer must be a reciprocative peer id")
    refuse_base = recip_mask if collapsed else np.zeros(n, dtype=bool)

    eta_series = np.zeros((T, top + 1))
    count_series = {name: np.zeros(T, dtype=np.int64) for name in COUNT_NAMES}
    util_sums = np.zeros((T, len(KIND_ORDER)))  # per-period utility summed by kind
    discounted = np.zeros(n)
    disc_weight = 1.0

    # requests: every reciprocative peer wants k chunks each period
    clients = np.repeat(np.flatnonzero(recip_mask), k)
    # client reputations with the same willing column share one server pool,
    # so even loads stay even; pools run in sorted column order
    class_cols, cls_of_rep = np.unique(willing.T, axis=0, return_inverse=True)
    rng = _run_rng(config.seed)
    forgiving = keep_prob.any()

    for t in range(T):
        eta_series[t] = np.bincount(rep, minlength=top + 1) / n

        sent, got = [clients[:0]], [clients[:0]]  # honest uploads, deliveries (peer ids)
        x = np.zeros(n, dtype=bool)
        tally = dict.fromkeys(COUNT_NAMES, 0)
        tally["emitted"] = len(clients)

        refuse_all = refuse_base
        if deviant is not None and deviant.active(t):
            refuse_all = refuse_base | (np.arange(n) == deviant.peer_id)
        alt_capacity = np.full(len(alt_ids), k, dtype=np.int64)
        client_cls = cls_of_rep[rep[clients]]

        for cls, willing_col in enumerate(class_cols):
            pending = clients[client_cls == cls]
            apparent = recip_mask & willing_col[rep]
            serving = np.flatnonzero(apparent & ~refuse_all)
            refusing = np.flatnonzero(apparent & refuse_all)
            # Refusers only see pass 1 and altruists overflow only once every
            # altruist is full, so pass 3 meets only reciprocative and
            # malicious servers, which redirect nothing: the loop ends there.
            while len(pending):
                groups = [(tag, ids) for tag, ids in (
                    ("refuse", refusing), ("recip", serving), ("malicious", mal_ids),
                    ("altruist", alt_ids[alt_capacity > 0])) if len(ids)]
                if not groups:
                    break  # nobody can take them: counted unserved below
                sizes = np.array([len(ids) for _, ids in groups], dtype=float)
                split = rng.multinomial(len(pending), sizes / sizes.sum())
                # the pass's one shuffle: server slots below come in member
                # order, so pairing them with shuffled requests is uniform
                shuffled = rng.permutation(pending)
                next_pending = [shuffled[:0]]
                pos = 0
                for (tag, members), n_g in zip(groups, split):
                    part = shuffled[pos:pos + n_g]
                    pos += n_g
                    if n_g == 0:
                        continue
                    if tag == "refuse":
                        # bounced contacts: deviation observed, client redirects
                        x[_spread(rng, n_g, members)] = True
                        tally["refusals"] += n_g
                        next_pending.append(part)
                        continue
                    if tag == "altruist":
                        slots = np.repeat(members, alt_capacity[members - alt0])
                        srv = slots if n_g >= len(slots) else rng.choice(slots, n_g, replace=False)
                        next_pending.append(part[len(srv):])  # overflow redirects
                        part = part[:len(srv)]
                        alt_capacity -= np.bincount(srv - alt0, minlength=len(alt_ids))
                    else:
                        srv = _spread(rng, n_g, members)
                    if tag == "recip":  # the only servers that also request
                        keep = _fix_self_service(rng, part, srv)
                        if not keep.all():
                            tally["unserved"] += int((~keep).sum())
                            part, srv = part[keep], srv[keep]
                    if tag == "malicious":
                        # corrupt delivery: slot wasted, compliance judged by prescription
                        tally["corrupted"] += n_g
                        x[srv[willing_col[rep[srv]]]] = True
                        continue
                    # honest upload attempt: cost now, then the connectivity lottery,
                    # iid per upload: Binomial(len, eps) failures at uniform positions
                    sent.append(srv)
                    err = np.zeros(len(part), dtype=bool)
                    err[rng.choice(len(part), rng.binomial(len(part), env.eps), replace=False)] = True
                    ok = ~err
                    got.append(part[ok])
                    n_ok = int(ok.sum())
                    tally["served"] += n_ok
                    tally["errored"] += len(part) - n_ok
                    if tag == "recip":
                        tally["served_by_recip"] += n_ok
                        x[srv[err]] = True
                    # altruists are pinned regardless of errors
                pending = np.concatenate(next_pending)
                refusing = refusing[:0]  # refusers are skipped on redirect
            tally["unserved"] += len(pending)

        for name, value in tally.items():
            count_series[name][t] = value

        util = (env.r * np.bincount(np.concatenate(got), minlength=n)
                - env.c * np.bincount(np.concatenate(sent), minlength=n))
        util_sums[t] = np.bincount(kinds, weights=util, minlength=len(KIND_ORDER))
        discounted += disc_weight * util
        disc_weight *= env.delta

        # period boundary: climb when clean, else fall to 0 unless forgiven;
        # only punished peers on forgiving rungs draw the lottery
        new_rep = np.where(x, 0, np.minimum(rep + 1, top))
        if forgiving:
            lottery = np.flatnonzero(x & (keep_prob[rep] > 0))
            kept = lottery[rng.random(len(lottery)) < keep_prob[rep[lottery]]]
            new_rep[kept] = rep[kept]
        rep = new_rep
        rep[alt_ids] = top

    _check_invariants(count_series, eta_series, rep[alt_ids], top)
    u_max = k * max(env.r, env.c)
    tail = 0.0 if env.delta == 0.0 else (env.delta ** T) * u_max / (1.0 - env.delta)
    mean_utility = {label: util_sums[:, code] / counts[kind] for code, (label, kind) in
                    enumerate(zip(_kind_labels(flavor), KIND_ORDER)) if counts[kind] > 0}
    return SimTrace(config=config, top_rep=top, eta=eta_series, counts=count_series,
                    mean_utility=mean_utility, discounted_utility=discounted,
                    final_reputation=rep, kinds=kinds, truncation_bound=tail,
                    collapsed=collapsed)


def _check_invariants(counts: dict, eta: np.ndarray, alt_reps: np.ndarray, pinned: int) -> None:
    """Run-time accounting checks: request outcomes partition `emitted` in
    every period, every reputation histogram sums to 1, altruists end pinned."""
    parts = counts["served"] + counts["errored"] + counts["corrupted"] + counts["unserved"]
    for bad, what in ((parts != counts["emitted"], "request outcomes do not partition emitted"),
                      (np.abs(eta.sum(axis=1) - 1.0) > 1e-9, "the eta row does not sum to 1")):
        if bad.any():
            raise RuntimeError(f"{what} in period {np.argmax(bad)}")
    if np.any(alt_reps != pinned):
        raise RuntimeError(f"an altruist left reputation {pinned} by period {len(eta) - 1}")


def measure_deviation_gain(config: SimConfig, theta: int, n_pairs: int = 30) -> float:
    """Empirical one-shot-deviation payoff: discounted utility of a tagged
    peer that refuses all uploads in period 0 and then complies, minus its
    utility when complying throughout, averaged over paired seeds.

    The population starts from the analytic stationary profile (shared by
    both runs of a pair) with the tagged peer pinned at reputation theta, so
    the measurement mirrors the analytic deviation algebra.  Expected to be
    non-positive, up to noise, exactly when the protocol passes the check.
    """
    if config.protocol_flavor != SOCIAL_NORM:
        raise ValueError("deviation measurement drives the social-norm flavor")
    if not 0 <= theta <= config.params.L:
        raise ValueError(f"theta out of range 0..{config.params.L}")
    counts = config.kind_counts()
    if counts[PeerKind.RECIPROCATIVE] < 1:
        raise ValueError("need at least one reciprocative peer to tag")
    dist = stationary_for_regime(config.params, config.analytic_env())
    gains = []
    for i in range(n_pairs):
        seed_i = config.seed + i
        reps = _run_rng(seed_i, 0xD5).choice(config.params.L + 1, size=config.n_peers, p=dist.eta)
        reps[0] = theta
        base = config.replace(seed=seed_i, init_reputations=reps, deviant_policy=None)
        dev = base.replace(deviant_policy=DeviantPolicy(peer_id=0, window=(0, 1)))
        gains.append(run_sim(dev).discounted_utility[0] - run_sim(base).discounted_utility[0])
    return float(np.mean(gains))
