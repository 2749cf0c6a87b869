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

`run_replicas` runs a batch of replicas, which may differ only in seed, start
reputations and deviant, through one period loop; `run_sim` and `run_tft`
are batches of one.  Peer ids are offset by replica.  Each pool pass routes
every replica's requests in one vectorised step over one table of server
groups (refusers on the first pass only, serving reciprocators, malicious
peers, altruists with capacity left), and a request only meets servers of its
own replica; bounced and overflowing requests try the next pass.  Random
stream version 3 (trace schema 3): one generator per batch, keyed by the
batch's distinct seeds, makes every draw in a fixed order, so a batch replays
byte-for-byte.  Each draw site takes one block of uniforms per distinct seed
and every replica reads its seed's row from position 0, so replicas with the
same seed make the same draws while their states agree (common random
numbers).  A finished run checks that outcomes partition `emitted` in every
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
from .model import NetworkEnv, PeerKind, Points, ProtocolParams, error_punish_prob
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
            "init_reputations": (None if self.init_reputations is None
                                 else list(self.init_reputations)),
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
            "schema": 3,
            "config": self.config.as_dict(),
            "top_rep": self.top_rep,
            "periods": {
                "eta": self.eta.tolist(),
                "counts": {k: arr.tolist() for k, arr in self.counts.items()},
                "mean_utility": {k: arr.tolist() for k, arr in self.mean_utility.items()},
            },
            "per_peer": {
                "discounted_utility": self.discounted_utility.tolist(),
                "final_reputation": self.final_reputation.tolist(),
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
    the chance that a punished r-peer keeps r instead of falling to 0; for
    the social norm, rows of `Points.willing` and `Points.keep`.  Tit-for-tat
    is a two-rung ladder that serves anyone whose last period was clean and
    never forgives."""
    if config.protocol_flavor == TFT:
        return 1, np.array([[False, True], [False, True]]), np.zeros(2)
    points = Points.of([config.params], config.env)
    return config.params.L, points.willing[0], points.keep[0]


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


def _run_rng(seeds, stream: int) -> np.random.Generator:
    """A Philox generator keyed by seeds and a stream, for side draws.
    (`numpy.random` is only touched at call time, so importing the package
    does not load it.)"""
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(
        (*(int(s) & (2 ** 64 - 1) for s in seeds), stream))))


class _Batch:
    """A replica batch's layout and its one random stream.

    Replica r owns peer ids r*n .. r*n + n - 1, so an ascending array of
    peer ids is one run per replica laid end to end; a `seg` array labels
    its elements with their replica.  A draw site takes one block of
    uniforms shaped (distinct seeds, longest run) and replica r's run reads
    its seed's row from position 0, so replicas with the same seed draw
    alike while their states agree.  With one replica, `count`, `uniforms`,
    `split`, `pick` and `_route` give the same values and draws without the
    table and the per-element replica labels, which would cost a single run
    up to a third more.  The stream is PCG64, which makes doubles faster
    than Philox."""

    def __init__(self, seeds: list, n: int):
        distinct = list(dict.fromkeys(seeds))
        self.R, self.S, self.n = len(seeds), len(distinct), n
        self.row = np.array([distinct.index(s) for s in seeds])
        self.edges = np.arange(self.R + 1)
        self.rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(
            (*(int(s) & (2 ** 64 - 1) for s in distinct), 0))))

    def seg(self, ids: np.ndarray) -> np.ndarray:
        return ids // self.n

    def count(self, seg: np.ndarray, unit: int = 1) -> np.ndarray:
        """Run sizes of a sorted array of replica labels, or of peer ids
        with unit n."""
        if self.R == 1:
            return np.array([len(seg)])
        cuts = seg.searchsorted(self.edges * unit)
        return cuts[1:] - cuts[:-1]

    def block(self, size: np.ndarray):
        """A draw shaped (replicas, longest run), replica r's row being its
        seed's row, and the mask of the cells that hold run elements."""
        u = self.rng.random((self.S, int(size.max())))[self.row]
        return u, np.arange(u.shape[1]) < size[:, None]

    def uniforms(self, size: np.ndarray) -> np.ndarray:
        """One uniform per element of runs of the given sizes."""
        if self.R == 1:  # the same draws without the table
            return self.rng.random(int(size[0]))
        u, cells = self.block(size)
        return u[cells]

    def split(self, quota: np.ndarray, size: np.ndarray):
        """Indexes of the first quota[r] elements of each replica r's run and
        of the rest."""
        if self.R == 1:
            return slice(0, quota[0]), slice(quota[0], None)
        cols = np.arange(size.max())
        head = (cols < quota[:, None])[cols < size[:, None]]
        return head, ~head

    def pick(self, quota: np.ndarray, size: np.ndarray) -> np.ndarray:
        """Mask of min(quota[r], size[r]) uniformly chosen elements of each
        replica r's run: those whose uniforms are at most the quota-th
        smallest of the run."""
        if self.R == 1:  # the same draws and set, by selection without the table
            take = np.zeros(int(size[0]), dtype=bool)
            take[self.rng.random(len(take)).argpartition(quota[0] - 1)[:quota[0]]] = True
            return take
        u, cells = self.block(size)
        u[~cells] = 2.0  # above every uniform: padding is never picked
        q = np.maximum(np.minimum(quota, size), 1) - 1
        cut = np.partition(u, q, axis=1)[np.arange(self.R), q]
        return (u <= np.where(quota > 0, cut, -1.0)[:, None])[cells]


def _route(u: np.ndarray, seg: np.ndarray, sizes: np.ndarray, counts: np.ndarray):
    """Order a pass's requests by server group, replica and u, and count them
    per group and replica (groups x replicas, like sizes; counts[r] is
    replica r's number of requests).  A request joins the group holding slot
    floor(u * servers) of its replica's column of sizes: an iid categorical
    draw weighted by group size, in uniformly random order within the group."""
    G, R = sizes.shape
    used = sizes.any(axis=1)
    if np.count_nonzero(used) == 1:  # one group takes every request
        return (u if R == 1 else 2.0 * seg + u).argsort(), used[:, None] * counts
    if R == 1:  # groups rise with u, so sorting by u sorts them too
        order, c = u.argsort(), sizes[:, 0].cumsum()
        cuts = (u[order] * c[-1]).astype(np.int64).searchsorted(c)
        return order, (cuts - np.concatenate(([0], cuts[:-1])))[:, None]
    tot = sizes.sum(axis=0)
    off = tot.cumsum() - tot
    bounds = (off + sizes[:-1].cumsum(axis=0)).T.ravel()
    slot = off[seg] + (u * tot[seg]).astype(np.int64)
    cell = (bounds.searchsorted(slot, side="right") - (G - 1) * seg) * R + seg
    return (2.0 * cell + u).argsort(), np.bincount(cell, minlength=G * R).reshape(G, R)


def _fix_self_service(batch: _Batch, seg, clients, servers) -> list:
    """Swap servers in place so no peer serves itself, never across replicas
    (seg labels each pair's replica, sorted).  Three rounds swap each clash
    with a uniformly drawn position of its replica, unless that position is a
    clash, was drawn before in the round or would clash after the swap; then
    each clash left picks uniformly among all valid partners in its replica.
    Returns the positions of the pairs dropped: a pair is dropped only when
    its replica has no valid partner."""
    bad = (clients == servers).nonzero()[0]
    size = batch.count(seg)
    start = size.cumsum() - size
    for _ in range(3):
        if not len(bad):
            return []
        u = batch.uniforms(batch.count(seg[bad]))
        draws = start[seg[bad]] + (u * size[seg[bad]]).astype(np.int64)
        clash, seen, left = set(bad.tolist()), set(), []
        for i, j in zip(bad.tolist(), draws.tolist()):
            if j in seen or j in clash or servers[j] == clients[i] or servers[i] == clients[j]:
                left.append(i)
            else:
                servers[i], servers[j] = servers[j], servers[i]
            seen.add(j)
        bad = np.array(left, dtype=np.int64)
    dropped = []  # a dropped pair is no valid partner for a later clash either
    for i, u in zip(bad.tolist(), batch.uniforms(batch.count(seg[bad]))):
        if clients[i] != servers[i]:  # an earlier clash's swap fixed it
            continue
        run = slice(start[seg[i]], start[seg[i]] + size[seg[i]])
        cand = run.start + ((servers[run] != clients[i]) & (clients[run] != servers[i])).nonzero()[0]
        if len(cand):
            j = cand[int(u * len(cand))]
            servers[i], servers[j] = servers[j], servers[i]
        else:
            dropped.append(i)
    return dropped


def _loads(batch: _Batch, members: np.ndarray, size: np.ndarray, n_req: np.ndarray):
    """Even loads: replica r's n_req[r] requests give each of its size[r]
    members floor(n/g) and a uniformly chosen subset of them one more."""
    seg = batch.seg(members)
    base, rem = np.divmod(n_req, np.maximum(size, 1))
    return base[seg] + batch.pick(rem, size) if np.count_nonzero(rem) else base[seg]


def run_sim(config: SimConfig) -> SimTrace:
    """Execute the configured social-norm run: a batch of one."""
    return _run_one(config, SOCIAL_NORM)


def run_tft(config: SimConfig) -> SimTrace:
    """Binary tit-for-tat baseline on the same engine: two reputations,
    service decided by the client's last-period compliance alone."""
    return _run_one(config, TFT)


def _run_one(config: SimConfig, flavor: str) -> SimTrace:
    if config.protocol_flavor != flavor:
        raise ValueError(f"run_sim drives {SOCIAL_NORM} and run_tft {TFT}, "
                         f"got protocol_flavor={config.protocol_flavor!r}")
    return run_replicas([config])[0]


_REFUSE, _RECIP, _MAL, _ALT = range(4)  # server groups of a pool pass
_EMITTED, _SERVED, _ERRORED, _CORRUPTED, _UNSERVED, _REFUSALS, _BY_RECIP = range(7)


def _reputation_update(rep: np.ndarray, x: np.ndarray, kept: np.ndarray, top: int) -> np.ndarray:
    """Period boundary: climb when clean (x false), else fall to 0 unless
    forgiven (the peers listed in kept keep their rung)."""
    new_rep = np.where(x, 0, np.minimum(rep + 1, top))
    new_rep[kept] = rep[kept]
    return new_rep


def run_replicas(configs: list) -> list:
    """Run a batch of replicas through one period loop; one SimTrace each.

    Replicas may differ only in seed, init_reputations and deviant_policy
    (ValueError otherwise).  Requests pair only with servers of their own
    replica; altruist capacity, the deviant, the run-time checks and the
    traces are per replica.  The Python work per period depends on pools and
    passes, not on the number of replicas.
    """
    if not configs:
        return []
    cfg = configs[0]
    own = dict(seed=cfg.seed, init_reputations=cfg.init_reputations, deviant_policy=cfg.deviant_policy)
    if any(c.replace(**own) != cfg for c in configs):
        raise ValueError("replicas may differ only in seed, init_reputations and deviant_policy")
    top, willing, keep_prob = _protocol_tables(cfg)
    env, n, k, T, R = cfg.env, cfg.n_peers, cfg.requests_per_peer, cfg.n_periods, len(configs)
    batch = _Batch([c.seed for c in configs], n)

    counts = cfg.kind_counts()
    kinds = np.repeat(np.arange(len(KIND_ORDER), dtype=np.int8), [counts[kd] for kd in KIND_ORDER])
    replica = np.arange(R * n) // n
    rep_slot, kind_slot = replica * (top + 1), replica * len(KIND_ORDER) + np.tile(kinds, R)
    recip_mask = np.tile(kinds == _K_RECIP, R)
    alt_ids, mal_ids = (np.flatnonzero(np.tile(kinds == code, R)) for code in (_K_ALT, _K_MAL))
    reps = [np.array((0,) * n if c.init_reputations is None else c.init_reputations,
                     dtype=np.int64) for c in configs]
    if any(r.shape != (n,) or r.min() < 0 or r.max() > top for r in reps):
        raise ValueError("init_reputations must give every peer a reputation in range")
    rep = np.concatenate(reps)
    rep[alt_ids] = top  # altruists are pinned at the top rung

    collapsed = _strategic_collapse(cfg) if cfg.strategic else False
    refuse_base = recip_mask if collapsed else np.zeros(R * n, dtype=bool)
    deviants = [(r, c.deviant_policy) for r, c in enumerate(configs) if c.deviant_policy]
    if not all(0 <= d.peer_id < n and kinds[d.peer_id] == _K_RECIP for _, d in deviants):
        raise ValueError("deviant peer must be a reciprocative peer id")
    dev_ids = np.array([r * n + d.peer_id for r, d in deviants], dtype=np.int64)
    dev_window = np.array([d.window or (0, T) for _, d in deviants]).reshape(-1, 2)

    rep_counts = np.zeros((T, R * (top + 1)))
    count_series = np.zeros((T, len(COUNT_NAMES), R), dtype=np.int64)
    count_series[:, _EMITTED] = k * counts[PeerKind.RECIPROCATIVE]
    util_sums = np.zeros((T, R * len(KIND_ORDER)))  # per-period utility summed by kind
    discounted = np.zeros(R * n)
    disc_weight = 1.0

    # requests: every reciprocative peer wants k chunks each period
    clients = np.repeat(np.flatnonzero(recip_mask), k)
    # client reputations with the same willing column share one server pool,
    # so even loads stay even; pools run in sorted column order.  A pool no
    # reciprocator is prescribed to serve, in a run without malicious peers
    # or altruists, can never be served: its requests are counted unserved.
    class_cols, cls_of_rep = np.unique(willing.T, axis=0, return_inverse=True)
    live = class_cols.any(axis=1) | bool(len(mal_ids) or len(alt_ids))
    # dead pools exist only when every peer is reciprocative, so each rung's
    # histogram count times k is its requests
    dead_rung = None if live.all() else ~live[cls_of_rep]
    sizes = np.zeros((4, R), dtype=np.int64)  # server counts, group x replica
    sizes[_MAL] = batch.count(mal_ids, n)
    forgiving = keep_prob.any()

    for t in range(T):
        rep_counts[t] = hist = np.bincount(rep_slot + rep, minlength=R * (top + 1))
        sent, got = [clients[:0]], [clients[:0]]  # honest uploads, deliveries (peer ids)
        x = np.zeros(R * n, dtype=bool)
        tally = count_series[t]
        if dead_rung is not None:
            tally[_UNSERVED] = k * (hist.reshape(R, -1) @ dead_rung)
        on = dev_ids[(dev_window[:, 0] <= t) & (t < dev_window[:, 1])] if len(dev_ids) else dev_ids
        refuse_all = refuse_base.copy() if len(on) else refuse_base
        refuse_all[on] = True
        alt_capacity = np.full(len(alt_ids), k, dtype=np.int64)
        sizes[_ALT] = len(alt_ids) // R
        client_cls = cls_of_rep[rep[clients]]

        for cls in np.flatnonzero(live):
            pending = clients[client_cls == cls]
            willing_col = class_cols[cls]
            apparent = recip_mask & willing_col[rep]
            serving = (apparent & ~refuse_all).nonzero()[0]
            refusing = (apparent & refuse_all).nonzero()[0]
            sizes[_REFUSE], sizes[_RECIP] = batch.count(refusing, n), batch.count(serving, n)
            # Refusers only see pass 1 and altruists overflow only once every
            # altruist is full, so pass 3 meets only reciprocative and
            # malicious servers, which redirect nothing: the loop ends there.
            while len(pending):
                seg, tot = batch.seg(pending), sizes.sum(axis=0).tolist()
                if not any(tot):  # nobody can take them: unserved
                    tally[_UNSERVED] += batch.count(seg)
                    break
                if 0 in tot:  # the same, in the replicas left without servers
                    stuck = np.array(tot)[seg] == 0
                    tally[_UNSERVED] += batch.count(seg[stuck])
                    pending, seg = pending[~stuck], seg[~stuck]
                # one draw per request picks its group and its place in the group
                n_pend = batch.count(seg)
                order, n_req = _route(batch.uniforms(n_pend), seg, sizes, n_pend)
                pending, seg = pending[order], seg[order] if R > 1 else seg
                next_pending, hi = [], 0
                for g, (members, n_g) in enumerate(zip(
                        (refusing, serving, mal_ids, alt_ids), n_req.sum(axis=1).tolist())):
                    lo, hi, nr = hi, hi + n_g, n_req[g]
                    if not n_g:
                        continue
                    part, part_seg = pending[lo:hi], seg[lo:hi]
                    if g in (_REFUSE, _MAL):  # contacted: all, or those a spread reaches
                        hit = members if not np.count_nonzero(nr < sizes[g]) else \
                            members[_loads(batch, members, sizes[g], nr) > 0]
                    if g == _REFUSE:  # bounced contacts: deviation seen, client redirects
                        x[hit] = True
                        tally[_REFUSALS] += nr
                        next_pending.append(part)
                    elif g == _MAL:  # corrupt delivery wastes the slot; x by prescription
                        x[hit[willing_col[rep[hit]]]] = True
                        tally[_CORRUPTED] += nr
                    else:
                        if g == _RECIP:  # the only servers that also request; their
                            # slots come in member order against shuffled requests
                            srv = members.repeat(_loads(batch, members, sizes[g], nr))
                            drop = _fix_self_service(batch, part_seg, part, srv)
                            if drop:
                                nr = nr - batch.count(part_seg[drop])
                                tally[_UNSERVED] += n_req[g] - nr
                                part, part_seg, srv = (np.delete(a, drop) for a in (part, part_seg, srv))
                        else:  # altruists: distinct slots, uniformly chosen if fewer than slots
                            slots = np.arange(len(alt_ids)).repeat(alt_capacity)
                            room = alt_capacity.reshape(R, -1).sum(axis=1)
                            if np.count_nonzero(nr < room):
                                slots = slots[batch.pick(nr, room)]
                            alt_capacity -= np.bincount(slots, minlength=len(alt_ids))
                            sizes[_ALT] = (alt_capacity.reshape(R, -1) > 0).sum(axis=1)
                            srv = alt_ids[slots]
                            if np.count_nonzero(nr > room):  # overflow redirects
                                nr = np.minimum(nr, room)
                                head, tail = batch.split(nr, n_req[g])
                                next_pending.append(part[tail])
                                part, part_seg = part[head], part_seg[head]
                        # honest upload attempt: cost now, then the connectivity
                        # lottery, iid Bernoulli(eps) per upload
                        sent.append(srv)
                        err = batch.uniforms(nr) < env.eps
                        got.append(part[~err])
                        n_err = batch.count(part_seg[err])
                        tally[_SERVED] += nr - n_err
                        tally[_ERRORED] += n_err
                        if g == _RECIP:  # altruists are pinned regardless of errors
                            tally[_BY_RECIP] += nr - n_err
                            x[srv[err]] = True
                pending = np.concatenate(next_pending) if next_pending else pending[:0]
                if len(next_pending) > 1:  # keep replica runs together
                    pending = pending[batch.seg(pending).argsort(kind="stable")]
                refusing, sizes[_REFUSE] = refusing[:0], 0  # refusers are skipped on redirect

        util = (env.r * np.bincount(np.concatenate(got), minlength=R * n)
                - env.c * np.bincount(np.concatenate(sent), minlength=R * n))
        util_sums[t] = np.bincount(kind_slot, weights=util, minlength=R * len(KIND_ORDER))
        discounted += disc_weight * util
        disc_weight *= env.delta
        kept = clients[:0]
        if forgiving:  # only punished peers on forgiving rungs draw the lottery
            lottery = (x & (keep_prob[rep] > 0)).nonzero()[0]
            kept = lottery[batch.uniforms(batch.count(lottery, n)) < keep_prob[rep[lottery]]]
        rep = _reputation_update(rep, x, kept, top)
        rep[alt_ids] = top

    u_max = k * max(env.r, env.c)
    tail = 0.0 if env.delta == 0.0 else (env.delta ** T) * u_max / (1.0 - env.delta)
    eta = rep_counts.reshape(T, R, top + 1) / n
    util_sums = util_sums.reshape(T, R, len(KIND_ORDER))
    labels = _kind_labels(cfg.protocol_flavor)
    traces = []
    for r, config in enumerate(configs):
        peers = slice(r * n, (r + 1) * n)
        series = dict(zip(COUNT_NAMES, count_series[:, :, r].T.copy()))
        _check_invariants(series, eta[:, r], rep[peers][kinds == _K_ALT], top)
        mean_utility = {labels[code]: util_sums[:, r, code] / counts[kind]
                        for code, kind in enumerate(KIND_ORDER) if counts[kind] > 0}
        traces.append(SimTrace(config, top, eta[:, r].copy(), series, mean_utility,
                               discounted[peers].copy(), rep[peers].copy(), kinds, tail, collapsed))
    return traces


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

    The population starts from the analytic stationary profile (pair i's
    draw from seed + i, shared by both runs of the pair) with the tagged peer
    pinned at reputation theta, so the measurement mirrors the analytic
    deviation algebra.  All 2 * n_pairs runs form one `run_replicas` batch
    in which a pair's two runs share seed + i: they make the same draws until
    the deviation changes their states, so a deviant never asked to serve
    gains exactly 0.  Expected to be non-positive, up to noise, exactly when
    the protocol passes the check.
    """
    if config.protocol_flavor != SOCIAL_NORM:
        raise ValueError("deviation measurement drives the social-norm flavor")
    if not 0 <= theta <= config.params.L:
        raise ValueError(f"theta out of range 0..{config.params.L}")
    if config.kind_counts()[PeerKind.RECIPROCATIVE] < 1:
        raise ValueError("need at least one reciprocative peer to tag")
    dist = stationary_for_regime(config.params, config.analytic_env())
    configs = []
    for i in range(n_pairs):
        seed_i = config.seed + i
        reps = _run_rng((seed_i,), 0xD5).choice(config.params.L + 1, size=config.n_peers, p=dist.eta)
        reps[0] = theta
        base = config.replace(seed=seed_i, init_reputations=reps, deviant_policy=None)
        configs += [base, base.replace(deviant_policy=DeviantPolicy(peer_id=0, window=(0, 1)))]
    traces = run_replicas(configs)
    return float(np.mean([dev.discounted_utility[0] - base.discounted_utility[0]
                          for base, dev in zip(traces[::2], traces[1::2])]))
