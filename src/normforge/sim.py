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

`run_replicas` runs a batch of replicas, which share size, length and
population mix and may differ in everything else (seed, start reputations,
deviant, params, env, flavor, strategic), through one period loop; `run_sim`
and `run_tft` are batches of one.  Replicas that differ only in r, c and delta
share one run.  Peer ids are offset by run, and each run's ladder is padded to
the batch's largest top.  Pool pass i routes each run's i-th pool in one
vectorised step over one table of server groups (refusers on the first pass
only, serving reciprocators, malicious peers, altruists with capacity left),
and a request only meets servers of its own run; bounced and overflowing
requests try the next pass.  Random stream version 4 (trace schema 4): each run
draws from its own generator, keyed by its seed, what it would draw alone, so a
replica's trace is its single run's, a batch replays byte-for-byte, and
same-seed runs draw alike while their draw counts agree (common random
numbers).  A finished run checks that outcomes partition `emitted` in every
period, that histograms sum to 1 and that altruists stay pinned, and raises
RuntimeError naming the first bad period otherwise.  Tit-for-tat is the
social-norm `Points` row L = 1, h_o = 0, m_o = (1, 1), beta = 0.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .incentives import check_equilibria, check_equilibrium
from .model import NetworkEnv, PeerKind, Points, ProtocolParams
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
        for name, share, kind in (("p_c", self.env.p_c, PeerKind.ALTRUISTIC),
                                  ("p_d", self.env.p_d, PeerKind.MALICIOUS)):
            if share and share != norm.get(kind, 0.0):
                raise ValueError(f"env {name}={share} is not the mix's {kind.value} fraction "
                                 f"{norm.get(kind, 0.0)}: the mix sets the population")
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

    def utility_bound(self) -> float:
        """A bound on any peer's |utility| in one period: a reciprocator
        downloads at most its k = round(lam * b) requests, and a server
        uploads at most all k * n_recip requests of its run."""
        recips = self.kind_counts()[PeerKind.RECIPROCATIVE]
        return self.requests_per_peer * (self.env.r + self.env.c * recips)

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
    cost) per peer, truncated after n_periods; truncation_bound,
    delta**n_periods * utility_bound / (1 - delta), bounds what the periods
    after the last would add to any peer's discounted utility.
    """

    config: SimConfig
    top_rep: int
    eta: np.ndarray                  # (T, top_rep + 1)
    counts: dict                     # name -> (T,) int arrays
    mean_utility: dict               # kind value -> (T,) float arrays
    discounted_utility: np.ndarray   # (n_peers,)
    final_reputation: np.ndarray     # (n_peers,)
    kinds: np.ndarray                # (n_peers,) kind codes
    collapsed: bool = False

    @property
    def truncation_bound(self) -> float:
        delta = self.config.env.delta
        if delta == 0.0:
            return 0.0
        return delta ** self.config.n_periods * self.config.utility_bound() / (1.0 - delta)

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
        labels = _kind_labels(self.config.protocol_flavor)
        return {
            "schema": 4,
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
                "kind": [labels[k] for k in self.kinds.tolist()],
            },
            "summary": self.summary(),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True, indent=1)


def _kind_labels(flavor: str) -> list:
    """Trace label of each kind code (tit-for-tat strategic peers: tft_agent)."""
    return [PeerKind.TFT_AGENT.value if flavor == TFT and kind is PeerKind.RECIPROCATIVE
            else kind.value for kind in KIND_ORDER]


def _tft_point(env: NetworkEnv, b: int) -> Points:
    """Tit-for-tat's row: two rungs, both serving any client with a clean last period."""
    return Points.of([ProtocolParams(L=1, h_o=1, b=b)], env).replace(
        h_o=np.zeros(1), m_o=np.ones((2, 1), dtype=np.int64))


def tft_sustainable(env: NetworkEnv, b: int, p_c: float = 0.0) -> bool:
    """The one-shot-deviation check of tit-for-tat's row with altruists at
    p_c; malicious peers are left out of this verdict (p_d = 0)."""
    return bool(check_equilibria(_tft_point(env.replace(p_c=p_c, p_d=0.0), b)).is_equilibrium[0])


def sustained(config: SimConfig) -> bool:
    """Whether the configured protocol sustains compliance at the simulated
    population's shares (kind counts over n_peers); where it does not,
    strategic reciprocative peers free-ride."""
    env = config.analytic_env()
    if config.protocol_flavor == TFT:
        return tft_sustainable(config.env, config.params.b, env.p_c)
    return check_equilibrium(config.params, env).is_equilibrium


def _run_rng(seeds, stream: int) -> np.random.Generator:
    """A Philox generator keyed by seeds and a stream, for side draws.
    (`numpy.random` is only touched at call time, so importing the package
    does not load it.)"""
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(
        (*(int(s) & (2 ** 64 - 1) for s in seeds), stream))))


class _Batch:
    """A replica batch's layout and its random streams, one per replica.

    Replica r owns peer ids r*n .. r*n + n - 1, so an ascending array of
    peer ids is one run per replica laid end to end; a `seg` array labels
    its elements with their replica.  Replica r draws from its own PCG64
    generator keyed SeedSequence((seed, 0)), a batch of one's key, exactly
    what it would draw alone, in a Python loop over the replicas.  With one
    replica, `count`, `uniforms`, `below`, `split`, `pick` and `_route` skip
    that loop and the per-element labels, which cost a single run a few
    percent.  PCG64 makes doubles faster than Philox."""

    def __init__(self, seeds: list, n: int):
        self.R, self.n = len(seeds), n
        self.rngs = [np.random.Generator(np.random.PCG64(np.random.SeedSequence(
            (int(s) & (2 ** 64 - 1), 0)))) for s in seeds]

    def seg(self, ids: np.ndarray) -> np.ndarray:
        return ids // self.n

    def count(self, seg: np.ndarray, unit: int = 1) -> np.ndarray:
        """Run sizes of a sorted array of replica labels, or of peer ids
        with unit n."""
        if self.R == 1:
            return np.array([len(seg)])
        cuts = seg.searchsorted(np.arange(self.R + 1) * unit)
        return cuts[1:] - cuts[:-1]

    def uniforms(self, size: np.ndarray) -> np.ndarray:
        """Each replica r's next size[r] uniforms from its stream, end to end."""
        return self.rngs[0].random(int(size[0])) if self.R == 1 else np.concatenate(
            [g.random(m) for g, m in zip(self.rngs, size.tolist()) if m] or [np.empty(0)])

    def below(self, size: np.ndarray, p: np.ndarray):
        """One Bernoulli(p[r]) outcome per element of replica r's run (its
        uniform, as by `uniforms`, is below p[r]) and each run's successes."""
        if self.R == 1:
            hit = self.rngs[0].random(int(size[0])) < p[0]
            return hit, np.array([np.count_nonzero(hit)])
        hit = self.uniforms(size) < p.repeat(size)
        return hit, np.bincount(np.arange(self.R).repeat(size)[hit], minlength=self.R)

    def split(self, quota: np.ndarray, size: np.ndarray):
        """Indexes of the first quota[r] elements of each replica r's run and
        of the rest."""
        if self.R == 1:
            return slice(0, quota[0]), slice(quota[0], None)
        head = np.concatenate([np.arange(m) < q for q, m in zip(quota.tolist(), size.tolist())])
        return head, ~head

    def pick(self, quota: np.ndarray, size: np.ndarray) -> np.ndarray:
        """Mask of min(quota[r], size[r]) uniformly chosen elements of each
        replica r's run: those whose uniforms are at most the quota-th
        smallest of the run, one partition per run.  Only runs with
        0 < quota < size draw: the others take none or all of their run."""
        if self.R == 1 and 0 < quota[0] < size[0]:
            u, q = self.rngs[0].random(int(size[0])), quota[0]
            return u <= np.partition(u, q - 1)[q - 1]
        masks = [np.full(m, q > 0) for q, m in zip(quota.tolist(), size.tolist())]
        for r in np.flatnonzero((0 < quota) & (quota < size)).tolist():
            u, q = self.rngs[r].random(len(masks[r])), quota[r]
            masks[r] = u <= np.partition(u, q - 1)[q - 1]
        return np.concatenate(masks)


def _route(u: np.ndarray, seg: np.ndarray, sizes: np.ndarray, counts: np.ndarray):
    """Order a pass's requests by server group, replica and u, and count them
    per group and replica (groups x replicas, like sizes; counts[r] is
    replica r's number of requests).  A request joins the group holding slot
    floor(u * servers) of its replica's column of sizes: an iid categorical
    draw weighted by group size, in uniformly random order within the group."""
    G, R = sizes.shape
    used = sizes.any(axis=1)
    if np.count_nonzero(used) == 1:  # one group takes every request
        return (u.argsort() if R == 1 else _by_label(seg, u, R)), used[:, None] * counts
    if R == 1:  # groups rise with u, so sorting by u sorts them too
        order, c = u.argsort(), sizes[:, 0].cumsum()
        cuts = (u[order] * c[-1]).astype(np.int64).searchsorted(c)
        return order, (cuts - np.concatenate(([0], cuts[:-1])))[:, None]
    tot = sizes.sum(axis=0)
    off = tot.cumsum() - tot
    bounds = (off + sizes[:-1].cumsum(axis=0)).T.ravel()
    slot = off[seg] + (u * tot[seg]).astype(np.int64)
    cell = (bounds.searchsorted(slot, side="right") - (G - 1) * seg) * R + seg
    return _by_label(cell, u, G * R), np.bincount(cell, minlength=G * R).reshape(G, R)


def _by_label(label: np.ndarray, u: np.ndarray, n_labels: int) -> np.ndarray:
    """Order by label (below n_labels), then u.  u comes from random(), so
    u * 2**53 is an integer and this int64 key is exact below 2**10 labels;
    lexsort is exact at any count but sorts 1,000 requests about 5x slower."""
    if n_labels > 1 << 10:
        return np.lexsort((u, label))
    return ((u * 2.0 ** 53).astype(np.int64) | label << 53).argsort()


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
    """Execute the configured tit-for-tat run (its `Points` row): a batch of one."""
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


def _pools(config: SimConfig, others: bool):
    """A protocol's tables, off its `Points` row, and pools: the top,
    keep_prob, each client rung's pool and the live pools' willing columns.
    Client rungs with the same willing column share one server pool, so even
    loads stay even; live pools are numbered in sorted column order.  A pool
    no reciprocator is prescribed to serve is live only when malicious peers
    or altruists (others) may take it; a dead pool (-1) can never be served."""
    row = (_tft_point(config.env, config.params.b) if config.protocol_flavor == TFT
           else Points.of([config.params], config.env))
    cols, cls_of_rep = np.unique(row.willing[0].T, axis=0, return_inverse=True)
    live = np.flatnonzero(cols.any(axis=1) | others)
    pool = np.full(len(cols), -1)
    pool[live] = np.arange(len(live))
    return row.L, row.keep[:, 0], pool[cls_of_rep.ravel()], cols[live]


def run_replicas(configs: list) -> list:
    """Run a batch of replicas through one period loop; one SimTrace each.

    Replicas must share n_peers, n_periods and population_mix, which fix the
    layout of peer kinds (ValueError otherwise); they may differ in seed,
    init_reputations, deviant_policy, params, env, protocol_flavor and
    strategic.  Each replica's ladder is padded to the batch's largest top,
    and request count, error rate, utility, discount and strategic verdict
    are its own (one analytic check per distinct strategic protocol and env).
    Replicas that differ only in r, c and delta share one simulated run:
    those price what the peers do and change none of it.  Pool pass i routes
    each run's i-th live pool, in its own sorted column order.  Requests pair
    only with servers of their own run; altruist capacity, the deviant, the
    random stream, the run-time checks and the traces are per run, so a
    replica's trace is its run alone's.  Trace arrays are views of the
    batch's, and replicas sharing a run share its eta, counts and final
    reputations.  Python work per period grows with pools and passes, and
    at each draw site with the number of runs.
    """
    if not configs:
        return []
    cfg = configs[0]
    n, T = cfg.n_peers, cfg.n_periods
    if any((c.n_peers, c.n_periods, c.population_mix) != (n, T, cfg.population_mix)
           for c in configs):
        raise ValueError("replicas must share n_peers, n_periods and population_mix")
    counts = cfg.kind_counts()
    kinds = np.repeat(np.arange(len(KIND_ORDER), dtype=np.int8), [counts[kd] for kd in KIND_ORDER])
    protocols = {(c.protocol_flavor, c.params): c for c in configs}
    protocols = {key: _pools(c, counts[PeerKind.RECIPROCATIVE] < n) for key, c in protocols.items()}
    tops = [protocols[c.protocol_flavor, c.params][0] for c in configs]
    reps = [np.array((0,) * n if c.init_reputations is None else c.init_reputations,
                     dtype=np.int64) for c in configs]
    if any(r.shape != (n,) or r.min() < 0 or r.max() > t for r, t in zip(reps, tops)):
        raise ValueError("init_reputations must give every peer a reputation in range")
    # strategic reciprocators free-ride where their protocol fails its check,
    # made once per distinct protocol and env
    cells = {(c.protocol_flavor, c.params, c.env): c for c in configs if c.strategic}
    verdict = {cell: not sustained(c) for cell, c in cells.items()}
    collapsed = [c.strategic and verdict[c.protocol_flavor, c.params, c.env] for c in configs]

    # one run per distinct dynamics: everything the period loop reads
    groups = {}
    run_of = [groups.setdefault((c.seed, c.init_reputations, c.deviant_policy, c.protocol_flavor,
                                 c.params, c.env.eps, c.requests_per_peer, down), len(groups))
              for c, down in zip(configs, collapsed)]
    first = [run_of.index(g) for g in range(len(groups))]
    runs, R = [configs[i] for i in first], len(first)
    batch = _Batch([c.seed for c in runs], n)
    replica = np.arange(R * n) // n
    recip_mask = np.tile(kinds == _K_RECIP, R)
    alt_ids, mal_ids = (np.flatnonzero(np.tile(kinds == code, R)) for code in (_K_ALT, _K_MAL))

    # each protocol's tables and pools, padded to the batch's largest top:
    # nobody stands above a run's own top, so padding is never read
    tables = [protocols[c.protocol_flavor, c.params] for c in runs]
    top = max(tops)
    keep_prob, pool_of = np.zeros((R, top + 1)), np.zeros((R, top + 1), dtype=np.int64)
    pass_cols = np.zeros((max(len(tab[3]) for tab in tables), R, top + 1), dtype=bool)
    for r, (top_r, keep_r, pool_r, cols_r) in enumerate(tables):
        keep_prob[r, :top_r + 1], pool_of[r, :top_r + 1] = keep_r, pool_r
        pass_cols[:len(cols_r), r, :top_r + 1] = cols_r
    k = np.array([c.requests_per_peer for c in runs])
    # dead pools exist only when every peer is reciprocative, so each rung's
    # histogram count times k is its requests
    dead = (pool_of < 0) * k[:, None] if (pool_of < 0).any() else None
    keep_prob, pool_of = keep_prob.ravel(), pool_of.ravel()
    pass_cols = pass_cols.reshape(len(pass_cols), -1)
    forgiving = keep_prob.any()
    top_of = np.array([tab[0] for tab in tables])[replica]
    top_alt, rep_slot = top_of[alt_ids], replica * (top + 1)

    rep = np.concatenate([reps[i] for i in first])
    rep[alt_ids] = top_alt  # altruists are pinned at the top rung
    refuse_base = recip_mask & np.array([collapsed[i] for i in first])[replica]
    deviants = [(r, c.deviant_policy) for r, c in enumerate(runs) if c.deviant_policy]
    if not all(0 <= d.peer_id < n and kinds[d.peer_id] == _K_RECIP for _, d in deviants):
        raise ValueError("deviant peer must be a reciprocative peer id")
    dev_ids = np.array([r * n + d.peer_id for r, d in deviants], dtype=np.int64)
    dev_window = np.array([d.window or (0, T) for _, d in deviants]).reshape(-1, 2)

    eps = np.array([c.env.eps for c in runs])
    # per-replica columns against (replica, peer) arrays: each prices its run
    gain, cost, delta = (np.array([[getattr(c.env, f)] for c in configs])
                         for f in ("r", "c", "delta"))
    kind_slot = np.repeat(np.arange(len(configs)) * len(KIND_ORDER), n) + np.tile(kinds, len(configs))
    rep_counts = np.zeros((T, R * (top + 1)))
    count_series = np.zeros((T, len(COUNT_NAMES), R), dtype=np.int64)
    count_series[:, _EMITTED] = k * counts[PeerKind.RECIPROCATIVE]
    util_sums = np.zeros((T, len(configs) * len(KIND_ORDER)))  # per-period utility summed by kind
    discounted = np.zeros((len(configs), n))
    disc_weight = np.ones((len(configs), 1))

    # requests: every reciprocative peer wants k chunks each period
    clients = np.repeat(np.flatnonzero(recip_mask), k[replica[recip_mask]])
    sizes = np.zeros((4, R), dtype=np.int64)  # server counts, group x replica
    sizes[_MAL] = batch.count(mal_ids, n)

    for t in range(T):
        slot = rep_slot + rep
        rep_counts[t] = hist = np.bincount(slot, minlength=R * (top + 1))
        sent, got = [clients[:0]], [clients[:0]]  # honest uploads, deliveries (peer ids)
        x = np.zeros(R * n, dtype=bool)
        tally = count_series[t]
        if dead is not None:
            tally[_UNSERVED] = (hist.reshape(R, -1) * dead).sum(axis=1)
        on = dev_ids[(dev_window[:, 0] <= t) & (t < dev_window[:, 1])] if len(dev_ids) else dev_ids
        refuse_all = refuse_base.copy() if len(on) else refuse_base
        refuse_all[on] = True
        alt_capacity = np.repeat(k, counts[PeerKind.ALTRUISTIC])
        sizes[_ALT] = len(alt_ids) // R
        client_pool = pool_of[slot[clients]]

        for i, willing_col in enumerate(pass_cols):  # pass i: every replica's i-th pool
            pending = clients[client_pool == i]
            apparent = recip_mask & willing_col[slot]
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
                        reach = np.minimum(nr, sizes[g])  # a run that reaches all draws nothing
                        hit = members if (reach == sizes[g]).all() else \
                            members[_loads(batch, members, sizes[g], reach) > 0]
                    if g == _REFUSE:  # bounced contacts: deviation seen, client redirects
                        x[hit] = True
                        tally[_REFUSALS] += nr
                        next_pending.append(part)
                    elif g == _MAL:  # corrupt delivery wastes the slot; x by prescription
                        x[hit[willing_col[slot[hit]]]] = True
                        tally[_CORRUPTED] += nr
                    else:
                        if g == _RECIP:  # the only servers that also request; their
                            # slots come in member order against shuffled requests
                            srv = members.repeat(_loads(batch, members, sizes[g], nr))
                            drop = _fix_self_service(batch, part_seg, part, srv)
                            if drop:
                                nr = nr - batch.count(part_seg[drop])
                                tally[_UNSERVED] += n_req[g] - nr
                                part, srv = np.delete(part, drop), np.delete(srv, drop)
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
                                part = part[head]
                        # honest upload attempt: cost now, then the connectivity
                        # lottery, iid Bernoulli(eps) per upload
                        sent.append(srv)
                        err, n_err = batch.below(nr, eps)
                        got.append(part[~err])
                        tally[_SERVED] += nr - n_err
                        tally[_ERRORED] += n_err
                        if g == _RECIP:  # altruists are pinned regardless of errors
                            tally[_BY_RECIP] += nr - n_err
                            x[srv[err]] = True
                pending = np.concatenate(next_pending) if next_pending else pending[:0]
                if len(next_pending) > 1:  # keep replica runs together
                    pending = pending[batch.seg(pending).argsort(kind="stable")]
                refusing, sizes[_REFUSE] = refusing[:0], 0  # refusers are skipped on redirect

        util = (gain * np.bincount(np.concatenate(got), minlength=R * n).reshape(R, n)[run_of]
                - cost * np.bincount(np.concatenate(sent), minlength=R * n).reshape(R, n)[run_of])
        util_sums[t] = np.bincount(kind_slot, weights=util.ravel(), minlength=util_sums.shape[1])
        discounted += disc_weight * util
        disc_weight *= delta
        kept = clients[:0]
        if forgiving:  # only punished peers on forgiving rungs draw the lottery
            lottery = (x & (keep_prob[slot] > 0)).nonzero()[0]
            kept = lottery[batch.uniforms(batch.count(lottery, n)) < keep_prob[slot[lottery]]]
        rep = _reputation_update(rep, x, kept, top_of)
        rep[alt_ids] = top_alt

    # the traces hold views of the batch's arrays: copying them would hold
    # every series twice while the traces are built
    rep_counts /= n
    eta = rep_counts.reshape(T, R, top + 1)
    util_sums = util_sums.reshape(T, len(configs), len(KIND_ORDER))
    rep = rep.reshape(R, n)
    traces = []
    for i, (config, g, top_r) in enumerate(zip(configs, run_of, tops)):
        series = dict(zip(COUNT_NAMES, count_series[:, :, g].T))
        eta_r = eta[:, g, :top_r + 1]
        _check_invariants(series, eta_r, rep[g][kinds == _K_ALT], top_r)
        labels = _kind_labels(config.protocol_flavor)
        mean_utility = {labels[code]: util_sums[:, i, code] / counts[kind]
                        for code, kind in enumerate(KIND_ORDER) if counts[kind] > 0}
        traces.append(SimTrace(config, top_r, eta_r, series, mean_utility, discounted[i],
                               rep[g], kinds, collapsed[i]))
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
    in which a pair's two runs share seed + i and draw alike until their draw
    counts differ: a deviant never asked to serve gains exactly 0.  Expected
    to be non-positive, up to noise, exactly when the protocol passes.

    The batch runs min(H, n_periods) periods, where H is the first period at
    which delta**H * utility_bound falls below a floor, 2**-64 at first: no
    period from H on adds more than that to a tagged utility.  It stands if
    that is below an eighth of every tagged utility's float spacing, so no
    later period could change it (a quarter is half the spacing of the
    binade below; the other factor 2 covers the rounding of the weights).
    Otherwise the floor becomes the smallest such eighth and the batch reruns
    to the new H.  Either way the gain is the full-length batch's bit for bit.
    """
    if config.protocol_flavor != SOCIAL_NORM:
        raise ValueError("deviation measurement drives the social-norm flavor")
    if n_pairs < 1:
        raise ValueError(f"n_pairs must be >= 1, got {n_pairs}")
    if not 0 <= theta <= config.params.L:
        raise ValueError(f"theta out of range 0..{config.params.L}")
    if config.kind_counts()[PeerKind.RECIPROCATIVE] < 1:
        raise ValueError("need at least one reciprocative peer to tag")
    dist = stationary_for_regime(config.params, config.analytic_env())
    T, delta, tail, floor = config.n_periods, config.env.delta, config.utility_bound(), 2.0 ** -64
    configs = []
    for i in range(n_pairs):
        seed_i = config.seed + i
        reps = _run_rng((seed_i,), 0xD5).choice(config.params.L + 1, size=config.n_peers, p=dist.eta)
        reps[0] = theta
        base = config.replace(seed=seed_i, init_reputations=reps, deviant_policy=None)
        configs += [base, base.replace(deviant_policy=DeviantPolicy(peer_id=0, window=(0, 1)))]
    for H in range(1, T + 1):  # tail: delta**H * utility_bound
        tail *= delta
        if H == T or tail < floor:  # run to H; stop if its own utilities settle there
            traces = run_replicas([c.replace(n_periods=H) for c in configs])
            floor = min(np.spacing(abs(tr.discounted_utility[0])) for tr in traces) / 8
            if H == T or tail < floor:
                return float(np.mean([dev.discounted_utility[0] - base.discounted_utility[0]
                                      for base, dev in zip(traces[::2], traces[1::2])]))
