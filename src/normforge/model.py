"""Domain types and pure rules for threshold-based sharing protocols.

A protocol pins down who serves whom (a reputation-indexed service rule) and
how reputations move at the end of each period (a punishment scheme with
optional probabilistic forgiveness).  `Points` carries both rules as tables:
`willing`, the social strategy, and `moves`, the ladder law of compliant
play.  The analytic layers and the simulator read those tables and restate
neither rule.  Everything in this module is a pure function of its inputs.
"""

from __future__ import annotations

import dataclasses
import enum
import functools
from dataclasses import dataclass

import numpy as np


class PeerKind(enum.Enum):
    RECIPROCATIVE = "reciprocative"
    ALTRUISTIC = "altruistic"
    MALICIOUS = "malicious"
    TFT_AGENT = "tft_agent"  # trace label of reciprocative peers on tit-for-tat's row


@dataclass(frozen=True)
class NetworkEnv:
    """Environment constants outside the designer's control.

    r       benefit a client derives from one delivered chunk (r > c required:
            sharing must be socially valuable)
    c       upload cost per chunk attempt
    eps     probability a single upload attempt fails from a connectivity error
    lam     utilization rate of one connection per period (requests per
            connection per period)
    delta   discount factor peers apply to future utility
    p_c     fraction of altruistic peers in the population
    p_d     fraction of malicious peers in the population
    """

    r: float
    c: float
    eps: float
    lam: float
    delta: float
    p_c: float = 0.0
    p_d: float = 0.0

    def __post_init__(self):
        if not self.r > 0:
            raise ValueError(f"r must be > 0, got {self.r}")
        if self.c < 0:
            raise ValueError(f"c must be >= 0, got {self.c}")
        if not self.r > self.c:
            raise ValueError(f"need r > c for sharing to be valuable, got r={self.r}, c={self.c}")
        if not 0.0 <= self.eps < 1.0:
            raise ValueError(f"eps must be in [0, 1), got {self.eps}")
        if not self.lam > 0:
            raise ValueError(f"lam must be > 0, got {self.lam}")
        if not 0.0 <= self.delta < 1.0:
            raise ValueError(f"delta must be in [0, 1), got {self.delta}")
        if not 0.0 <= self.p_c <= 1.0:
            raise ValueError(f"p_c must be in [0, 1], got {self.p_c}")
        if not 0.0 <= self.p_d <= 1.0:
            raise ValueError(f"p_d must be in [0, 1], got {self.p_d}")
        if self.p_c + self.p_d > 1.0 + 1e-12:
            raise ValueError(f"p_c + p_d must be <= 1, got {self.p_c + self.p_d}")

    def replace(self, **kw) -> "NetworkEnv":
        return dataclasses.replace(self, **kw)

    def to_dict(self) -> dict:
        """JSON form, keyed as in scenario files (lam is "lambda")."""
        return {"r": self.r, "c": self.c, "eps": self.eps, "lambda": self.lam,
                "delta": self.delta, "p_c": self.p_c, "p_d": self.p_d}


@dataclass(frozen=True)
class ProtocolParams:
    """A candidate protocol: reputation ladder plus service thresholds.

    L       top reputation; reputations live in {0, ..., L}
    h_o     activity threshold: peers at or above it must upload, peers below
            are shut out of the mutual exchange
    b       maximum number of concurrent download connections per peer
    beta    forgiveness base: a punished peer at reputation t keeps its
            reputation with probability beta**(L - t + 1) instead of dropping
            to 0 (beta = 0 is the harshest scheme)
    m_o     per-reputation client thresholds, one entry per server reputation
            h_o..L: a server at reputation t serves clients at or above
            m_o(t).  Defaults to the uniform rule m_o(t) = h_o.  Must be
            non-decreasing.  Queries below h_o are rejected: inactive peers
            have no prescribed uploads.
    """

    L: int
    h_o: int
    b: int
    beta: float = 0.0
    m_o: tuple = None  # tuple[int, ...] over server reputations h_o..L

    def __post_init__(self):
        if not (isinstance(self.L, int) and self.L >= 1):
            raise ValueError(f"L must be an integer >= 1, got {self.L}")
        if not (isinstance(self.h_o, int) and 1 <= self.h_o <= self.L):
            raise ValueError(f"h_o must be an integer in 1..L={self.L}, got {self.h_o}")
        if not (isinstance(self.b, int) and self.b >= 1):
            raise ValueError(f"b must be an integer >= 1, got {self.b}")
        if not 0.0 <= self.beta <= 1.0:
            raise ValueError(f"beta must be in [0, 1], got {self.beta}")
        if self.m_o is None:
            object.__setattr__(self, "m_o", tuple([self.h_o] * (self.L - self.h_o + 1)))
        elif any(v != int(v) for v in self.m_o):
            raise ValueError(f"m_o entries must be integers, got {self.m_o}")
        else:
            object.__setattr__(self, "m_o", tuple(int(v) for v in self.m_o))
        m = self.m_o
        if len(m) != self.L - self.h_o + 1:
            raise ValueError(
                f"m_o must have one entry per reputation h_o..L "
                f"({self.L - self.h_o + 1}), got {len(m)}")
        for v in m:
            if not 1 <= v <= self.L:
                raise ValueError(f"m_o entries must lie in 1..L={self.L}, got {v}")
        for lo, hi in zip(m, m[1:]):
            if lo > hi:
                raise ValueError(f"m_o must be non-decreasing, got {m}")

    @property
    def uniform_thresholds(self) -> bool:
        return all(v == self.h_o for v in self.m_o)

    def replace(self, **kw) -> "ProtocolParams":
        if "L" in kw or "h_o" in kw:
            # the m_o vector is tied to (L, h_o); drop it unless given explicitly
            kw.setdefault("m_o", None)
        return dataclasses.replace(self, **kw)

    def to_dict(self) -> dict:
        """JSON form, keyed as in scenario files."""
        return {"L": self.L, "h_o": self.h_o, "b": self.b, "beta": self.beta,
                "m_o": list(self.m_o)}


class Points:
    """B protocol points sharing L, rung-major: each ProtocolParams and
    NetworkEnv field is a (B,) row against the (L + 1, 1) ladder column
    `rung`, so per-rung tables are (L + 1, B) and reduce over rows of B
    points.  `m_o` holds each server rung's client threshold (L + 1, which no
    client reaches, below h_o); only `willing` is point-major."""

    FIELDS = ("h_o", "b", "beta", "r", "c", "eps", "lam", "delta", "p_c", "p_d")
    admitted = False  # set by check_regime, or by a search whose spec admitted its space

    def __init__(self, L: int, **cols):
        self.L, self.cols, self.rung = L, cols, np.arange(L + 1)[:, None]
        self.__dict__.update(cols)
        self.active = self.rung >= self.h_o

    @classmethod
    def of(cls, params, env) -> "Points":
        """ProtocolParams sharing L, under one NetworkEnv or one env each."""
        L, envs = params[0].L, [env] * len(params) if isinstance(env, NetworkEnv) else env
        if any(p.L != L for p in params):
            raise ValueError("the points of a batch share L")
        table = np.array([(p.h_o, p.b, p.beta, e.r, e.c, e.eps, e.lam, e.delta, e.p_c, e.p_d)
                          for p, e in zip(params, envs)], dtype=float)
        m_o = np.array([[L + 1] * p.h_o + list(p.m_o) for p in params]).T
        return cls(L, m_o=m_o.copy(), **dict(zip(cls.FIELDS, table.T.copy())))

    @classmethod
    def of_vectors(cls, L: int, vectors: list, env: NetworkEnv) -> "Points":
        """One point per client-threshold vector (h_o = L + 1 - its length)
        at b = 1 and beta = 0 under env, from arrays: no ProtocolParams each."""
        n, m_o = len(vectors), [(L + 1,) * (L + 1 - len(m)) + tuple(m) for m in vectors]
        return cls(L, m_o=np.array(m_o).T, h_o=L + 1.0 - np.array([len(m) for m in vectors]),
                   b=np.ones(n), beta=np.zeros(n),
                   **{name: np.full(n, float(getattr(env, name))) for name in cls.FIELDS[3:]})

    def __len__(self) -> int:
        return len(self.h_o)

    def take(self, rows, **cols) -> "Points":
        """The points at rows, with the columns in cols set on them."""
        return Points(self.L, **{k: v[..., rows] for k, v in self.cols.items() if k not in cols},
                      **cols)

    @functools.cached_property
    def alpha(self) -> np.ndarray:
        return error_punish_prob(self, self.b)

    @functools.cached_property
    def keep(self) -> np.ndarray:
        """keep[t, i]: chance beta**(L - t + 1) that a punished peer keeps t."""
        return self.beta ** (self.L - self.rung + 1)

    @functools.cached_property
    def willing(self) -> np.ndarray:
        """The service rule: willing[i, s, t] when a server at rung s serves
        a client at rung t, that is s >= h_o and t >= m_o(s)."""
        return np.ascontiguousarray(self.m_o.T)[:, :, None] <= self.rung[:, 0]

    @functools.cached_property
    def moves(self) -> tuple:
        """The ladder law: (climb, stay, fall)[t, i], the chances that a
        compliant peer at rung t moves up one rung, keeps t or falls to 0.
        An inactive peer climbs; an active one climbs unless an error gets it
        punished (alpha), and is then kept (keep) or falls.  A climb from L
        stays at L, so it counts in stay there."""
        punished = np.where(self.active, self.alpha, 0.0)
        climb, stay, fall = 1.0 - punished, punished * self.keep, punished * (1.0 - self.keep)
        stay[-1] += climb[-1]
        climb[-1] = 0.0
        return climb, stay, fall

    @functools.cached_property
    def eligibility(self) -> np.ndarray:
        # m_o is non-decreasing and L + 1 below h_o: the column minimum is m_o(h_o)
        return self.m_o.min(axis=0)

    @functools.cached_property
    def uniform(self) -> np.ndarray:
        return (self.eligibility == self.h_o) & (self.m_o[-1] == self.h_o)

    @staticmethod
    def rung_sum(x: np.ndarray) -> np.ndarray:
        """Sum of a rung-major array over its rungs, in the order of numpy's
        sum along a point's row: a fold up to 7 rungs, pairwise from 8 on."""
        return x.sum(axis=0) if len(x) < 8 else np.ascontiguousarray(x.T).sum(axis=1)


def batched(fn):
    """Let `fn(points, *args)`, which answers a Points batch row by row, also
    take one point as `(params, env, *args)`, run as a batch of one (array
    and dataclass arguments gain its leading axis too)."""
    @functools.wraps(fn)
    def call(params, *args):
        if isinstance(params, Points):
            return fn(params, *args)
        rest = [type(a)(**{k: np.asarray(v)[None] for k, v in vars(a).items()})
                if dataclasses.is_dataclass(a) else
                a[None] if isinstance(a, np.ndarray) else a for a in args[1:]]
        return point_of(fn(Points.of([params], args[0]), *rest), 0)
    return call


def point_of(result, i: int):
    """Point i of a batched answer: an array row (per-point numbers become
    Python floats and bools), or a dataclass of such rows."""
    if dataclasses.is_dataclass(result):
        return type(result)(**{name: point_of(v, i) for name, v in vars(result).items()})
    row = None if result is None else result[i]
    return row.item() if isinstance(row, np.generic) else row


def error_punish_prob(env: NetworkEnv, b: int) -> float:
    """Probability a compliant active peer is punished in one period purely
    from connectivity errors: 1 - (1 - eps)**(lam * b).

    lam * b is the per-period upload volume; it need not be an integer here
    (the simulator discretizes to round(lam * b) requests per peer).
    """
    if np.min(b) < 1:
        raise ValueError(f"b must be >= 1, got {b}")
    return 1.0 - (1.0 - env.eps) ** (env.lam * b)
