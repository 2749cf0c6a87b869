"""Span tracing for the traced benchmark run.

`install` wraps every public function of the normforge modules (and the
constructors of the two model dataclasses) in a recorder, and rebinds each
wrapped name in every normforge namespace that imported it, so calls such as
`designer.check_equilibrium` or `incentives.stationary_for_regime` are seen
too.  Nothing under `src/` changes; the patch lives only in the process that
asked for it.

Spans are kept in memory as parallel arrays (name id, start, end, parent) and
reduced at the end of the run: a span's self time is its duration minus the
durations of its direct children, and a layer's self time is the sum over the
spans named after its module.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
from array import array
from collections import Counter
from pathlib import Path
from time import perf_counter_ns

import numpy as np

LAYERS = ("cli", "designer", "incentives", "stationary", "sim", "model")


class Tracer:
    """In-memory span store.  Recording happens only while `enabled` is set,
    so the benchmark's own correctness checks leave no spans."""

    def __init__(self):
        self.enabled = False
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("q")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self._stack = [-1]
        self.counters: Counter = Counter()

    def intern(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, nid: int) -> int:
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1])
        self.end.append(0)
        self._stack.append(idx)
        self.start.append(perf_counter_ns())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = perf_counter_ns()
        self._stack.pop()

    @contextlib.contextmanager
    def recording(self, name: str):
        """Record a root span `name` and every wrapped call made inside it."""
        self.enabled = True
        idx = self.open(self.intern(name))
        try:
            yield
        finally:
            self.close(idx)
            self.enabled = False

    def arrays(self):
        """(name_id, duration_ns, self_ns, parent) as numpy arrays."""
        name_id = np.frombuffer(self.name_id, dtype=np.int64)
        parent = np.frombuffer(self.parent, dtype=np.int64)
        dur = np.frombuffer(self.end, dtype=np.int64) - np.frombuffer(self.start, dtype=np.int64)
        has_parent = parent >= 0
        child_ns = np.bincount(parent[has_parent], weights=dur[has_parent],
                               minlength=len(dur))
        return name_id, dur, dur - child_ns, parent

    def write(self, path: Path) -> None:
        """Dump every span, in start order, as a compressed numpy archive."""
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(path, names=np.asarray(self.names),
                            name_id=np.frombuffer(self.name_id, dtype=np.int64),
                            start_ns=np.frombuffer(self.start, dtype=np.int64),
                            end_ns=np.frombuffer(self.end, dtype=np.int64),
                            parent=np.frombuffer(self.parent, dtype=np.int64))


def _wrap(tracer: Tracer, name: str, fn, on_result=None):
    nid = tracer.intern(name)

    @functools.wraps(fn)
    def traced(*args, **kw):
        if not tracer.enabled:
            return fn(*args, **kw)
        idx = tracer.open(nid)
        try:
            result = fn(*args, **kw)
        finally:
            tracer.close(idx)
        if on_result is not None:
            on_result(tracer.counters, args, kw, result)
        return result

    return traced


# --------------------------------------------------------- result counters

def _count_check(counters, args, kw, report):
    counters["incentives.check_passed"] += int(report.is_equilibrium)


def _count_solve(counters, args, kw, result):
    counters["designer.candidates"] += len(result.search_log)


def _count_solver(solver):
    def count(counters, args, kw, result):
        counters[f"designer.candidates.{solver}"] += len(result.search_log)
    return count


# Solvers whose checks per candidate are reported: VPS scans beta top-down for
# each (h_o, b, m_o), VP bisects beta for each (h_o, b).  OSNE_AH is left out:
# it logs every (p_c, h_o, b) cell at about one check each.
PER_CANDIDATE = ("solve_osne_vps", "solve_osne_vp")


def _count_sim(counters, args, kw, trace):
    config = args[0] if args else kw["config"]
    counters["sim.peer_periods"] += config.n_peers * config.n_periods
    for name in ("emitted", "served", "unserved"):
        counters[f"sim.{name}"] += int(trace.counts[name].sum())


def _count_cli(counters, args, kw, rc):
    argv = list(args[0] if args else kw["argv"])
    for flag in ("--out", "--csv-out"):
        if flag in argv:
            path = Path(argv[argv.index(flag) + 1])
            if path.exists():
                counters["cli.output_bytes"] += path.stat().st_size


HOOKS = {
    "incentives.check_equilibrium": _count_check,
    "designer.solve": _count_solve,
    **{f"designer.{solver}": _count_solver(solver) for solver in PER_CANDIDATE},
    "sim.run_sim": _count_sim,
    "sim.run_tft": _count_sim,
    "cli.main": _count_cli,
}


def install(tracer: Tracer) -> None:
    """Wrap the public functions of every layer and rebind them everywhere
    they are imported.  Call once, before the first traced call."""
    pkg = importlib.import_module("normforge")
    mods = {layer: importlib.import_module(f"normforge.{layer}") for layer in LAYERS}
    namespaces = [pkg, *mods.values()]
    for layer, mod in mods.items():
        for attr, obj in list(vars(mod).items()):
            if (attr.startswith("_") or not inspect.isfunction(obj)
                    or obj.__module__ != mod.__name__):
                continue
            name = f"{layer}.{attr}"
            traced = _wrap(tracer, name, obj, HOOKS.get(name))
            for ns in namespaces:
                for key, value in list(vars(ns).items()):
                    if value is obj:
                        setattr(ns, key, traced)
    model = mods["model"]
    for cls in (model.ProtocolParams, model.NetworkEnv):
        cls.__init__ = _wrap(tracer, f"model.{cls.__name__}", cls.__init__)


def layer_metrics(tracer: Tracer, rounds: int, overhead_frac: float) -> dict:
    """Reduce the spans of `rounds` traced rounds to per-round layer metrics
    (value, unit); `overhead_frac` is measured by the caller."""
    name_id, dur, self_ns, parent = tracer.arrays()
    names = tracer.names
    ids = {n: i for i, n in enumerate(names)}
    calls = np.bincount(name_id, minlength=len(names))
    incl_ns = np.bincount(name_id, weights=dur, minlength=len(names))
    self_by_name = np.bincount(name_id, weights=self_ns, minlength=len(names))
    c = tracer.counters

    def n_calls(name):
        return int(calls[ids[name]]) if name in ids else 0

    def mean_us(name):
        k = n_calls(name)
        return float(incl_ns[ids[name]]) / k / 1e3 if k else 0.0

    def self_s(layer):
        return float(sum(self_by_name[i] for i, n in enumerate(names)
                         if n.split(".")[0] == layer)) / 1e9

    def ratio(num, den):
        return num / den if den else 0.0

    n_checks = n_calls("incentives.check_equilibrium")
    checks_per_candidate = {
        solver: ratio(_count_under(name_id, parent, ids.get("incentives.check_equilibrium"),
                                   ids.get(f"designer.{solver}")),
                      c[f"designer.candidates.{solver}"])
        for solver in PER_CANDIDATE}
    layers_s = sum(self_s(layer) for layer in LAYERS)
    sim_ns = sum(float(incl_ns[ids[n]]) for n in ("sim.run_sim", "sim.run_tft") if n in ids)
    wall_s = float(dur[parent < 0].sum()) / 1e9  # the bench.<job> roots
    totals = {  # summed over all traced rounds
        "stationary.fixed_point.calls": (n_calls("stationary.stationary_fixed_point"), "count"),
        "stationary.transition_matrix.calls": (n_calls("stationary.transition_matrix"), "count"),
        "stationary.self_s": (self_s("stationary"), "s"),
        "incentives.check_equilibrium.calls": (n_checks, "count"),
        "incentives.bisections": (n_calls("incentives.max_forgiveness")
                                  + n_calls("incentives.max_altruist_fraction"), "count"),
        "incentives.self_s": (self_s("incentives"), "s"),
        "designer.solves": (n_calls("designer.solve"), "count"),
        "designer.candidates": (c["designer.candidates"], "count"),
        "designer.self_s": (self_s("designer"), "s"),
        "sim.runs": (n_calls("sim.run_sim") + n_calls("sim.run_tft"), "count"),
        "sim.peer_periods": (c["sim.peer_periods"], "count"),
        "sim.self_s": (self_s("sim"), "s"),
        "cli.calls": (n_calls("cli.main"), "count"),
        "cli.output_bytes": (c["cli.output_bytes"], "bytes"),
        "cli.self_s": (self_s("cli"), "s"),
        "model.params_built": (n_calls("model.ProtocolParams"), "count"),
        "model.self_s": (self_s("model"), "s"),
        "bench.self_s": (self_s("bench"), "s"),
        "trace.wall_s": (wall_s, "s"),
        "trace.spans": (len(dur), "count"),
    }
    m = {name: (value / rounds, unit) for name, (value, unit) in totals.items()}
    m.update({
        "stationary.fixed_point.us_per_call": (mean_us("stationary.stationary_fixed_point"), "us"),
        "incentives.check_equilibrium.us_per_call": (mean_us("incentives.check_equilibrium"), "us"),
        "incentives.pass_ratio": (ratio(c["incentives.check_passed"], n_checks), "ratio"),
        **{f"designer.{solver[len('solve_'):]}.checks_per_candidate": (value, "count")
           for solver, value in checks_per_candidate.items()},
        "sim.ns_per_peer_period": (ratio(sim_ns, c["sim.peer_periods"]), "ns"),
        "sim.delivery_ratio": (ratio(c["sim.served"], c["sim.emitted"]), "ratio"),
        "sim.unserved_ratio": (ratio(c["sim.unserved"], c["sim.emitted"]), "ratio"),
        "trace.accounted_frac": (ratio(layers_s, wall_s), "ratio"),
        "trace.overhead_frac": (overhead_frac, "ratio"),
    })
    order = ("stationary", "incentives", "designer", "sim", "cli", "model", "bench", "trace")
    return dict(sorted(m.items(), key=lambda kv: order.index(kv[0].split(".")[0])))


def _count_under(name_id, parent, target, ancestor) -> int:
    """Number of `target` spans with an `ancestor` span above them."""
    if target is None or ancestor is None:
        return 0
    inside = np.zeros(len(name_id), dtype=bool)
    for i, p in enumerate(parent.tolist()):  # parents precede their children
        if p >= 0 and (inside[p] or name_id[p] == ancestor):
            inside[i] = True
    return int(np.count_nonzero(inside & (name_id == target)))
