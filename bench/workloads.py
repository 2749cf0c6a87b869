"""The benchmark's workloads: jobs that drive normforge as its users do, and
the correctness check that every job's output must pass.

A job runs the program (through `normforge.cli.main` or a public library
call) and returns what it produced; its check re-reads that output and
returns a list of failure messages, empty when the output is correct.  The
checks are invariants any correct program satisfies, not byte-equality with
one commit.  Library names are looked up on their modules at call time, so
the traced run sees every call through its wrappers.

`tiny=True` shrinks every job to a size that runs in well under a second;
only the harness smoke check uses it.
"""

from __future__ import annotations

import csv
import itertools
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from normforge import cli, incentives, model, sim, stationary

# The paper's reference point.  Search work swings about 4x with the env, so
# every design job runs here.
REF_ENV = {"r": 1.0, "c": 0.2, "eps": 0.1, "lambda": 1.0, "delta": 0.8}
CRIT2_ETA_LINF = 0.02   # acceptance criterion 2: Monte-Carlo vs closed form
CRIT2_MU_GAP = 0.01
UTILITY_TOL = 1e-12
RESIDUAL_TOL = 1e-10
SUM_TOL = 1e-9


@dataclass
class Context:
    out_dir: Path
    outputs: dict  # job name -> result of this round, for cross-job checks

    def path(self, name: str) -> str:
        return str(self.out_dir / name)


@dataclass
class Job:
    name: str                       # span name is bench.<name>
    metric: str | None              # per-job time metric, None for untimed
    run: Callable[[Context], object]
    check: Callable[[Context, object], list]


# ------------------------------------------------------------------ helpers

def env_flags(env: dict) -> list:
    return [arg for k, v in env.items() for arg in (f"--{k.replace('_', '-')}", repr(v))]


def make_env(env: dict, **kw) -> model.NetworkEnv:
    d = dict(env)
    d.update(kw)
    return model.NetworkEnv(r=d["r"], c=d["c"], eps=d["eps"], lam=d["lambda"],
                            delta=d["delta"], p_c=d.get("p_c", 0.0), p_d=d.get("p_d", 0.0))


def run_cli(argv: list) -> None:
    rc = cli.main([str(a) for a in argv])
    if rc != 0:
        raise RuntimeError(f"normforge {argv[0]} exited with {rc}")


def read_csv(path: str) -> list:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def read_json(path: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def grid(lo: float, step: float, n: int) -> list:
    return [lo + i * step for i in range(n)]


def axis_flag(param: str, lo: float, step: float, n: int) -> list:
    return ["--sweep", f"{param}:{lo!r}:{lo + (n - 1) * step!r}:{step!r}"]


def is_eq(params, env) -> bool:
    return incentives.check_equilibrium(params, env).is_equilibrium


def design_failures(params, env, utility: float) -> list:
    """A returned design passes the equilibrium check (unless altruists carry
    the network alone), reports the social utility of its own stationary
    profile, and that profile is a fixed point of the reputation kernel."""
    fails = []
    if env.p_c <= 0.5 and not is_eq(params, env):
        fails.append("returned design fails check_equilibrium")
    want = incentives.social_utility(params, env, stationary.stationary_for_regime(params, env))
    if not abs(utility - want) <= UTILITY_TOL:
        fails.append(f"utility {utility!r} != social_utility {want!r}")
    recip_env = env.replace(p_c=0.0)
    eta = stationary.stationary_for_regime(params, recip_env).eta
    residual = float(np.max(np.abs(eta @ stationary.transition_matrix(params, recip_env) - eta)))
    if not residual <= RESIDUAL_TOL:
        fails.append(f"stationary residual {residual:.3e} > {RESIDUAL_TOL}")
    return fails


def any_sustainable(env, L: int, b_cap: int) -> bool:
    """Some (h_o, b) with b <= b_cap passes under harsh punishment."""
    return any(is_eq(model.ProtocolParams(L=L, h_o=h, b=b), env)
               for h in range(1, L + 1) for b in range(1, b_cap + 1))


# ------------------------------------------------------------------ design

def solve_job(name: str, metric: str | None, problem: str, L: int, b_cap: int,
              extra: tuple = (), at_most: str | None = None) -> Job:
    """One CLI `solve`.  `at_most` names a job of the same round whose
    problem contains this one's search space, so its utility bounds ours."""
    def run(ctx):
        out = ctx.path(f"{name}.json")
        run_cli(["solve", *env_flags(REF_ENV), "--problem", problem, "--L", L,
                 "--b-cap", b_cap, *extra, "--out", out])
        return out

    def check(ctx, out):
        res = read_json(out)
        if not res["feasible"]:
            return ["reported infeasible at the reference env"]
        params = model.ProtocolParams(L=L, h_o=res["h_o_star"], b=res["b_star"],
                                      beta=res["beta_star"], m_o=res["m_o_star"])
        env = make_env(REF_ENV, p_c=res["p_c_star"] or 0.0)
        fails = design_failures(params, env, res["utility"])
        if at_most is not None:
            bound = read_json(ctx.outputs[at_most])["utility"]
            if not res["utility"] <= bound + UTILITY_TOL:
                fails.append(f"utility {res['utility']!r} above {at_most}'s {bound!r}")
        return fails

    return Job(name, metric, run, check)


def design_jobs(tiny: bool) -> list:
    big_L, big_b = (3, 3) if tiny else (6, 10)
    vps_L, vps_b = (2, 2) if tiny else (4, 3)
    ah_grid = "0.05" if tiny else "0.0025"
    return [
        solve_job("solve_vps", "solve_vps_s", "OSNE_VPS", vps_L, vps_b),
        solve_job("solve_vp", "solve_vp_s", "OSNE_VP", big_L, big_b),
        solve_job("solve_ah", "solve_ah_s", "OSNE_AH", big_L, big_b, ("--p-c-grid", ah_grid)),
        solve_job("solve_osne", None, "OSNE", big_L, big_b, at_most="solve_vp"),
    ]


# ---------------------------------------------------------------- simulate

SIM_PARAMS = {"L": 3, "h_o": 1, "b": 2}


def trace_failures(trace: dict) -> list:
    """Per-period accounting: request outcomes partition `emitted`, every
    reputation histogram is a distribution, altruists end at the top rung."""
    fails = []
    counts = {k: np.asarray(v) for k, v in trace["periods"]["counts"].items()}
    parts = counts["served"] + counts["errored"] + counts["corrupted"] + counts["unserved"]
    bad = np.flatnonzero(parts != counts["emitted"])
    if len(bad):
        fails.append(f"outcomes do not partition emitted in {len(bad)} periods")
    eta = np.asarray(trace["periods"]["eta"])
    if not np.all(np.abs(eta.sum(axis=1) - 1.0) <= SUM_TOL):
        fails.append("a reputation histogram does not sum to 1")
    top = trace["top_rep"]
    final = np.asarray(trace["per_peer"]["final_reputation"])
    alts = np.asarray(trace["per_peer"]["kind"]) == "altruistic"
    if np.any(final[alts] != top):
        fails.append(f"{int(np.sum(final[alts] != top))} altruists left the top rung")
    return fails


def simulate_job(seed: int, tiny: bool) -> Job:
    n, T = (200, 400) if tiny else (2000, 2000)

    def run(ctx):
        out = ctx.path("simulate.json")
        run_cli(["simulate", *env_flags(REF_ENV), *env_flags(SIM_PARAMS),
                 "--n-peers", n, "--n-periods", T, "--seed", seed,
                 "--compare-analytic", "--out", out, "--csv-out", ctx.path("simulate.csv")])
        return out

    def check(ctx, out):
        trace = read_json(out)
        fails = trace_failures(trace)
        params = model.ProtocolParams(**SIM_PARAMS)
        want = stationary.stationary_closed_form(params, make_env(REF_ENV))
        eta = np.asarray(trace["periods"]["eta"])[-max(1, T // 4):].mean(axis=0)
        linf = float(np.max(np.abs(eta - want.eta)))
        mu_gap = abs(float(eta[params.h_o:].sum()) - want.mu)
        if not (linf <= CRIT2_ETA_LINF and mu_gap <= CRIT2_MU_GAP):
            fails.append(f"sup-norm {linf:.4f} / activity gap {mu_gap:.4f} "
                         f"outside criterion 2's {CRIT2_ETA_LINF} / {CRIT2_MU_GAP}")
        reported = trace["analytic_comparison"]["eta_linf"]
        if not abs(reported - linf) <= SUM_TOL:
            fails.append(f"reported eta_linf {reported!r} != recomputed {linf!r}")
        return fails

    return Job("simulate", "simulate_s", run, check)


def simulate_mixed_job(seed: int, tiny: bool) -> Job:
    # --compare-analytic is left off: the CLI compares against the env's
    # p_c/p_d rather than the --mix, so a mixed run has no valid reference
    n, T = (500, 60) if tiny else (10000, 300)

    def run(ctx):
        out = ctx.path("simulate_mixed.json")
        run_cli(["simulate", *env_flags(REF_ENV), *env_flags(SIM_PARAMS),
                 "--n-peers", n, "--n-periods", T, "--seed", seed,
                 "--mix", "reciprocative=0.7,altruistic=0.2,malicious=0.1", "--out", out])
        return out

    def check(ctx, out):
        return trace_failures(read_json(out))

    return Job("simulate_mixed", "simulate_mixed_s", run, check)


# -------------------------------------------------------------------- scan

def sweep_analyze_job(tiny: bool) -> Job:
    params = {"L": 4, "h_o": 2, "b": 3}
    # (param, lo, step, points): 12 x 5 x 4 x 6 = 1440 points
    axes = [("c", 0.05, 0.05, 12), ("beta", 0.0, 0.2, 5),
            ("eps", 0.05, 0.05, 4), ("delta", 0.5, 0.09, 6)]
    if tiny:
        axes = [(p, lo, step, 2) for p, lo, step, _ in axes]

    def run(ctx):
        out = ctx.path("sweep_analyze.csv")
        flags = [f for ax in axes for f in axis_flag(*ax)]
        run_cli(["sweep", *env_flags(REF_ENV), *env_flags(params), *flags, "--out", out])
        return out

    def check(ctx, out):
        rows = read_csv(out)
        points = list(itertools.product(*(grid(lo, step, n) for _, lo, step, n in axes)))
        if len(rows) != len(points):
            return [f"{len(rows)} rows for {len(points)} grid points"]
        fails = []
        for i, (row, point) in enumerate(zip(rows, points)):
            values = {ax[0]: float(row[f"axis_{ax[0]}"]) for ax in axes}
            if any(abs(v - want) > SUM_TOL for v, want in zip(values.values(), point)):
                fails.append(f"row {i} is not grid point {point}")
                break
            env = make_env(REF_ENV, **{k: v for k, v in values.items() if k != "beta"})
            p = model.ProtocolParams(**params, beta=values["beta"])
            if (row["is_equilibrium"] == "True") != is_eq(p, env):
                fails.append(f"row {i} verdict disagrees with check_equilibrium")
                break
        return fails

    return Job("sweep_analyze", "sweep_analyze_s", run, check)


def sweep_design_job(tiny: bool) -> Job:
    L, b_cap = (2, 2) if tiny else (4, 6)
    axis = ("c", 0.1, 0.1, 3 if tiny else 6)

    def run(ctx):
        out = ctx.path("sweep_design.csv")
        run_cli(["sweep", *env_flags(REF_ENV), "--problem", "OSNE_VP", "--L", L,
                 "--b-cap", b_cap, *axis_flag(*axis), "--out", out])
        return out

    def check(ctx, out):
        rows = read_csv(out)
        cs = grid(*axis[1:])
        if len(rows) != len(cs):
            return [f"{len(rows)} rows for {len(cs)} grid points"]
        fails = []
        for i, (row, c) in enumerate(zip(rows, cs)):
            if abs(float(row["axis_c"]) - c) > SUM_TOL:
                fails.append(f"row {i} is not c={c}")
                continue
            env = make_env(REF_ENV, c=float(row["axis_c"]))
            feasible = row["feasible"] == "True"
            # OSNE_VP is feasible iff some (h_o, b) passes under harsh punishment
            if feasible != any_sustainable(env, L, b_cap):
                fails.append(f"row {i} feasibility disagrees with check_equilibrium")
                continue
            if feasible:
                params = model.ProtocolParams(
                    L=L, h_o=int(row["h_o_star"]), b=int(row["b_star"]),
                    beta=float(row["beta_star"]),
                    m_o=[int(v) for v in row["m_o_star"].split(";")])
                fails += [f"row {i}: {msg}" for msg in design_failures(
                    params, env, float(row["utility"]))]
        return fails

    return Job("sweep_design", "sweep_design_s", run, check)


def compare_job(seed: int, tiny: bool) -> Job:
    # the matched setting of acceptance criterion 7d: 30% altruists, b <= 5
    L, b_cap, p_c = 3, 5, 0.3
    n, T = (60, 40) if tiny else (200, 300)
    axis = ("c", 0.1, 0.1, 3 if tiny else 6)

    def run(ctx):
        out = ctx.path("compare.csv")
        run_cli(["compare", *env_flags(REF_ENV), "--L", L, "--h-o", 1, "--b", b_cap,
                 "--n-peers", n, "--n-periods", T, "--seed", seed,
                 "--mix", f"reciprocative={1 - p_c!r},altruistic={p_c!r}", "--strategic",
                 "--optimize-social", *axis_flag(*axis), "--out", out])
        return out

    def check(ctx, out):
        rows = read_csv(out)
        cells = [(c, fl) for c in grid(*axis[1:]) for fl in (sim.SOCIAL_NORM, sim.TFT)]
        if len(rows) != len(cells):
            return [f"{len(rows)} rows for {len(cells)} grid cells"]
        fails = []
        for i, (row, (c, flavor)) in enumerate(zip(rows, cells)):
            if abs(float(row["axis_value"]) - c) > SUM_TOL or row["flavor"] != flavor:
                fails.append(f"row {i} is not cell ({c}, {flavor})")
                continue
            env = make_env(REF_ENV, c=float(row["axis_value"]))
            if flavor == sim.SOCIAL_NORM:
                # the re-optimized protocol is sustained iff any candidate is
                want = any_sustainable(env.replace(p_c=p_c), L, b_cap)
            else:
                want = sim.tft_sustainable(env, b_cap, p_c)
            if (row["sustained"] == "True") != want:
                fails.append(f"row {i} sustained={row['sustained']} disagrees "
                             f"with the direct check")
            rate = float(row["delivery_rate"])
            if not 0.0 <= rate <= 1.0:
                fails.append(f"row {i} delivery rate {rate} outside [0, 1]")
        return fails

    return Job("compare", "compare_s", run, check)


def deviation_job(seed: int, tiny: bool) -> Job:
    # a protocol that fails the check by a wide margin (serve slack -0.84):
    # refusing once saves lam*b*c = 1.1 and costs little, so the measured gain
    # sits several standard errors above zero
    env = dict(REF_ENV, c=0.55, delta=0.5)
    n, T, pairs = (60, 30, 3) if tiny else (200, 200, 15)

    def run(ctx):
        config = sim.SimConfig(n_peers=n, n_periods=T, seed=seed,
                               params=model.ProtocolParams(**SIM_PARAMS), env=make_env(env))
        return sim.measure_deviation_gain(config, theta=3, n_pairs=pairs)

    def check(ctx, gain):
        if not math.isfinite(gain):
            return [f"gain {gain!r} is not finite"]
        verdict = is_eq(model.ProtocolParams(**SIM_PARAMS), make_env(env))
        if (gain < 0.0) != verdict:
            return [f"gain {gain:.4f} contradicts the analytic verdict "
                    f"is_equilibrium={verdict}"]
        return []

    return Job("deviation", "deviation_s", run, check)


# --------------------------------------------------------------- workloads

def build(workload: str, seed: int, tiny: bool = False) -> list:
    """Jobs of one workload, in run order.  The workload seed feeds every
    simulator seed; the design jobs have no random inputs."""
    if workload == "design":
        return design_jobs(tiny)
    if workload == "simulate":
        return [simulate_job(seed, tiny), simulate_mixed_job(seed + 1, tiny)]
    if workload == "scan":
        return [sweep_analyze_job(tiny), sweep_design_job(tiny),
                compare_job(seed + 2, tiny), deviation_job(seed + 3, tiny)]
    raise ValueError(f"unknown workload {workload!r}")


WORKLOADS = ("design", "simulate", "scan")

# argv parsed by each set-up sample: the first CLI call of the workload
SETUP_ARGV = {
    "design": ["solve", *env_flags(REF_ENV), "--problem", "OSNE_VPS", "--L", "4", "--b-cap", "3"],
    "simulate": ["simulate", *env_flags(REF_ENV), *env_flags(SIM_PARAMS),
                 "--n-peers", "2000", "--n-periods", "2000", "--seed", "1"],
    "scan": ["sweep", *env_flags(REF_ENV), "--L", "4", "--h-o", "2", "--b", "3",
             "--sweep", "c:0.05:0.6:0.05"],
}
