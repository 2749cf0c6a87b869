"""Command-line front end: scenario configs in, JSON/CSV tables out.

Subcommands
    analyze    stationary profile, utilities, slacks, verdict for one protocol
    check      just the incentive slacks and the equilibrium verdict
    solve      one of the four design problems
    sweep      Cartesian parameter grid of analyze or solve rows (CSV)
    simulate   one seeded agent-based run, trace JSON plus summary CSV row
    compare    protocol shoot-out (social norm vs tit-for-tat) along a sweep

Scenarios are JSON objects with sections env / params / design / sweep / sim /
output; every field can also be set or overridden by a flag named after the
parameter (--eps, --delta, --h-o, ...).  Exit codes: 0 success, 2 config
error (a machine-readable error object is printed; this includes an env or
population mix the analysis cannot model), 3 infeasible design.
"""

from __future__ import annotations

import argparse
import csv
import io
import itertools
import json
import sys

from .designer import PROBLEMS, DesignResult, DesignSpec, solve, solve_osne
from .incentives import (IncentiveReport, blocks, check_equilibria, check_equilibrium,
                         collapsed_social_utility, fed_while_punished)
from .model import NetworkEnv, PeerKind, Points, ProtocolParams, point_of
from .sim import SOCIAL_NORM, TFT, SimConfig, run_sim, run_tft, tft_sustainable
from .stationary import check_regime, stationary_for_regime

ENV_FIELDS = ("r", "c", "eps", "lambda", "delta", "p_c", "p_d")
PARAM_FIELDS = ("L", "h_o", "b", "beta", "m_o")
EXIT_CONFIG = 2
EXIT_INFEASIBLE = 3


class CliError(Exception):
    def __init__(self, field: str, message: str):
        super().__init__(message)
        self.field = field
        self.message = message


# ---------------------------------------------------------------- scenario IO

def _load_config_file(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except FileNotFoundError:
        raise CliError("config", f"config file not found: {path}")
    except json.JSONDecodeError as exc:
        raise CliError("config", f"malformed JSON in {path}: {exc}")
    if not isinstance(raw, dict):
        raise CliError("config", "top-level config must be a JSON object")
    known = {"env", "params", "design", "sweep", "sim", "output"}
    for key in raw:
        if key not in known:
            raise CliError(key, f"unknown config section {key!r} (expected one of {sorted(known)})")
    return raw


def _scenario(args) -> dict:
    cfg = _load_config_file(args.config) if args.config else {}
    env = dict(cfg.get("env", {}))
    params = dict(cfg.get("params", {}))
    design = dict(cfg.get("design", {}))
    sim = dict(cfg.get("sim", {}))

    def override(section, name, value):
        if value is not None:
            section[name] = value

    for name in ENV_FIELDS:
        override(env, name, getattr(args, _attr(name), None))
    for name in ("L", "h_o", "b", "beta"):
        override(params, name, getattr(args, _attr(name), None))
    if getattr(args, "m_o", None) is not None:
        params["m_o"] = _built("params.m_o", lambda: [int(v) for v in args.m_o.split(",")])
    for name in ("problem", "b_cap", "beta_grid", "p_c_grid"):
        override(design, name, getattr(args, _attr(name), None))
    if "L" in params and "L" not in design:
        design.setdefault("L", params["L"])
    for name in ("n_peers", "n_periods", "seed", "strategic"):
        override(sim, name, getattr(args, _attr(name), None))
    if getattr(args, "flavor", None) is not None:
        sim["protocol_flavor"] = args.flavor
    if getattr(args, "mix", None) is not None:
        mix = {}
        for part in args.mix.split(","):
            kind, _, frac = part.partition("=")
            if not frac:
                raise CliError("sim.population_mix", f"expected kind=fraction, got {part!r}")
            mix[kind.strip()] = _built("sim.population_mix", lambda: float(frac))
        sim["population_mix"] = mix
    sweep = cfg.get("sweep", [])
    if not (isinstance(sweep, list) and all(isinstance(axis, dict) for axis in sweep)):
        raise CliError("sweep", "expected a list of axis objects")
    for spec in getattr(args, "sweep", None) or []:
        bits = spec.split(":")
        if len(bits) != 4:
            raise CliError("sweep", f"expected param:min:max:step, got {spec!r}")
        sweep.append(_built("sweep", lambda: {"param": bits[0], "min": float(bits[1]),
                                              "max": float(bits[2]), "step": float(bits[3])}))
    return {"env": env, "params": params, "design": design, "sweep": sweep,
            "sim": sim, "output": dict(cfg.get("output", {}))}


def _attr(flag_name: str) -> str:
    return {"lambda": "lam"}.get(flag_name, flag_name)


def _check_fields(section: dict, name: str, noun: str, required, known) -> None:
    """A section must carry every required field and no unknown one."""
    for key in required:
        if key not in section:
            raise CliError(f"{name}.{key}", f"required {noun} field is missing")
    for key in section:
        if key not in known:
            raise CliError(f"{name}.{key}", f"unknown {noun} field {key!r}")


def _built(field: str, make, errors=(TypeError, ValueError)):
    """make() on config values, a value it rejects being a config error on
    `field` (the analytic layers raise ValueError on unanalyzable populations)."""
    try:
        return make()
    except errors as exc:
        raise CliError(field, str(exc))


def _build_env(section: dict) -> NetworkEnv:
    _check_fields(section, "env", "environment", ("r", "c", "eps", "lambda", "delta"), ENV_FIELDS)
    return _built("env", lambda: NetworkEnv(
        r=float(section["r"]), c=float(section["c"]), eps=float(section["eps"]),
        lam=float(section["lambda"]), delta=float(section["delta"]),
        p_c=float(section.get("p_c", 0.0)), p_d=float(section.get("p_d", 0.0))))


def _build_params(section: dict) -> ProtocolParams:
    _check_fields(section, "params", "protocol", ("L", "h_o", "b"), PARAM_FIELDS)
    return _built("params", lambda: ProtocolParams(
        L=int(section["L"]), h_o=int(section["h_o"]), b=int(section["b"]),
        beta=float(section.get("beta", 0.0)), m_o=section.get("m_o")))


def _build_design(section: dict, env: NetworkEnv) -> DesignSpec:
    _check_fields(section, "design", "design", ("problem", "L", "b_cap"),
                  ("problem", "L", "b_cap", "beta_grid", "p_c_grid"))
    return _built("design", lambda: DesignSpec(
        problem=str(section["problem"]), L=int(section["L"]), b_cap=int(section["b_cap"]),
        env=env, beta_grid=float(section.get("beta_grid", 0.01)),
        pC_grid=float(section.get("p_c_grid", 0.01))))


def _build_sim(section: dict, params: ProtocolParams, env: NetworkEnv) -> SimConfig:
    _check_fields(section, "sim", "simulation", ("n_peers", "n_periods", "seed"),
                  ("n_peers", "n_periods", "seed", "population_mix", "protocol_flavor",
                   "strategic"))
    if not isinstance(section.get("population_mix", {}), dict):
        raise CliError("sim.population_mix", "expected an object of kind: fraction pairs")
    return _built("sim", lambda: SimConfig(
        n_peers=int(section["n_peers"]), n_periods=int(section["n_periods"]),
        seed=int(section["seed"]), params=params, env=env,
        population_mix=section.get("population_mix"),
        protocol_flavor=section.get("protocol_flavor", SOCIAL_NORM),
        strategic=bool(section.get("strategic", False))))


# ------------------------------------------------------------------- outputs

def _emit_text(text: str, path: str | None) -> None:
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")


def _csv_text(header: list, rows: list) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow(row)
    return buf.getvalue()


def _csv_cell(value):
    """A list (a profile, a threshold vector) goes in one ';'-joined cell."""
    return ";".join(str(v) for v in value) if isinstance(value, list) else value


def _report_payload(report) -> dict:
    return {"serve_slack": report.serve_slack, "refuse_slack": report.refuse_slack,
            "per_theta_slacks": report.per_theta_slacks.tolist(),
            "is_equilibrium": report.is_equilibrium}


# ------------------------------------------------------------------ commands

def _analyze_payloads(points):
    """Yield each (params, env) point's analyze payload, checked in blocks."""
    for L, run in itertools.groupby(points, key=lambda point: point[0].L):
        for block in blocks(list(run), L):
            batch = _built("env", lambda: check_equilibria(Points.of(
                [p for p, _ in block], [e for _, e in block])), ValueError)
            for j, (params, env) in enumerate(block):
                yield _analyze_payload(params, env, point_of(batch, j))


def _analyze_payload(params: ProtocolParams, env: NetworkEnv, report: IncentiveReport) -> dict:
    dist, profile = report.dist, report.utilities
    u = report.social_utility
    if report.is_equilibrium:  # reciprocative peers' mean (see stationary_for_regime)
        u_eff = u
        recip_eta = dist.eta.copy()
        recip_eta[params.L] -= env.p_c
        recip_eta[:params.h_o + 1] -= env.p_d / (params.h_o + 1)
        recip_eff = float(recip_eta @ profile.v_one) / (1.0 - env.p_c - env.p_d)
    else:  # altruists alone serve, rationing reciprocative peers by their supply
        u_eff = collapsed_social_utility(env, params.b, env.p_c)
        recip_eff = env.lam * params.b * (1.0 - env.eps) * env.r * fed_while_punished(env.p_c)
    return {
        "env": env.to_dict(),
        "params": params.to_dict(),
        "alpha": dist.alpha,
        "mu": dist.mu,
        "eta": dist.eta.tolist(),
        "v_one": profile.v_one.tolist(),
        "v_inf": profile.v_inf.tolist(),
        "social_utility": u,
        "social_utility_effective": u_eff,
        "recip_utility_effective": recip_eff,
        **_report_payload(report),
    }


ANALYZE_COLUMNS = [
    "r", "c", "eps", "lambda", "delta", "p_c", "p_d",
    "L", "h_o", "b", "beta", "m_o",
    "alpha", "mu", "eta", "v_one", "v_inf",
    "social_utility", "social_utility_effective", "recip_utility_effective",
    "serve_slack", "refuse_slack", "is_equilibrium",
]


def _analyze_csv_row(payload: dict) -> list:
    flat = {**payload, **payload["env"], **payload["params"]}
    return [_csv_cell(flat[name]) for name in ANALYZE_COLUMNS]


def cmd_analyze(args) -> int:
    sc = _scenario(args)
    env = _build_env(sc["env"])
    params = _build_params(sc["params"])
    payload = next(_analyze_payloads([(params, env)]))
    _emit_text(json.dumps(payload, sort_keys=True, indent=1),
               args.out or sc["output"].get("path"))
    if args.csv_out:
        _emit_text(_csv_text(ANALYZE_COLUMNS, [_analyze_csv_row(payload)]), args.csv_out)
    return 0


def cmd_check(args) -> int:
    sc = _scenario(args)
    env = _build_env(sc["env"])
    params = _build_params(sc["params"])
    payload = _report_payload(_built("env", lambda: check_equilibrium(params, env), ValueError))
    _emit_text(json.dumps(payload, sort_keys=True, indent=1),
               args.out or sc["output"].get("path"))
    return 0


SOLVE_COLUMNS = ["problem", "r", "c", "eps", "lambda", "delta",
                 "L", "b_cap", "feasible", "h_o_star", "b_star", "beta_star",
                 "m_o_star", "p_c_star", "utility"]


def _solve_payload(spec: DesignSpec, result: DesignResult) -> dict:
    """The design outcome, keyed by SOLVE_COLUMNS names."""
    star = {} if result.params is None else result.params.to_dict()
    return {"problem": spec.problem, "feasible": result.feasible,
            **{f"{k}_star": star.get(k) for k in ("h_o", "b", "beta", "m_o")},
            "p_c_star": result.pC_star, "utility": result.utility}


def _solve_csv_row(spec: DesignSpec, payload: dict) -> list:
    flat = {**payload, **spec.env.to_dict(), "L": spec.L, "b_cap": spec.b_cap}
    return [_csv_cell(flat[name]) for name in SOLVE_COLUMNS]


def cmd_solve(args) -> int:
    sc = _scenario(args)
    env = _build_env(sc["env"])
    spec = _build_design(sc["design"], env)
    result = solve(spec)
    payload = _solve_payload(spec, result)
    log = [{"candidate": list(cand) if isinstance(cand, tuple) else cand,
            "slack": slack, "utility": util} for cand, slack, util in result.search_log]
    _emit_text(json.dumps(dict(payload, search_log=log), sort_keys=True, indent=1),
               args.out or sc["output"].get("path"))
    if args.csv_out:
        _emit_text(_csv_text(SOLVE_COLUMNS, [_solve_csv_row(spec, payload)]), args.csv_out)
    return 0 if result.feasible else EXIT_INFEASIBLE


def _axis_values(axis: dict) -> list:
    for name in ("param", "min", "max", "step"):
        if name not in axis:
            raise CliError(f"sweep.{name}", "sweep axis field is missing")
    if axis["param"] not in ENV_FIELDS + ("L", "h_o", "b", "beta"):
        raise CliError("sweep.param", f"unknown sweep parameter {axis['param']!r}")
    lo, hi, step = (_built(f"sweep.{name}", lambda: float(axis[name]))
                    for name in ("min", "max", "step"))
    if step <= 0:
        raise CliError("sweep.step", "step must be > 0")
    values, v, i = [], lo, 0
    while v <= hi + 1e-12:
        values.append(round(v, 12))
        i += 1
        v = lo + i * step
    return values


def _apply_point(env_sec: dict, par_sec: dict, names, values):
    env_sec, par_sec = dict(env_sec), dict(par_sec)
    for name, value in zip(names, values):
        if name in ENV_FIELDS:
            env_sec[name] = value
        else:
            par_sec[name] = int(value) if name in ("L", "h_o", "b") else value
    return env_sec, par_sec


def cmd_sweep(args) -> int:
    sc = _scenario(args)
    axes = sc["sweep"]
    if not axes:
        raise CliError("sweep", "sweep requires at least one axis")
    names = [ax["param"] for ax in axes]
    grids = [_axis_values(ax) for ax in axes]
    mode = "solve" if sc["design"].get("problem") else "analyze"
    grid = list(itertools.product(*grids))

    if mode == "analyze":
        if not sc["params"]:
            raise CliError("params", "sweep in analyze mode needs a params section")
        sections = (_apply_point(sc["env"], sc["params"], names, values) for values in grid)
        payloads = _analyze_payloads((_build_params(par_sec), _build_env(env_sec))
                                     for env_sec, par_sec in sections)
        header = [f"axis_{n}" for n in names] + ANALYZE_COLUMNS
        rows = [list(values) + _analyze_csv_row(payload)
                for values, payload in zip(grid, payloads)]
    else:
        searched = [name for name in names if name in ("h_o", "b", "beta")]
        if searched:
            raise CliError("sweep.param", f"a design sweep searches {searched[0]!r} itself; "
                           "sweep env fields or L")

        def eval_point(values):
            env_sec, par_sec = _apply_point(sc["env"], dict(), names, values)
            spec = _build_design(dict(sc["design"], **par_sec), _build_env(env_sec))
            return list(values) + _solve_csv_row(spec, _solve_payload(spec, solve(spec)))

        header = [f"axis_{n}" for n in names] + SOLVE_COLUMNS
        rows = [eval_point(values) for values in grid]
    _emit_text(_csv_text(header, rows), args.out or sc["output"].get("path"))
    return 0


SIM_SUMMARY_COLUMNS = [
    "flavor", "n_peers", "n_periods", "seed", "strategic",
    "r", "c", "eps", "lambda", "delta", "L", "h_o", "b", "beta",
    "p_reciprocative", "p_altruistic", "p_malicious",
    "mu_hat", "eta_hat", "delivery_rate", "recip_delivery_rate",
    "recip_mean_utility", "truncation_bound",
]


def _sim_summary_row(config: SimConfig, trace) -> list:
    s = trace.summary()
    mix = {k.value: v for k, v in config.population_mix.items()}
    return [config.protocol_flavor, config.n_peers, config.n_periods, config.seed,
            config.strategic, config.env.r, config.env.c, config.env.eps,
            config.env.lam, config.env.delta, config.params.L, config.params.h_o,
            config.params.b, config.params.beta,
            mix.get("reciprocative", 0.0), mix.get("altruistic", 0.0), mix.get("malicious", 0.0),
            s["final_window_mu"], _csv_cell(s["final_window_eta"]),
            s["delivery_rate"], s["recip_delivery_rate"],
            s["final_window_mean_utility"].get(trace.strategic_kind()),
            s["truncation_bound"]]


def cmd_simulate(args) -> int:
    sc = _scenario(args)
    env = _build_env(sc["env"])
    params = _build_params(sc["params"])
    config = _build_sim(sc["sim"], params, env)
    if args.compare_analytic and config.protocol_flavor == TFT:
        raise CliError("sim.protocol_flavor", "analytic comparison covers the social-norm flavor")
    if config.protocol_flavor == SOCIAL_NORM and (config.strategic or args.compare_analytic):
        # a strategic run checks the protocol itself; here the mix is admitted
        fn = stationary_for_regime if args.compare_analytic else check_regime
        dist = _built("sim.population_mix", lambda: fn(params, config.analytic_env()),
                      ValueError)
    trace = run_tft(config) if config.protocol_flavor == TFT else run_sim(config)
    payload = trace.to_json_dict()
    header = list(SIM_SUMMARY_COLUMNS)
    row = _sim_summary_row(config, trace)
    if args.compare_analytic:
        linf = float(max(abs(trace.window_eta() - dist.eta)))
        payload["analytic_comparison"] = {
            "eta_analytic": dist.eta.tolist(),
            "mu_analytic": dist.mu,
            "eta_linf": linf,
        }
        header += ["eta_linf", "mu_analytic"]
        row += [linf, dist.mu]
    if config.protocol_flavor == TFT:
        header += ["tft_sustainable"]
        row += [tft_sustainable(env, params.b,
                                config.population_mix.get(PeerKind.ALTRUISTIC, 0.0))]
    _emit_text(json.dumps(payload, sort_keys=True, indent=1),
               args.out or sc["output"].get("path"))
    if args.csv_out:
        _emit_text(_csv_text(header, [row]), args.csv_out)
    return 0


COMPARE_COLUMNS = ["axis_param", "axis_value", "flavor", "sustained",
                   "delivery_rate", "recip_delivery_rate", "recip_mean_utility",
                   "mean_social_utility"]


def cmd_compare(args) -> int:
    sc = _scenario(args)
    axes = sc["sweep"]
    if len(axes) != 1:
        raise CliError("sweep", "compare expects exactly one sweep axis")
    axis = axes[0]
    values = _axis_values(axis)
    flavors = [f.strip() for f in (args.flavors or f"{SOCIAL_NORM},{TFT}").split(",")]
    for fl in flavors:
        if fl not in (SOCIAL_NORM, TFT):
            raise CliError("flavors", f"unknown protocol flavor {fl!r}")
    if not sc["params"]:
        raise CliError("params", "compare needs a params section")
    if not sc["sim"]:
        raise CliError("sim", "compare needs a sim section")

    def eval_cell(value, flavor):
        env_sec, par_sec = _apply_point(sc["env"], sc["params"], [axis["param"]], [value])
        env = _build_env(env_sec)
        params = _build_params(par_sec)
        sim_sec = dict(sc["sim"])
        sim_sec["protocol_flavor"] = flavor
        sim_sec.setdefault("strategic", True)
        config = _build_sim(sim_sec, params, env)
        weights = config.kind_counts()
        total = sum(weights.values())
        mix_env = config.analytic_env()
        if flavor == SOCIAL_NORM:
            _built("sim.population_mix", lambda: check_regime(params, mix_env), ValueError)
            if args.optimize_social:
                best = solve_osne(DesignSpec("OSNE", params.L, b_cap=params.b, env=mix_env))
                if best.feasible:  # the winner passed its check at mix_env
                    config = config.replace(params=best.params)
        trace = run_tft(config) if flavor == TFT else run_sim(config)
        if config.strategic:  # the run checked the protocol it simulated
            sustained = not trace.collapsed
        elif flavor == TFT:
            sustained = tft_sustainable(env, params.b, mix_env.p_c)
        else:
            sustained = check_equilibrium(config.params, mix_env).is_equilibrium
        s = trace.summary()
        per_kind = s["final_window_mean_utility"]
        strategic = trace.strategic_kind()
        label = {PeerKind.RECIPROCATIVE: strategic, PeerKind.ALTRUISTIC: "altruistic",
                 PeerKind.MALICIOUS: "malicious"}
        social = sum(per_kind.get(label[k], 0.0) * weights[k] for k in weights) / total
        return [axis["param"], value, flavor, sustained,
                s["delivery_rate"], s["recip_delivery_rate"],
                per_kind.get(strategic), social]

    rows = [eval_cell(v, fl) for v in values for fl in flavors]
    _emit_text(_csv_text(COMPARE_COLUMNS, rows), args.out or sc["output"].get("path"))
    return 0


# --------------------------------------------------------------------- entry

def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="scenario JSON file")
    p.add_argument("--out", help="output path (default stdout)")
    p.add_argument("--csv-out", help="also write a flat CSV to this path")
    for name in ENV_FIELDS:
        p.add_argument(f"--{name.replace('_', '-')}", dest=_attr(name), type=float)
    p.add_argument("--L", dest="L", type=int)
    p.add_argument("--h-o", dest="h_o", type=int)
    p.add_argument("--b", dest="b", type=int)
    p.add_argument("--beta", dest="beta", type=float)
    p.add_argument("--m-o", dest="m_o", help="comma-separated client thresholds for h_o..L")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="normforge",
        description="reputation-protocol design and simulation toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, fn, help_text, design=False, run_mix=None, sweep=False):
        p = sub.add_parser(name, help=help_text)
        _add_common(p)
        if design:
            p.add_argument("--problem", choices=PROBLEMS)
            p.add_argument("--b-cap", dest="b_cap", type=int)
            p.add_argument("--beta-grid", dest="beta_grid", type=float)
            p.add_argument("--p-c-grid", dest="p_c_grid", type=float)
        if run_mix:
            p.add_argument("--n-peers", dest="n_peers", type=int)
            p.add_argument("--n-periods", dest="n_periods", type=int)
            p.add_argument("--seed", dest="seed", type=int)
            p.add_argument("--mix", help=f"population mix, e.g. {run_mix}")
            p.add_argument("--strategic", dest="strategic", action="store_true", default=None)
        if sweep:
            p.add_argument("--sweep", action="append", help="axis as param:min:max:step")
        p.set_defaults(fn=fn)
        return p

    command("analyze", cmd_analyze, "stationary profile, utilities, and verdict")
    command("check", cmd_check, "incentive slacks and equilibrium verdict")
    command("solve", cmd_solve, "solve a protocol design problem", design=True)
    command("sweep", cmd_sweep, "grid of analyze or solve rows as CSV", design=True, sweep=True)
    p = command("simulate", cmd_simulate, "run one seeded agent-based simulation",
                run_mix="reciprocative=0.9,altruistic=0.1")
    p.add_argument("--flavor", choices=(SOCIAL_NORM, TFT))
    p.add_argument("--compare-analytic", action="store_true",
                   help="append the sup-norm gap to the simulated population's analytic profile")
    p = command("compare", cmd_compare, "social norm vs tit-for-tat along one axis",
                run_mix="reciprocative=0.7,altruistic=0.3", sweep=True)
    p.add_argument("--flavors", help="comma-separated flavors (default both)")
    p.add_argument("--optimize-social", action="store_true",
                   help="solve OSNE per grid point for the social norm at the simulated "
                        "mix, with --b as the connection cap; keeps the configured "
                        "protocol where nothing is sustainable")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except CliError as exc:
        print(json.dumps({"error": {"field": exc.field, "message": exc.message}},
                         sort_keys=True))
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
