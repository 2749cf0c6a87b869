"""Command-line front end: scenario configs in, JSON/CSV tables out.

Subcommands
    analyze    stationary profile, utilities, slacks, verdict for one protocol
    check      just the incentive slacks and the equilibrium verdict
    solve      one of the four design problems
    sweep      Cartesian parameter grid of analyze or solve rows (CSV)
    simulate   one seeded agent-based run, trace JSON plus summary CSV row
    compare    protocol shoot-out (social norm vs tit-for-tat) along a sweep,
               every cell a replica of one simulator batch (cells that differ
               only in r, c or delta share one simulated run)

Scenarios are JSON objects with sections env / params / design / sweep / sim /
output; every field can also be set or overridden by a flag named after the
parameter (--eps, --delta, --h-o, ...); its --help metavar names that field
(ENV.EPS, SIM.POPULATION_MIX, ...).  Exit codes: 0 success, 2 config
error (a machine-readable error object is printed; this includes an env or
population mix the analysis cannot model), 3 infeasible design.

tft_sustainable, compare's sustained column and a strategic run's free-riding
are one verdict, `sim.sustained`, taken at the simulated shares (kind counts
over n_peers), not at the --mix fractions.  recip_utility_effective is v_one
averaged over the reciprocative profile when the norm holds, else v_one[0].
"""

from __future__ import annotations

import argparse
import csv
import io
import itertools
import json
import sys

import numpy as np

from .designer import PROBLEMS, DesignResult, DesignSpec, solve, solve_osne
from .incentives import blocks, check_equilibria, collapsed_social_utility
from .model import NetworkEnv, Points, ProtocolParams
from .sim import KIND_ORDER, SOCIAL_NORM, TFT, SimConfig, _kind_labels, run_replicas, sustained
from .stationary import check_regime, stationary_fixed_point, stationary_for_regime

SECTIONS = ("env", "params", "design", "sweep", "sim", "output")
ENV_FIELDS = ("r", "c", "eps", "lambda", "delta", "p_c", "p_d")
PARAM_TYPES = {"L": int, "h_o": int, "b": int, "beta": float}  # the numeric params fields
INTEGERS = (*(f"params.{name}" for name, kind in PARAM_TYPES.items() if kind is int),
            "design.L", "design.b_cap", "sim.n_peers", "sim.n_periods", "sim.seed")
NUMBERS = (*(f"env.{name}" for name in ENV_FIELDS),
           *(f"params.{name}" for name, kind in PARAM_TYPES.items() if kind is float),
           "design.beta_grid", "design.p_c_grid")
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
    for key, section in raw.items():
        if key not in SECTIONS:
            raise CliError(key, f"unknown config section {key!r} "
                                f"(expected one of {sorted(SECTIONS)})")
        if key != "sweep" and not isinstance(section, dict):
            raise CliError(key, f"config section {key!r} must be a JSON object")
    return raw


def _parse_mix(text: str) -> dict:
    mix = {}
    for part in text.split(","):
        kind, _, frac = part.partition("=")
        if not frac:
            raise ValueError(f"expected kind=fraction, got {part!r}")
        mix[kind.strip()] = float(frac)
    return mix


# the flags that carry text, parsed into their field's value
TEXT_FIELDS = {"params.m_o": lambda text: [int(v) for v in text.split(",")],
               "sim.population_mix": _parse_mix}


def _scenario(args) -> dict:
    """The config file's sections, with each flag's value set on the field
    its dest names ("env.eps", "sim.population_mix", ...)."""
    cfg = _load_config_file(args.config) if args.config else {}
    sc = {name: dict(cfg.get(name, {})) for name in SECTIONS if name != "sweep"}
    for dest, value in vars(args).items():
        section, _, field = dest.partition(".")
        if field and value is not None:
            parse = TEXT_FIELDS.get(dest)
            sc[section][field] = value if parse is None else _built(dest, lambda: parse(value))
    if "L" in sc["params"]:
        sc["design"].setdefault("L", sc["params"]["L"])
    sweep = cfg.get("sweep", [])
    if not (isinstance(sweep, list) and all(isinstance(axis, dict) for axis in sweep)):
        raise CliError("sweep", "expected a list of axis objects")
    for spec in getattr(args, "sweep", None) or []:
        bits = spec.split(":")
        if len(bits) != 4:
            raise CliError("sweep", f"expected param:min:max:step, got {spec!r}")
        sweep.append(_built("sweep", lambda: {"param": bits[0], "min": float(bits[1]),
                                              "max": float(bits[2]), "step": float(bits[3])}))
    return dict(sc, sweep=sweep)


def _integral(value) -> bool:
    return type(value) in (int, float) and not value % 1


def _check_fields(section: dict, name: str, noun: str, required, known) -> None:
    """A section must carry every required field and no unknown one; number
    fields take JSON numbers, integer fields ints or integral floats (sweep
    axes give 3.0) and m_o a list of those."""
    for key in required:
        if key not in section:
            raise CliError(f"{name}.{key}", f"required {noun} field is missing")
    for key, value in section.items():
        field = f"{name}.{key}"
        if key not in known:
            raise CliError(field, f"unknown {noun} field {key!r}")
        if field in NUMBERS and type(value) not in (int, float):
            raise CliError(field, f"expected a number, got {json.dumps(value)}")
        if field in INTEGERS and not _integral(value):
            raise CliError(field, f"expected an integer, got {json.dumps(value)}")
        if field == "params.m_o" and not (value is None or isinstance(value, list)
                                          and all(map(_integral, value))):
            raise CliError(field, f"expected a list of integers, got {json.dumps(value)}")


def _built(field: str, make, errors=(TypeError, ValueError)):
    """make() on config values, a value it rejects being a config error on
    `field` (the analytic layers raise ValueError on unanalyzable populations)."""
    try:
        return make()
    except errors as exc:
        raise CliError(field, str(exc))


def _env_of(section: dict) -> NetworkEnv:
    return _built("env", lambda: NetworkEnv(**{"lam" if name == "lambda" else name: float(value)
                                               for name, value in section.items()}))


def _params_of(section: dict) -> ProtocolParams:
    return _built("params", lambda: ProtocolParams(
        **{name: kind(section[name]) for name, kind in PARAM_TYPES.items() if name in section},
        m_o=section.get("m_o")))


def _build_env(section: dict) -> NetworkEnv:
    _check_fields(section, "env", "environment", ("r", "c", "eps", "lambda", "delta"), ENV_FIELDS)
    return _env_of(section)


def _build_params(section: dict) -> ProtocolParams:
    _check_fields(section, "params", "protocol", ("L", "h_o", "b"), (*PARAM_TYPES, "m_o"))
    return _params_of(section)


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
    if not isinstance(section.get("strategic", False), bool):
        raise CliError("sim.strategic", "expected true or false")
    return _built("sim", lambda: SimConfig(
        n_peers=int(section["n_peers"]), n_periods=int(section["n_periods"]),
        seed=int(section["seed"]), params=params, env=env,
        population_mix=section.get("population_mix"),
        protocol_flavor=section.get("protocol_flavor", SOCIAL_NORM),
        strategic=section.get("strategic", False)))


# ------------------------------------------------------------------- outputs

def _emit_text(text: str, path: str | None) -> None:
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")


def _json_text(payload: dict, sort_keys: bool = True) -> str:
    """payload as JSON, one line per top-level key (sorted); each value is
    compact, which keeps json on its C encoder (any indent selects Python's),
    its dicts' keys sorted unless they were built in order (sort_keys=False)."""
    return "{\n" + ",\n".join(f" {json.dumps(key)}: "
                              f"{json.dumps(value, sort_keys=sort_keys, check_circular=False)}"
                              for key, value in sorted(payload.items())) + "\n}"


def _csv_text(header: list, rows: list) -> str:
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows([header, *rows])
    return buf.getvalue()


def _csv_cell(value):
    """A list (a profile, a threshold vector) goes in one ';'-joined cell."""
    return ";".join(map(str, value)) if isinstance(value, list) else value


# ------------------------------------------------------------------ commands

REPORT_FIELDS = ("serve_slack", "refuse_slack", "per_theta_slacks", "is_equilibrium")
POINT_COLUMNS = ["r", "c", "eps", "lambda", "delta", "p_c", "p_d", "L", "h_o", "b", "beta", "m_o"]
RESULT_COLUMNS = ["alpha", "mu", "eta", "v_one", "v_inf",
                  "social_utility", "social_utility_effective", "recip_utility_effective",
                  "serve_slack", "refuse_slack", "is_equilibrium"]
ANALYZE_COLUMNS = POINT_COLUMNS + RESULT_COLUMNS


def _checked_blocks(pairs):
    """Yield each block of (params, env) points that one evaluator call
    checks, with the block's analyze fields as columns of Python values."""
    for L, run in itertools.groupby(pairs, key=lambda pair: pair[0].L):
        for block in blocks(list(run), L):
            points = Points.of([p for p, _ in block], [e for _, e in block])
            rep = _built("env", lambda: check_equilibria(points), ValueError)
            holds, v_one = rep.is_equilibrium, np.ascontiguousarray(rep.utilities.v_one)
            # the reciprocative peers' own profile, in rows for the dot products
            recip = np.ascontiguousarray(stationary_fixed_point(points).eta)
            # where the norm fails, altruists alone serve and a free-rider sits at rung 0
            collapsed = collapsed_social_utility(points, points.b, points.p_c)
            columns = {"alpha": rep.dist.alpha, "mu": rep.dist.mu, "eta": rep.dist.eta,
                       "v_one": v_one, "v_inf": rep.utilities.v_inf,
                       "social_utility": rep.social_utility,
                       "social_utility_effective": np.where(holds, rep.social_utility, collapsed),
                       "recip_utility_effective": np.where(
                           holds, [eta @ v for eta, v in zip(recip, v_one)], v_one[:, 0]),
                       **{name: getattr(rep, name) for name in REPORT_FIELDS}}
            yield block, {name: col.tolist() for name, col in columns.items()}


def _analyze_rows(block, columns):
    """A checked block's CSV rows (ANALYZE_COLUMNS): each point's fields,
    then its result columns."""
    results = zip(*(map(_csv_cell, columns[name]) for name in RESULT_COLUMNS))
    for (params, env), result in zip(block, results):
        point = {**env.to_dict(), **params.to_dict()}
        yield [_csv_cell(point[name]) for name in POINT_COLUMNS] + list(result)


def cmd_analyze(args) -> int:
    sc = _scenario(args)
    env = _build_env(sc["env"])
    params = _build_params(sc["params"])
    [(block, columns)] = _checked_blocks([(params, env)])
    payload = {"env": env.to_dict(), "params": params.to_dict(),
               **{name: col[0] for name, col in columns.items()}}
    _emit_text(_json_text(payload), args.out or sc["output"].get("path"))
    if args.csv_out:
        _emit_text(_csv_text(ANALYZE_COLUMNS, _analyze_rows(block, columns)), args.csv_out)
    return 0


def cmd_check(args) -> int:
    sc = _scenario(args)
    env = _build_env(sc["env"])
    params = _build_params(sc["params"])
    [(_, columns)] = _checked_blocks([(params, env)])
    _emit_text(_json_text({name: columns[name][0] for name in REPORT_FIELDS}),
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
    _emit_text(_json_text(dict(payload, search_log=log), sort_keys=False),
               args.out or sc["output"].get("path"))
    if args.csv_out:
        _emit_text(_csv_text(SOLVE_COLUMNS, [_solve_csv_row(spec, payload)]), args.csv_out)
    return 0 if result.feasible else EXIT_INFEASIBLE


def _axis_values(axis: dict) -> list:
    for name in ("param", "min", "max", "step"):
        if name not in axis:
            raise CliError(f"sweep.{name}", "sweep axis field is missing")
    if axis["param"] not in (*ENV_FIELDS, *PARAM_TYPES):
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
    for name, value in zip(names, values):  # the builders cast each field
        (env_sec if name in ENV_FIELDS else par_sec)[name] = value
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

        par_axes = [j for j, name in enumerate(names) if name not in ENV_FIELDS]
        env_axes = [j for j, name in enumerate(names) if name in ENV_FIELDS]

        def points():
            """Each point's (params, env), each distinct section built once:
            the first point's by the builders, a later params section with
            only its integer axes re-checked.  Params come before env at
            every point, so a bad grid fails with its first bad point's error."""
            params, envs = {}, {}
            for i, values in enumerate(grid):
                p_key = tuple(values[j] for j in par_axes)
                if p_key not in params:
                    fields = {names[j]: values[j] for j in par_axes}
                    if i:
                        _check_fields(fields, "params", "protocol", (), PARAM_TYPES)
                    params[p_key] = (_params_of if i else _build_params)({**sc["params"], **fields})
                e_key = tuple(values[j] for j in env_axes)
                if e_key not in envs:
                    fields = {names[j]: values[j] for j in env_axes}
                    envs[e_key] = (_env_of if i else _build_env)({**sc["env"], **fields})
                yield params[p_key], envs[e_key]

        analyzed = (row for block, columns in _checked_blocks(points())
                    for row in _analyze_rows(block, columns))
        header = [f"axis_{n}" for n in names] + ANALYZE_COLUMNS
        rows = [list(values) + row for values, row in zip(grid, analyzed)]
    else:
        searched = [name for name in names if name in PARAM_TYPES and name != "L"]
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
    return [config.protocol_flavor, config.n_peers, config.n_periods, config.seed,
            config.strategic, config.env.r, config.env.c, config.env.eps,
            config.env.lam, config.env.delta, config.params.L, config.params.h_o,
            config.params.b, config.params.beta,
            *(config.population_mix.get(kind, 0.0) for kind in KIND_ORDER),
            s["final_window_mu"], _csv_cell(s["final_window_eta"]),
            s["delivery_rate"], s["recip_delivery_rate"],
            s["final_window_mean_utility"].get(trace.strategic_kind()),
            s["truncation_bound"]]


def cmd_simulate(args) -> int:
    sc = _scenario(args)
    env = _build_env(sc["env"])
    params = _build_params(sc["params"])
    config = _build_sim(sc["sim"], params, env)
    tft = config.protocol_flavor == TFT
    if args.compare_analytic and tft:
        raise CliError("sim.protocol_flavor", "analytic comparison covers the social-norm flavor")
    if not tft and (config.strategic or args.compare_analytic):
        # a strategic run checks the protocol itself; here the mix is admitted
        fn = stationary_for_regime if args.compare_analytic else check_regime
        dist = _built("sim.population_mix", lambda: fn(params, config.analytic_env()),
                      ValueError)
    [trace] = run_replicas([config])
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
    if tft:
        header += ["tft_sustainable"]
        row += [sustained(config)]
    _emit_text(_json_text(payload), args.out or sc["output"].get("path"))
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

    def cell_config(value, flavor):
        env_sec, par_sec = _apply_point(sc["env"], sc["params"], [axis["param"]], [value])
        env = _build_env(env_sec)
        params = _build_params(par_sec)
        config = _build_sim({"strategic": True, **sc["sim"], "protocol_flavor": flavor},
                            params, env)
        if flavor == SOCIAL_NORM:
            mix_env = config.analytic_env()
            _built("sim.population_mix", lambda: check_regime(params, mix_env), ValueError)
            if args.optimize_social:
                best = solve_osne(DesignSpec("OSNE", params.L, b_cap=params.b, env=mix_env))
                if best.feasible:  # the winner passed its check at mix_env
                    config = config.replace(params=best.params)
        return config

    def row(value, trace):
        config = trace.config
        # a strategic run checked the protocol it simulated
        verdict = not trace.collapsed if config.strategic else sustained(config)
        s = trace.summary()
        per_kind = s["final_window_mean_utility"]
        counts = config.kind_counts().values()  # in KIND_ORDER, as the labels
        social = sum(per_kind.get(label, 0.0) * w for label, w in
                     zip(_kind_labels(config.protocol_flavor), counts)) / config.n_peers
        return [axis["param"], value, config.protocol_flavor, verdict,
                s["delivery_rate"], s["recip_delivery_rate"],
                per_kind.get(trace.strategic_kind()), social]

    # the cells share the scenario seed: one batch of common-random-number runs
    cells = [(v, fl) for v in values for fl in flavors]
    traces = run_replicas([cell_config(v, fl) for v, fl in cells])
    rows = [row(v, trace) for (v, _), trace in zip(cells, traces)]
    _emit_text(_csv_text(COMPARE_COLUMNS, rows), args.out or sc["output"].get("path"))
    return 0


# --------------------------------------------------------------------- entry

def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="scenario JSON file")
    p.add_argument("--out", help="output path (default stdout)")
    p.add_argument("--csv-out", help="also write a flat CSV to this path")
    for name in ENV_FIELDS:
        p.add_argument(f"--{name.replace('_', '-')}", dest=f"env.{name}", type=float)
    for name, kind in PARAM_TYPES.items():
        p.add_argument(f"--{name.replace('_', '-')}", dest=f"params.{name}", type=kind)
    p.add_argument("--m-o", dest="params.m_o", help="comma-separated client thresholds for h_o..L")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="normforge",
        description="reputation-protocol design and simulation toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, fn, help_text, design=False, run_mix=None, sweep=False):
        p = sub.add_parser(name, help=help_text)
        _add_common(p)
        if design:
            p.add_argument("--problem", dest="design.problem", choices=PROBLEMS)
            p.add_argument("--b-cap", dest="design.b_cap", type=int)
            p.add_argument("--beta-grid", dest="design.beta_grid", type=float)
            p.add_argument("--p-c-grid", dest="design.p_c_grid", type=float)
        if run_mix:
            p.add_argument("--n-peers", dest="sim.n_peers", type=int)
            p.add_argument("--n-periods", dest="sim.n_periods", type=int)
            p.add_argument("--seed", dest="sim.seed", type=int)
            p.add_argument("--mix", dest="sim.population_mix",
                           help=f"population mix, e.g. {run_mix}")
            p.add_argument("--strategic", dest="sim.strategic", action="store_true", default=None)
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
    p.add_argument("--flavor", dest="sim.protocol_flavor", choices=(SOCIAL_NORM, TFT))
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
