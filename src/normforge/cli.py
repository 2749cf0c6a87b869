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
(ENV.EPS, SIM.POPULATION_MIX, ...).  `main` loads the scenario and writes every
output: a command returns its text (to --out, else output.path, else stdout),
its CSV (analyze, solve and simulate, to --csv-out) and its exit code.  Exit
codes: 0 success, 2 config error (a machine-readable error object is printed;
this includes an env or population mix the analysis cannot model and an output
path that cannot be written), 3 infeasible design.

tft_sustainable, compare's sustained column and a strategic run's free-riding
are one verdict, `sim.sustained`, taken at the simulated shares (kind counts
over n_peers), not at the --mix fractions.  recip_utility_effective is v_one
averaged over the reciprocative profile when the norm holds, else v_one[0].
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import itertools
import json
import sys
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from .designer import PROBLEMS, DesignResult, DesignSpec, solve, solve_osne
from .incentives import blocks, check_equilibria, collapsed_social_utility
from .model import NetworkEnv, Points, ProtocolParams
from .sim import KIND_ORDER, SOCIAL_NORM, TFT, SimConfig, _kind_labels, run_replicas, sustained
from .stationary import check_regime, stationary_fixed_point, stationary_for_regime

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


def _integral(value) -> bool:
    return type(value) in (int, float) and not value % 1


class Kind(NamedTuple):
    """A config field's kind: the JSON values it accepts, the error for any
    other ({} takes the value's JSON), the cast of an accepted value (also a
    typed flag's argparse type) and the parse of a text flag's value."""
    accepts: Callable
    error: str
    cast: Callable = lambda value: value
    parse: Callable = None


NUMBER = Kind(lambda value: type(value) in (int, float), "expected a number, got {}", float)
INTEGER = Kind(_integral, "expected an integer, got {}", int)  # sweep axes give 3.0
INTEGERS = Kind(lambda value: value is None or isinstance(value, list)
                and all(map(_integral, value)), "expected a list of integers, got {}",
                parse=lambda text: [int(v) for v in text.split(",")])
MIX = Kind(lambda value: isinstance(value, dict), "expected an object of kind: fraction pairs",
           parse=_parse_mix)
BOOLEAN = Kind(lambda value: isinstance(value, bool), "expected true or false")
TEXT = Kind(lambda value: isinstance(value, str), "expected a string, got {}")

# The scenario schema: each checked section's noun, its required fields and its
# optional ones (absent, they take the dataclass's default), with their kinds.
SCHEMA = {
    "env": ("environment", dict.fromkeys(("r", "c", "eps", "lambda", "delta"), NUMBER),
            dict.fromkeys(("p_c", "p_d"), NUMBER)),
    "params": ("protocol", dict.fromkeys(("L", "h_o", "b"), INTEGER),
               {"beta": NUMBER, "m_o": INTEGERS}),
    "design": ("design", {"problem": TEXT, "L": INTEGER, "b_cap": INTEGER},
               dict.fromkeys(("beta_grid", "p_c_grid"), NUMBER)),
    "sim": ("simulation", dict.fromkeys(("n_peers", "n_periods", "seed"), INTEGER),
            {"population_mix": MIX, "protocol_flavor": TEXT, "strategic": BOOLEAN}),
    "output": ("output", {}, {"path": TEXT}),
}
SECTIONS = (*SCHEMA, "sweep")
FIELDS = {name: {**required, **optional} for name, (_, required, optional) in SCHEMA.items()}
KEYWORDS = {"lambda": "lam", "p_c_grid": "pC_grid"}  # the dataclasses' own spelling
# the sweepable axes, each with the section it sets: env's and params' numbers
AXES = {name: section for section in ("env", "params")
        for name, kind in FIELDS[section].items() if kind in (NUMBER, INTEGER)}


def _scenario(args) -> dict:
    """The config file's sections, with each flag's value set on the field
    its dest names ("env.eps", "sim.population_mix", ...).  The file's
    params.L fills a missing design.L; a given --L sets both."""
    cfg = _load_config_file(args.config) if args.config else {}
    sc = {name: dict(cfg.get(name, {})) for name in SCHEMA}
    if "L" in sc["params"]:
        sc["design"].setdefault("L", sc["params"]["L"])
    for dest, value in vars(args).items():
        section, _, field = dest.partition(".")
        if field and value is not None:
            parse = FIELDS[section][field].parse
            sc[section][field] = value if parse is None else _built(dest, lambda: parse(value))
            if dest == "params.L":
                sc["design"]["L"] = value
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


def _fields(section: dict, name: str) -> dict:
    """Section `name`'s fields as its dataclass's keywords, each cast to its
    kind.  The section must carry every required field and no unknown one,
    each of its kind."""
    noun, required, _ = SCHEMA[name]
    for key in required:
        if key not in section:
            raise CliError(f"{name}.{key}", f"required {noun} field is missing")
    for key, value in section.items():
        kind = FIELDS[name].get(key)
        if kind is None:
            raise CliError(f"{name}.{key}", f"unknown {noun} field {key!r}")
        if not kind.accepts(value):
            raise CliError(f"{name}.{key}", kind.error.format(json.dumps(value)))
    return {KEYWORDS.get(key, key): FIELDS[name][key].cast(value) for key, value in section.items()}


def _built(field: str, make, errors=(TypeError, ValueError)):
    """make() on config values, a value it rejects being a config error on
    `field` (the analytic layers raise ValueError on unanalyzable populations)."""
    try:
        return make()
    except errors as exc:
        raise CliError(field, str(exc))


def _build_env(section: dict) -> NetworkEnv:
    return _built("env", lambda: NetworkEnv(**_fields(section, "env")))


def _build_params(section: dict) -> ProtocolParams:
    return _built("params", lambda: ProtocolParams(**_fields(section, "params")))


def _build_design(section: dict, env: NetworkEnv) -> DesignSpec:
    return _built("design", lambda: DesignSpec(**_fields(section, "design"), env=env))


def _build_sim(section: dict, params: ProtocolParams, env: NetworkEnv) -> SimConfig:
    return _built("sim", lambda: SimConfig(**_fields(section, "sim"), params=params, env=env))


# ------------------------------------------------------------------- outputs

def _emit_text(text: str, path: str | None, field: str) -> None:
    """text to the file at `path`, else to stdout; `field` names the path's source."""
    if path:
        _built(field, lambda: Path(path).write_text(text, encoding="utf-8"), OSError)
    else:
        sys.stdout.write(text if text.endswith("\n") else text + "\n")


def _json_text(payload: dict) -> str:
    """payload as JSON, one line per top-level key (sorted); each value is
    compact, with its dicts' keys sorted, which keeps json on its C encoder
    (any indent selects Python's)."""
    return "{\n" + ",\n".join(f" {json.dumps(key)}: "
                              f"{json.dumps(value, sort_keys=True, check_circular=False)}"
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
POINT_COLUMNS = [*FIELDS["env"], *FIELDS["params"]]
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


def _checked_point(sc: dict) -> tuple:
    """The scenario's one (params, env) point, checked: its block and columns."""
    env = _build_env(sc["env"])
    return next(_checked_blocks([(_build_params(sc["params"]), env)]))


def cmd_analyze(args, sc: dict) -> tuple:
    block, columns = _checked_point(sc)
    [(params, env)] = block
    payload = {"env": env.to_dict(), "params": params.to_dict(),
               **{name: col[0] for name, col in columns.items()}}
    return _json_text(payload), _csv_text(ANALYZE_COLUMNS, _analyze_rows(block, columns)), 0


def cmd_check(args, sc: dict) -> tuple:
    _, columns = _checked_point(sc)
    return _json_text({name: columns[name][0] for name in REPORT_FIELDS}), None, 0


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


def cmd_solve(args, sc: dict) -> tuple:
    spec = _build_design(sc["design"], _build_env(sc["env"]))
    result = solve(spec)
    payload = dict(_solve_payload(spec, result), stats=result.stats)
    return (_json_text(payload),
            _csv_text(SOLVE_COLUMNS, [_solve_csv_row(spec, payload)]),
            0 if result.feasible else EXIT_INFEASIBLE)


def _axis_values(axis: dict) -> list:
    for name in ("param", "min", "max", "step"):
        if name not in axis:
            raise CliError(f"sweep.{name}", "sweep axis field is missing")
    if not (isinstance(axis["param"], str) and axis["param"] in AXES):
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


def _grid_builder(sc: dict, names: list) -> Callable:
    """build(name, make, values, *rest): make(section, *rest) on the scenario's
    section `name` with a grid point's `values` set on the axes it has a field
    for (design has L); each distinct call is made once."""
    made = {}

    def build(name, make, values, *rest):
        key = (name, tuple((n, v) for n, v in zip(names, values) if n in FIELDS[name]), *rest)
        if key not in made:  # the builders cast each field
            made[key] = make({**sc[name], **dict(key[1])}, *rest)
        return made[key]
    return build


def cmd_sweep(args, sc: dict) -> tuple:
    axes = sc["sweep"]
    if not axes:
        raise CliError("sweep", "sweep requires at least one axis")
    grids = [_axis_values(ax) for ax in axes]  # each axis checked before its param is read
    names = [ax["param"] for ax in axes]
    grid = list(itertools.product(*grids))
    build = _grid_builder(sc, names)

    if not sc["design"].get("problem"):  # analyze rows; with a problem, design rows
        if not sc["params"]:
            raise CliError("params", "sweep in analyze mode needs a params section")
        # params come before env at every point, so a bad grid fails with its
        # first bad point's error
        points = ((build("params", _build_params, values), build("env", _build_env, values))
                  for values in grid)

        analyzed = (row for block, columns in _checked_blocks(points)
                    for row in _analyze_rows(block, columns))
        header = [f"axis_{n}" for n in names] + ANALYZE_COLUMNS
        rows = [list(values) + row for values, row in zip(grid, analyzed)]
    else:
        searched = [name for name in names if AXES[name] == "params" and name != "L"]
        if searched:
            raise CliError("sweep.param", f"a design sweep searches {searched[0]!r} itself; "
                           "sweep env fields or L")

        def eval_point(values):
            spec = build("design", _build_design, values, build("env", _build_env, values))
            return list(values) + _solve_csv_row(spec, _solve_payload(spec, solve(spec)))

        header = [f"axis_{n}" for n in names] + SOLVE_COLUMNS
        rows = [eval_point(values) for values in grid]
    return _csv_text(header, rows), None, 0


SIM_SUMMARY_COLUMNS = [
    "flavor", "n_peers", "n_periods", "seed", "strategic",
    "r", "c", "eps", "lambda", "delta", "L", "h_o", "b", "beta",
    "p_reciprocative", "p_altruistic", "p_malicious",
    "mu_hat", "eta_hat", "delivery_rate", "recip_delivery_rate",
    "recip_mean_utility", "truncation_bound",
]


def _trace_columns(trace) -> dict:
    """A trace's named columns: its config echo, env, params, mix shares and
    final-window summary, with the population's mean utility."""
    config, s = trace.config, trace.summary()
    per_kind = s["final_window_mean_utility"]
    counts = config.kind_counts().values()  # in KIND_ORDER, as the labels
    return {"flavor": config.protocol_flavor, "n_peers": config.n_peers,
            "n_periods": config.n_periods, "seed": config.seed, "strategic": config.strategic,
            **config.env.to_dict(), **config.params.to_dict(),
            **{f"p_{kind.value}": config.population_mix.get(kind, 0.0) for kind in KIND_ORDER},
            "mu_hat": s["final_window_mu"], "eta_hat": _csv_cell(s["final_window_eta"]),
            "delivery_rate": s["delivery_rate"], "recip_delivery_rate": s["recip_delivery_rate"],
            "recip_mean_utility": per_kind.get(trace.strategic_kind()),
            "truncation_bound": s["truncation_bound"],
            "mean_social_utility": sum(per_kind.get(label, 0.0) * w for label, w in zip(
                _kind_labels(config.protocol_flavor), counts)) / config.n_peers}


def cmd_simulate(args, sc: dict) -> tuple:
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
    columns = _trace_columns(trace)
    row = [columns[name] for name in SIM_SUMMARY_COLUMNS]
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
    return _json_text(payload), _csv_text(header, [row]), 0


COMPARE_COLUMNS = ["axis_param", "axis_value", "flavor", "sustained",
                   "delivery_rate", "recip_delivery_rate", "recip_mean_utility",
                   "mean_social_utility"]


def cmd_compare(args, sc: dict) -> tuple:
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
    build = _grid_builder(sc, [axis["param"]])

    def cell_config(value, flavor):
        env = build("env", _build_env, [value])
        params = build("params", _build_params, [value])
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
        # a strategic run checked the protocol it simulated
        verdict = not trace.collapsed if trace.config.strategic else sustained(trace.config)
        columns = dict(_trace_columns(trace), axis_param=axis["param"], axis_value=value,
                       sustained=verdict)
        return [columns[name] for name in COMPARE_COLUMNS]

    # the cells share the scenario seed: one batch of common-random-number runs
    cells = [(v, fl) for v in values for fl in flavors]
    traces = run_replicas([cell_config(v, fl) for v, fl in cells])
    rows = [row(v, trace) for (v, _), trace in zip(cells, traces)]
    return _csv_text(COMPARE_COLUMNS, rows), None, 0


# --------------------------------------------------------------------- entry

def _typed_flags(p: argparse.ArgumentParser, section: str, skip=()) -> None:
    """A flag for each number and integer field of a section, of its kind."""
    for name, kind in FIELDS[section].items():
        if kind in (NUMBER, INTEGER) and name not in skip:
            p.add_argument(f"--{name.replace('_', '-')}", dest=f"{section}.{name}", type=kind.cast)


def _add_common(p: argparse.ArgumentParser, csv: bool) -> None:
    p.add_argument("--config", help="scenario JSON file")
    p.add_argument("--out", help="output path (default stdout)")
    if csv:  # the commands that write a CSV beside their text
        p.add_argument("--csv-out", help="also write a flat CSV to this path")
    _typed_flags(p, "env")
    _typed_flags(p, "params")
    p.add_argument("--m-o", dest="params.m_o", help="comma-separated client thresholds for h_o..L")


@functools.cache  # parse_args leaves the parser as it was
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="normforge",
        description="reputation-protocol design and simulation toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, fn, help_text, csv=False, design=False, run_mix=None, sweep=False):
        p = sub.add_parser(name, help=help_text)
        _add_common(p, csv)
        if design:
            p.add_argument("--problem", dest="design.problem", choices=PROBLEMS)
            _typed_flags(p, "design", skip=("L",))  # --L sets design.L
        if run_mix:
            _typed_flags(p, "sim")
            p.add_argument("--mix", dest="sim.population_mix",
                           help=f"population mix, e.g. {run_mix}")
            p.add_argument("--strategic", dest="sim.strategic", action="store_true", default=None)
        if sweep:
            p.add_argument("--sweep", action="append", help="axis as param:min:max:step")
        p.set_defaults(fn=fn)
        return p

    command("analyze", cmd_analyze, "stationary profile, utilities, and verdict", csv=True)
    command("check", cmd_check, "incentive slacks and equilibrium verdict")
    command("solve", cmd_solve, "solve a protocol design problem", csv=True, design=True)
    command("sweep", cmd_sweep, "grid of analyze or solve rows as CSV", design=True, sweep=True)
    p = command("simulate", cmd_simulate, "run one seeded agent-based simulation", csv=True,
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
    args = build_parser().parse_args(argv)
    try:
        sc = _scenario(args)
        path = _fields(sc["output"], "output").get("path")
        text, csv_text, code = args.fn(args, sc)
        if csv_text is not None and args.csv_out:  # first: if it fails, stdout has only the error
            _emit_text(csv_text, args.csv_out, "csv_out")
        _emit_text(text, args.out or path, "out" if args.out else "output.path")
        return code
    except CliError as exc:
        print(json.dumps({"error": {"field": exc.field, "message": exc.message}},
                         sort_keys=True))
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
