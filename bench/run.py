"""normforge benchmark: run one workload and print its metrics.

    python3 bench/run.py --workload design --seed 1 --seconds 30 --trace 0

With --trace 0 the workload's jobs run in rounds until --seconds is spent;
the end-to-end metrics are medians over rounds (set-up time is a median over
separate interpreter launches, spread between the rounds).  With --trace 1
every public normforge function is wrapped in a span; traced rounds alternate
with untraced ones for the same time, and the per-layer metrics are per-round
means over the traced rounds.  Every job's output is checked each time it
runs; a job that fails its check counts in `failed`.

Every line but the last is a human-readable metric table; the last line is
one JSON object with keys correct, attempted, failed and metrics.  See
bench/README.md for the workloads and what each metric should move.
"""

from __future__ import annotations

import os

# fixed before numpy loads: one BLAS/OpenMP thread, the CLI's default pool size
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ.pop("NORMFORGE_THREADS", None)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_SAMPLES = 15
SETUP_PER_GAP = 3  # launches before each round until SETUP_SAMPLES are taken

# One set-up sample: a fresh interpreter imports the CLI, parses the
# workload's first command line and builds its scenario objects the way the
# CLI's command does: config merge, field checks, then env and the design
# spec, or env, params and (for simulate) the sim config.
SETUP_CODE = """
import sys
sys.path.insert(0, sys.argv[1])
import normforge.cli as cli
sc = cli._scenario(cli.build_parser().parse_args(sys.argv[2:]))
env = cli._build_env(sc["env"])
if sc["design"].get("problem"):
    cli._build_design(sc["design"], env)
else:
    params = cli._build_params(sc["params"])
    if sc["sim"]:
        cli._build_sim(sc["sim"], params, env)
"""


def setup_launches(argv: list, n: int) -> list:
    """Wall times of `n` interpreter launches running SETUP_CODE."""
    times = []
    for _ in range(n):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", SETUP_CODE, str(SRC), *argv],
                       cwd=ROOT, check=True, stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - t0)
    return times


def run_round(jobs, ctx, tracer=None):
    """Run every job once; returns per-job seconds and one message per job
    that failed its check."""
    times, fails = {}, []
    ctx.outputs.clear()
    for job in jobs:
        span = (contextlib.nullcontext() if tracer is None
                else tracer.recording(f"bench.{job.name}"))
        try:
            with span:
                t0 = time.perf_counter()
                result = job.run(ctx)
                times[job.name] = time.perf_counter() - t0
            ctx.outputs[job.name] = result
            msgs = job.check(ctx, result)
        except Exception:  # a crashing job is a failed job; the round goes on
            msgs = [f"raised\n{traceback.format_exc()}"]
            times.setdefault(job.name, float("nan"))
        if msgs:
            fails.append(f"{job.name}: " + "; ".join(msgs))
    return times, fails


def measure(workload: str, seed: int, seconds: float, trace: bool, tiny: bool) -> dict:
    import workloads

    jobs = workloads.build(workload, seed, tiny)
    OUT.mkdir(exist_ok=True)
    out_dir = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=OUT))
    ctx = workloads.Context(out_dir=out_dir, outputs={})
    rounds, fails = [], []
    if trace:
        import tracer as tracing

        spans = tracing.Tracer()
        tracing.install(spans)  # wrappers stay inert until spans.enabled is set
        traced_walls = []
    try:
        setup_times, paused = [], 0.0  # launches run between rounds, off the clock
        start = time.perf_counter()
        while True:
            if not trace and len(setup_times) < SETUP_SAMPLES:
                t0 = time.perf_counter()
                setup_times += setup_launches(workloads.SETUP_ARGV[workload], SETUP_PER_GAP)
                paused += time.perf_counter() - t0
            times, round_fails = run_round(jobs, ctx)
            rounds.append(times)
            fails += round_fails
            if trace:  # traced and untraced rounds alternate, so each pair
                # sees the same machine speed
                traced, round_fails = run_round(jobs, ctx, spans)
                traced_walls.append(sum(traced.values()))
                fails += round_fails
            elapsed = time.perf_counter() - start - paused
            if elapsed * (len(rounds) + 1) / len(rounds) > seconds:
                break
        if not trace:
            setup_times += setup_launches(workloads.SETUP_ARGV[workload],
                                          SETUP_SAMPLES - len(setup_times))
        if trace:
            spans.write(OUT / f"spans-{workload}.npz")
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)

    attempted = len(jobs) * len(rounds) * (2 if trace else 1)
    walls = [sum(r.values()) for r in rounds]
    job_metrics = {job.metric: (statistics.median(r[job.name] for r in rounds), "s")
                   for job in jobs if job.metric}
    if trace:
        overhead = statistics.median(t / u for t, u in zip(traced_walls, walls))
        metrics = tracing.layer_metrics(spans, len(traced_walls), overhead)
    else:
        metrics = {
            "wall_s": (statistics.median(walls), "s"),
            "setup_s": (statistics.median(setup_times), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
    return {
        "metrics": metrics,
        # reported on the table only: workload-specific, or zero when all is well
        "extra": {**job_metrics,
                  "failed_frac": (len(fails) / attempted, "ratio"),
                  "rounds": (len(rounds), "count")},
        "attempted": attempted,
        "fails": fails,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="shrink every job (harness smoke check only)")
    args = ap.parse_args(argv)
    if not (SRC / "normforge" / "__init__.py").is_file():
        print(f"error: normforge sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {workloads.WORKLOADS}",
              file=sys.stderr)
        return 2
    res = measure(args.workload, args.seed, args.seconds, bool(args.trace), args.tiny)
    for msg in res["fails"]:
        print(f"check failed: {msg}", file=sys.stderr)
    print(f"# workload={args.workload} seed={args.seed} trace={args.trace}")
    for name, (value, unit) in {**res["metrics"], **res["extra"]}.items():
        print(f"{name:44s} {value:>16.6g} {unit}")
    print(json.dumps({
        "correct": not res["fails"],
        "attempted": res["attempted"],
        "failed": len(res["fails"]),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in res["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
