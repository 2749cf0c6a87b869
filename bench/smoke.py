"""Smoke check of the benchmark harness itself, at tiny job sizes.

    python3 bench/smoke.py

It asserts that
  * every run prints the metrics BENCHMARK.json declares, with their units,
    as the last line, and the full table above it;
  * every metric the benchmark was specified with is printed, either in the
    result line or on the table (TABLE_ONLY says why it is not gated), or
    under the new names RENAMED gives;
  * each job's check is real: the untouched output passes it and a corrupted
    copy fails it, so `failed` counts actual wrong answers;
  * traced runs account for their wall time with layer self times, and the
    benchmark's own code holds at most a tenth of it;
  * the benchmark exits non-zero, printing no result, without the sources.
It takes about a minute and is not part of the test suite.
"""

from __future__ import annotations

import csv
import json
import math
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402  (sets the thread variables before numpy loads)
import tracer  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

# End-to-end metrics printed on the table but kept out of BENCHMARK.json.
TABLE_ONLY = {
    "failed_frac": "0 on a correct program, and a gated metric must never be 0; "
                   "the result line carries it as failed / attempted",
    "solve_vps_s": "design only; a gated metric must be printed by every workload",
    "solve_vp_s": "design only",
    "solve_ah_s": "design only",
    "simulate_s": "simulate only",
    "simulate_mixed_s": "simulate only",
    "sweep_analyze_s": "scan only",
    "sweep_design_s": "scan only",
    "compare_s": "scan only",
    "deviation_s": "scan only",
}
JOB_METRICS = {
    "design": ("solve_vps_s", "solve_vp_s", "solve_ah_s"),
    "simulate": ("simulate_s", "simulate_mixed_s"),
    "scan": ("sweep_analyze_s", "sweep_design_s", "compare_s", "deviation_s"),
}
LAYER_SELF = [f"{layer}.self_s" for layer in (*tracer.LAYERS, "bench")]
# Per-layer metrics the benchmark was specified with and reports under other
# names: old name -> (new names, reason).
RENAMED = {
    "designer.checks_per_candidate": (
        ("designer.osne_vps.checks_per_candidate", "designer.osne_vp.checks_per_candidate"),
        "pooled over every solver, OSNE_AH's one-check cells swamp the VPS figure"),
}


def bench_run(workload: str, trace: int, cwd: Path = ROOT):
    proc = subprocess.run(
        [sys.executable, str(cwd / "bench" / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=600)
    return proc


def table(stdout: str) -> dict:
    rows = {}
    for line in stdout.splitlines()[:-1]:
        parts = line.split()
        if len(parts) == 3 and not line.startswith("#"):
            rows[parts[0]] = (float(parts[1]), parts[2])
    return rows


def check_output(workload: str, trace: int) -> None:
    proc = bench_run(workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, proc.stderr
    declared = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == declared, (workload, trace, set(got) ^ set(declared))
    assert all(math.isfinite(m["value"]) for m in result["metrics"].values())
    if trace:
        for old, (new, _) in RENAMED.items():
            assert old not in got and set(new) <= set(got), (old, new)
    rows = table(proc.stdout)
    for name in (*JOB_METRICS[workload], "failed_frac"):
        assert name in TABLE_ONLY and name in rows, (workload, name)
        assert rows[name][1] == ("ratio" if name == "failed_frac" else "s")
    assert rows["failed_frac"][0] == 0.0
    if trace:
        m = {name: v["value"] for name, v in result["metrics"].items()}
        # self times over the span tree add up to the job spans' time ...
        total = sum(m[name] for name in LAYER_SELF)
        assert abs(total - m["trace.wall_s"]) <= 0.01 * m["trace.wall_s"], (total, m)
        # ... and the layers, not the benchmark's own code, hold most of it
        layers = total - m["bench.self_s"]
        assert abs(m["trace.accounted_frac"] - layers / m["trace.wall_s"]) <= 1e-6, m
        assert m["bench.self_s"] <= 0.1 * m["trace.wall_s"], (workload, m)
        assert m["trace.overhead_frac"] > 0.0


# ---------------------------------------------------- corrupted outputs

def edit_json(path, fn):
    data = workloads.read_json(path)
    fn(data)
    Path(path).write_text(json.dumps(data))
    return path


def edit_csv(path, fn):
    rows = workloads.read_csv(path)
    fn(rows)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0]), lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)
    return path


def flip(rows, column):
    rows[0][column] = "False" if rows[0][column] == "True" else "True"


def bump_utility(res):
    res["utility"] += 1e-6


def break_partition(trace):
    trace["periods"]["counts"]["served"][0] += 1


def demote_altruist(trace):
    kinds = trace["per_peer"]["kind"]
    trace["per_peer"]["final_reputation"][kinds.index("altruistic")] = 0


CORRUPT = {
    "solve_vps": lambda out: edit_json(out, bump_utility),
    "solve_vp": lambda out: edit_json(out, bump_utility),
    "solve_ah": lambda out: edit_json(out, bump_utility),
    "solve_osne": lambda out: edit_json(out, bump_utility),
    "simulate": lambda out: edit_json(out, break_partition),
    "simulate_mixed": lambda out: edit_json(out, demote_altruist),
    "sweep_analyze": lambda out: edit_csv(out, lambda rows: flip(rows, "is_equilibrium")),
    "sweep_design": lambda out: edit_csv(out, lambda rows: flip(rows, "feasible")),
    "compare": lambda out: edit_csv(out, lambda rows: flip(rows, "sustained")),
    "deviation": lambda gain: -gain,
}


def check_checks(out_dir: Path) -> None:
    for workload in workloads.WORKLOADS:
        ctx = workloads.Context(out_dir=out_dir, outputs={})
        for job in workloads.build(workload, 3, tiny=True):
            result = job.run(ctx)
            ctx.outputs[job.name] = result
            assert job.check(ctx, result) == [], job.name
            assert job.check(ctx, CORRUPT[job.name](result)), f"{job.name}: corruption passed"


def check_fails_without_sources(bare: Path) -> None:
    shutil.copytree(BENCH, bare / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    proc = bench_run("design", 0, cwd=bare)
    assert proc.returncode != 0 and not proc.stdout.strip(), proc.stdout


def main() -> int:
    run.OUT.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix="smoke-", dir=run.OUT))
    try:
        for workload in workloads.WORKLOADS:
            for trace in (0, 1):
                check_output(workload, trace)
                print(f"ok  {workload} --trace {trace}: metrics, units, table")
        check_checks(scratch)
        print(f"ok  every job's check fails on a corrupted output ({len(CORRUPT)} jobs)")
        check_fails_without_sources(scratch / "bare")
        print("ok  exits non-zero without the sources")
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
