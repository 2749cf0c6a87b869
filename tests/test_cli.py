import csv
import hashlib
import io
import json

import numpy as np
import pytest

from normforge import (NetworkEnv, ProtocolParams, SimConfig, check_equilibrium,
                       collapsed_social_utility, run_tft, sim, stationary_fixed_point,
                       stationary_for_regime, tft_sustainable)
from normforge.cli import _json_text, build_parser, main

BASE_SCENARIO = {
    "env": {"r": 1.0, "c": 0.2, "eps": 0.1, "lambda": 1.0, "delta": 0.8},
    "params": {"L": 3, "h_o": 1, "b": 2},
}


@pytest.fixture
def scenario_file(tmp_path):
    def write(extra=None, **sections):
        data = {k: dict(v) for k, v in BASE_SCENARIO.items()}
        for name, sec in sections.items():
            data[name] = sec
        if extra:
            data.update(extra)
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(data))
        return str(path)
    return write


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def json_payload(out):
    """A command's JSON output, after checking its layout: a "{" line, one
    line per top-level key in sorted order, and a "}" line."""
    payload = json.loads(out)
    lines = out.splitlines()
    assert lines[0] == "{" and lines[-1] == "}"
    entries = [json.loads("{" + line.rstrip(",") + "}") for line in lines[1:-1]]
    assert [list(entry) for entry in entries] == [[key] for key in sorted(payload)]
    return payload


class TestAnalyze:
    def test_baseline_row_contains_mu(self, scenario_file, capsys):
        code, out = run_cli(capsys, "analyze", "--config", scenario_file())
        assert code == 0
        payload = json_payload(out)
        assert payload["mu"] == pytest.approx(0.8403361344537815, abs=1e-9)
        assert payload["is_equilibrium"] is True

    def test_error_free_override_gives_full_activity(self, scenario_file, capsys):
        code, out = run_cli(capsys, "analyze", "--config", scenario_file(), "--eps", "0")
        assert code == 0
        assert json.loads(out)["mu"] == 1.0

    def test_malformed_config_names_field(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"env": {"r": 1.0, "eps": 0.1}}))
        code, out = run_cli(capsys, "analyze", "--config", str(path))
        assert code == 2
        err = json.loads(out)["error"]
        assert err["field"].startswith("env.")

    def test_unknown_section_rejected(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"environment": {}}))
        code, out = run_cli(capsys, "analyze", "--config", str(path))
        assert code == 2
        assert json.loads(out)["error"]["field"] == "environment"

    def test_invalid_json_is_a_config_error(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        code, out = run_cli(capsys, "analyze", "--config", str(path))
        assert code == 2

    def test_csv_row_written(self, scenario_file, capsys, tmp_path):
        csv_path = tmp_path / "row.csv"
        code, _ = run_cli(capsys, "analyze", "--config", scenario_file(),
                          "--csv-out", str(csv_path))
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(csv_path.read_text())))
        assert len(rows) == 1
        assert float(rows[0]["mu"]) == pytest.approx(0.8403361344537815)

    @pytest.mark.parametrize("flags", [[], ["--p-c", "0.2"], ["--p-d", "0.2"]],
                             ids=["baseline", "altruists", "malicious"])
    def test_recip_utility_effective_is_the_reciprocative_mean(self, scenario_file, capsys,
                                                               flags):
        # the population profile minus altruists at L and malicious peers
        # cycling through 0..h_o leaves the reciprocative profile
        code, out = run_cli(capsys, "analyze", "--config", scenario_file(), *flags)
        assert code == 0
        payload = json.loads(out)
        assert payload["is_equilibrium"] is True
        e = NetworkEnv(r=1.0, c=0.2, eps=0.1, lam=1.0, delta=0.8,
                       p_c=payload["env"]["p_c"], p_d=payload["env"]["p_d"])
        want = stationary_fixed_point(ProtocolParams(L=3, h_o=1, b=2), e).eta @ np.array(
            payload["v_one"])
        assert abs(payload["recip_utility_effective"] - want) < 1e-12


class TestCheck:
    def test_reports_slacks_and_verdict(self, scenario_file, capsys):
        code, out = run_cli(capsys, "check", "--config", scenario_file())
        assert code == 0
        payload = json_payload(out)
        assert {"serve_slack", "refuse_slack", "per_theta_slacks", "is_equilibrium"} <= set(payload)


def _floats(cell: str) -> list:
    return [float(v) for v in cell.split(";")]


@pytest.mark.parametrize("argv", [
    # rows in three L blocks, holding and failing, with p_c = 0.6 above one half
    ["sweep", "--L", "3", "--h-o", "1", "--b", "2", "--sweep", "L:2:4:1",
     "--sweep", "c:0.2:0.5:0.3", "--sweep", "p_c:0.0:0.6:0.3"],
    ["analyze", "--p-d", "0.2", "--beta", "0"],
    ["analyze", "--L", "4", "--h-o", "2", "--b", "3", "--m-o", "1,3,4", "--beta", "0.4"],
], ids=["sweep", "malicious", "non_uniform"])
def test_column_path_matches_the_library(scenario_file, capsys, tmp_path, argv):
    # analyze, check and sweep read the evaluator's block columns; every row
    # equals the library's answer on its own point
    path = str(tmp_path / "rows.csv")
    code, _ = run_cli(capsys, *argv, "--config", scenario_file(),
                      "--out" if argv[0] == "sweep" else "--csv-out", path)
    assert code == 0
    rows = list(csv.DictReader(open(path)))
    if argv[0] == "sweep":
        assert len(rows) == 18 and {row["is_equilibrium"] for row in rows} == {"True", "False"}
        assert any(float(row["p_c"]) > 0.5 for row in rows)
    for row in rows:
        env = NetworkEnv(r=float(row["r"]), c=float(row["c"]), eps=float(row["eps"]),
                         lam=float(row["lambda"]), delta=float(row["delta"]),
                         p_c=float(row["p_c"]), p_d=float(row["p_d"]))
        params = ProtocolParams(L=int(row["L"]), h_o=int(row["h_o"]), b=int(row["b"]),
                                beta=float(row["beta"]), m_o=_floats(row["m_o"]))
        want = check_equilibrium(params, env)
        v_one = want.utilities.v_one
        if want.is_equilibrium:
            effective = [want.social_utility, stationary_fixed_point(params, env).eta @ v_one]
        else:
            effective = [collapsed_social_utility(env, params.b, env.p_c), v_one[0]]
        assert [float(row[name]) for name in (
            "serve_slack", "refuse_slack", "alpha", "mu", "social_utility",
            "social_utility_effective", "recip_utility_effective")] == [
            want.serve_slack, want.refuse_slack, want.dist.alpha, want.dist.mu,
            want.social_utility, *effective]
        assert row["is_equilibrium"] == str(want.is_equilibrium)
        assert [_floats(row[name]) for name in ("eta", "v_one", "v_inf")] == [
            want.dist.eta.tolist(), v_one.tolist(), want.utilities.v_inf.tolist()]
        flags = [f"--{name.replace('_', '-')}={row[name]}" for name in (
            "r", "c", "eps", "lambda", "delta", "p_c", "p_d", "L", "h_o", "b", "beta")]
        code, out = run_cli(capsys, "check", "--config", scenario_file(), *flags,
                            "--m-o", row["m_o"].replace(";", ","))
        assert code == 0
        assert json_payload(out) == {"serve_slack": want.serve_slack,
                                     "refuse_slack": want.refuse_slack,
                                     "per_theta_slacks": want.per_theta_slacks.tolist(),
                                     "is_equilibrium": want.is_equilibrium}


class TestSolve:
    def test_infeasible_design_exit_code(self, scenario_file, capsys):
        path = scenario_file(design={"problem": "OSNE", "L": 3, "b_cap": 5})
        code, out = run_cli(capsys, "solve", "--config", path, "--c", "0.95")
        assert code == 3
        assert json.loads(out)["feasible"] is False

    def test_osne_matches_direct_call(self, scenario_file, capsys):
        from normforge import DesignSpec, NetworkEnv, solve_osne
        path = scenario_file(design={"problem": "OSNE", "L": 3, "b_cap": 6})
        code, out = run_cli(capsys, "solve", "--config", path)
        assert code == 0
        payload = json.loads(out)
        env = NetworkEnv(r=1.0, c=0.2, eps=0.1, lam=1.0, delta=0.8)
        want = solve_osne(DesignSpec(problem="OSNE", L=3, b_cap=6, env=env))
        assert payload["h_o_star"] == want.params.h_o
        assert payload["b_star"] == want.params.b
        assert payload["utility"] == pytest.approx(want.utility)
        assert payload["stats"] == want.stats

    def test_l_flag_overrides_the_design_ladder(self, scenario_file, capsys):
        # a given --L sets design.L over the file's; the file's params.L (3)
        # only fills a missing design.L
        flags = ["--r", "1", "--c", "0.2", "--eps", "0.1", "--lambda", "1", "--delta", "0.8",
                 "--problem", "OSNE", "--b-cap", "3"]
        at = {L: run_cli(capsys, "solve", *flags, "--L", str(L)) for L in (3, 6)}
        assert at[3] != at[6]
        six = scenario_file(design={"problem": "OSNE", "L": 6, "b_cap": 3})
        assert run_cli(capsys, "solve", "--config", six) == at[6]
        assert run_cli(capsys, "solve", "--config", six, "--L", "3") == at[3]
        unset = scenario_file(design={"problem": "OSNE", "b_cap": 3})
        assert run_cli(capsys, "solve", "--config", unset) == at[3]

    @pytest.mark.parametrize("problem, flags", [
        ("OSNE_VP", ["--p-d", "0.1"]),
        ("OSNE_VPS", ["--p-c", "0.2"]),
        ("OSNE_AH", ["--p-d", "0.1"]),
        ("OSNE", ["--p-c", "0.1", "--p-d", "0.1"]),
    ])
    def test_unanalyzable_population_is_a_design_error(self, scenario_file, capsys,
                                                       problem, flags):
        path = scenario_file(design={"problem": problem, "L": 2, "b_cap": 2})
        code, out = run_cli(capsys, "solve", "--config", path, *flags)
        assert code == 2
        assert json.loads(out)["error"]["field"] == "design"

    @pytest.mark.parametrize("p_c", ["0.2", "0.45"])
    def test_altruist_problem_refuses_env_altruists(self, scenario_file, capsys, p_c):
        # OSNE_AH picks the altruist fraction itself: an env p_c is a design
        # error, not an input it silently discards
        path = scenario_file(design={"problem": "OSNE_AH", "L": 3, "b_cap": 2})
        assert run_cli(capsys, "solve", "--config", path, "--p-c", "0")[0] == 0
        code, out = run_cli(capsys, "solve", "--config", path, "--p-c", p_c)
        assert code == 2
        assert json.loads(out)["error"]["field"] == "design"

    def test_altruist_problem_reports_p_c_star(self, scenario_file, capsys):
        path = scenario_file(design={"problem": "OSNE_AH", "L": 2, "b_cap": 2,
                                     "p_c_grid": 0.25})
        code, out = run_cli(capsys, "solve", "--config", path)
        assert code == 0
        assert "p_c_star" in json_payload(out)

    @pytest.mark.parametrize("problem, flags", [
        ("OSNE", ["--c", "0.95"]),
        ("OSNE_VP", []),
        ("OSNE_VPS", []),
        ("OSNE_AH", ["--p-c-grid", "0.25"]),
    ])
    def test_payload_keys_come_sorted(self, scenario_file, capsys, problem, flags):
        # solve writes the canonical text of its payload
        path = scenario_file(design={"problem": problem, "L": 2, "b_cap": 2})
        _, out = run_cli(capsys, "solve", "--config", path, *flags)
        assert out == _json_text(json.loads(out)) + "\n"

    # sha256 of solve's stdout for the benchmark's four design solves at the
    # reference env, as written when every solve wrote its search log
    SEARCH_LOG_DIGESTS = {
        ("OSNE_VPS", 4, 3): "44df9a420a7a42f318f397f4f20c54be920f60dbf6c7be6e6de5cab93250d8da",
        ("OSNE_VP", 6, 10): "67d4d77db25c7389747b3a8a084e367b736ca0fb86300e1e1977aedf850c2bc7",
        ("OSNE_AH", 6, 10): "1cfb416469dba89d2448625a3842f1ca9c030c25b8f83f29cce0df1fc0a557b8",
        ("OSNE", 6, 10): "5dd235e4c7639224d49091140c966b4c56fc6b3b430e90d902d840326230949f",
    }

    @pytest.mark.parametrize("problem, L, b_cap", SEARCH_LOG_DIGESTS)
    def test_output_with_the_library_log_is_pinned(self, capsys, problem, L, b_cap):
        # solve writes stats in place of the search log; with the library's
        # log put back, as those solves wrote it, the bytes are theirs
        from normforge import DesignSpec, solve
        code, out = run_cli(capsys, "solve", "--r", "1.0", "--c", "0.2", "--eps", "0.1",
                            "--lambda", "1.0", "--delta", "0.8", "--problem", problem,
                            "--L", str(L), "--b-cap", str(b_cap), "--p-c-grid", "0.0025")
        assert code == 0
        env = NetworkEnv(r=1.0, c=0.2, eps=0.1, lam=1.0, delta=0.8)
        result = solve(DesignSpec(problem, L, b_cap, env, pC_grid=0.0025))
        payload = json.loads(out)
        assert payload.pop("stats") == result.stats
        assert list(result.stats) == ["candidates", "evaluator_calls", "points_checked"]
        payload["search_log"] = [{"candidate": list(cand), "slack": slack, "utility": util}
                                 for cand, slack, util in result.search_log]
        assert hashlib.sha256((_json_text(payload) + "\n").encode()).hexdigest() == \
            self.SEARCH_LOG_DIGESTS[problem, L, b_cap]


class TestSweep:
    # an h_o axis reaches the params fields' integer cast
    @pytest.mark.parametrize("axis, points", [
        ("c:0.2:0.2:0.1", [[]]),
        ("h_o:1:3:1", [["--h-o", "1"], ["--h-o", "2"], ["--h-o", "3"]]),
    ], ids=["c", "h_o"])
    def test_single_point_matches_analyze(self, scenario_file, capsys, tmp_path, axis, points):
        path = scenario_file()
        code, out = run_cli(capsys, "sweep", "--config", path, "--sweep", axis)
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))[1:]
        assert len(rows) == len(points)
        csv_path = tmp_path / "row.csv"
        for row, flags in zip(rows, points):
            code, _ = run_cli(capsys, "analyze", "--config", path, *flags,
                              "--csv-out", str(csv_path))
            assert code == 0
            assert row[1:] == list(csv.reader(csv_path.open()))[1]

    def test_grid_is_cartesian_and_ordered(self, scenario_file, capsys):
        code, out = run_cli(capsys, "sweep", "--config", scenario_file(),
                            "--sweep", "c:0.1:0.3:0.1", "--sweep", "delta:0.7:0.8:0.1")
        rows = list(csv.DictReader(io.StringIO(out)))
        assert [(r["axis_c"], r["axis_delta"]) for r in rows] == [
            ("0.1", "0.7"), ("0.1", "0.8"), ("0.2", "0.7"), ("0.2", "0.8"),
            ("0.3", "0.7"), ("0.3", "0.8")]

    def test_unknown_axis_rejected(self, scenario_file, capsys):
        code, out = run_cli(capsys, "sweep", "--config", scenario_file(),
                            "--sweep", "bogus:0:1:0.5")
        assert code == 2
        assert json.loads(out)["error"]["field"] == "sweep.param"

    def test_solve_mode_emits_design_columns(self, scenario_file, capsys):
        path = scenario_file(design={"problem": "OSNE", "L": 3, "b_cap": 4})
        code, out = run_cli(capsys, "sweep", "--config", path,
                            "--sweep", "c:0.1:0.3:0.2")
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert {"h_o_star", "b_star", "feasible", "utility"} <= set(rows[0])

    def test_column_set_stable_across_points(self, scenario_file, capsys):
        _, out1 = run_cli(capsys, "sweep", "--config", scenario_file(),
                          "--sweep", "c:0.1:0.2:0.1")
        _, out2 = run_cli(capsys, "sweep", "--config", scenario_file(),
                          "--sweep", "c:0.4:0.5:0.1")
        header1 = out1.splitlines()[0]
        header2 = out2.splitlines()[0]
        assert header1 == header2


class TestSimulate:
    def sim_section(self, **kw):
        sec = {"n_peers": 120, "n_periods": 40, "seed": 9}
        sec.update(kw)
        return sec

    # a rerun, or the flavor set by its flag instead of in the file, writes
    # the same bytes
    @pytest.mark.parametrize("in_file, flags", [({}, []),
                                                ({"protocol_flavor": "TFT"}, ["--flavor", "TFT"])],
                             ids=["rerun", "flavor-flag"])
    def test_seed_replay_identical_output(self, scenario_file, capsys, tmp_path, in_file, flags):
        out_a = tmp_path / "a.json"
        out_b = tmp_path / "b.json"
        path = scenario_file(sim=self.sim_section(**in_file))
        assert main(["simulate", "--config", path, "--out", str(out_a)]) == 0
        path = scenario_file(sim=self.sim_section())
        assert main(["simulate", "--config", path, *flags, "--out", str(out_b)]) == 0
        ha = hashlib.sha256(out_a.read_bytes()).hexdigest()
        hb = hashlib.sha256(out_b.read_bytes()).hexdigest()
        assert ha == hb

    def test_config_echo_includes_seed(self, scenario_file, capsys):
        path = scenario_file(sim=self.sim_section(seed=1234))
        code, out = run_cli(capsys, "simulate", "--config", path)
        assert code == 0
        assert json_payload(out)["config"]["seed"] == 1234

    def test_compare_analytic_appends_gap_column(self, scenario_file, capsys, tmp_path):
        path = scenario_file(sim=self.sim_section(n_peers=400, n_periods=300))
        csv_path = tmp_path / "sum.csv"
        code, out = run_cli(capsys, "simulate", "--config", path,
                            "--compare-analytic", "--csv-out", str(csv_path))
        assert code == 0
        payload = json.loads(out)
        assert "analytic_comparison" in payload
        rows = list(csv.DictReader(io.StringIO(csv_path.read_text())))
        assert "eta_linf" in rows[0]
        assert float(rows[0]["eta_linf"]) < 0.08

    def test_compare_analytic_follows_the_simulated_mix(self, scenario_file, capsys):
        # the env says p_c = 0; the reference must be the 30%-altruist profile
        path = scenario_file(sim=self.sim_section(n_peers=100, n_periods=20))
        code, out = run_cli(capsys, "simulate", "--config", path, "--compare-analytic",
                            "--mix", "reciprocative=0.7,altruistic=0.3")
        assert code == 0
        want = stationary_for_regime(ProtocolParams(L=3, h_o=1, b=2),
                                     NetworkEnv(r=1.0, c=0.2, eps=0.1, lam=1.0, delta=0.8, p_c=0.3))
        got = json.loads(out)["analytic_comparison"]["eta_analytic"]
        assert got == want.eta.tolist()
        assert got == pytest.approx([0.112, 0.112, 0.091, 0.686], abs=5e-4)

    def test_compare_analytic_rejects_two_kind_mix(self, scenario_file, capsys):
        path = scenario_file(sim=self.sim_section())
        code, out = run_cli(capsys, "simulate", "--config", path, "--compare-analytic",
                            "--mix", "reciprocative=0.7,altruistic=0.2,malicious=0.1")
        assert code == 2
        assert json.loads(out)["error"]["field"] == "sim.population_mix"

    def test_tft_flavor_gains_binary_columns(self, scenario_file, capsys, tmp_path):
        path = scenario_file(sim=self.sim_section(protocol_flavor="TFT"))
        csv_path = tmp_path / "sum.csv"
        code, out = run_cli(capsys, "simulate", "--config", path,
                            "--csv-out", str(csv_path))
        assert code == 0
        payload = json.loads(out)
        assert payload["top_rep"] == 1
        rows = list(csv.DictReader(io.StringIO(csv_path.read_text())))
        assert "tft_sustainable" in rows[0]

    # 101 peers at altruistic=0.3 simulate 30 altruists: the verdict is taken
    # at 30/101, where tit-for-tat holds, and not at 0.3, where it fails
    TFT_EDGE = ["--r", "1", "--c", "0.335", "--eps", "0.1", "--lambda", "1", "--delta", "0.8",
                "--L", "3", "--h-o", "1", "--b", "2", "--n-peers", "101", "--n-periods", "20",
                "--seed", "1", "--mix", "reciprocative=0.7,altruistic=0.3"]

    def test_tft_sustainable_is_the_run_verdict(self, capsys, tmp_path):
        csv_path = tmp_path / "sim.csv"
        code, _ = run_cli(capsys, "simulate", *self.TFT_EDGE, "--flavor", "TFT", "--strategic",
                          "--csv-out", str(csv_path))
        assert code == 0
        [row] = list(csv.DictReader(csv_path.open()))
        config = SimConfig(n_peers=101, n_periods=20, seed=1,
                           params=ProtocolParams(L=3, h_o=1, b=2),
                           env=NetworkEnv(r=1.0, c=0.335, eps=0.1, lam=1.0, delta=0.8),
                           population_mix={"reciprocative": 0.7, "altruistic": 0.3},
                           protocol_flavor="TFT", strategic=True)
        run = run_tft(config)
        assert not run.collapsed and run.counts["served_by_recip"].sum() > 0
        assert row["tft_sustainable"] == str(not run.collapsed)
        assert row["tft_sustainable"] == str(sim.sustained(config))
        code, out = run_cli(capsys, "compare", *self.TFT_EDGE, "--flavors", "TFT",
                            "--sweep", "c:0.335:0.335:0.1")
        assert code == 0
        [cell] = list(csv.DictReader(io.StringIO(out)))
        assert cell["sustained"] == row["tft_sustainable"]
        assert not tft_sustainable(config.env, 2, 0.3)  # the mix fraction's verdict differs

    def test_missing_sim_section(self, scenario_file, capsys):
        code, out = run_cli(capsys, "simulate", "--config", scenario_file())
        assert code == 2
        assert json.loads(out)["error"]["field"].startswith("sim.")


class TestCompare:
    def test_emits_matched_rows_for_both_flavors(self, scenario_file, capsys):
        path = scenario_file(
            params={"L": 3, "h_o": 3, "b": 5},
            sim={"n_peers": 100, "n_periods": 30, "seed": 5,
                 "population_mix": {"reciprocative": 0.7, "altruistic": 0.3}},
        )
        code, out = run_cli(capsys, "compare", "--config", path,
                            "--sweep", "c:0.1:0.3:0.2")
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert len(rows) == 4  # 2 grid points x 2 flavors
        assert {r["flavor"] for r in rows} == {"SocialNorm", "TFT"}
        assert {"delivery_rate", "recip_delivery_rate", "sustained"} <= set(rows[0])

    MIX = {"reciprocative": 0.7, "altruistic": 0.3}

    def test_optimized_social_norm_is_sustained_iff_some_design_is(self, scenario_file,
                                                                    capsys):
        # (h_o, b) = (1, 3) fails at c = 0.2 and 0.3; other designs pass there
        path = scenario_file(params={"L": 3, "h_o": 1, "b": 3},
                             sim={"n_peers": 50, "n_periods": 10, "seed": 3,
                                  "population_mix": self.MIX})
        code, out = run_cli(capsys, "compare", "--config", path, "--flavors", "SocialNorm",
                            "--optimize-social", "--sweep", "c:0.2:0.4:0.1")
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        for row in rows:
            mix_env = NetworkEnv(r=1.0, c=float(row["axis_value"]), eps=0.1, lam=1.0,
                                 delta=0.8, p_c=0.3)
            want = any(check_equilibrium(ProtocolParams(L=3, h_o=h, b=b), mix_env).is_equilibrium
                       for h in range(1, 4) for b in range(1, 4))
            assert (row["sustained"] == "True") == want
        assert [row["sustained"] for row in rows] == ["True", "True", "False"]

    def test_non_strategic_sustained_is_the_analytic_verdict(self, scenario_file, capsys):
        path = scenario_file(sim={"n_peers": 50, "n_periods": 10, "seed": 3,
                                  "population_mix": self.MIX, "strategic": False})
        code, out = run_cli(capsys, "compare", "--config", path, "--sweep", "c:0.2:0.4:0.1")
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        for row in rows:
            env = NetworkEnv(r=1.0, c=float(row["axis_value"]), eps=0.1, lam=1.0, delta=0.8)
            if row["flavor"] == "SocialNorm":
                want = check_equilibrium(ProtocolParams(L=3, h_o=1, b=2),
                                         env.replace(p_c=0.3)).is_equilibrium
            else:
                want = tft_sustainable(env, 2, 0.3)
            assert (row["sustained"] == "True") == want
        assert [(row["flavor"], row["sustained"]) for row in rows] == [
            ("SocialNorm", "True"), ("TFT", "True"), ("SocialNorm", "False"), ("TFT", "True"),
            ("SocialNorm", "False"), ("TFT", "False")]


    def test_one_cell_is_the_simulate_run(self, scenario_file, capsys, tmp_path):
        # compare runs its grid as one batch; a batch of one is `simulate`
        path = scenario_file(sim={"n_peers": 60, "n_periods": 30, "seed": 4,
                                  "population_mix": self.MIX})
        code, out = run_cli(capsys, "compare", "--config", path, "--flavors", "SocialNorm",
                            "--sweep", "c:0.2:0.2:0.1")
        assert code == 0
        [cell] = list(csv.DictReader(io.StringIO(out)))
        csv_path = tmp_path / "sim.csv"
        code, _ = run_cli(capsys, "simulate", "--config", path, "--strategic", "--c", "0.2",
                          "--csv-out", str(csv_path))
        assert code == 0
        [run] = list(csv.DictReader(csv_path.open()))
        for column in ("delivery_rate", "recip_delivery_rate", "recip_mean_utility"):
            assert cell[column] == run[column]


class TestTwoKindMix:
    @pytest.mark.parametrize("argv", [
        ["simulate", "--strategic"],
        ["compare", "--sweep", "c:0.1:0.1:0.1"],
    ])
    def test_strategic_analysis_rejects_altruists_with_malicious(self, scenario_file,
                                                                 capsys, argv):
        path = scenario_file(sim={"n_peers": 50, "n_periods": 5, "seed": 1})
        code, out = run_cli(capsys, argv[0], "--config", path, *argv[1:],
                            "--mix", "reciprocative=0.7,altruistic=0.2,malicious=0.1")
        assert code == 2
        assert json.loads(out)["error"]["field"] == "sim.population_mix"


UNANALYZABLE_ENVS = [
    ["--p-d", "0.1", "--beta", "0.5"],
    ["--p-c", "0.1", "--p-d", "0.1"],
    ["--p-d", "0.1", "--m-o", "1,2,3"],
    ["--p-c", "0.2", "--m-o", "1,2,3"],
]
UNANALYZABLE_CASES = [
    *[(cmd + flags, "env")
      for cmd in (["analyze"], ["check"], ["sweep", "--sweep", "c:0.2:0.2:0.1"])
      for flags in UNANALYZABLE_ENVS],
    *[(cmd + ["--mix", "reciprocative=0.8,altruistic=0.2", "--m-o", "1,2,3"],
       "sim.population_mix")
      for cmd in (["simulate", "--strategic"], ["compare", "--sweep", "c:0.1:0.1:0.1"])],
]


class TestUnanalyzablePopulation:
    @pytest.mark.parametrize("argv, field", [pytest.param(argv, field, id=" ".join(argv))
                                             for argv, field in UNANALYZABLE_CASES])
    def test_is_a_config_error_in_every_command(self, scenario_file, capsys, tmp_path, argv,
                                                field):
        code, out = run_bad_config(scenario_file, capsys, tmp_path, argv, {})
        assert code == 2
        assert json.loads(out)["error"]["field"] == field


SIM_SECTION = {"n_peers": 50, "n_periods": 5, "seed": 1}
MALFORMED_CASES = [
    pytest.param(["analyze", "--m-o", "1,x,3"], {}, "params.m_o", id="params.m_o"),
    pytest.param(["simulate", "--mix", "reciprocative=abc"], {}, "sim.population_mix",
                 id="sim.population_mix"),
    pytest.param(["sweep", "--sweep", "c:a:0.3:0.1"], {}, "sweep", id="sweep"),
    pytest.param(["sweep"], {"sweep": [{"param": "c", "min": "x", "max": 0.3, "step": 0.1}]},
                 "sweep.min", id="sweep.min"),
    pytest.param(["solve", "--problem", "OSNE_VPS", "--L", "9", "--b-cap", "2"], {}, "design",
                 id="design"),
    pytest.param(["sweep"], {"sweep": "abc"}, "sweep", id="sweep-not-a-list"),
    pytest.param(["simulate"], {"sim": dict(SIM_SECTION, population_mix=[1])},
                 "sim.population_mix", id="sim.population_mix-not-an-object"),
    # a design sweep searches h_o, b and beta itself: an axis over them is refused
    *[pytest.param(["sweep", "--problem", "OSNE_VP", "--L", "3", "--b-cap", "4",
                    "--sweep", axis], {}, "sweep.param", id=f"sweep.param-solve-{axis}")
      for axis in ("h_o:1:3:1", "b:1:3:1", "beta:0:0.5:0.25")],
    pytest.param(["analyze", "--config", "no-such-scenario.json"], {}, "config",
                 id="config-missing"),
    pytest.param(["analyze"], [BASE_SCENARIO], "config", id="config-not-an-object"),
    pytest.param(["analyze"], {"env": dict(BASE_SCENARIO["env"], gamma=1.0)}, "env.gamma",
                 id="env.unknown"),
    pytest.param(["simulate", "--mix", "reciprocative"], {}, "sim.population_mix",
                 id="sim.population_mix-no-fraction"),
    pytest.param(["sweep", "--sweep", "c:0.1:0.3"], {}, "sweep", id="sweep-three-parts"),
    pytest.param(["sweep", "--sweep", "c:0.1:0.3:0"], {}, "sweep.step", id="sweep.step"),
    pytest.param(["sweep"], {"sweep": [{"param": "c", "min": 0.1, "step": 0.1}]}, "sweep.max",
                 id="sweep.max"),
    pytest.param(["sweep"], {}, "sweep", id="sweep-no-axis"),
    pytest.param(["compare", "--sweep", "c:0.1:0.2:0.1", "--sweep", "delta:0.7:0.8:0.1"], {},
                 "sweep", id="compare-two-axes"),
    pytest.param(["compare", "--sweep", "c:0.1:0.1:0.1", "--flavors", "bogus"], {}, "flavors",
                 id="flavors"),
    pytest.param(["compare", "--sweep", "c:0.1:0.1:0.1"], {"sim": {}}, "sim", id="compare-no-sim"),
    pytest.param(["simulate", "--compare-analytic", "--flavor", "TFT"], {},
                 "sim.protocol_flavor", id="sim.protocol_flavor"),
    # every section but sweep must be an object
    *[pytest.param(["analyze"], {section: value}, section, id=f"{section}-{kind}")
      for section in ("env", "params", "design", "sim", "output")
      for kind, value in (("list", [1]), ("number", 1), ("string", "abc"))],
    # integer fields take ints or integral floats, never truncated; a boolean
    # field takes a JSON boolean
    *[pytest.param([command], {section: dict(base, **{name: value})}, f"{section}.{name}",
                   id=f"{section}.{name}={json.dumps(value)}")
      for command, section, base in (
          ("check", "params", BASE_SCENARIO["params"]),
          ("solve", "design", {"problem": "OSNE", "L": 3, "b_cap": 3}),
          ("simulate", "sim", SIM_SECTION))
      for name in {"params": ("L", "h_o", "b"), "design": ("L", "b_cap"),
                   "sim": ("n_peers", "n_periods", "seed")}[section]
      for value in (2.5, True, "3")],
    pytest.param(["check"], {"params": dict(BASE_SCENARIO["params"], L=3.7, b=2.9)}, "params.L",
                 id="params.L-and-b"),
    pytest.param(["simulate"], {"sim": dict(SIM_SECTION, n_peers=50.8)}, "sim.n_peers",
                 id="sim.n_peers=50.8"),
    *[pytest.param(["simulate"], {"sim": dict(SIM_SECTION, strategic=value)}, "sim.strategic",
                   id=f"sim.strategic={json.dumps(value)}") for value in ("false", 1, None)],
    pytest.param(["sweep", "--sweep", "L:2:3:0.5"], {}, "params.L", id="sweep-L-analyze"),
    # threshold vectors are lists of integers, never truncated
    *[pytest.param(["check"], {"params": dict(BASE_SCENARIO["params"], m_o=value)},
                   "params.m_o", id=f"params.m_o={json.dumps(value)}")
      for value in ([1.7, 2.9, 3], [1, "2", 3], 3)],
    # number fields take JSON numbers: no booleans, no strings
    *[pytest.param([command], {section: dict(base, **{name: value})}, f"{section}.{name}",
                   id=f"{section}.{name}={json.dumps(value)}")
      for command, section, base, name, value in (
          ("analyze", "env", BASE_SCENARIO["env"], "delta", False),
          ("analyze", "env", BASE_SCENARIO["env"], "c", "0.2"),
          ("analyze", "env", BASE_SCENARIO["env"], "p_c", None),
          ("check", "params", BASE_SCENARIO["params"], "beta", True),
          ("solve", "design", {"problem": "OSNE_AH", "L": 3, "b_cap": 3}, "p_c_grid", True),
          ("solve", "design", {"problem": "OSNE_VP", "L": 3, "b_cap": 3}, "beta_grid", "0.1"))],
    # the mix sets the simulated population: an env share it contradicts is refused
    pytest.param(["simulate", "--p-c", "0.3"], {}, "sim", id="sim-env-p_c-without-mix"),
    pytest.param(["simulate", "--p-d", "0.1", "--mix", "reciprocative=0.8,malicious=0.2"], {},
                 "sim", id="sim-env-p_d-off-mix"),
    pytest.param(["sweep", "--problem", "OSNE", "--b-cap", "3", "--sweep", "L:2:3:0.5"], {},
                 "design.L", id="sweep-L-solve"),
]


def run_bad_config(scenario_file, capsys, tmp_path, argv, sections):
    """Run argv on BASE_SCENARIO with SIM_SECTION, `sections` replacing
    sections; `sections` that are not a dict are the whole config."""
    if isinstance(sections, dict):
        path = scenario_file(**{"sim": SIM_SECTION, **sections})
    else:
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(sections))
    return run_cli(capsys, argv[0], "--config", str(path), *argv[1:])


@pytest.mark.parametrize("argv, sections, field", MALFORMED_CASES)
def test_malformed_input_is_a_config_error(scenario_file, capsys, tmp_path, argv, sections,
                                           field):
    code, out = run_bad_config(scenario_file, capsys, tmp_path, argv, sections)
    assert code == 2
    assert json.loads(out)["error"]["field"] == field


# sha256 of every MALFORMED_CASES and UNANALYZABLE_CASES command's exit code
# and full output, recorded before the CLI's scenario schema became one table;
# re-recorded when the OSNE_VPS ladder cap rose from 6 to 8, which changed
# the cap message and nothing else
ERROR_OUTPUT_DIGEST = "6df1cf0fe49c117dadb899855e3d1b45cb76c92b45e54af03d3fb33fd42d7dda"


def test_error_outputs_are_pinned(scenario_file, capsys, tmp_path):
    # each message, not only its field: no error output drifts unseen
    cases = [(case.id, *case.values[:2]) for case in MALFORMED_CASES]
    cases += [(" ".join(argv), argv, {}) for argv, _ in UNANALYZABLE_CASES]
    text = "".join(f"{name}\n{code}\n{out}" for name, argv, sections in cases
                   for code, out in [run_bad_config(scenario_file, capsys, tmp_path, argv,
                                                    sections)])
    assert hashlib.sha256(text.encode()).hexdigest() == ERROR_OUTPUT_DIGEST, text


@pytest.mark.parametrize("command, section, base, name", [
    ("solve", "design", {"problem": "OSNE", "L": 3, "b_cap": 3}, "problem"),
    ("simulate", "sim", SIM_SECTION, "protocol_flavor"),
])
def test_text_fields_take_strings(scenario_file, capsys, tmp_path, command, section, base, name):
    code, out = run_bad_config(scenario_file, capsys, tmp_path, [command],
                               {section: dict(base, **{name: 3})})
    assert code == 2
    assert json.loads(out)["error"] == {"field": f"{section}.{name}",
                                        "message": "expected a string, got 3"}


def test_integral_floats_are_integers(scenario_file, capsys):
    # a sweep axis gives 3.0: integral floats run exactly as their ints
    outs = []
    for kind in (int, float):
        path = scenario_file(params={"L": kind(3), "h_o": kind(1), "b": kind(2)},
                             sim={name: kind(v) for name, v in SIM_SECTION.items()})
        outs += [run_cli(capsys, command, "--config", path) for command in ("check", "simulate")]
    assert outs[:2] == outs[2:] and all(code == 0 for code, _ in outs)


def test_repeated_main_calls_share_no_state(scenario_file, capsys):
    # one parser serves every call: --sweep's list starts empty and
    # --strategic unset each time
    assert build_parser() is build_parser()
    path = scenario_file(sim=SIM_SECTION)
    sweep = ["sweep", "--config", path, "--sweep", "c:0.2:0.3:0.1"]
    first = run_cli(capsys, *sweep)
    assert len(first[1].splitlines()) == 3 and run_cli(capsys, *sweep) == first
    plain = run_cli(capsys, "simulate", "--config", path)
    code, out = run_cli(capsys, "simulate", "--config", path, "--strategic")
    assert code == 0 and json.loads(out)["config"]["strategic"] is True
    assert run_cli(capsys, "simulate", "--config", path) == plain
    assert json.loads(plain[1])["config"]["strategic"] is False


def test_analyze_point_solves_its_profile_once(scenario_file, count_calls, capsys):
    calls = count_calls("stationary_for_regime", "overall_utilities")
    code, _ = run_cli(capsys, "analyze", "--config", scenario_file(), "--beta", "0.5")
    assert code == 0
    assert calls == {"stationary_for_regime": 1, "overall_utilities": 1}


def test_strategic_simulate_checks_once(scenario_file, count_calls, capsys):
    calls = count_calls("check_equilibrium")
    path = scenario_file(sim={"n_peers": 50, "n_periods": 5, "seed": 1})
    code, _ = run_cli(capsys, "simulate", "--config", path, "--strategic")
    assert code == 0
    assert calls == {"check_equilibrium": 1}


def test_compare_checks_each_social_norm_cell_once(scenario_file, count_calls, capsys):
    # the strategic batch checks each protocol it simulates; compare reads its
    # sustained column off that run instead of checking again
    calls = count_calls("check_equilibrium")
    path = scenario_file(sim={"n_peers": 50, "n_periods": 5, "seed": 1})
    code, _ = run_cli(capsys, "compare", "--config", path, "--flavors", "SocialNorm",
                      "--sweep", "c:0.2:0.4:0.1")
    assert code == 0
    assert calls == {"check_equilibrium": 3}


def test_a_compare_row_does_not_depend_on_the_grid(capsys):
    # each cell draws from its own random stream: the b=1 row reads the same
    # at every sweep extent, and it is the strategic `simulate` run of b=1
    argv = ["--r", "1", "--c", "0.2", "--eps", "0.1", "--lambda", "1", "--delta", "0.8",
            "--L", "3", "--h-o", "1", "--n-peers", "300", "--n-periods", "200", "--seed", "5"]
    rows = []
    for extent in (1, 2, 3):
        code, out = run_cli(capsys, "compare", *argv, "--b", "2", "--flavors", "SocialNorm",
                            "--sweep", f"b:1:{extent}:1")
        assert code == 0
        rows.append(out.splitlines()[1])
    assert rows[0].startswith("b,1.0,SocialNorm,True,") and rows == [rows[0]] * 3
    code, out = run_cli(capsys, "simulate", *argv, "--b", "1", "--strategic")
    assert float(rows[0].split(",")[4]) == json.loads(out)["summary"]["delivery_rate"]


class TestScenarioRoundTrip:
    def test_emitted_config_echo_reloads_identically(self, scenario_file, capsys, tmp_path):
        path = scenario_file(sim={"n_peers": 80, "n_periods": 10, "seed": 2})
        code, out = run_cli(capsys, "simulate", "--config", path)
        echo = json.loads(out)["config"]
        rebuilt = {
            "env": {k: v for k, v in echo["env"].items()},
            "params": {k: v for k, v in echo["params"].items()},
            "sim": {"n_peers": echo["n_peers"], "n_periods": echo["n_periods"],
                    "seed": echo["seed"], "population_mix": echo["population_mix"],
                    "protocol_flavor": echo["protocol_flavor"],
                    "strategic": echo["strategic"]},
        }
        path2 = tmp_path / "rebuilt.json"
        path2.write_text(json.dumps(rebuilt))
        code2, out2 = run_cli(capsys, "simulate", "--config", str(path2))
        assert code2 == 0
        assert json.loads(out2)["config"] == echo


OUTPUT_RUNS = {
    "analyze": [], "check": [], "solve": ["--problem", "OSNE", "--b-cap", "3"],
    "sweep": ["--sweep", "c:0.2:0.3:0.1"], "simulate": [], "compare": ["--sweep", "c:0.2:0.3:0.1"],
}


@pytest.mark.parametrize("command", OUTPUT_RUNS)
def test_output_path_writes_what_out_writes(scenario_file, capsys, tmp_path, command):
    # output.path and --out are one destination; a given --out wins
    in_file, flag = tmp_path / "in_file.txt", tmp_path / "flag.txt"
    path = scenario_file(sim=SIM_SECTION, output={"path": str(in_file)})
    assert run_cli(capsys, command, "--config", path, *OUTPUT_RUNS[command]) == (0, "")
    written = in_file.read_bytes()
    in_file.unlink()
    assert run_cli(capsys, command, "--config", path, *OUTPUT_RUNS[command],
                   "--out", str(flag)) == (0, "")
    assert flag.read_bytes() == written and not in_file.exists()


@pytest.mark.parametrize("output, field, message", [
    ({"path": 7}, "output.path", "expected a string, got 7"),
    ({"pth": "x.json"}, "output.pth", "unknown output field 'pth'"),
], ids=["path-not-a-string", "unknown-key"])
def test_output_section_is_checked(scenario_file, capsys, tmp_path, output, field, message):
    # checked even when --out names the destination
    for flags in ([], ["--out", str(tmp_path / "x.json")]):
        code, out = run_cli(capsys, "check", "--config", scenario_file(output=output), *flags)
        assert (code, json.loads(out)) == (2, {"error": {"field": field, "message": message}})
    assert not (tmp_path / "x.json").exists()


@pytest.mark.parametrize("command", ["check", "sweep", "compare"])
def test_commands_without_a_csv_refuse_csv_out(scenario_file, capsys, tmp_path, command):
    with pytest.raises(SystemExit) as exc:
        main([command, "--config", scenario_file(), "--csv-out", str(tmp_path / "x.csv")])
    assert exc.value.code == 2 and "--csv-out" in capsys.readouterr().err


@pytest.mark.parametrize("source", ["out", "csv_out", "output.path"])
def test_unwritable_path_is_a_config_error(scenario_file, capsys, tmp_path, source):
    # the error object alone reaches stdout, naming where the path came from
    bad = str(tmp_path / "no" / "such" / "x.txt")
    flags = {"out": ["--out", bad], "csv_out": ["--csv-out", bad], "output.path": []}[source]
    path = scenario_file(output={"path": bad} if source == "output.path" else {})
    code, out = run_cli(capsys, "analyze", "--config", path, *flags)
    assert code == 2
    error = json.loads(out)["error"]
    assert error["field"] == source and "No such file or directory" in error["message"]


@pytest.mark.parametrize("param", [{}, {"param": ["c"]}], ids=["missing", "a-list"])
def test_sweep_param_is_checked_before_it_is_read(scenario_file, capsys, param):
    path = scenario_file(extra={"sweep": [{**param, "min": 0.1, "max": 0.3, "step": 0.1}]})
    code, out = run_cli(capsys, "sweep", "--config", path)
    assert (code, json.loads(out)["error"]["field"]) == (2, "sweep.param")
