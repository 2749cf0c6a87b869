import csv
import hashlib
import io
import json

import numpy as np
import pytest

from normforge import (NetworkEnv, ProtocolParams, check_equilibrium, stationary_fixed_point,
                       stationary_for_regime, tft_sustainable)
from normforge.cli import main

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


class TestAnalyze:
    def test_baseline_row_contains_mu(self, scenario_file, capsys):
        code, out = run_cli(capsys, "analyze", "--config", scenario_file())
        assert code == 0
        payload = json.loads(out)
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
        payload = json.loads(out)
        assert {"serve_slack", "refuse_slack", "per_theta_slacks", "is_equilibrium"} <= set(payload)


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
        assert payload["search_log"]

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

    def test_altruist_problem_reports_p_c_star(self, scenario_file, capsys):
        path = scenario_file(design={"problem": "OSNE_AH", "L": 2, "b_cap": 2,
                                     "p_c_grid": 0.25})
        code, out = run_cli(capsys, "solve", "--config", path)
        assert code == 0
        assert "p_c_star" in json.loads(out)


class TestSweep:
    def test_single_point_matches_analyze(self, scenario_file, capsys):
        path = scenario_file()
        code, out = run_cli(capsys, "sweep", "--config", path,
                            "--sweep", "c:0.2:0.2:0.1")
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert len(rows) == 1
        code2, out2 = run_cli(capsys, "analyze", "--config", path)
        want = json.loads(out2)
        assert float(rows[0]["mu"]) == pytest.approx(want["mu"])
        assert float(rows[0]["social_utility"]) == pytest.approx(want["social_utility"])

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

    def test_seed_replay_identical_output(self, scenario_file, capsys, tmp_path):
        path = scenario_file(sim=self.sim_section())
        out_a = tmp_path / "a.json"
        out_b = tmp_path / "b.json"
        assert main(["simulate", "--config", path, "--out", str(out_a)]) == 0
        assert main(["simulate", "--config", path, "--out", str(out_b)]) == 0
        ha = hashlib.sha256(out_a.read_bytes()).hexdigest()
        hb = hashlib.sha256(out_b.read_bytes()).hexdigest()
        assert ha == hb

    def test_config_echo_includes_seed(self, scenario_file, capsys):
        path = scenario_file(sim=self.sim_section(seed=1234))
        code, out = run_cli(capsys, "simulate", "--config", path)
        assert code == 0
        assert json.loads(out)["config"]["seed"] == 1234

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
    def test_is_a_config_error_in_every_command(self, scenario_file, capsys, argv, field):
        path = scenario_file(sim={"n_peers": 50, "n_periods": 5, "seed": 1})
        code, out = run_cli(capsys, argv[0], "--config", path, *argv[1:])
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
    pytest.param(["solve", "--problem", "OSNE_VPS", "--L", "7", "--b-cap", "2"], {}, "design",
                 id="design"),
    pytest.param(["sweep"], {"sweep": "abc"}, "sweep", id="sweep-not-a-list"),
    pytest.param(["simulate"], {"sim": dict(SIM_SECTION, population_mix=[1])},
                 "sim.population_mix", id="sim.population_mix-not-an-object"),
    # a design sweep searches h_o, b and beta itself: an axis over them is refused
    *[pytest.param(["sweep", "--problem", "OSNE_VP", "--L", "3", "--b-cap", "4",
                    "--sweep", axis], {}, "sweep.param", id=f"sweep.param-solve-{axis}")
      for axis in ("h_o:1:3:1", "b:1:3:1", "beta:0:0.5:0.25")],
]


@pytest.mark.parametrize("argv, sections, field", MALFORMED_CASES)
def test_malformed_input_is_a_config_error(scenario_file, capsys, argv, sections, field):
    path = scenario_file(**{"sim": SIM_SECTION, **sections})
    code, out = run_cli(capsys, argv[0], "--config", path, *argv[1:])
    assert code == 2
    assert json.loads(out)["error"]["field"] == field


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
    # the strategic run checks the protocol it simulates; compare reads its
    # sustained column off that run instead of checking again
    calls = count_calls("check_equilibrium")
    path = scenario_file(sim={"n_peers": 50, "n_periods": 5, "seed": 1})
    code, _ = run_cli(capsys, "compare", "--config", path, "--flavors", "SocialNorm",
                      "--sweep", "c:0.2:0.2:0.1")
    assert code == 0
    assert calls == {"check_equilibrium": 1}


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
