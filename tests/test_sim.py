import hashlib
import json

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from normforge import (
    DeviantPolicy,
    NetworkEnv,
    PeerKind,
    Points,
    ProtocolParams,
    SimConfig,
    check_equilibrium,
    measure_deviation_gain,
    one_period_utilities,
    run_sim,
    run_tft,
    sim,
    stationary_closed_form,
    stationary_for_regime,
    tft_sustainable,
)
from oracles import (Action, deviation_gain_full_horizon, fewest_self_service_drops,
                     pick_by_rank, reputation_update, social_strategy, tft_closed_form)


def env(**kw):
    base = dict(r=1.0, c=0.2, eps=0.1, lam=1.0, delta=0.8)
    base.update(kw)
    return NetworkEnv(**base)


def config(**kw):
    base = dict(n_peers=200, n_periods=100, seed=11,
                params=ProtocolParams(L=3, h_o=1, b=2), env=env())
    base.update(kw)
    return SimConfig(**base)


class TestDeterminism:
    def test_identical_configs_identical_traces(self):
        a = run_sim(config(seed=5)).to_json()
        b = run_sim(config(seed=5)).to_json()
        assert a == b

    def test_different_seed_different_trace(self):
        a = run_sim(config(seed=5)).to_json()
        b = run_sim(config(seed=6)).to_json()
        assert a != b

    def test_json_round_trip(self):
        d = run_sim(config(n_periods=20)).to_json_dict()
        assert json.loads(json.dumps(d)) == json.loads(json.dumps(d))


class TestErrorFreeRun:
    def test_everyone_reaches_top_after_ladder_length(self):
        cfg = config(env=env(eps=0.0, c=0.4), n_periods=10)
        tr = run_sim(cfg)
        assert (tr.eta[3] == [0, 0, 0, 1]).all()  # period L = 3 onward
        assert (tr.final_reputation == 3).all()

    def test_exact_per_period_utility(self):
        cfg = config(env=env(eps=0.0, c=0.4), n_periods=10)
        tr = run_sim(cfg)
        # once everyone is active: round(lam*b) chunks in, the same out
        assert tr.mean_utility["reciprocative"][-1] == pytest.approx(2 * (1.0 - 0.4))


class TestConservation:
    @pytest.mark.parametrize("mix", [
        None,
        {PeerKind.RECIPROCATIVE: 0.7, PeerKind.ALTRUISTIC: 0.3},
        {PeerKind.RECIPROCATIVE: 0.7, PeerKind.MALICIOUS: 0.3},
    ])
    def test_every_request_lands_in_one_bucket(self, mix):
        tr = run_sim(config(population_mix=mix, n_periods=60,
                            env=env(p_c=0.0, p_d=0.0)))
        c = tr.counts
        total = c["served"] + c["errored"] + c["corrupted"] + c["unserved"]
        assert (total == c["emitted"]).all()

    def test_emission_volume(self):
        tr = run_sim(config(n_periods=5))
        assert (tr.counts["emitted"] == 200 * 2).all()


class TestStationaryAgreement:
    def test_matches_closed_form_moderate_size(self):
        cfg = config(n_peers=1000, n_periods=800, seed=3)
        tr = run_sim(cfg)
        want = stationary_closed_form(cfg.params, cfg.env)
        eta_hat = tr.eta[-200:].mean(axis=0)
        assert np.max(np.abs(eta_hat - want.eta)) < 0.02
        assert abs(tr.window_mu(last=200) - want.mu) < 0.01


class TestMalicious:
    def test_malicious_cycle_and_wasted_slots(self):
        cfg = config(n_peers=1000, n_periods=600, seed=9,
                     env=env(p_d=0.3),
                     population_mix={PeerKind.RECIPROCATIVE: 0.7, PeerKind.MALICIOUS: 0.3})
        tr = run_sim(cfg)
        assert tr.counts["corrupted"][-100:].sum() > 0
        mal_reps = tr.final_reputation[tr.kinds == 2]
        assert mal_reps.max() <= 1  # they never climb past the threshold

    def test_active_utility_matches_formula_when_error_free(self):
        # with eps = 0 the mechanistic matching and the analytic rates agree
        # exactly: the wasted-slot share is the malicious pool share
        e = env(eps=0.0, p_d=0.3)
        p = ProtocolParams(L=3, h_o=1, b=2)
        cfg = config(n_peers=1500, n_periods=400, seed=21, params=p, env=e,
                     population_mix={PeerKind.RECIPROCATIVE: 0.7, PeerKind.MALICIOUS: 0.3})
        tr = run_sim(cfg)
        dist = stationary_for_regime(p, e)
        v = one_period_utilities(p, e, dist)
        # all reciprocative peers are active once warmed up (no errors)
        got = float(np.mean(tr.mean_utility["reciprocative"][-100:]))
        sd = float(np.std(tr.mean_utility["reciprocative"][-100:])) / 10  # window mean
        assert abs(got - v[1]) < max(3 * sd, 0.02)


class TestAltruists:
    def test_load_cap_respected(self):
        # make altruists the only servers: inactive clients can only hit them
        cfg = config(n_peers=300, n_periods=40, seed=17,
                     env=env(p_c=0.2),
                     population_mix={PeerKind.RECIPROCATIVE: 0.8, PeerKind.ALTRUISTIC: 0.2})
        tr = run_sim(cfg)
        k = cfg.requests_per_peer
        n_alt = cfg.kind_counts()[PeerKind.ALTRUISTIC]
        # altruist uploads show up as cost; per-period cost per altruist <= k * c
        per_period_cost = -np.array(tr.mean_utility["altruistic"])
        assert (per_period_cost <= k * cfg.env.c + 1e-9).all()
        assert per_period_cost[5:].min() > 0  # they do serve

    def test_altruists_feed_inactive_peers(self):
        # collapsed protocol: strategic recips free-ride, so altruists are
        # the only source of chunks and service is rationed by their supply
        e = env(c=0.55, delta=0.5, p_c=0.25)
        cfg = config(n_peers=400, n_periods=80, seed=23, env=e, strategic=True,
                     population_mix={PeerKind.RECIPROCATIVE: 0.75, PeerKind.ALTRUISTIC: 0.25})
        tr = run_sim(cfg)
        assert tr.counts["served_by_recip"][-20:].sum() == 0
        served_rate = tr.counts["served"][-20:].sum() / tr.counts["emitted"][-20:].sum()
        supply_bound = 0.25 / 0.75
        assert 0 < served_rate <= supply_bound + 0.02


@pytest.fixture
def batch_lengths(monkeypatch):
    """The n_periods of every run_replicas batch run."""
    lengths = []
    monkeypatch.setattr(sim, "run_replicas", lambda configs, _run=sim.run_replicas:
                        lengths.append(configs[0].n_periods) or _run(configs))
    return lengths


class TestDeviationMeasurement:
    def test_always_refusing_peer_earns_less(self):
        cfg = config(n_peers=300, n_periods=80, seed=31,
                     deviant_policy=DeviantPolicy(peer_id=0, window=None))
        assert check_equilibrium(cfg.params, cfg.env).is_equilibrium
        diffs = []
        for s in range(30):
            tr = run_sim(cfg.replace(seed=100 + s))
            others = tr.discounted_utility[1:]
            diffs.append(tr.discounted_utility[0] - float(others.mean()))
        mean = float(np.mean(diffs))
        se = float(np.std(diffs, ddof=1)) / np.sqrt(len(diffs))
        assert mean < 0
        assert mean + 2 * se < 0  # clearly below the compliant crowd

    def test_one_shot_gain_negative_under_equilibrium(self):
        cfg = config(n_peers=300, n_periods=60, seed=7)
        assert check_equilibrium(cfg.params, cfg.env).is_equilibrium
        gain = measure_deviation_gain(cfg, theta=3, n_pairs=40)
        assert gain < 0

    def test_one_shot_gain_positive_when_check_fails(self):
        e = env(c=0.55, delta=0.5)
        cfg = config(n_peers=300, n_periods=60, seed=7, env=e)
        assert not check_equilibrium(cfg.params, e).is_equilibrium
        gain = measure_deviation_gain(cfg, theta=3, n_pairs=40)
        assert gain > 0

    def test_no_pairs_is_an_error(self):
        with pytest.raises(ValueError, match="n_pairs"):
            measure_deviation_gain(config(n_peers=20, n_periods=5), theta=1, n_pairs=0)

    def test_free_serving_leaves_no_gain(self):
        cfg = config(n_peers=200, n_periods=50, seed=7, env=env(c=0.0))
        for theta in (0, 2, 3):
            assert measure_deviation_gain(cfg, theta=theta, n_pairs=10) <= 0

    @settings(max_examples=30, deadline=None, derandomize=True, database=None)
    @given(delta=st.sampled_from([0.0, 0.3, 0.5, 0.8]), c=st.sampled_from([0.2, 0.55]),
           theta=st.integers(0, 3), seed=st.integers(0, 10 ** 6),
           mix=st.sampled_from([{PeerKind.RECIPROCATIVE: 0.8, PeerKind.ALTRUISTIC: 0.2},
                                {PeerKind.RECIPROCATIVE: 0.8, PeerKind.MALICIOUS: 0.2}]))
    def test_gain_is_the_full_horizon_gain(self, delta, c, theta, seed, mix):
        # of 80 periods, delta 0 runs 1, delta 0.3 about 40, delta 0.5 about
        # 70, and delta 0.8 all of them
        cfg = config(n_peers=40, n_periods=80, seed=seed, env=env(c=c, delta=delta),
                     population_mix=mix)
        gain = measure_deviation_gain(cfg, theta=theta, n_pairs=3)
        assert repr(gain) == repr(deviation_gain_full_horizon(cfg, theta, 3))

    def test_benchmark_setting_runs_one_short_batch(self, batch_lengths):
        cfg = config(n_peers=200, n_periods=200, seed=7, env=env(c=0.55, delta=0.5))
        measure_deviation_gain(cfg, theta=3, n_pairs=15)
        assert len(batch_lengths) == 1 and batch_lengths[0] <= 72

    @pytest.mark.parametrize("T, lengths", [(60, [26, 56]), (40, [26, 40])])
    def test_unsettled_utility_reruns_to_its_own_horizon(self, batch_lengths, T, lengths):
        # utilities near 1e-12 have a float spacing far below 2**-64: the
        # short batch cannot show that the later periods change nothing, so
        # it reruns to the horizon their spacing needs, or to n_periods
        cfg = config(n_peers=40, n_periods=T, seed=7, env=env(r=1e-12, c=0.0, delta=0.5))
        gain = measure_deviation_gain(cfg, theta=3, n_pairs=3)
        assert batch_lengths == lengths
        assert repr(gain) == repr(deviation_gain_full_horizon(cfg, 3, 3))


class TestTft:
    def test_error_free_cooperation_after_one_period(self):
        cfg = config(env=env(eps=0.0), protocol_flavor="TFT", n_periods=30)
        tr = run_tft(cfg)
        assert tr.eta[0][0] == 1.0          # everyone starts untrusted
        assert tr.eta[1][1] == 1.0          # one clean period fixes that
        assert (tr.final_reputation == 1).all()

    def test_flavor_guards(self):
        with pytest.raises(ValueError):
            run_tft(config())
        with pytest.raises(ValueError):
            run_sim(config(protocol_flavor="TFT"))

    def test_sustainability_boundary_matches_two_state_algebra(self):
        # without altruists the condition is c <= delta*(1-alpha)*(1-eps)*r,
        # with alpha = eps at a single connection and unit utilization
        e = env(eps=0.1, delta=0.8)
        boundary = 0.8 * (1 - 0.1) * (1 - 0.1) * 1.0
        assert tft_sustainable(e.replace(c=boundary - 0.01), 1)
        assert not tft_sustainable(e.replace(c=boundary + 0.01), 1)

    @settings(max_examples=400, deadline=None, derandomize=True, database=None)
    @given(r=st.floats(0.5, 3.0), cost=st.floats(0.0, 0.99),
           eps=st.one_of(st.just(0.0), st.floats(0.0, 0.9)),
           delta=st.one_of(st.just(0.0), st.floats(0.0, 0.999)), lam=st.floats(0.2, 3.0),
           b=st.integers(1, 9), p_d=st.sampled_from([0.0, 0.2]),
           p_c=st.one_of(st.sampled_from([0.0, 0.5, 1.0]), st.floats(0.0, 1.0)))
    @example(r=1.0, cost=0.3, eps=0.1, delta=0.8, lam=1.0, b=2, p_d=0.0, p_c=0.0)
    @example(r=1.0, cost=0.3, eps=0.1, delta=0.8, lam=1.0, b=2, p_d=0.0, p_c=0.2)
    @example(r=1.0, cost=0.3, eps=0.1, delta=0.8, lam=1.0, b=2, p_d=0.0, p_c=0.5)
    @example(r=1.0, cost=0.3, eps=0.1, delta=0.8, lam=1.0, b=2, p_d=0.2, p_c=0.7)
    @example(r=1.0, cost=0.3, eps=0.0, delta=0.8, lam=1.0, b=2, p_d=0.0, p_c=0.3)
    @example(r=1.0, cost=0.3, eps=0.1, delta=0.0, lam=1.0, b=2, p_d=0.0, p_c=0.3)
    @example(r=1.0, cost=0.0, eps=0.1, delta=0.0, lam=1.0, b=2, p_d=0.0, p_c=0.0)
    def test_verdict_is_the_closed_form(self, r, cost, eps, delta, lam, b, p_d, p_c):
        # the check on tit-for-tat's row against the hand-derived two-state
        # verdict; malicious peers are left out of both
        e = NetworkEnv(r=r, c=cost * r, eps=eps, lam=lam, delta=delta, p_d=p_d)
        assert tft_sustainable(e, b, p_c) == tft_closed_form(e, b, p_c)

    def test_collapse_happens_at_lower_cost_than_social_norm(self):
        # matched setting: both protocols, identical environment sweep
        base = dict(r=1.0, eps=0.1, lam=1.0, delta=0.8)
        first_fail_tft = None
        first_fail_social = None
        for c in np.arange(0.05, 0.65, 0.05):
            e = NetworkEnv(c=float(c), p_c=0.3, **base)
            e_plain = NetworkEnv(c=float(c), **base)
            if first_fail_tft is None and not tft_sustainable(e_plain, 5, p_c=0.3):
                first_fail_tft = c
            feasible = any(
                check_equilibrium(ProtocolParams(L=3, h_o=h, b=b), e).is_equilibrium
                for h in (1, 2, 3) for b in range(1, 6))
            if first_fail_social is None and not feasible:
                first_fail_social = c
        assert first_fail_tft is not None and first_fail_social is not None
        assert first_fail_tft < first_fail_social

    def test_tft_agents_labeled_distinctly(self):
        cfg = config(protocol_flavor="TFT", n_periods=10)
        tr = run_tft(cfg)
        assert tr.strategic_kind() == "tft_agent"
        assert set(tr.mean_utility) == {"tft_agent"}
        assert set(tr.to_json_dict()["per_peer"]["kind"]) == {"tft_agent"}

    def test_strategic_tft_free_rides_when_unsustainable(self):
        e = env(c=0.6, delta=0.6, p_c=0.2)
        cfg = config(n_peers=200, n_periods=40, seed=13, env=e,
                     protocol_flavor="TFT", strategic=True,
                     population_mix={PeerKind.RECIPROCATIVE: 0.8, PeerKind.ALTRUISTIC: 0.2})
        tr = run_tft(cfg)
        assert tr.counts["served_by_recip"].sum() == 0
        assert tr.counts["served"].sum() > 0  # altruists still deliver


class TestTraceShape:
    def test_histograms_are_distributions(self):
        tr = run_sim(config(n_periods=30))
        assert np.allclose(tr.eta.sum(axis=1), 1.0, atol=1e-12)
        assert (tr.eta >= 0).all()

    def test_summary_fields(self):
        tr = run_sim(config(n_periods=40))
        s = tr.summary()
        assert set(s) >= {"final_window_eta", "final_window_mu", "delivery_rate",
                          "recip_delivery_rate", "totals", "truncation_bound"}
        assert s["totals"]["emitted"] == 40 * 200 * 2

    def test_truncation_bound_bounds_the_tail(self):
        # one top-rung server serves every client above rung 0, so a period
        # can cost it far more than k uploads: a bound of k * max(r, c) is
        # exceeded here
        cfg = config(n_peers=300, n_periods=80, seed=3,
                     params=ProtocolParams(L=3, h_o=3, b=2, m_o=(1,)),
                     env=env(c=0.6, eps=0.3, delta=0.5))
        full, prefix = run_sim(cfg), run_sim(cfg.replace(n_periods=10))
        gap = np.abs(full.discounted_utility - prefix.discounted_utility).max()
        assert 0 < gap <= prefix.truncation_bound

    @pytest.mark.parametrize("n, fracs, want", [
        (10, (0.35, 0.35, 0.3), (4, 3, 3)),   # tied remainders go in kind order
        (7, (0.5, 0.25, 0.25), (3, 2, 2)),    # larger remainders go first
    ])
    def test_kind_counts_split_by_largest_remainder(self, n, fracs, want):
        mix = dict(zip((PeerKind.RECIPROCATIVE, PeerKind.ALTRUISTIC, PeerKind.MALICIOUS), fracs))
        counts = config(n_peers=n, population_mix=mix).kind_counts()
        assert tuple(counts.values()) == want

    def test_population_mix_validation(self):
        with pytest.raises(ValueError):
            config(population_mix={PeerKind.RECIPROCATIVE: 0.5})
        with pytest.raises(ValueError):
            config(population_mix={PeerKind.TFT_AGENT: 1.0})

    def test_env_shares_must_be_the_mix(self):
        # the mix sets the simulated population; an env share it contradicts
        # would be echoed in the trace without being simulated
        with pytest.raises(ValueError, match="p_c"):
            config(env=env(p_c=0.3))
        with pytest.raises(ValueError, match="p_d"):
            config(env=env(p_d=0.1),
                   population_mix={PeerKind.RECIPROCATIVE: 0.8, PeerKind.MALICIOUS: 0.2})
        config(env=env(p_c=0.3),
               population_mix={PeerKind.RECIPROCATIVE: 0.7, PeerKind.ALTRUISTIC: 0.3})

    @pytest.mark.parametrize("reps", [(), (0,) * 199, (0,) * 199 + (9,), (-1,) * 200])
    def test_init_reputations_validation(self, reps):
        with pytest.raises(ValueError, match="init_reputations"):
            run_sim(config(n_periods=2, init_reputations=reps))


class TestRuntimeInvariants:
    def test_lost_request_names_its_period(self, monkeypatch):
        # a routing split that silently drops one request in period 3 must
        # break the outcome partition and fail the run; with no errors and
        # every peer on the top rung each period routes one pool in one pass,
        # so period 3's split is the run's fourth call to the router
        real_route, calls = sim._route, []

        def dropping_route(*args):
            order, n_req = real_route(*args)
            if len(calls) == 3:
                n_req = n_req.copy()
                n_req[np.unravel_index(np.argmax(n_req), n_req.shape)] -= 1
            calls.append(1)
            return order, n_req

        monkeypatch.setattr(sim, "_route", dropping_route)
        with pytest.raises(RuntimeError, match="partition emitted in period 3$"):
            run_sim(config(n_periods=6, env=env(eps=0.0), init_reputations=(3,) * 200))


def _outcomes(trace) -> tuple:
    """Everything a trace records except its config."""
    return (trace.eta.tolist(), {k: v.tolist() for k, v in trace.counts.items()},
            {k: v.tolist() for k, v in trace.mean_utility.items()},
            trace.discounted_utility.tolist(), trace.final_reputation.tolist())


class TestReplicas:
    @pytest.mark.parametrize("params, low", [
        (ProtocolParams(L=3, h_o=1, b=2), 0),              # nobody serves rung 0
        (ProtocolParams(L=3, h_o=2, b=2, m_o=(1, 1)), 1),  # only replica B can serve rung 1
    ])
    def test_requests_stay_in_their_replica(self, params, low):
        a = config(n_peers=50, n_periods=3, params=params, init_reputations=(low,) * 50)
        b = a.replace(seed=12, init_reputations=(3,) * 50)
        tr_a, tr_b = sim.run_replicas([a, b])
        assert tr_a.counts["served"][0] == 0
        assert tr_a.counts["unserved"][0] == tr_a.counts["emitted"][0]
        assert tr_b.counts["served"][0] > 0

    def test_same_seed_replicas_draw_alike(self):
        cfg = config(n_peers=60, n_periods=40, env=env(eps=0.2), init_reputations=(0, 3) * 30,
                     params=ProtocolParams(L=3, h_o=1, b=2, beta=0.5),
                     population_mix={PeerKind.RECIPROCATIVE: 0.8, PeerKind.ALTRUISTIC: 0.1,
                                     PeerKind.MALICIOUS: 0.1})
        # peer 0 starts at rung 0, so it is never asked to serve in period 0
        idle = cfg.replace(deviant_policy=DeviantPolicy(peer_id=0, window=(0, 1)))
        traces = sim.run_replicas([cfg, cfg.replace(seed=99), idle, cfg])
        assert _outcomes(traces[0]) == _outcomes(traces[2]) == _outcomes(traces[3])
        assert _outcomes(traces[1]) != _outcomes(traces[0])
        # each replica's stream is keyed by its own seed: copies of one
        # config replay the batch of one
        assert [_outcomes(t) for t in sim.run_replicas([cfg, cfg])] == [_outcomes(run_sim(cfg))] * 2

    def test_unasked_deviant_gains_exactly_nothing(self):
        cfg = config(n_peers=200, n_periods=50, seed=7, env=env(c=0.0))
        assert measure_deviation_gain(cfg, theta=0, n_pairs=10) == 0.0

    def test_batch_replays_byte_for_byte(self):
        cfgs = [config(n_peers=40, n_periods=30, seed=s, protocol_flavor="TFT",
                       population_mix={PeerKind.RECIPROCATIVE: 0.8, PeerKind.ALTRUISTIC: 0.2})
                for s in (1, 2, 1)]
        first, again = sim.run_replicas(cfgs), sim.run_replicas(cfgs)
        assert [t.to_json() for t in first] == [t.to_json() for t in again]

    @pytest.mark.parametrize("change", [dict(n_peers=30), dict(n_periods=20),
                                        dict(population_mix={PeerKind.RECIPROCATIVE: 0.9,
                                                             PeerKind.ALTRUISTIC: 0.1})])
    def test_replicas_share_size_length_and_mix(self, change):
        base = config(n_peers=20, n_periods=10)
        sim.run_replicas([base, base.replace(seed=3, init_reputations=(1,) * 20,
                                             deviant_policy=DeviantPolicy(peer_id=2),
                                             env=env(eps=0.2), protocol_flavor="TFT",
                                             params=ProtocolParams(L=4, h_o=2, b=2))])
        with pytest.raises(ValueError, match="share n_peers, n_periods and population_mix"):
            sim.run_replicas([base, base.replace(**change)])

    def test_strategic_verdict_is_checked_once_per_protocol_and_env(self, count_calls):
        calls = count_calls("check_equilibrium", "tft_sustainable")
        base = config(n_peers=20, n_periods=5, strategic=True)
        tft = base.replace(protocol_flavor="TFT")
        traces = sim.run_replicas([base, base.replace(seed=2, init_reputations=(1,) * 20),
                                   base.replace(env=env(c=0.9)), tft, tft.replace(seed=4),
                                   base.replace(strategic=False, env=env(c=0.5))])
        assert calls == {"check_equilibrium": 2, "tft_sustainable": 1}
        assert [t.collapsed for t in traces] == [False, False, True, False, False, False]

    # without altruists or malicious peers, pools nobody is prescribed to
    # serve are dead, and the replicas' pool counts differ
    MIXES = [{PeerKind.RECIPROCATIVE: 0.8, PeerKind.ALTRUISTIC: 0.2},
             {PeerKind.RECIPROCATIVE: 0.8, PeerKind.MALICIOUS: 0.2}, None]

    @staticmethod
    def mixed_batch(mix):
        """Same-seed replicas that differ in flavor, ladder, forgiveness,
        strategic verdict, eps, lam, r, c and delta."""
        base = config(n_peers=80, n_periods=40, seed=5, population_mix=mix)
        return [
            base.replace(protocol_flavor="TFT", env=env(eps=0.3)),
            base.replace(env=env(eps=0.0)),
            base.replace(params=ProtocolParams(L=4, h_o=2, b=3, beta=0.5, m_o=(1, 2, 3)),
                         env=env(r=1.2, c=0.1, lam=1.3, delta=0.9)),  # round(lam * b) = 4
            base.replace(strategic=True, params=ProtocolParams(L=3, h_o=2, b=2),
                         env=env(c=0.9)),  # fails its check: collapses
            base.replace(strategic=True, env=env(eps=0.3, c=0.1)),
        ]

    @pytest.mark.parametrize("mix", MIXES)
    def test_mixed_batch_keeps_each_replica_its_own(self, mix):
        cfgs = self.mixed_batch(mix)
        traces = sim.run_replicas(cfgs)  # raises if a replica fails its run-time checks
        for cfg, tr in zip(cfgs, traces):
            recips = cfg.kind_counts()[PeerKind.RECIPROCATIVE]
            assert np.all(tr.counts["emitted"] == round(cfg.env.lam * cfg.params.b) * recips)
            assert tr.eta.shape == (cfg.n_periods, tr.top_rep + 1)
            assert np.allclose(tr.eta.sum(axis=1), 1.0)
        tft, calm, forgiving, collapsed, sustained = traces
        assert tft.top_rep == 1 and tft.eta.shape[1] == 2
        assert forgiving.top_rep == 4 and tft.strategic_kind() == "tft_agent"
        assert collapsed.collapsed and not sustained.collapsed
        assert collapsed.counts["served_by_recip"].sum() == 0
        assert sustained.counts["served_by_recip"].sum() > 0
        assert calm.counts["errored"].sum() == 0 and sustained.counts["errored"].sum() > 0
        # same-seed replicas that differ in params or env start from one
        # stream each but end in different states
        assert _outcomes(calm) != _outcomes(sustained)

    @pytest.mark.parametrize("mix", MIXES)
    def test_reordering_a_batch_reorders_its_traces(self, mix):
        # no table, scalar or draw leaks across replicas: a permuted batch
        # gives the permuted traces and nothing else changes
        cfgs = self.mixed_batch(mix)
        perm = [2, 4, 0, 3, 1]  # the forgiving, four-request replica moves first
        traces = sim.run_replicas(cfgs)
        shuffled = sim.run_replicas([cfgs[i] for i in perm])
        assert [t.to_json() for t in shuffled] == [traces[i].to_json() for i in perm]

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(mix=st.sampled_from(MIXES), flavor=st.sampled_from(["SocialNorm", "TFT"]),
           params=st.sampled_from([ProtocolParams(L=3, h_o=1, b=2),
                                   ProtocolParams(L=3, h_o=2, b=2, beta=0.6),
                                   ProtocolParams(L=4, h_o=2, b=3, m_o=(1, 2, 3))]),
           window=st.sampled_from([None, (0, 1), (3, 9)]), peer=st.booleans(),
           seed=st.integers(0, 10 ** 6), H=st.integers(1, 30))
    def test_a_shorter_run_is_the_prefix_of_a_longer_one(self, mix, flavor, params, window,
                                                          peer, seed, H):
        # what measure_deviation_gain's early stop rests on: a run's first H
        # periods do not depend on how many periods follow
        cfg = config(n_peers=40, n_periods=30, seed=seed, population_mix=mix,
                     protocol_flavor=flavor, params=params, env=env(eps=0.2),
                     deviant_policy=DeviantPolicy(peer_id=0, window=window) if peer else None)
        [full], [short] = sim.run_replicas([cfg]), sim.run_replicas([cfg.replace(n_periods=H)])
        assert short.eta.tolist() == full.eta[:H].tolist()
        assert {k: v.tolist() for k, v in short.counts.items()} == \
            {k: v[:H].tolist() for k, v in full.counts.items()}
        assert {k: v.tolist() for k, v in short.mean_utility.items()} == \
            {k: v[:H].tolist() for k, v in full.mean_utility.items()}

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(data=st.data(), mix=st.sampled_from(MIXES), R=st.integers(2, 5))
    def test_a_replica_is_its_single_run(self, data, mix, R):
        # each replica draws from its own stream exactly what it draws alone,
        # so neither the other replicas' seeds nor their run sizes reach its
        # trace; seeds 0-2 make same-seed pairs common
        def replica():
            flavor = data.draw(st.sampled_from(["SocialNorm", "TFT"]))
            plain = ProtocolParams(L=3, h_o=1, b=2)
            params = data.draw(st.sampled_from([plain, ProtocolParams(L=3, h_o=2, b=2, beta=0.6),
                                                ProtocolParams(L=4, h_o=2, b=3, m_o=(1, 2, 3))]))
            top = 1 if flavor == "TFT" else params.L
            reps = data.draw(st.none() | st.lists(st.integers(0, top), min_size=40, max_size=40))
            return config(n_peers=40, n_periods=25, seed=data.draw(st.integers(0, 2)),
                          population_mix=mix, protocol_flavor=flavor, params=params,
                          env=env(eps=data.draw(st.sampled_from([0.0, 0.1, 0.3])),
                                  c=data.draw(st.sampled_from([0.2, 0.9])),
                                  lam=data.draw(st.sampled_from([1.0, 1.5]))),
                          deviant_policy=data.draw(st.sampled_from(
                              [None, DeviantPolicy(peer_id=0, window=(0, 1)),
                               DeviantPolicy(peer_id=3, window=(2, 9))])),
                          init_reputations=reps,  # a mix is checked at plain params only
                          strategic=data.draw(st.booleans()) and (
                              not mix or flavor == "TFT" or params == plain))

        cfgs = [replica() for _ in range(R)]
        for cfg, trace in zip(cfgs, sim.run_replicas(cfgs)):
            alone = sim.run_replicas([cfg])[0]
            assert _outcomes(trace) == _outcomes(alone)
            assert (trace.top_rep, trace.collapsed) == (alone.top_rep, alone.collapsed)


def _trace_arrays(trace) -> tuple:
    """Every array and number of a trace, config aside."""
    return (_outcomes(trace), trace.top_rep, trace.truncation_bound, trace.collapsed,
            trace.kinds.tolist())


def _priced(cfg, *changes):
    """Variants of cfg that differ only in r, c and delta, each keeping cfg's
    strategic verdict."""
    variants = [cfg.replace(env=cfg.env.replace(**kw)) for kw in changes]
    if cfg.strategic:
        assert all(sim.sustained(v) == sim.sustained(cfg) for v in variants)
    return variants


@pytest.fixture
def batch_sizes(monkeypatch):
    """The number of runs of every _Batch made."""
    sizes = []
    monkeypatch.setattr(sim, "_Batch", lambda seeds, n, _make=sim._Batch:
                        sizes.append(len(seeds)) or _make(seeds, n))
    return sizes


class TestPayoffOnlyReplicas:
    PRICES = (dict(r=1.3), dict(c=0.12), dict(delta=0.9), dict(r=2.0, c=0.15, delta=0.6))

    @pytest.mark.parametrize("mix", TestReplicas.MIXES)
    @pytest.mark.parametrize("kind", ["plain", "sustained", "collapsed", "tft"])
    def test_variants_replay_their_own_runs(self, mix, kind, batch_sizes):
        # r, c and delta only price what the peers do: variants of one config
        # share its run, and each one's trace is its batch of one, array for array
        base = config(n_peers=80, n_periods=40, seed=5, population_mix=mix,
                      params=ProtocolParams(L=3, h_o=1, b=2, beta=0.0 if mix else 0.4))
        base = {"plain": base, "sustained": base.replace(strategic=True, env=env(c=0.1)),
                "collapsed": base.replace(strategic=True, env=env(c=0.9, delta=0.3)),
                "tft": base.replace(protocol_flavor="TFT", strategic=True)}[kind]
        prices = self.PRICES if kind != "collapsed" else (dict(r=1.3), dict(c=0.95), dict(delta=0.2))
        variants = _priced(base, *prices)
        traces = sim.run_replicas([base, *variants])
        assert batch_sizes == [1]
        for variant, trace in zip(variants, traces[1:]):
            assert _trace_arrays(trace) == _trace_arrays(sim.run_replicas([variant])[0])
        assert all(t.collapsed == (kind == "collapsed") for t in traces)

    @pytest.mark.parametrize("mix", TestReplicas.MIXES)
    def test_variants_leave_the_batch_unchanged(self, mix, batch_sizes):
        # a heterogeneous batch: TFT, social L=3 and L=4 with beta > 0, a
        # collapsed and a sustained strategic replica
        cfgs = TestReplicas.mixed_batch(mix)
        tft, _, forgiving, collapsed, sustained = cfgs
        variants = [*_priced(tft, dict(r=1.5, c=0.4)), *_priced(forgiving, dict(delta=0.5)),
                    *_priced(collapsed, dict(c=0.95), dict(r=1.2, delta=0.85)),
                    *_priced(sustained, dict(c=0.05, delta=0.85))]
        alone = sim.run_replicas(cfgs)
        together = sim.run_replicas(cfgs + variants)
        assert batch_sizes == [len(cfgs)] * 2
        assert [t.to_json() for t in together[:len(cfgs)]] == [t.to_json() for t in alone]

    def test_a_verdict_flip_or_a_request_count_is_its_own_run(self, batch_sizes):
        base = config(n_peers=80, n_periods=40, seed=5, strategic=True, env=env(c=0.1))
        same, flip = base.replace(env=env(c=0.15, r=1.1)), base.replace(env=env(c=0.9))
        assert sim.sustained(base) and sim.sustained(same) and not sim.sustained(flip)
        traces = sim.run_replicas([base, same, flip])
        assert batch_sizes == [2]
        assert [t.collapsed for t in traces] == [False, False, True]
        assert traces[2].counts["served_by_recip"].sum() == 0 < traces[0].counts["served_by_recip"].sum()
        # lam enters the loop only through round(lam * b) = 2, 2 and 3 requests
        plain = base.replace(strategic=False)
        traces = sim.run_replicas([plain.replace(env=env(c=0.1, lam=lam)) for lam in (1.0, 1.1, 1.4)])
        assert batch_sizes[1:] == [2]
        assert [t.counts["emitted"][0] for t in traces] == [160, 160, 240]


class TestBatchDraws:
    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(data=st.data(), R=st.integers(1, 30))
    def test_pick_is_the_rank_oracle(self, data, R):
        # quotas of 0, inside the run and at or above its size, for one run
        # and for many, repeated seeds included; each run's uniforms come
        # from its seed's own generator, which only runs with
        # 0 < quota < size advance
        seeds = data.draw(st.lists(st.integers(0, 3), min_size=R, max_size=R))
        size = np.array(data.draw(st.lists(st.integers(0, 12), min_size=R, max_size=R)))
        quota = np.array([data.draw(st.integers(0, m + 2)) for m in size.tolist()])
        batch = sim._Batch(seeds, 20)
        twins = [np.random.Generator(np.random.PCG64(np.random.SeedSequence((s, 0))))
                 for s in seeds]
        for _ in range(2):  # the second pick reads each stream where the first left it
            runs = [g.random(m) if 0 < q < m else np.zeros(m)
                    for g, q, m in zip(twins, quota.tolist(), size.tolist())]
            want = pick_by_rank(runs, np.minimum(quota, size).tolist())
            assert batch.pick(quota, size).tolist() == want.tolist()
            size = size[::-1].copy()

    @pytest.mark.parametrize("alt", [0, 3])
    def test_route_orders_near_ties_as_a_single_run(self, alt):
        # two requests of replica 1 whose uniforms are one ulp apart, with
        # one server group (alt = 0) or two: the batch orders them as the
        # run alone does
        u = np.array([np.nextafter(0.5, 1.0), 0.5])
        sizes = np.array([[0, 0], [5, 5], [alt, alt], [0, 0]])
        order, _ = sim._route(u, np.array([1, 1]), sizes, np.array([0, 2]))
        alone, _ = sim._route(u, np.array([0, 0]), sizes[:, 1:], np.array([2]))
        assert order.tolist() == alone.tolist() == [1, 0]

    def test_route_orders_exactly_past_1024_labels(self):
        # labels of 2**10 and above leave no room for u in a signed 64-bit key
        R = 2 ** 10 + 1
        u = np.array([0.25, np.nextafter(0.5, 1.0), 0.5])
        seg = np.array([0, R - 1, R - 1])
        sizes, counts = np.zeros((2, R), dtype=np.int64), np.zeros(R, dtype=np.int64)
        sizes[1], counts[[0, -1]] = 5, [1, 2]
        assert sim._route(u, seg, sizes, counts)[0].tolist() == [0, 2, 1]


class TestScalarOracles:
    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(data=st.data(), L=st.integers(1, 6), beta=st.sampled_from([0.0, 0.3, 1.0]))
    def test_vectorised_rules_match_the_scalar_rules(self, data, L, beta):
        def thresholds():
            h_o = data.draw(st.integers(1, L))
            m_o = sorted(data.draw(st.lists(st.integers(1, L), min_size=L - h_o + 1,
                                            max_size=L - h_o + 1)))
            return ProtocolParams(L=L, h_o=h_o, b=1, beta=beta, m_o=m_o)

        # a mixed batch: each row's willing table is its own scalar rule
        batch = [thresholds() for _ in range(data.draw(st.integers(1, 4)))]
        table = Points.of(batch, env()).willing
        for row, params in zip(table, batch):
            for s, c in np.ndindex(row.shape):
                assert row[s, c] == (social_strategy(params, s, c) is Action.SERVE)
        params = batch[0]
        # the simulator's tables are the protocol's row: with altruists or
        # malicious peers every pool is live, and each client rung's pool
        # column is its willing column; tit-for-tat's row is the two-rung one
        tft = [[False, True], [False, True]]
        assert sim._tft_point(env(), 1).willing[0].tolist() == tft
        for cfg, top, willing, keep in (
                (config(params=params), L, table[0].tolist(),
                 [beta ** (L - r + 1) for r in range(L + 1)]),
                (config(protocol_flavor="TFT"), 1, tft, [0.0, 0.0])):
            got_top, keep_prob, pool, cols = sim._pools(cfg, True)
            assert got_top == top and cols[pool].T.tolist() == willing
            assert np.allclose(keep_prob, keep)
        n = data.draw(st.integers(1, 12))
        rep = np.array(data.draw(st.lists(st.integers(0, L), min_size=n, max_size=n)))
        x, forgiven = (np.array(data.draw(st.lists(st.booleans(), min_size=n, max_size=n)))
                       for _ in range(2))
        got = sim._reputation_update(rep, x, np.flatnonzero(x & forgiven), L)
        assert got.tolist() == [reputation_update(params, int(r), int(xi), int(f))
                                for r, xi, f in zip(rep, x, forgiven)]


def pools(max_size: int = 6, n_ids: int = 4):
    """Small (clients, servers) pools over a few peer ids, so clashes and
    pools with no valid partner are common."""
    ids = st.integers(0, n_ids - 1)
    return st.integers(1, max_size).flatmap(lambda m: st.tuples(
        st.lists(ids, min_size=m, max_size=m), st.lists(ids, min_size=m, max_size=m)))


class TestPoolMatching:
    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(replicas=st.lists(pools(), min_size=1, max_size=2), seed=st.integers(0, 2 ** 32 - 1))
    @example(replicas=[([0, 1, 2, 3], [1, 1, 1, 1])], seed=0)  # one server
    @example(replicas=[([2, 2, 2], [0, 1, 2])], seed=0)        # one client
    @example(replicas=[([1], [1])], seed=0)                    # nobody else to swap with
    @example(replicas=[([1], [1]), ([0, 2], [2, 0])], seed=0)  # partners only across replicas
    def test_self_service_fix_matches_brute_force(self, replicas, seed):
        # replica r's peer ids are offset by r * 4, as in a batch of 4 peers
        seg = np.concatenate([[r] * len(c) for r, (c, _) in enumerate(replicas)])
        clients, servers = (np.concatenate([np.array(pool[side]) + 4 * r
                                            for r, pool in enumerate(replicas)])
                            for side in (0, 1))
        fixed = servers.copy()
        batch = sim._Batch([seed + r for r in range(len(replicas))], 4)
        keep = np.ones(len(clients), dtype=bool)
        keep[sim._fix_self_service(batch, seg, clients, fixed)] = False
        assert not np.any(clients[keep] == fixed[keep])
        for r, (pool_clients, pool_servers) in enumerate(replicas):
            own = seg == r
            assert sorted(fixed[own]) == sorted(servers[own])  # loads kept, no swap across replicas
            for i in np.flatnonzero(own & ~keep):  # dropped: no kept pair could take the swap
                assert not np.any(own & keep & (fixed != clients[i]) & (clients != fixed[i]))
            assert int((own & ~keep).sum()) == fewest_self_service_drops(pool_clients, pool_servers)

    @pytest.mark.parametrize("n_items", [3, 7, 23])
    def test_loads_are_even_and_extras_uniform(self, n_items):
        # two replicas of seven members each, the second with no requests
        batch = sim._Batch([20261018, 7], 20)
        members = np.concatenate([np.arange(10, 17), np.arange(30, 37)])
        size, n_req = np.array([7, 7]), np.array([n_items, 0])
        base, rem = divmod(n_items, 7)
        draws = 3000
        extras = np.zeros(7)
        for _ in range(draws):
            loads = sim._loads(batch, members, size, n_req)
            assert loads[:7].sum() == n_items and loads[:7].max() - loads[:7].min() <= 1
            assert not loads[7:].any()
            extras += loads[:7] > base
        # each member is one of the rem extras with probability rem/g
        p = rem / 7
        assert np.all(np.abs(extras - draws * p) <= 4 * np.sqrt(draws * p * (1 - p)))


def _integer_digest(trace) -> str:
    ints = {"counts": {k: [int(v) for v in arr] for k, arr in trace.counts.items()},
            "final_reputation": [int(v) for v in trace.final_reputation]}
    return hashlib.sha256(json.dumps(ints, sort_keys=True).encode()).hexdigest()


def test_stream_is_pinned():
    # The draw order of the random stream is part of the trace format: any
    # change to it must update these digests and bump the trace schema.
    mix = {PeerKind.RECIPROCATIVE: 0.7, PeerKind.ALTRUISTIC: 0.2, PeerKind.MALICIOUS: 0.1}
    social = config(n_peers=60, n_periods=40, seed=3, population_mix=mix,
                    deviant_policy=DeviantPolicy(peer_id=0, window=(5, 10)))
    forgiving = config(n_peers=50, n_periods=40, seed=4,
                       params=ProtocolParams(L=4, h_o=2, b=3, beta=0.5, m_o=(1, 2, 3)))
    tft = config(n_peers=50, n_periods=40, seed=5, protocol_flavor="TFT",
                 population_mix={PeerKind.RECIPROCATIVE: 0.8, PeerKind.ALTRUISTIC: 0.2})
    assert _integer_digest(run_sim(social)) == \
        "9d9ec118d80da9e75f5133e4e698adc4daf2691f40889e0222d5313335ae260c"
    assert _integer_digest(run_sim(forgiving)) == \
        "b9544a4e23661084bf763e36db6746685bfca21107730deb802ad07b5a45b8e9"
    assert _integer_digest(run_tft(tft)) == \
        "49de317d3cf1559f5c8fb401d12f343412c8cb3f06a5a474f0dc730e9104f52b"
    batch = sim.run_replicas([social, social.replace(seed=4, deviant_policy=None), social])
    pinned = "9d9ec118d80da9e75f5133e4e698adc4daf2691f40889e0222d5313335ae260c"
    assert [_integer_digest(t) for t in batch] == [
        pinned, "aeb2baada3448dbe4e7588f9035c58ee578193970cd451aab110a8241c8d6af4", pinned]
