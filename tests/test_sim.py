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
from oracles import Action, fewest_self_service_drops, reputation_update, social_strategy


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

    def test_free_serving_leaves_no_gain(self):
        cfg = config(n_peers=200, n_periods=50, seed=7, env=env(c=0.0))
        for theta in (0, 2, 3):
            assert measure_deviation_gain(cfg, theta=theta, n_pairs=10) <= 0


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

    def test_truncation_bound_formula(self):
        cfg = config(n_periods=40)
        tr = run_sim(cfg)
        k = cfg.requests_per_peer
        want = 0.8 ** 40 * (k * 1.0) / (1 - 0.8)
        assert tr.truncation_bound == pytest.approx(want)

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
        # the stream is keyed by the batch's distinct seeds: copies of one
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

    @pytest.mark.parametrize("change", [dict(env=env(eps=0.2)),
                                        dict(params=ProtocolParams(L=3, h_o=2, b=2)),
                                        dict(n_periods=20)])
    def test_only_seed_start_and_deviant_may_differ(self, change):
        base = config(n_peers=20, n_periods=10)
        sim.run_replicas([base, base.replace(seed=3, init_reputations=(1,) * 20,
                                             deviant_policy=DeviantPolicy(peer_id=2))])
        with pytest.raises(ValueError):
            sim.run_replicas([base, base.replace(**change)])


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
        top, willing, keep_prob = sim._protocol_tables(config(params=params))
        assert top == L
        assert willing.tolist() == table[0].tolist()
        assert np.allclose(keep_prob, [beta ** (L - r + 1) for r in range(L + 1)])
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
    pinned = "48ec836650f75d0db3bf48d8fc11ac38b2c2644bdf7107bf1a6bc16e04aa8bdc"
    assert [_integer_digest(t) for t in batch] == [
        pinned, "d8fdc1f526af4ff924195ce958a0d0f3aa5e39879ff2e3d2dc73cd9d995f0815", pinned]
