import hashlib
import json

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from normforge import (
    DeviantPolicy,
    NetworkEnv,
    PeerKind,
    ProtocolParams,
    SimConfig,
    check_equilibrium,
    measure_deviation_gain,
    one_period_utilities,
    run_sim,
    run_tft,
    sim,
    stationary_closed_form,
    stationary_malicious,
    tft_sustainable,
)
from oracles import fewest_self_service_drops


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
        dist = stationary_malicious(p, e)
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


class TestRuntimeInvariants:
    def test_lost_request_names_its_period(self, monkeypatch):
        # a routing split that silently drops one request in period 3 must
        # break the outcome partition and fail the run; with no errors and
        # every peer on the top rung each period routes one pool in one pass,
        # so period 3's split is the run's fourth multinomial draw
        real_rng = sim._run_rng

        class DroppingRng:
            def __init__(self, rng):
                self._rng, self._splits = rng, 0

            def __getattr__(self, name):
                return getattr(self._rng, name)

            def multinomial(self, n, pvals):
                split = self._rng.multinomial(n, pvals)
                if self._splits == 3:
                    split[np.argmax(split)] -= 1
                self._splits += 1
                return split

        monkeypatch.setattr(sim, "_run_rng", lambda seed: DroppingRng(real_rng(seed)))
        with pytest.raises(RuntimeError, match="partition emitted in period 3$"):
            run_sim(config(n_periods=6, env=env(eps=0.0), init_reputations=(3,) * 200))


def pools(max_size: int = 6, n_ids: int = 4):
    """Small (clients, servers) pools over a few peer ids, so clashes and
    pools with no valid partner are common."""
    ids = st.integers(0, n_ids - 1)
    return st.integers(1, max_size).flatmap(lambda m: st.tuples(
        st.lists(ids, min_size=m, max_size=m), st.lists(ids, min_size=m, max_size=m)))


class TestPoolMatching:
    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(pool=pools(), seed=st.integers(0, 2 ** 32 - 1))
    @example(pool=([0, 1, 2, 3], [1, 1, 1, 1]), seed=0)  # one server
    @example(pool=([2, 2, 2], [0, 1, 2]), seed=0)        # one client
    @example(pool=([1], [1]), seed=0)                    # nobody else to swap with
    def test_self_service_fix_matches_brute_force(self, pool, seed):
        clients, servers = (np.array(v) for v in pool)
        fixed = servers.copy()
        keep = sim._fix_self_service(sim._run_rng(seed), clients, fixed)
        assert sorted(fixed) == sorted(servers)  # server loads unchanged
        assert not np.any(clients[keep] == fixed[keep])
        for i in np.flatnonzero(~keep):  # dropped: no kept pair could take the swap
            assert not np.any(keep & (fixed != clients[i]) & (clients != fixed[i]))
        assert int((~keep).sum()) == fewest_self_service_drops(pool[0], pool[1])

    @pytest.mark.parametrize("n_items", [3, 7, 23])
    def test_spread_loads_are_even_and_extras_uniform(self, n_items):
        rng = sim._run_rng(20261018)
        members = np.arange(10, 17)
        base, rem = divmod(n_items, len(members))
        draws = 3000
        extras = np.zeros(len(members))
        for _ in range(draws):
            slots = sim._spread(rng, n_items, members)
            assert np.all(np.diff(slots) >= 0)  # member order
            loads = np.bincount(slots - 10, minlength=len(members))
            assert loads.sum() == n_items and loads.max() - loads.min() <= 1
            extras += loads > base
        # each member is one of the rem extras with probability rem/g
        p = rem / len(members)
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
        "673d8627205859c747c447e45956995a61c84691a722363165cc4bc4ed6a7074"
    assert _integer_digest(run_sim(forgiving)) == \
        "46c086353ccaced9227821afa34e4b26603abbce47ffed11fbf80efb85875506"
    assert _integer_digest(run_tft(tft)) == \
        "b35541cf28050efdb413498a4044ce99f9debf1bfe470bf298ced4380dd44cf1"
