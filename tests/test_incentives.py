import itertools
from math import ceil

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from normforge import (
    NetworkEnv,
    Points,
    ProtocolParams,
    check_equilibria,
    check_equilibrium,
    error_punish_prob,
    existence_cost_threshold,
    existence_discount_threshold,
    max_altruist_fraction,
    max_connections,
    max_forgiveness,
    min_service_threshold,
    one_period_utilities,
    overall_utilities,
    social_utility,
    stationary_closed_form,
    stationary_for_regime,
    transition_matrix,
    upload_cost_profile,
)

from normforge.incentives import BISECT_DEPTH, _bisect, _edge
from normforge.model import point_of
from oracles import (brute_force_equilibrium, serial_bisect, smallest_feasible_h_o,
                     uniform_service_slack, utilities_dense, value_iterate_v_inf)


def env(**kw):
    base = dict(r=1.0, c=0.2, eps=0.1, lam=1.0, delta=0.8)
    base.update(kw)
    return NetworkEnv(**base)


class TestOnePeriodUtilities:
    def test_baseline_active_rate(self):
        e = env(c=0.4, eps=0.0, lam=1.0)
        p = ProtocolParams(L=3, h_o=1, b=2)
        v = one_period_utilities(p, e, stationary_for_regime(p, e))
        assert v[1] == pytest.approx(1.2)

    def test_baseline_inactive_zero(self):
        e = env()
        p = ProtocolParams(L=3, h_o=2, b=2)
        v = one_period_utilities(p, e, stationary_for_regime(p, e))
        assert v[0] == 0.0 and v[1] == 0.0

    def test_altruist_fed_inactive_rate(self):
        e = env(c=0.4, eps=0.0, lam=1.0, p_c=0.2)
        p = ProtocolParams(L=3, h_o=1, b=2)
        v = one_period_utilities(p, e, stationary_for_regime(p, e))
        assert v[0] == pytest.approx(2 * (0.2 / 0.8) * 1.0)

    def test_malicious_share_shrinks_active_rate(self):
        e = env(p_d=0.5)
        p = ProtocolParams(L=3, h_o=1, b=2)
        dist = stationary_for_regime(p, e)
        v = one_period_utilities(p, e, dist)
        share = (dist.mu - 0.5 / 2) / (dist.mu + 0.5 / 2)
        assert v[1] == pytest.approx(2 * share * (0.9 - 0.2))
        assert v[0] == 0.0

    def test_rejects_simultaneous_mixes(self):
        p = ProtocolParams(L=3, h_o=1, b=2)
        with pytest.raises(ValueError):
            one_period_utilities(p, env(p_c=0.2, p_d=0.2), None)

    def test_variable_thresholds_reduce_to_uniform(self):
        e = env()
        p_uni = ProtocolParams(L=3, h_o=1, b=2)
        p_var = ProtocolParams(L=3, h_o=1, b=2, m_o=(1, 1, 1))
        dist = stationary_for_regime(p_uni, e)
        q = upload_cost_profile(p_var, e, dist)
        assert np.allclose(q[1:], e.lam * 2 * e.c)

    def test_variable_thresholds_shift_load_downward(self):
        # servers above the switch refuse bottom-rung clients, so the
        # bottom-rung servers carry their demand
        e = env()
        p = ProtocolParams(L=3, h_o=1, b=2, m_o=(1, 2, 2))
        dist = stationary_for_regime(p, e)
        q = upload_cost_profile(p, e, dist)
        assert q[1] > q[2] > 0
        # total upload cost matches total served volume
        eligible = dist.eta[p.m_o[0]:].sum()
        assert dist.eta[1:] @ q[1:] == pytest.approx(e.c * e.lam * 2 * eligible)


class TestOverallUtilities:
    def test_error_free_geometric_value(self):
        e = env(eps=0.0, c=0.25, delta=0.8)
        p = ProtocolParams(L=3, h_o=1, b=1)
        prof = overall_utilities(p, e)
        assert prof.v_inf[1] == pytest.approx((1 - 0.25) / (1 - 0.8))

    def test_closed_form_reference_value(self):
        # lam*b=1, alpha=0.1, delta=0.8, h_o=1: 0.65 / 0.216
        e = env(c=0.25, eps=0.1, delta=0.8)
        p = ProtocolParams(L=2, h_o=1, b=1)
        prof = overall_utilities(p, e)
        assert prof.v_inf[1] == pytest.approx(0.65 / 0.216, abs=1e-10)

    def test_discount_ladder_below_threshold(self):
        e = env()
        p = ProtocolParams(L=3, h_o=2, b=2)
        prof = overall_utilities(p, e)
        assert prof.v_inf[0] == pytest.approx(e.delta ** 2 * prof.v_inf[2], abs=1e-10)

    def test_recursion_residual_tiny(self):
        for beta, m_o in ((0.0, None), (0.5, None), (0.3, (2, 3))):
            p = ProtocolParams(L=3, h_o=2, b=2, beta=beta, m_o=m_o)
            e = env()
            prof = overall_utilities(p, e)
            P = transition_matrix(p, e)
            resid = prof.v_one + e.delta * (P @ prof.v_inf) - prof.v_inf
            assert np.max(np.abs(resid)) <= 1e-10

    def test_flat_above_threshold_harsh_regime(self):
        e = env(eps=0.2)
        p = ProtocolParams(L=4, h_o=2, b=3)
        prof = overall_utilities(p, e)
        top = prof.v_inf[2]
        assert np.allclose(prof.v_inf[2:], top, atol=1e-10)
        assert prof.v_inf[1] == pytest.approx(e.delta * top, abs=1e-10)
        assert prof.v_inf[0] == pytest.approx(e.delta ** 2 * top, abs=1e-10)

    def test_matches_value_iteration(self):
        for beta in (0.0, 0.6):
            p = ProtocolParams(L=3, h_o=1, b=2, beta=beta)
            prof = overall_utilities(p, env())
            assert np.max(np.abs(prof.v_inf - value_iterate_v_inf(p, env()))) <= 1e-9

    def test_non_decreasing_in_reputation(self):
        for beta in (0.0, 0.4, 0.9):
            p = ProtocolParams(L=4, h_o=2, b=2, beta=beta)
            v = overall_utilities(p, env()).v_inf
            assert all(a <= b + 1e-12 for a, b in zip(v, v[1:]))


class TestCheckEquilibrium:
    def test_free_serving_always_sustainable(self):
        e = env(c=0.0)
        assert check_equilibrium(ProtocolParams(L=3, h_o=1, b=2), e).is_equilibrium

    def test_myopic_peers_never_cooperate(self):
        e = env(delta=0.0, c=0.2)
        assert not check_equilibrium(ProtocolParams(L=3, h_o=1, b=2), e).is_equilibrium

    def test_two_state_cost_boundary(self):
        # L=1, h_o=1, b=1, eps=0, delta=0.5: sustainable iff c <= 1/3
        p = ProtocolParams(L=1, h_o=1, b=1)
        assert check_equilibrium(p, env(c=1 / 3, eps=0.0, delta=0.5)).is_equilibrium
        assert check_equilibrium(p, env(c=0.333, eps=0.0, delta=0.5)).is_equilibrium
        assert not check_equilibrium(p, env(c=0.334, eps=0.0, delta=0.5)).is_equilibrium

    def test_verdict_iff_all_slacks_nonnegative(self):
        for c in (0.1, 0.3, 0.5):
            rep = check_equilibrium(ProtocolParams(L=3, h_o=2, b=2), env(c=c))
            assert rep.is_equilibrium == bool(rep.per_theta_slacks.min() >= -1e-12)
            assert rep.serve_slack == pytest.approx(rep.per_theta_slacks[2:].min())
            assert rep.refuse_slack == pytest.approx(rep.per_theta_slacks[:2].min())

    @pytest.mark.parametrize("L,b", [(1, 1), (2, 2), (3, 3)])
    def test_agrees_with_deviation_enumeration(self, L, b):
        for h_o in range(1, L + 1):
            for delta in (0.3, 0.7, 0.9):
                for eps in (0.0, 0.1):
                    for c in (0.05, 0.3, 0.6):
                        e = env(c=c, eps=eps, delta=delta)
                        for beta in (0.0, 0.5):
                            p = ProtocolParams(L=L, h_o=h_o, b=b, beta=beta)
                            assert (check_equilibrium(p, e).is_equilibrium
                                    == brute_force_equilibrium(p, e))

    @pytest.mark.parametrize("p, e", [
        (ProtocolParams(L=3, h_o=1, b=2), env()),
        (ProtocolParams(L=4, h_o=2, b=3, beta=0.4), env()),
        (ProtocolParams(L=3, h_o=1, b=2, beta=0.3, m_o=(1, 2, 3)), env()),
        (ProtocolParams(L=3, h_o=1, b=2), env(p_d=0.2)),
        (ProtocolParams(L=3, h_o=1, b=2, beta=0.5), env(p_c=0.2)),
    ])
    def test_one_solve_per_check(self, count_calls, p, e):
        calls = count_calls("stationary_for_regime", "one_period_utilities",
                            "stationary_fixed_point", "transition_matrix")
        rep = check_equilibrium(p, e)
        assert calls == {"stationary_for_regime": 1, "one_period_utilities": 1,
                         "stationary_fixed_point": 1, "transition_matrix": 0}
        # the report carries what it was scored on, bit for bit
        dist = stationary_for_regime(p, e)
        assert rep.dist.eta.tolist() == dist.eta.tolist()
        assert rep.utilities.v_inf.tolist() == overall_utilities(p, e, dist).v_inf.tolist()
        assert rep.social_utility == social_utility(p, e, dist)


@st.composite
def points_on(draw, L, lam_max=20.0):
    """One analyzable point on a ladder of length L, in any regime: the
    baseline, non-uniform client thresholds, altruists or malicious peers.
    Up to lam * b = 8 * lam_max uploads a period make alpha round to 1, and
    eps = 0 or beta = 1 give rungs with zero outflow."""
    regime = draw(st.sampled_from(["baseline", "thresholds", "altruists", "malicious"]))
    h_o = draw(st.integers(1, L))
    m_o = None
    if regime == "thresholds":
        n = L - h_o + 1
        m_o = tuple(sorted(draw(st.lists(st.integers(1, L), min_size=n, max_size=n))))
    beta = 0.0 if regime == "malicious" else draw(
        st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)))
    e = NetworkEnv(r=1.0, c=draw(st.floats(0.0, 0.9)),
                   eps=draw(st.one_of(st.just(0.0), st.floats(0.0, 0.9))),
                   lam=draw(st.one_of(st.just(1.0), st.floats(0.05, lam_max))),
                   delta=draw(st.floats(0.05, 0.95)),
                   p_c=draw(st.floats(0.01, 1.0)) if regime == "altruists" else 0.0,
                   p_d=draw(st.floats(0.01, 1.0)) if regime == "malicious" else 0.0)
    return ProtocolParams(L=L, h_o=h_o, b=draw(st.integers(1, 8)), beta=beta, m_o=m_o), e


@st.composite
def mixed_batches(draw):
    L = draw(st.integers(1, 9))  # from L = 7 on, a rung sum has 8 or more terms
    return draw(st.lists(points_on(L), min_size=1, max_size=12))


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(mixed_batches())
def test_batched_check_matches_each_single_check(points):
    # every point of a mixed batch gets what check_equilibrium gives it
    # alone, bit for bit
    batch = check_equilibria(Points.of([p for p, _ in points], [e for _, e in points]))
    for i, (p, e) in enumerate(points):
        got, want = point_of(batch, i), check_equilibrium(p, e)
        assert got.is_equilibrium == want.is_equilibrium
        for a, b in ((got.per_theta_slacks, want.per_theta_slacks),
                     (got.utilities.v_one, want.utilities.v_one),
                     (got.utilities.v_inf, want.utilities.v_inf),
                     (got.social_utility, want.social_utility),
                     (got.dist.eta, want.dist.eta)):
            np.testing.assert_array_equal(a, b, strict=True)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.integers(1, 30).flatmap(lambda L: points_on(L, lam_max=60.0)))
# the divisions' edge cases: alpha = 1 with beta = 1 (every active rung keeps
# all its peers), delta = 0, eps = 0, and beta = 1 on a long ladder
@example((ProtocolParams(L=5, h_o=2, b=8, beta=1.0), env(eps=0.9, lam=60)))
@example((ProtocolParams(L=4, h_o=2, b=2, m_o=(2, 3, 4)), env(delta=0.0)))
@example((ProtocolParams(L=6, h_o=3, b=3, beta=0.5), env(eps=0.0)))
@example((ProtocolParams(L=30, h_o=1, b=4, beta=1.0), env(p_c=0.3)))
def test_back_substitution_matches_dense_solve(point):
    # relative to the largest utility on the ladder
    p, e = point
    got, want = overall_utilities(p, e).v_inf, utilities_dense(p, e)
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


class TestSlackMonotonicity:
    def test_per_request_slack_non_increasing_in_connections(self):
        # the raw difference scales with lam*b on both sides, so the
        # monotone quantity is the per-request slack
        e = env(eps=0.1, delta=0.9)
        slacks = [check_equilibrium(ProtocolParams(L=3, h_o=2, b=b), e).serve_slack / (e.lam * b)
                  for b in range(1, 9)]
        assert all(a >= b - 1e-12 for a, b in zip(slacks, slacks[1:]))

    def test_feasibility_monotone_in_connections(self):
        e = env(eps=0.1, delta=0.9, c=0.25)
        verdicts = [check_equilibrium(ProtocolParams(L=3, h_o=2, b=b), e).is_equilibrium
                    for b in range(1, 15)]
        assert all(not (later and not earlier)
                   for earlier, later in zip(verdicts, verdicts[1:]))

    def test_non_decreasing_in_threshold(self):
        e = env(eps=0.1, delta=0.9)
        slacks = [check_equilibrium(ProtocolParams(L=4, h_o=h, b=3), e).serve_slack
                  for h in range(1, 5)]
        assert all(a <= b + 1e-12 for a, b in zip(slacks, slacks[1:]))

    def test_non_decreasing_in_discount(self):
        slacks = [check_equilibrium(ProtocolParams(L=3, h_o=2, b=2), env(delta=d)).serve_slack
                  for d in (0.1, 0.3, 0.5, 0.7, 0.9)]
        assert all(a <= b + 1e-12 for a, b in zip(slacks, slacks[1:]))

    def test_non_increasing_in_forgiveness(self):
        e = env(delta=0.9)
        slacks = [check_equilibrium(ProtocolParams(L=3, h_o=2, b=2, beta=b), e).serve_slack
                  for b in np.arange(0.0, 1.0001, 0.1)]
        assert all(a >= b - 1e-12 for a, b in zip(slacks, slacks[1:]))

    def test_non_increasing_in_malicious_fraction(self):
        p = ProtocolParams(L=3, h_o=1, b=2)
        slacks = [check_equilibrium(p, env(delta=0.9, p_d=pd)).serve_slack
                  for pd in (0.0, 0.1, 0.2, 0.4, 0.6)]
        assert all(a >= b - 1e-12 for a, b in zip(slacks, slacks[1:]))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(r=st.floats(0.5, 3.0), cost=st.floats(0.0, 0.99),
       eps=st.one_of(st.just(0.0), st.floats(0.0, 0.9)),
       delta=st.one_of(st.just(0.0), st.floats(0.0, 0.999)), lam=st.floats(0.2, 3.0),
       b=st.integers(1, 9), h_o=st.integers(1, 6), above=st.sampled_from([0, 2]))
@example(r=1.0, cost=0.2, eps=0.0, delta=0.8, lam=1.0, b=2, h_o=2, above=0)
@example(r=1.0, cost=0.2, eps=0.1, delta=0.0, lam=1.0, b=2, h_o=2, above=2)
@example(r=1.0, cost=0.0, eps=0.1, delta=0.0, lam=1.0, b=1, h_o=1, above=0)
def test_serve_slack_is_the_uniform_closed_form(r, cost, eps, delta, lam, b, h_o, above):
    # the boundaries read the check; at harsh punishment and uniform
    # thresholds its binding service slack, per request, is the closed form
    # at any L >= h_o.  Relative to the larger of the slack and c, so the
    # signs agree wherever the slack clears that tolerance
    e = NetworkEnv(r=r, c=cost * r, eps=eps, lam=lam, delta=delta)
    got = check_equilibrium(ProtocolParams(L=h_o + above, h_o=h_o, b=b), e).serve_slack
    want = uniform_service_slack(e, b, h_o)
    assert abs(got / (lam * b) - want) <= 1e-12 * max(abs(want), e.c)


class TestMinServiceThreshold:
    def test_free_serving_floor(self):
        assert min_service_threshold(env(c=0.0), 2) == 1

    def test_agrees_with_slack_sweep(self):
        for delta in (0.5, 0.7, 0.9, 0.95):
            for eps in (0.0, 0.05, 0.2):
                for c in (0.05, 0.2, 0.4):
                    for b in (1, 3):
                        e = env(c=c, eps=eps, delta=delta)
                        got = min_service_threshold(e, b)
                        swept = smallest_feasible_h_o(e, b, lambda e, b, h: check_equilibrium(
                            ProtocolParams(L=h, h_o=h, b=b), e).is_equilibrium, h_max=400)
                        assert got == swept, (delta, eps, c, b, got, swept)

    def test_infeasible_cost_returns_none(self):
        # c/r = 0.5 equals the patient limit delta*(1-eps)*net/(1-delta+...)
        # boundary at delta=0.5, eps=0: never attained at finite h_o
        assert min_service_threshold(env(c=0.5, eps=0.0, delta=0.5), 1) is None


class TestMaxConnections:
    def test_error_free_cap(self):
        e = env(eps=0.0, c=0.3)
        assert max_connections(e, 1, 12) == 12

    def test_none_when_single_connection_fails(self):
        e = env(c=0.55, eps=0.3, delta=0.5)
        assert max_connections(e, 1, 10) is None

    def test_binary_search_matches_scan(self):
        for delta in (0.7, 0.9):
            for c in (0.1, 0.2, 0.3):
                for h_o in (1, 2, 3):
                    e = env(c=c, eps=0.1, delta=delta)
                    got = max_connections(e, h_o, 20)
                    scan = None
                    for b in range(1, 21):
                        p = ProtocolParams(L=h_o, h_o=h_o, b=b)
                        if check_equilibrium(p, e).is_equilibrium:
                            scan = b
                    assert got == scan, (delta, c, h_o)


class TestExistenceThresholds:
    def test_cost_threshold_two_state(self):
        assert existence_cost_threshold(env(delta=0.5, eps=0.0), 1) == pytest.approx(1 / 3)

    def test_cost_threshold_long_ladder(self):
        t = existence_cost_threshold(env(delta=0.9, eps=0.0), 50)
        k = 0.9 * (1 - 0.9 ** 50)
        assert t == pytest.approx(k / (0.1 + k), abs=1e-10)
        assert t == pytest.approx(0.8995, abs=1e-3)

    def test_cost_threshold_vanishes_with_patience(self):
        assert existence_cost_threshold(env(delta=1e-9), 3) < 1e-8

    def test_cost_threshold_brackets_feasibility(self):
        for delta in (0.6, 0.8, 0.9):
            for eps in (0.0, 0.1):
                for L in (1, 2, 4):
                    e = env(delta=delta, eps=eps)
                    t = existence_cost_threshold(e, L)
                    p = ProtocolParams(L=L, h_o=L, b=1)
                    assert check_equilibrium(p, e.replace(c=t - 0.01)).is_equilibrium
                    assert not check_equilibrium(p, e.replace(c=t + 0.01)).is_equilibrium

    def test_discount_threshold_free_cost(self):
        assert existence_discount_threshold(env(c=0.0), 3) == 0.0

    def test_discount_threshold_two_state_inversion(self):
        t = existence_discount_threshold(env(c=1 / 3, eps=0.0), 1)
        assert t == pytest.approx(0.5, abs=1e-8)

    def test_discount_threshold_brackets(self):
        for c, eps, L in ((0.2, 0.1, 3), (0.4, 0.0, 2), (0.1, 0.3, 4)):
            e = env(c=c, eps=eps)
            t = existence_discount_threshold(e, L)
            p = ProtocolParams(L=L, h_o=L, b=1)
            assert check_equilibrium(p, e.replace(delta=min(t + 1e-6, 1 - 1e-12))).is_equilibrium
            assert not check_equilibrium(p, e.replace(delta=max(t - 1e-6, 0.0))).is_equilibrium


@pytest.mark.parametrize("mix", [{"p_c": 0.3}, {"p_d": 0.1}], ids=["p_c", "p_d"])
@pytest.mark.parametrize("threshold", [
    lambda e: min_service_threshold(e, 2),
    lambda e: max_connections(e, 2, 8),
    lambda e: existence_cost_threshold(e, 3),
    lambda e: existence_discount_threshold(e, 3),
], ids=["min_service_threshold", "max_connections", "existence_cost_threshold",
        "existence_discount_threshold"])
def test_baseline_closed_forms_reject_mixed_populations(threshold, mix):
    # unguarded, max_connections(env(p_c=0.3), 2, 8) answers 8, yet
    # (L=4, h_o=2, b=8) fails check_equilibrium at that env
    with pytest.raises(ValueError, match="all-reciprocative"):
        threshold(env(**mix))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(lo=st.floats(-2.0, 2.0), width=st.floats(1e-6, 4.0), frac=st.floats(1e-9, 1.0),
       edge=st.floats(0.0, 1.0), mod=st.integers(2, 7), monotone=st.booleans())
def test_bisect_is_serial_halving_in_fewer_calls(lo, width, frac, edge, mod, monotone):
    # any predicate, monotone or not (a rule on the float's bits): the
    # bracket is the one halving one midpoint at a time finds, bit for bit
    hi, tol = lo + width, width * frac

    def ok(x):
        return x <= lo + edge * width if monotone else int(np.float64(x).view(np.uint64)) % mod > 0

    calls = []

    def passes(values):
        calls.append(len(values))
        return np.array([ok(x) for x in values])

    want_lo, want_hi, halvings = serial_bisect(ok, lo, hi, tol)
    got = _bisect(passes, lo, hi, tol)
    assert [x.hex() for x in got] == [want_lo.hex(), want_hi.hex()]
    assert len(calls) == ceil(halvings / BISECT_DEPTH)
    assert all(1 <= n <= 2 ** BISECT_DEPTH - 1 for n in calls)
    # the edge of [lo, hi] checks both ends in the first bisection call
    calls.clear()
    bisects = ok(lo) and not ok(hi)
    assert _edge(passes, [lo, hi], tol) == (want_lo if bisects else hi if ok(lo) else None)
    assert len(calls) == (max(1, ceil(halvings / BISECT_DEPTH)) if bisects else 1)


class TestMaxForgiveness:
    def test_none_when_harsh_already_fails(self):
        p = ProtocolParams(L=3, h_o=1, b=2)
        assert max_forgiveness(p, env(c=0.6, delta=0.5)) is None

    def test_full_forgiveness_when_serving_is_free(self):
        # with c = 0 no deviation ever profits, so the whole range passes
        p = ProtocolParams(L=3, h_o=3, b=1)
        assert max_forgiveness(p, env(c=0.0, delta=0.95)) == 1.0

    def test_full_forgiveness_never_passes_with_positive_cost(self):
        # at beta = 1 punishment vanishes entirely, so any c > 0 breaks it
        p = ProtocolParams(L=3, h_o=1, b=2, beta=1.0)
        assert not check_equilibrium(p, env(c=0.01, delta=0.95)).is_equilibrium

    def test_interior_boundary_brackets(self):
        p = ProtocolParams(L=3, h_o=1, b=2)
        e = env(delta=0.8, c=0.2)
        beta = max_forgiveness(p, e)
        assert beta is not None and 0.0 < beta < 1.0
        assert check_equilibrium(p.replace(beta=max(beta - 1e-4, 0.0)), e).is_equilibrium
        assert not check_equilibrium(p.replace(beta=min(beta + 1e-4, 1.0)), e).is_equilibrium


class TestMaxAltruistFraction:
    def test_bounded_by_half(self):
        for c in (0.01, 0.1, 0.25):
            p = ProtocolParams(L=3, h_o=1, b=2)
            assert max_altruist_fraction(p, env(c=c, delta=0.9)) <= 0.5

    def test_zero_when_baseline_fails(self):
        p = ProtocolParams(L=3, h_o=1, b=2)
        assert max_altruist_fraction(p, env(c=0.6, delta=0.5)) == 0.0

    def test_interior_boundary_brackets(self):
        p = ProtocolParams(L=3, h_o=1, b=2)
        e = env(delta=0.9, c=0.2)
        pc = max_altruist_fraction(p, e)
        assert 0.0 < pc < 0.5
        assert check_equilibrium(p, e.replace(p_c=pc - 1e-3)).is_equilibrium
        assert not check_equilibrium(p, e.replace(p_c=pc + 1e-3)).is_equilibrium


class TestSocialUtility:
    def test_baseline_rate(self):
        e = env(c=0.4, eps=0.0)
        p = ProtocolParams(L=3, h_o=1, b=2)
        assert social_utility(p, e, stationary_for_regime(p, e)) == pytest.approx(1.2)

    def test_reference_value_alpha_019(self):
        e = env(c=0.4)
        p = ProtocolParams(L=3, h_o=1, b=2)
        u = social_utility(p, e, stationary_closed_form(p, e))
        assert u == pytest.approx(2 * 0.8403361344537815 * 0.5, abs=1e-10)

    def test_altruist_dominated_branch(self):
        e = env(c=0.4, eps=0.0, p_c=0.6)
        p = ProtocolParams(L=3, h_o=1, b=1)
        u = social_utility(p, e, stationary_for_regime(p, e))
        assert u == pytest.approx(1 * 0.4 * 0.6)

    def test_given_one_period_utilities_of_one_point(self):
        e = env(c=0.4, p_d=0.2)
        p = ProtocolParams(L=3, h_o=1, b=2)
        dist = stationary_for_regime(p, e)
        v_one = one_period_utilities(p, e, dist)
        u = social_utility(p, e, dist, v_one)
        assert isinstance(u, float) and u == social_utility(p, e, dist)
        assert u == pytest.approx(float(dist.eta @ v_one), rel=1e-12)


class TestThresholdStructure:
    """Structure of the best client-threshold vector at fixed (L, h_o, b, beta)."""

    def grid(self, L):
        vectors = {}
        for h_o in range(1, L + 1):
            n = L - h_o + 1
            vecs = [m for m in itertools.combinations_with_replacement(range(1, L + 1), n)]
            vectors[h_o] = vecs
        return vectors

    @pytest.mark.parametrize("L", [3, 4])
    def test_bottom_anchor_maximizes_utility(self, L):
        e = env()
        for h_o, vecs in self.grid(L).items():
            utilities = {}
            for m in vecs:
                p = ProtocolParams(L=L, h_o=h_o, b=2, m_o=m)
                utilities[m] = social_utility(p, e, stationary_for_regime(p, e))
            best = max(utilities.values())
            anchored = max(u for m, u in utilities.items() if m[0] == h_o)
            assert anchored == pytest.approx(best, abs=1e-12)

    @pytest.mark.parametrize("beta", [0.0, 0.25, 0.7])
    def test_vectors_sharing_the_bottom_threshold_tie_exactly(self, beta):
        # utility depends on m_o only through m_o(h_o); a tie left to
        # rounding would let the design search pick any of the tied vectors
        e = env(c=0.25)
        for h_o, vecs in self.grid(4).items():
            by_bottom = {}
            for m in vecs:
                p = ProtocolParams(L=4, h_o=h_o, b=8, beta=beta, m_o=m)
                u = social_utility(p, e, stationary_for_regime(p, e))
                by_bottom.setdefault(m[0], set()).add(u)
            assert all(len(us) == 1 for us in by_bottom.values()), (h_o, by_bottom)

    @pytest.mark.parametrize("L", [3, 4])
    def test_step_vector_beats_uniform_on_min_slack(self, L):
        # raising the upper servers' client threshold one notch lightens
        # their load and deepens punishment, so the step vector never has
        # less headroom than the uniform rule.  (Stronger claims fail: a
        # vector whose thresholds sit above the activity threshold
        # everywhere can have still more headroom, because a punished peer
        # then re-enters through rungs that upload without being served.)
        e = env(c=0.3, delta=0.7)
        for h_o in range(1, L):
            uniform = tuple([h_o] * (L - h_o + 1))
            step = tuple([h_o] + [h_o + 1] * (L - h_o))
            slack_of = {}
            for m in (uniform, step):
                p = ProtocolParams(L=L, h_o=h_o, b=2, m_o=m)
                slack_of[m] = check_equilibrium(p, e).serve_slack
            assert slack_of[step] >= slack_of[uniform] - 1e-9

    def test_apprenticeship_counterexample_frozen(self):
        # the concrete instance showing the step vector is not feasibility-
        # maximal: at L=2, h_o=1, b=1, eps=0, delta=0.5, c=0.4 the vector
        # (2, 2) sustains cooperation while the step (1, 2) does not
        e = env(c=0.4, eps=0.0, delta=0.5)
        assert check_equilibrium(ProtocolParams(L=2, h_o=1, b=1, m_o=(2, 2)), e).is_equilibrium
        assert not check_equilibrium(ProtocolParams(L=2, h_o=1, b=1, m_o=(1, 2)), e).is_equilibrium
