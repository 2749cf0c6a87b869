import itertools
from math import comb

import pytest
from hypothesis import given, settings, strategies as st

from normforge import (
    DesignSpec,
    NetworkEnv,
    ProtocolParams,
    check_equilibrium,
    collapsed_social_utility,
    existence_cost_threshold,
    max_forgiveness,
    social_utility,
    solve,
    solve_osne,
    solve_osne_ah,
    solve_osne_vp,
    solve_osne_vps,
    stationary_for_regime,
)

from oracles import brute_force_equilibrium
from test_acceptance import _enumerate_beta_grid, _enumerate_osne


def env(**kw):
    base = dict(r=1.0, c=0.2, eps=0.1, lam=1.0, delta=0.8)
    base.update(kw)
    return NetworkEnv(**base)


def enumerate_osne(spec):
    """Independent exhaustive (h_o, b) search with the same tie-break."""
    best = None
    for h_o in range(1, spec.L + 1):
        for b in range(1, spec.b_cap + 1):
            p = ProtocolParams(L=spec.L, h_o=h_o, b=b)
            if not check_equilibrium(p, spec.env).is_equilibrium:
                continue
            u = social_utility(p, spec.env, stationary_for_regime(p, spec.env))
            key = (-u, h_o, -b)
            if best is None or key < best[0]:
                best = (key, p, u)
    return best


class TestOsne:
    def test_matches_enumeration(self):
        for c in (0.05, 0.2, 0.35):
            for delta in (0.6, 0.8, 0.95):
                spec = DesignSpec(problem="OSNE", L=3, b_cap=8, env=env(c=c, delta=delta))
                got = solve_osne(spec)
                want = enumerate_osne(spec)
                if want is None:
                    assert not got.feasible
                else:
                    assert got.feasible
                    assert (got.params.h_o, got.params.b) == (want[1].h_o, want[1].b)
                    assert got.utility == pytest.approx(want[2], abs=1e-12)

    def test_error_free_takes_cap(self):
        spec = DesignSpec(problem="OSNE", L=3, b_cap=10, env=env(eps=0.0, c=0.2))
        res = solve_osne(spec)
        assert res.feasible and res.params.b == 10

    def test_infeasible_above_cost_boundary(self):
        e = env(delta=0.6, eps=0.1)
        t_c = existence_cost_threshold(e, 3)
        spec = DesignSpec(problem="OSNE", L=3, b_cap=5, env=e.replace(c=t_c + 0.02))
        res = solve_osne(spec)
        assert not res.feasible
        assert res.params is None
        assert len(res.search_log) == 3 * 5  # every (h_o, b) is checked
        assert all(u is None and slack < 0.0 for _, slack, u in res.search_log)

    def test_altruist_env_design_passes_its_check(self):
        # the connection count must come from the altruist-aware check, not
        # from the all-reciprocative closed form
        spec = DesignSpec(problem="OSNE", L=4, b_cap=8, env=env(p_c=0.3))
        res = solve_osne(spec)
        assert res.feasible
        assert check_equilibrium(res.params, spec.env).is_equilibrium
        want = enumerate_osne(spec)
        assert (res.params.h_o, res.params.b) == (want[1].h_o, want[1].b)
        assert res.utility == want[2]

    def test_feasible_result_reverifies(self):
        spec = DesignSpec(problem="OSNE", L=4, b_cap=6, env=env())
        res = solve_osne(spec)
        assert res.feasible
        assert check_equilibrium(res.params, spec.env).is_equilibrium
        dist = stationary_for_regime(res.params, spec.env)
        assert res.utility == pytest.approx(social_utility(res.params, spec.env, dist))


class TestOsneVp:
    def test_error_free_forgiveness_changes_nothing(self):
        # with no service errors nobody is ever punished on path, so the
        # distribution and the utility are unchanged by forgiveness; off
        # path, full forgiveness would erase the deviation threat, so the
        # boundary stays interior even here
        spec = DesignSpec(problem="OSNE_VP", L=3, b_cap=5, env=env(eps=0.0), beta_grid=0.05)
        res = solve_osne_vp(spec)
        base = solve_osne(DesignSpec(problem="OSNE", L=3, b_cap=5, env=env(eps=0.0)))
        assert res.feasible
        assert res.utility == pytest.approx(base.utility, abs=1e-12)
        boundary = max_forgiveness(
            ProtocolParams(L=3, h_o=res.params.h_o, b=res.params.b), spec.env)
        assert res.params.beta == pytest.approx(boundary, abs=1e-7)

    def test_dominates_osne(self):
        for c in (0.1, 0.25):
            for delta in (0.7, 0.9):
                e = env(c=c, delta=delta)
                u0 = solve_osne(DesignSpec(problem="OSNE", L=3, b_cap=6, env=e)).utility
                u1 = solve_osne_vp(DesignSpec(problem="OSNE_VP", L=3, b_cap=6, env=e,
                                              beta_grid=0.05)).utility
                assert u1 >= u0 - 1e-12

    def test_winner_sits_at_forgiveness_boundary(self):
        spec = DesignSpec(problem="OSNE_VP", L=3, b_cap=4, env=env(), beta_grid=0.05)
        res = solve_osne_vp(spec)
        assert res.feasible
        base = ProtocolParams(L=3, h_o=res.params.h_o, b=res.params.b)
        assert res.params.beta == pytest.approx(max_forgiveness(base, spec.env), abs=1e-7)

    def test_grid_stage_matches_grid_enumeration(self):
        spec = DesignSpec(problem="OSNE_VP", L=2, b_cap=4, env=env(c=0.25), beta_grid=0.1)
        res = solve_osne_vp(spec)
        best = None
        for h_o in (1, 2):
            for b in range(1, 5):
                for k in range(11):
                    beta = k * 0.1
                    p = ProtocolParams(L=2, h_o=h_o, b=b, beta=beta)
                    if not check_equilibrium(p, spec.env).is_equilibrium:
                        continue
                    u = social_utility(p, spec.env, stationary_for_regime(p, spec.env))
                    key = (-u, h_o, -b, -beta)
                    if best is None or key < best[0]:
                        best = (key, p, u)
        assert (res.params.h_o, res.params.b) == (best[1].h_o, best[1].b)
        assert res.utility >= best[2] - 1e-12  # bisection refinement only helps


class TestOsneVps:
    def test_uniform_regime_matches_vp(self):
        # generous environment: the uniform vector is already optimal
        e = env(c=0.05, delta=0.9)
        vp = solve_osne_vp(DesignSpec(problem="OSNE_VP", L=3, b_cap=4, env=e, beta_grid=0.05))
        vps = solve_osne_vps(DesignSpec(problem="OSNE_VPS", L=3, b_cap=4, env=e, beta_grid=0.05))
        assert vps.utility >= vp.utility - 1e-12

    def test_winner_thresholds_non_decreasing(self):
        res = solve_osne_vps(DesignSpec(problem="OSNE_VPS", L=3, b_cap=5, env=env(c=0.3),
                                        beta_grid=0.1))
        assert res.feasible
        m = res.params.m_o
        assert all(a <= b for a, b in zip(m, m[1:]))

    def test_tied_vectors_break_toward_the_smallest(self):
        # at beta = 0.25, b = 8 five vectors with m_o(1) = 1 pass with one
        # utility; the smallest must win whatever the rounding of each score
        res = solve_osne_vps(DesignSpec(problem="OSNE_VPS", L=4, b_cap=8, env=env(c=0.25),
                                        beta_grid=0.05))
        assert res.params.m_o == (1, 2, 3, 4)

    def test_nesting_chain(self):
        for c in (0.1, 0.3):
            for delta in (0.7, 0.9):
                e = env(c=c, delta=delta)
                u_osne = solve_osne(DesignSpec(problem="OSNE", L=3, b_cap=6, env=e)).utility
                u_vp = solve_osne_vp(DesignSpec(problem="OSNE_VP", L=3, b_cap=6, env=e,
                                                beta_grid=0.05)).utility
                u_vps = solve_osne_vps(DesignSpec(problem="OSNE_VPS", L=3, b_cap=6, env=e,
                                                  beta_grid=0.05)).utility
                assert u_osne <= u_vp + 1e-12
                assert u_vp <= u_vps + 1e-12


class TestOsneAh:
    def test_zero_altruists_reduces_to_osne(self):
        e = env(c=0.35, delta=0.7)
        base = solve_osne(DesignSpec(problem="OSNE", L=3, b_cap=4, env=e))
        # grid {0, 1}: the p_c = 0 candidate is exactly the plain problem and
        # the p_c = 1 candidate has zero utility, so the winners coincide
        res = solve_osne_ah(DesignSpec(problem="OSNE_AH", L=3, b_cap=4, env=e, pC_grid=1.0))
        assert res.feasible and base.feasible
        assert res.pC_star == 0.0
        assert (res.params.h_o, res.params.b) == (base.params.h_o, base.params.b)
        assert res.utility == pytest.approx(base.utility, abs=1e-12)

    def test_respects_altruist_ceiling_or_collapsed_branch(self):
        from normforge import max_altruist_fraction
        e = env(c=0.2, delta=0.9)
        spec = DesignSpec(problem="OSNE_AH", L=3, b_cap=4, env=e, pC_grid=0.05)
        res = solve_osne_ah(spec)
        assert res.feasible
        if res.pC_star <= 0.5:
            p_bar = max_altruist_fraction(
                ProtocolParams(L=3, h_o=res.params.h_o, b=res.params.b), e)
            assert res.pC_star <= p_bar + 1e-9

    def test_utility_curve_non_monotone_with_collapse_dip(self):
        from normforge import collapsed_social_utility
        e = env(c=0.2, delta=0.8)
        p = ProtocolParams(L=3, h_o=1, b=2)
        values, verdicts = [], []
        for i in range(0, 101, 2):
            p_c = i / 100
            e_pc = e.replace(p_c=p_c)
            if p_c > 0.5:
                values.append(e.lam * p.b * (1 - p_c) * ((1 - e.eps) * e.r - e.c))
                verdicts.append(False)
                continue
            ok = check_equilibrium(p, e_pc).is_equilibrium
            verdicts.append(ok)
            if ok:
                values.append(social_utility(p, e_pc, stationary_for_regime(p, e_pc)))
            else:
                values.append(collapsed_social_utility(e, p.b, p_c))
        rises = [i for i in range(1, len(values)) if values[i] > values[i - 1] + 1e-12]
        falls = [i for i in range(1, len(values)) if values[i] < values[i - 1] - 1e-12]
        assert rises and falls  # non-monotone
        # the sharpest single-step drop is the incentive collapse itself
        boundary = next(i for i in range(1, len(verdicts)) if verdicts[i - 1] and not verdicts[i])
        drops = {i: values[i - 1] - values[i] for i in falls}
        assert max(drops, key=drops.get) == boundary
        # the curve recovers after the dip before tailing off
        assert any(i > boundary for i in rises)

    def test_dispatcher_routes_all_problems(self):
        e = env()
        for problem in ("OSNE", "OSNE_VP", "OSNE_VPS", "OSNE_AH"):
            spec = DesignSpec(problem=problem, L=2, b_cap=2, env=e,
                              beta_grid=0.25, pC_grid=0.25)
            res = solve(spec)
            assert res.feasible


@st.composite
def small_envs(draw):
    """A small random env in one of the three population regimes."""
    regime = draw(st.sampled_from(["baseline", "altruists", "malicious"]))
    return NetworkEnv(r=1.0, c=draw(st.floats(0.02, 0.6)),
                      eps=draw(st.one_of(st.just(0.0), st.floats(0.0, 0.4))),
                      lam=draw(st.sampled_from([0.5, 1.0, 2.0])),
                      delta=draw(st.floats(0.5, 0.95)),
                      p_c=draw(st.floats(0.05, 0.45)) if regime == "altruists" else 0.0,
                      p_d=draw(st.floats(0.05, 0.4)) if regime == "malicious" else 0.0)


def _assert_same_winner(got, want, grid=1.0):
    """The solver and a brute-force enumeration pick one design; the solver
    may only have raised forgiveness within its grid cell."""
    if want is None:
        assert not got.feasible
        return
    assert got.feasible
    assert (got.params.h_o, got.params.b, got.params.m_o) == \
        (want[1].h_o, want[1].b, want[1].m_o)
    assert abs(got.params.beta - want[1].beta) < grid
    assert got.utility >= want[2] - 1e-12


def _enumerate_osne_ah(spec):
    """Exhaustive (p_c, h_o, b) search with the designer's tie-break."""
    best = None
    for i in range(int(round(1.0 / spec.pC_grid)) + 1):
        p_c = min(1.0, i * spec.pC_grid)
        if p_c <= 0.5:
            want = _enumerate_osne(DesignSpec("OSNE", spec.L, spec.b_cap,
                                              spec.env.replace(p_c=p_c)))
            if want is None:
                continue
            params, u = want[1], want[2]
        else:
            params = ProtocolParams(L=spec.L, h_o=1, b=spec.b_cap)
            u = collapsed_social_utility(spec.env, spec.b_cap, p_c)
        key = (-u, params.h_o, -params.b, p_c)
        if best is None or key < best[0]:
            best = (key, params, u, p_c)
    return best


@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(small_envs())
def test_solvers_match_brute_force(e):
    # OSNE in the env's own regime: every cell's verdict agrees with the
    # deviation enumeration oracle, and the winner with criterion 6's search
    spec = DesignSpec("OSNE", L=3, b_cap=3, env=e)
    got = solve_osne(spec)
    for (h_o, b), _, u in got.search_log:
        assert (u is not None) == brute_force_equilibrium(ProtocolParams(L=3, h_o=h_o, b=b), e)
    _assert_same_winner(got, _enumerate_osne(spec))
    if e.p_d > 0.0:
        return  # forgiveness and deployed altruists are explored without malicious peers
    spec = DesignSpec("OSNE_VP", L=3, b_cap=3, env=e, beta_grid=0.1)
    got = solve_osne_vp(spec)
    _assert_same_winner(got, _enumerate_beta_grid(spec, lambda h: [(h,) * (4 - h)]), 0.1)
    if got.feasible:
        assert brute_force_equilibrium(got.params, e)
    spec = DesignSpec("OSNE_AH", L=2, b_cap=2, env=e.replace(p_c=0.0), pC_grid=0.25)
    got, want = solve_osne_ah(spec), _enumerate_osne_ah(spec)
    assert (got.params.h_o, got.params.b, got.pC_star) == (want[1].h_o, want[1].b, want[3])
    assert got.utility == pytest.approx(want[2], abs=1e-12)
    if e.p_c > 0.0:
        return  # client-threshold vectors are explored in all-reciprocative populations
    spec = DesignSpec("OSNE_VPS", L=2, b_cap=2, env=e, beta_grid=0.25)
    _assert_same_winner(solve_osne_vps(spec), _enumerate_beta_grid(
        spec, lambda h: itertools.combinations_with_replacement((1, 2), 3 - h)), 0.25)


def test_one_evaluator_call_per_block(count_calls):
    # the searches hand whole blocks to check_equilibria, never one cell at a
    # time; check_equilibrium (a block of one) is left to refinement steps
    calls = count_calls("check_equilibria", "check_equilibrium")
    solve_osne_ah(DesignSpec(problem="OSNE_AH", L=3, b_cap=4, env=env(), pC_grid=0.25))
    # one block per altruist fraction up to one half: 0, 0.25 and 0.5
    assert calls == {"check_equilibria": 3, "check_equilibrium": 0}
    calls.update(check_equilibria=0, check_equilibrium=0)
    solve_osne_vps(DesignSpec(problem="OSNE_VPS", L=3, b_cap=4, env=env(), beta_grid=0.25))
    # one block per (h_o, m_o) column holding every b and beta: C(6, 3) - 1
    # vectors, plus one block of one per refinement check
    assert calls["check_equilibria"] == comb(6, 3) - 1 + calls["check_equilibrium"]
    calls.update(check_equilibria=0, check_equilibrium=0)
    solve_osne_vp(DesignSpec(problem="OSNE_VP", L=3, b_cap=4, env=env(), beta_grid=0.25))
    # the same search over the L uniform vectors: one block per h_o, never
    # one evaluator call per bisection halving of every cell
    assert calls["check_equilibria"] == 3 + calls["check_equilibrium"]
