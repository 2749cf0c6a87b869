import collections
import hashlib
import itertools
from math import ceil, log2
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

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

from normforge import designer, incentives
from normforge.designer import PROBLEMS
from normforge.stationary import check_regime
from normforge.incentives import BISECT_DEPTH, BISECT_TOL_BETA
from oracles import brute_force_equilibrium, per_cell_design
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

    def test_free_service_deploys_no_altruists(self):
        # at c = 0 altruists, who never request, only dilute the population's
        # benefit, so the best design deploys none: p_c* = 0 exactly, never a
        # fraction whose utility rounds up to the winner's
        for eps, L, b_cap, pC_grid in itertools.product((0.0, 0.1, 0.5), (1, 2, 3), (1, 3),
                                                        (0.01, 0.05, 0.25)):
            spec = DesignSpec("OSNE_AH", L=L, b_cap=b_cap, env=env(c=0.0, eps=eps),
                              pC_grid=pC_grid)
            res = solve_osne_ah(spec)
            assert res.feasible and res.pC_star == 0.0, spec

    def test_env_altruists_are_refused(self):
        # the problem deploys its own fraction: an env p_c would be discarded
        DesignSpec("OSNE_AH", L=3, b_cap=2, env=env(p_c=0.0))
        for p_c in (0.2, 0.45):
            with pytest.raises(ValueError, match="deploys its own altruist fraction"):
                DesignSpec("OSNE_AH", L=3, b_cap=2, env=env(p_c=p_c))

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


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(small_envs(), st.sampled_from(PROBLEMS), st.integers(1, 4), st.integers(1, 3),
       st.sampled_from([0.1, 0.25, 0.5, 1.0]))
def test_admitted_blocks_pass_a_fresh_regime_check(e, problem, L, b_cap, grid):
    # the search marks its blocks admitted because DesignSpec admitted the
    # most demanding point of its space: each block, copied afresh, must
    # pass check_regime too, in populations with altruists or malicious peers
    try:
        spec = DesignSpec(problem, L=L, b_cap=b_cap, env=e, beta_grid=grid, pC_grid=grid)
    except ValueError:
        assume(False)  # a population the problem's regime check refuses
    built = []

    def recording(name):
        fn = getattr(designer, name)
        return mock.patch.object(designer, name, lambda points, *rest: built.append(points)
                                 or fn(points, *rest))
    with recording("stationary_fixed_point"), recording("stationary_for_regime"), \
            recording("check_equilibria"):
        solve(spec)
    assert built and all(block.admitted for block in built)
    for block in built:
        check_regime(block.take(slice(None)))


def test_one_evaluator_call_per_block(count_calls, monkeypatch):
    # the search hands whole blocks to the evaluator, never one point at a
    # time: the utility pass solves one profile per class point, in blocks
    # sized by its (L + 1, B) tables (OSNE_AH first solves the reciprocators'
    # profiles of one fraction column), then the walk checks the ranked
    # classes' points in blocks sized by the willing table; no step makes a
    # check_equilibrium (a block of one)
    calls = count_calls("check_equilibrium")
    sizes = collections.defaultdict(list)  # points per evaluator call, by stage
    for module, name, stage in ((designer, "stationary_fixed_point", "column"),
                                (designer, "stationary_for_regime", "pass"),
                                (designer, "check_equilibria", "walk"),
                                (incentives, "check_equilibria", "refine")):
        monkeypatch.setattr(module, name, lambda points, *rest, _fn=getattr(module, name),
                            _stage=stage: sizes[_stage].append(len(points)) or _fn(points, *rest))

    def search(spec, class_points):
        """stats of one search, after checking its calls: the class points'
        profiles in blocks of BLOCK_ENTRIES // ((L + 1) * PASS_TABLES), one
        fraction column's reciprocators' profiles first for more than one
        fraction, walk blocks of at most BLOCK_ENTRIES // (L + 1)**2, and
        stats that count every call and every point."""
        sizes.clear()
        calls.update(check_equilibrium=0)
        stats = solve(spec).stats
        block = incentives.BLOCK_ENTRIES // ((spec.L + 1) * incentives.PASS_TABLES)
        assert sizes["pass"] == [block] * (class_points // block) + \
            [class_points % block] * (class_points % block > 0)
        assert sizes["column"] == ([spec.L * spec.b_cap] if spec.problem == "OSNE_AH" else [])
        assert sizes["walk"] and all(
            0 < n <= incentives.BLOCK_ENTRIES // (spec.L + 1) ** 2 for n in sizes["walk"])
        assert (stats["evaluator_calls"], stats["points_checked"]) == \
            (sum(map(len, sizes.values())), sum(map(sum, sizes.values())))
        return stats

    # OSNE_AH: the uniform vectors are one class each, so its class points
    # are its cells, 3 x 4 for each altruist fraction up to one half (0,
    # 0.25 and 0.5); 0.75 and 1 are ranked but never checked
    stats = search(DesignSpec("OSNE_AH", L=3, b_cap=4, env=env(), pC_grid=0.25), 3 * 12)
    assert calls["check_equilibrium"] == 0 and stats["candidates"] == 38
    # 51 fractions x 60 cells, in blocks of BLOCK_ENTRIES // (7 * 4) = 1,170 points
    stats = search(DesignSpec("OSNE_AH", L=6, b_cap=10, env=env(), pC_grid=0.01), 51 * 60)
    assert calls["check_equilibrium"] == 0 and stats["candidates"] == 3110
    assert not sizes["refine"]

    def refined(spec, class_points):
        """Walk points of one forgiveness search, after bounding its
        refinement calls: the winner's refinement bisects its grid cell
        BISECT_DEPTH halvings per call, at most 2**BISECT_DEPTH - 1 betas
        each, and its first call also checks both ends of the cell; the
        refined utility is read off the call that passed its beta."""
        search(spec, class_points)
        assert calls["check_equilibrium"] == 0
        edge, *bisect = sizes["refine"]
        halvings = ceil(log2(spec.beta_grid / BISECT_TOL_BETA))
        assert edge == 2 + 2 ** BISECT_DEPTH - 1
        assert 1 <= len(bisect) <= ceil(halvings / BISECT_DEPTH) - 1
        assert max(bisect) <= 2 ** BISECT_DEPTH - 1
        return sum(sizes["walk"])

    # OSNE_VPS's classes are its (h_o, m_o(h_o)) pairs: 3 x 3 at L = 3, one
    # class point per (class, b, beta); OSNE_VP's are its 3 uniform vectors
    assert refined(DesignSpec("OSNE_VPS", L=3, b_cap=4, env=env(), beta_grid=0.25),
                   9 * 4 * 5) <= 19 * 4 * 5
    assert refined(DesignSpec("OSNE_VP", L=3, b_cap=4, env=env(), beta_grid=0.25),
                   3 * 4 * 5) <= 3 * 4 * 5
    # 16 classes x 3 b x 101 betas = 4,848 class points in blocks of
    # BLOCK_ENTRIES // (5 * 4) = 1,638; the walk checks a fraction of the
    # C(8, 4) - 1 = 69 vectors x 3 b x 101 betas
    assert refined(DesignSpec("OSNE_VPS", L=4, b_cap=3, env=env(), beta_grid=0.01),
                   16 * 3 * 101) < 69 * 3 * 101 / 4


def test_the_walk_stops_before_the_last_class():
    # the benchmark's OSNE_VPS solve checks under a third of the 20,985
    # points that checking every cell's beta column and refining took;
    # reading the log walks every class and moves no reported number
    res = solve(DesignSpec("OSNE_VPS", 4, 3, env()))
    reported = repr((res.params, res.utility, res.pC_star, res.stats))
    assert res.stats["points_checked"] < 20985 / 3
    assert len(res.search_log) == 69 * 3 + 1
    assert repr((res.params, res.utility, res.pC_star, res.stats)) == reported


def _osne_ah_reference(spec):
    """OSNE_AH as one OSNE solve per altruist fraction up to one half, p_c
    appended to each candidate, then the collapsed cells above one half."""
    log, best = [], None
    for i in range(int(round(1.0 / spec.pC_grid)) + 1):
        p_c = min(1.0, i * spec.pC_grid)
        if p_c <= 0.5:
            res = solve_osne(DesignSpec("OSNE", spec.L, spec.b_cap, spec.env.replace(p_c=p_c)))
            log += [((*cand, p_c), slack, u) for cand, slack, u in res.search_log]
            if not res.feasible:
                continue
            params, u = res.params, res.utility
        else:
            params = ProtocolParams(L=spec.L, h_o=1, b=spec.b_cap)
            u = collapsed_social_utility(spec.env, spec.b_cap, p_c)
            log.append(((1, spec.b_cap, p_c), None, u))
        key = (-u, params.h_o, -params.b, p_c)
        if best is None or key < best[0]:
            best = (key, params, u, p_c)
    return log, best


@pytest.mark.parametrize("L, b_cap, pC_grid, e", [
    (3, 4, 0.25, env()),
    (6, 10, 0.01, env()),
    (3, 4, 0.1, env(delta=0.0)),
    (4, 5, 0.05, env(eps=0.0)),
    (2, 3, 0.3, env(c=0.4)),
], ids=["zero-and-half", "across-blocks", "delta-0", "eps-0", "grid-not-dividing-1"])
def test_osne_ah_equals_per_fraction_osne(L, b_cap, pC_grid, e):
    # laying the p_c axis over one set of points changes no number: the log,
    # winner, utility and fraction equal one OSNE solve per fraction
    spec = DesignSpec("OSNE_AH", L=L, b_cap=b_cap, env=e, pC_grid=pC_grid)
    got = solve_osne_ah(spec)
    log, best = _osne_ah_reference(spec)
    assert got.search_log == log
    assert (got.params, got.utility, got.pC_star) == (best[1], best[2], best[3])


# sha256 of repr((params, utility, pC_star, search_log)) for the benchmark's
# four design solves at the reference env
DESIGN_DIGESTS = {
    ("OSNE_VPS", 4, 3): "27e17d02ed8066b748132f5f0c05fed602d5e7635f62daa0d2b570e57442b5f4",
    ("OSNE_VP", 6, 10): "2454cbc487969a6d4b329dd836bf4782951306392807c7135906d545fea2ba27",
    ("OSNE_AH", 6, 10): "ab86154848e0d1f671f890cf447024f1499535f65e9fb73ab1dddfc91f8a0524",
    ("OSNE", 6, 10): "1eee9a05ef0a7a24556d02373f970f3fb0ff7fd2dbd141dd07f429f910ae9c39",
}


@pytest.mark.parametrize("problem, L, b_cap", DESIGN_DIGESTS)
def test_benchmark_designs_are_pinned(problem, L, b_cap):
    # every candidate's slack and utility, the winner and its refinement,
    # bit for bit: a layout or summation-order change must not move them
    res = solve(DesignSpec(problem, L, b_cap, env(), pC_grid=0.0025))
    digest = hashlib.sha256(repr((res.params, res.utility, res.pC_star, res.search_log))
                            .encode()).hexdigest()
    assert digest == DESIGN_DIGESTS[problem, L, b_cap]


def _random_specs(n, seed=7):
    """n valid DesignSpecs over all four problems, L <= 4, with small caps and
    grids: random envs with exact ties (eps = 0, delta = 0, c = 0) and
    infeasible costs mixed in.  Every field is a Python number, as the CLI
    passes them."""
    rng = np.random.default_rng(seed)

    def pick(*values):
        return values[rng.integers(len(values))]
    specs = []
    while len(specs) < n:
        problem = PROBLEMS[len(specs) % len(PROBLEMS)]
        population = {} if problem in ("OSNE_VPS", "OSNE_AH") else pick(
            {}, {}, {"p_c": float(rng.uniform(0.05, 0.45))},
            {"p_d": float(rng.uniform(0.05, 0.4))})
        e = NetworkEnv(r=1.0, c=pick(0.0, 0.25, float(rng.uniform(0.02, 0.95))),
                       eps=pick(0.0, float(rng.uniform(0.0, 0.4))), lam=pick(0.5, 1.0, 2.0),
                       delta=pick(0.0, float(rng.uniform(0.3, 0.95))), **population)
        try:
            specs.append(DesignSpec(problem, L=int(rng.integers(1, 5)),
                                    b_cap=int(rng.integers(1, 5)), env=e,
                                    beta_grid=pick(0.1, 0.2, 0.25, 0.3, 0.5, 1.0),
                                    pC_grid=pick(0.05, 0.1, 0.25, 0.3, 0.4, 1.0)))
        except ValueError:
            continue  # a population the problem's regime check refuses
    return specs


TIE_SPECS = [  # the exact ties of the tests above
    DesignSpec("OSNE_VPS", L=4, b_cap=8, env=env(c=0.25), beta_grid=0.05),
    DesignSpec("OSNE", L=3, b_cap=10, env=env(eps=0.0)),
    DesignSpec("OSNE_VP", L=3, b_cap=5, env=env(eps=0.0), beta_grid=0.05),
    DesignSpec("OSNE_AH", L=3, b_cap=3, env=env(c=0.0, eps=0.5), pC_grid=0.05),
    DesignSpec("OSNE_AH", L=3, b_cap=4, env=env(c=0.35, delta=0.7), pC_grid=1.0),
    # (1 - eps) * r = c: every collapsed fraction has utility 0
    DesignSpec("OSNE_AH", L=2, b_cap=3, env=env(c=0.9, eps=0.1), pC_grid=0.1),
]


# L = 5 and 6, beyond the searches the tests above and the benchmark run: a
# winner deep in the ranking, exact ties (eps = 0), no future (delta = 0),
# costs no design sustains, the largest OSNE_VPS space at the reference env,
# and random envs
DEEP_SPECS = [
    DesignSpec("OSNE_VPS", L=5, b_cap=5, env=env(c=0.486)),
    DesignSpec("OSNE_VPS", L=6, b_cap=6, env=env()),
    DesignSpec("OSNE_VPS", L=5, b_cap=4, env=env(eps=0.0), beta_grid=0.05),
    DesignSpec("OSNE_VPS", L=6, b_cap=3, env=env(delta=0.0), beta_grid=0.1),
    DesignSpec("OSNE_VPS", L=5, b_cap=3, env=env(c=0.95), beta_grid=0.05),
    DesignSpec("OSNE_VP", L=6, b_cap=8, env=env(eps=0.0)),
    DesignSpec("OSNE_VP", L=6, b_cap=6, env=env(delta=0.0)),
    DesignSpec("OSNE_VP", L=5, b_cap=10, env=env(c=0.9)),
]


def _deep_random_specs(n, seed=30):
    """n OSNE_VP and OSNE_VPS specs at L = 5 or 6 with small caps and grids."""
    rng = np.random.default_rng(seed)
    return [DesignSpec(str(rng.choice(["OSNE_VP", "OSNE_VPS"])), L=int(rng.integers(5, 7)),
                       b_cap=int(rng.integers(1, 4)),
                       env=env(c=float(rng.uniform(0.05, 0.6)), eps=float(rng.uniform(0.0, 0.3)),
                               delta=float(rng.uniform(0.5, 0.95)),
                               lam=float(rng.choice([0.5, 1.0, 2.0]))),
                       beta_grid=float(rng.choice([0.05, 0.1, 0.25]))) for _ in range(n)]


def test_long_ladders_equal_per_cell_search():
    # the best-first walk and its log, bit for bit, where a class holds many
    # vectors and the walk may reach most classes before its winner
    outcomes = collections.Counter()
    for spec in DEEP_SPECS + _deep_random_specs(6):
        got = solve(spec)
        assert repr((got.params, got.utility, got.pC_star, got.search_log)) == \
            repr(per_cell_design(spec)), spec
        outcomes[spec.problem, got.feasible] += 1
    assert all(outcomes[problem, feasible] for problem in ("OSNE_VP", "OSNE_VPS")
               for feasible in (True, False))


@pytest.mark.parametrize("block_entries, n", [(1 << 15, 500), (300, 120)],
                         ids=["blocks", "small-blocks"])
def test_column_search_equals_per_cell_search(block_entries, n, monkeypatch):
    # one lexsort over the candidates' columns and the lazy log give what
    # comparing and logging one cell at a time gives, bit for bit; small
    # blocks make many evaluator calls, most of them with no passing cell
    monkeypatch.setattr(incentives, "BLOCK_ENTRIES", block_entries)
    specs = TIE_SPECS + _random_specs(n)
    outcomes = collections.Counter()
    for spec in specs:
        got = solve(spec)
        want = per_cell_design(spec)
        assert repr((got.params, got.utility, got.pC_star, got.search_log)) == repr(want), spec
        assert got.stats["candidates"] == len(want[3]) - (spec.problem in ("OSNE_VP", "OSNE_VPS")
                                                          and got.feasible)
        outcomes[spec.problem, got.feasible] += 1
    assert all(outcomes[problem, feasible] for problem in PROBLEMS if problem != "OSNE_AH"
               for feasible in (True, False))
