import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from normforge import (
    NetworkEnv,
    ProtocolParams,
    sim,
    stationary_closed_form,
    stationary_fixed_point,
    stationary_for_regime,
    transition_matrix,
)
from normforge.stationary import check_regime

from oracles import stationary_nullspace

# alpha = 0.19 comes from eps=0.1, lam=1, b=2
BASE = dict(r=1.0, c=0.2, eps=0.1, lam=1.0, delta=0.8)


def env(**kw):
    d = dict(BASE)
    d.update(kw)
    return NetworkEnv(**d)


class TestClosedForm:
    def test_error_free_piles_at_top(self):
        d = stationary_closed_form(ProtocolParams(L=3, h_o=1, b=2), env(eps=0.0))
        assert d.mu == 1.0
        assert np.allclose(d.eta, [0, 0, 0, 1])

    def test_reference_point_alpha_019(self):
        # frozen from iterating the period update to a 1e-12 fixed point
        d = stationary_closed_form(ProtocolParams(L=3, h_o=1, b=2), env())
        assert d.alpha == pytest.approx(0.19)
        assert d.mu == pytest.approx(0.8403361344537815, abs=1e-12)
        expected = [0.15966386554621848, 0.15966386554621848,
                    0.12932773109243698, 0.551344537815126]
        assert np.allclose(d.eta, expected, atol=1e-12)

    def test_two_state_chain_by_hand(self):
        # L=1, h_o=1, alpha=0.5: balance gives eta = (1/3, 2/3)
        d = stationary_closed_form(ProtocolParams(L=1, h_o=1, b=1), env(eps=0.5))
        assert d.mu == pytest.approx(2 / 3)
        assert np.allclose(d.eta, [1 / 3, 2 / 3])

    def test_mu_formula_exact(self):
        for L in (1, 3, 5):
            for h_o in range(1, L + 1):
                d = stationary_closed_form(ProtocolParams(L=L, h_o=h_o, b=2), env())
                assert d.mu == 1.0 / (1.0 + d.alpha * h_o)
                assert d.eta[h_o:].sum() == pytest.approx(d.mu, abs=1e-12)

    def test_rejects_forgiving_scheme(self):
        with pytest.raises(ValueError):
            stationary_closed_form(ProtocolParams(L=3, h_o=1, b=2, beta=0.5), env())
        with pytest.raises(ValueError):
            stationary_closed_form(ProtocolParams(L=3, h_o=1, b=2, m_o=(1, 2, 2)), env())


class TestFixedPoint:
    def test_matches_closed_form_in_its_regime(self):
        for L, h_o, eps in ((1, 1, 0.3), (3, 1, 0.1), (4, 2, 0.05), (6, 6, 0.3)):
            p = ProtocolParams(L=L, h_o=h_o, b=2)
            e = env(eps=eps)
            a = stationary_closed_form(p, e)
            b = stationary_fixed_point(p, e)
            assert np.max(np.abs(a.eta - b.eta)) <= 1e-10

    def test_error_free_any_forgiveness(self):
        d = stationary_fixed_point(ProtocolParams(L=4, h_o=2, b=3, beta=0.7), env(eps=0.0))
        assert d.eta[-1] == 1.0 and d.mu == 1.0

    def test_forgiveness_raises_active_mass(self):
        p0 = ProtocolParams(L=3, h_o=1, b=2, beta=0.0)
        p5 = ProtocolParams(L=3, h_o=1, b=2, beta=0.5)
        mu0 = stationary_fixed_point(p0, env()).mu
        mu5 = stationary_fixed_point(p5, env()).mu
        assert mu0 == pytest.approx(0.8403361344537815, abs=1e-10)
        assert mu5 > mu0

    def test_active_mass_monotone_in_forgiveness(self):
        mus = []
        for beta in np.arange(0.0, 1.0001, 0.1):
            p = ProtocolParams(L=4, h_o=2, b=2, beta=float(beta))
            mus.append(stationary_fixed_point(p, env()).mu)
        assert all(b >= a - 1e-12 for a, b in zip(mus, mus[1:]))

    def test_is_fixed_point_of_own_kernel(self):
        for beta, m_o in ((0.0, None), (0.4, None), (0.6, (1, 2, 3))):
            p = ProtocolParams(L=3, h_o=1, b=2, beta=beta, m_o=m_o)
            d = stationary_fixed_point(p, env())
            moved = d.eta @ transition_matrix(p, env())
            assert np.max(np.abs(moved - d.eta)) <= 1e-10

    def test_unique_point_from_random_starts(self):
        # the kernel carries every start to the solved point
        p = ProtocolParams(L=4, h_o=2, b=2, beta=0.3)
        ref = stationary_fixed_point(p, env()).eta
        P_far = np.linalg.matrix_power(transition_matrix(p, env()), 2000)
        rng = np.random.default_rng(7)
        for _ in range(20):
            raw = rng.random(5)
            assert np.max(np.abs(raw / raw.sum() @ P_far - ref)) <= 1e-8

    def test_agrees_with_nullspace_solve(self):
        cases = [(ProtocolParams(L=5, h_o=2, b=3, beta=beta), env(eps=0.2))
                 for beta in (0.0, 0.25, 0.9)]
        # long ladder, near-total forgiveness: the kernel mixes slowly
        cases.append((ProtocolParams(L=20, h_o=1, b=3, beta=0.999), env(eps=0.5)))
        for p, e in cases:
            d = stationary_fixed_point(p, e)
            assert np.max(np.abs(d.eta - stationary_nullspace(p, e))) <= 1e-10

    def test_certain_punishment_keeps_mass_at_or_below_h_o(self):
        # (1 - 0.5)**60 rounds alpha to 1: nobody climbs past h_o, and under
        # harsh punishment the profile cycles through 0..h_o
        e = env(eps=0.5)
        for beta, m_o in ((0.5, None), (0.0, (2, 3, 4))):
            p = ProtocolParams(L=4, h_o=2, b=60, beta=beta, m_o=m_o)
            d = stationary_fixed_point(p, e)
            assert d.alpha == 1.0
            assert np.max(np.abs(d.eta - stationary_nullspace(p, e))) <= 1e-12
            assert d.eta[3:].sum() == 0.0

    def test_sums_to_one(self):
        for eps in (0.05, 0.3, 0.7):
            d = stationary_fixed_point(ProtocolParams(L=6, h_o=3, b=4, beta=0.2), env(eps=eps))
            assert d.eta.sum() == pytest.approx(1.0, abs=1e-12)
            assert (d.eta >= 0).all()


@st.composite
def chains(draw):
    L = draw(st.integers(1, 30))
    h_o = draw(st.integers(1, L))
    n = L - h_o + 1
    non_uniform = st.lists(st.integers(1, L), min_size=n, max_size=n).map(sorted)
    m_o = draw(st.one_of(st.none(), non_uniform.map(tuple)))
    beta = draw(st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)))
    eps = draw(st.one_of(st.just(0.0), st.floats(0.0, 0.9)))
    b = draw(st.integers(1, 8))
    # up to lam * b = 480 uploads a period: (1 - eps)**480 underflows for the
    # larger eps, so alpha = 1 and rungs with zero outflow are drawn
    lam = draw(st.one_of(st.just(1.0), st.floats(0.05, 60.0)))
    return ProtocolParams(L=L, h_o=h_o, b=b, beta=beta, m_o=m_o), env(eps=eps, lam=lam)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(chains())
@example((ProtocolParams(L=30, h_o=7, b=4, beta=0.0), env(eps=0.3)))
@example((ProtocolParams(L=30, h_o=1, b=8, beta=1.0), env(eps=0.9)))
@example((ProtocolParams(L=12, h_o=4, b=3, beta=0.6), env(eps=0.0)))
@example((ProtocolParams(L=6, h_o=2, b=5, beta=0.45, m_o=(2, 3, 3, 5, 6)), env(eps=0.4)))
# alpha within rounding of 1 on a long ladder: each climb past h_o has
# probability 2.2e-16, so the profile above h_o runs down to subnormals
@example((ProtocolParams(L=24, h_o=2, b=6, beta=0.94), env(eps=0.0958738714, lam=60)))
# alpha = 1 and beta = 1: every active rung is absorbing and h_o, the first
# one reached, keeps every peer
@example((ProtocolParams(L=5, h_o=2, b=8, beta=1.0), env(eps=0.9, lam=60)))
def test_fixed_point_matches_nullspace_oracle(chain):
    p, e = chain
    d = stationary_fixed_point(p, e)
    assert np.max(np.abs(d.eta - stationary_nullspace(p, e))) <= 1e-12


class TestMalicious:
    def test_no_malicious_mass_reduces_to_baseline(self):
        p = ProtocolParams(L=3, h_o=1, b=2)
        a = stationary_for_regime(p, env(p_d=0.0))
        b = stationary_closed_form(p, env())
        assert np.allclose(a.eta, b.eta)

    def test_all_malicious_cycle(self):
        p = ProtocolParams(L=3, h_o=1, b=2)
        d = stationary_for_regime(p, env(p_d=1.0))
        assert np.allclose(d.eta, [0.5, 0.5, 0.0, 0.0])
        assert d.mu == pytest.approx(0.5)

    def test_mixture_componentwise(self):
        p = ProtocolParams(L=3, h_o=1, b=2)
        d = stationary_for_regime(p, env(p_d=0.5))
        recip = stationary_closed_form(p, env())
        cycle = np.array([0.5, 0.5, 0.0, 0.0])
        assert np.allclose(d.eta, 0.5 * recip.eta + 0.5 * cycle)

    def test_rejects_out_of_regime(self):
        p = ProtocolParams(L=3, h_o=1, b=2, beta=0.5)
        with pytest.raises(ValueError, match="harsh punishment"):
            stationary_for_regime(p, env(p_d=0.3))


class TestAltruistic:
    def test_no_altruists_reduces_to_baseline(self):
        p = ProtocolParams(L=3, h_o=1, b=2)
        a = stationary_for_regime(p, env(p_c=0.0))
        b = stationary_closed_form(p, env())
        assert np.allclose(a.eta, b.eta)

    def test_all_altruists_point_mass_at_top(self):
        p = ProtocolParams(L=3, h_o=1, b=2)
        d = stationary_for_regime(p, env(p_c=1.0))
        assert np.allclose(d.eta, [0, 0, 0, 1])

    def test_top_mass_mixture_value(self):
        p = ProtocolParams(L=3, h_o=1, b=2)
        d = stationary_for_regime(p, env(p_c=0.3))
        assert d.eta[3] == pytest.approx(0.7 * 0.551344537815126 + 0.3, abs=1e-10)

    def test_rejects_malicious_mix(self):
        with pytest.raises(ValueError, match="one non-reciprocative kind"):
            stationary_for_regime(ProtocolParams(L=3, h_o=1, b=2), env(p_c=0.3, p_d=0.1))

    def test_non_uniform_thresholds_are_refused(self):
        p = ProtocolParams(L=3, h_o=1, b=2, m_o=(1, 2, 3))
        with pytest.raises(ValueError, match="under uniform client thresholds"):
            check_regime(p, env(p_c=0.3))


class TestTftRow:
    """Tit-for-tat's row (every rung active, h_o = 0) admits altruists under
    its non-uniform thresholds, and still refuses malicious peers."""

    def test_admits_altruists(self):
        d = stationary_for_regime(sim._tft_point(env(p_c=0.3), 2))
        assert np.allclose(d.eta, [[0.7 * 0.19, 0.7 * 0.81 + 0.3]])
        assert np.allclose(d.mu, 1.0)  # both rungs upload

    def test_refuses_malicious_peers(self):
        with pytest.raises(ValueError, match="under uniform client thresholds"):
            check_regime(sim._tft_point(env(p_d=0.2), 2))
