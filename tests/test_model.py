import itertools

import pytest

from normforge import (
    NetworkEnv,
    ProtocolParams,
    error_punish_prob,
)
from oracles import Action, phi_compliance, reputation_update, social_strategy


def env(**kw):
    base = dict(r=1.0, c=0.4, eps=0.1, lam=1.0, delta=0.8)
    base.update(kw)
    return NetworkEnv(**base)


class TestValidation:
    def test_rejects_r_not_above_c(self):
        with pytest.raises(ValueError):
            NetworkEnv(r=0.4, c=0.4, eps=0.0, lam=1.0, delta=0.5)

    def test_rejects_fraction_overflow(self):
        with pytest.raises(ValueError):
            NetworkEnv(r=1, c=0.1, eps=0.0, lam=1.0, delta=0.5, p_c=0.6, p_d=0.6)

    def test_rejects_h_o_outside_ladder(self):
        for bad in (0, 4):
            with pytest.raises(ValueError):
                ProtocolParams(L=3, h_o=bad, b=1)

    def test_rejects_decreasing_thresholds(self):
        with pytest.raises(ValueError):
            ProtocolParams(L=3, h_o=1, b=1, m_o=(2, 1, 1))

    def test_rejects_non_integral_thresholds(self):
        # never truncated: (1.7, 2.9, 3) is not the vector (1, 2, 3)
        with pytest.raises(ValueError, match="integers"):
            ProtocolParams(L=3, h_o=1, b=1, m_o=(1.7, 2.9, 3))
        assert ProtocolParams(L=3, h_o=1, b=1, m_o=(1.0, 2, 3)).m_o == (1, 2, 3)

    def test_default_thresholds_uniform(self):
        p = ProtocolParams(L=4, h_o=2, b=1)
        assert p.m_o == (2, 2, 2)
        assert p.uniform_thresholds


class TestSocialStrategy:
    def test_serves_when_both_clear(self):
        p = ProtocolParams(L=3, h_o=1, b=1)
        assert social_strategy(p, 2, 1) is Action.SERVE

    def test_inactive_server_refuses(self):
        p = ProtocolParams(L=3, h_o=1, b=1)
        assert social_strategy(p, 0, 3) is Action.NOT_SERVE

    def test_variable_threshold_refuses_low_client(self):
        p = ProtocolParams(L=3, h_o=1, b=1, m_o=(1, 2, 2))
        assert social_strategy(p, 3, 1) is Action.NOT_SERVE

    @pytest.mark.parametrize("L", range(1, 7))
    def test_uniform_reduces_to_two_sided_rule(self, L):
        for h_o in range(1, L + 1):
            p = ProtocolParams(L=L, h_o=h_o, b=1)
            for s, c in itertools.product(range(L + 1), repeat=2):
                want = Action.SERVE if (s >= h_o and c >= h_o) else Action.NOT_SERVE
                assert social_strategy(p, s, c) is want


class TestCompliance:
    def test_compliant_serve(self):
        p = ProtocolParams(L=3, h_o=1, b=1)
        assert phi_compliance(p, 2, 2, Action.SERVE) == 0

    def test_overserving_low_client_flags(self):
        p = ProtocolParams(L=3, h_o=1, b=1)
        assert phi_compliance(p, 2, 0, Action.SERVE) == 1

    def test_inactive_refusal_is_compliant(self):
        p = ProtocolParams(L=3, h_o=1, b=1)
        assert phi_compliance(p, 0, 2, Action.NOT_SERVE) == 0

    def test_self_consistency_everywhere(self):
        for L in range(1, 5):
            for h_o in range(1, L + 1):
                p = ProtocolParams(L=L, h_o=h_o, b=1)
                for s, c in itertools.product(range(L + 1), repeat=2):
                    assert phi_compliance(p, s, c, social_strategy(p, s, c)) == 0


class TestReputationUpdate:
    def test_top_holds_when_clean(self):
        p = ProtocolParams(L=3, h_o=1, b=1)
        assert reputation_update(p, 3, x=0) == 3

    def test_punished_falls_to_zero(self):
        p = ProtocolParams(L=3, h_o=1, b=1)
        assert reputation_update(p, 1, x=1, forgiven=0) == 0

    def test_forgiven_keeps_reputation(self):
        p = ProtocolParams(L=3, h_o=1, b=1, beta=0.5)
        assert reputation_update(p, 2, x=1, forgiven=1) == 2

    def test_range_and_monotonicity(self):
        p = ProtocolParams(L=4, h_o=2, b=1)
        prev = -1
        for rep in range(5):
            out = reputation_update(p, rep, x=0)
            assert 0 <= out <= 4
            assert out >= prev
            prev = out
            for forgiven in (0, 1):
                assert 0 <= reputation_update(p, rep, x=1, forgiven=forgiven) <= 4


class TestErrorPunishProb:
    def test_error_free_network(self):
        assert error_punish_prob(env(eps=0.0), 5) == 0.0

    def test_two_transactions(self):
        assert error_punish_prob(env(eps=0.1, lam=1.0), 2) == pytest.approx(0.19)

    def test_single_transaction(self):
        assert error_punish_prob(env(eps=0.5, lam=1.0), 1) == pytest.approx(0.5)

    def test_monte_carlo_cross_check(self):
        import numpy as np
        rng = np.random.default_rng(0)
        eps, k = 0.1, 2
        fails = (rng.random((200_000, k)) < eps).any(axis=1).mean()
        assert abs(fails - error_punish_prob(env(eps=eps, lam=1.0), k)) < 3e-3

    def test_strictly_increasing_in_b_and_eps(self):
        e = env(eps=0.2, lam=0.7)
        vals = [error_punish_prob(e, b) for b in range(1, 8)]
        assert all(a < b for a, b in zip(vals, vals[1:]))
        by_eps = [error_punish_prob(env(eps=x, lam=1.0), 3) for x in (0.05, 0.1, 0.2, 0.4)]
        assert all(a < b for a, b in zip(by_eps, by_eps[1:]))

    def test_zero_iff_error_free(self):
        assert error_punish_prob(env(eps=0.0), 3) == 0.0
        assert error_punish_prob(env(eps=1e-9), 3) > 0.0
