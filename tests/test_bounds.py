"""Closed-form bound evaluators against frozen high-precision fixtures.

The fixture constants below were computed with a 40-digit mpmath script prior
to implementing the evaluators, then frozen here as regression anchors.
"""

import math

import numpy as np
import pytest

from subgoss.bounds import (
    BoundInputs,
    beta,
    g_of_b,
    h_of_bt,
    lemma2_tail_count,
    lemma3_tail,
    projected_linucb_bound,
    single_agent_bound,
    tau0,
    theorem1_bound,
)
from subgoss.errors import InvalidConfigError

# 40-digit mpmath fixtures
BETA_N100 = 5.132068687404026  # beta(delta=0.01, m=2, lam=1, n=100, S=1)
BETA_T1E4 = 6.954432560436427  # beta(delta=1e-4, m=2, lam=1, n=9999, S=1)
PROJ_BOUND_1E4 = 8118.485865358217  # projected_linucb_bound(1e4, 2, 1, 1e-4, 1)
LEMMA2_COUNT = 0.5413411329464508  # 2m exp(-eps^2 n / 2m^2), m=2, eps=0.5, n=64


class TestBeta:
    def test_closed_form_corners(self):
        # n=0 kills the m-log term; delta = e^-2 gives sqrt(4) = 2
        assert beta(math.exp(-2), 5, 1.0, 0) == pytest.approx(3.0, abs=1e-12)
        assert beta(1 - 1e-15, 3, 4.0, 0, S=1.0) == pytest.approx(2.0, abs=1e-6)

    def test_frozen_fixture(self):
        assert beta(0.01, 2, 1.0, 100) == pytest.approx(BETA_N100, abs=1e-12)
        assert beta(1e-4, 2, 1.0, 9999) == pytest.approx(BETA_T1E4, abs=1e-12)

    def test_monotone_in_n_and_inverse_delta(self):
        vals = [beta(0.05, 2, 1.0, n) for n in (0, 1, 10, 100, 10_000)]
        assert all(b2 >= b1 for b1, b2 in zip(vals, vals[1:]))
        vals = [beta(d, 2, 1.0, 50) for d in (0.5, 0.1, 0.01, 1e-6)]
        assert all(b2 >= b1 for b1, b2 in zip(vals, vals[1:]))

    def test_domain_errors(self):
        with pytest.raises(InvalidConfigError):
            beta(0.0, 2, 1.0, 10)
        with pytest.raises(InvalidConfigError):
            beta(0.1, 2, 1.0, -1)

    def test_scales_with_s(self):
        assert beta(0.1, 2, 4.0, 10, S=3.0) == pytest.approx(
            beta(0.1, 2, 4.0, 10, S=1.0) + 2 * 2.0, abs=1e-12
        )


class TestHelpers:
    def test_g_of_b(self):
        assert g_of_b(2.0) == pytest.approx(1.0 + 1.0 / math.log(2.0))

    def test_h_of_bt(self):
        assert h_of_bt(2.0, 1) == 2.0
        assert h_of_bt(2.0, 100) == pytest.approx(2.0 * 100)


class TestTau0:
    def test_scan_matches_brute_force(self):
        # independent brute-force: smallest j such that the condition holds forever
        for b, m, K, N in [(2.0, 1, 4, 4), (2.0, 2, 12, 4), (1.5, 1, 8, 2), (3.0, 3, 9, 3)]:
            c = 8 * m * (K / N + 2)
            def holds(j):
                return math.ceil(b ** (j - 1)) >= c * math.ceil(b ** ((j - 1) / 2))
            j = 1
            while not all(holds(jj) for jj in range(j, j + 200)):
                j += 1
            assert tau0(b, m, K, N) == j

    def test_b2_m1_keqn_within_analytic_bound(self):
        t = tau0(2.0, 1, 4, 4)
        assert t <= 2 * math.log2(48) + 1  # ~12.17
        assert t >= 1

    def test_large_b_small(self):
        assert tau0(1e6, 1, 3, 3) <= 3

    def test_scan_limit_near_b_one(self):
        # about 1.4/log(b) indices: 1.4e5 at b = 1 + 1e-5, past the limit of 1e6 at 1 + 1e-6
        assert tau0(1.00001, 1, 2, 1) == 696135
        for b in (1.000001, 1 + 1e-9):
            with pytest.raises(InvalidConfigError, match=f"b={b!r}"):
                tau0(b, 1, 2, 1)

    def test_moderate_grid_respects_prop5_bound(self):
        for b in (1.3, 1.7, 2.0, 2.5, 3.5):
            for m in (1, 2, 4):
                for ratio in (1, 2, 4, 8):
                    t = tau0(b, m, 8 * ratio, 8)
                    bound = 2 * math.log(16 * m * (ratio + 2)) / math.log(b) + 1
                    assert t <= bound


class TestProjectedLinucbBound:
    def test_frozen_fixture(self):
        got = projected_linucb_bound(10_000, 2, 1.0, 1e-4)
        assert got == pytest.approx(PROJ_BOUND_1E4, rel=1e-12)

    def test_sublinear_growth(self):
        for T in (1000, 4000, 16_000):
            a = projected_linucb_bound(T, 2, 1.0, 1.0 / T)
            b = projected_linucb_bound(4 * T, 2, 1.0, 1.0 / (4 * T))
            assert a < b <= 2.5 * a

    def test_monotone_in_T(self):
        vals = [projected_linucb_bound(T, 3, 1.0, 0.01) for T in (10, 100, 1000)]
        assert vals == sorted(vals)


class TestTheorem1Bound:
    def inputs(self, **kw):
        base = dict(T=20_000, d=24, m=2, K=12, N=4, b=2.0, lam=1.0,
                    delta=1.0 / 20_000, S=1.0, Delta=0.5, spread_moment=300.0)
        base.update(kw)
        return BoundInputs(**base)

    def test_t1_exploration_term(self):
        inp = self.inputs(T=1)
        br = theorem1_bound(inp, tau0(2.0, 2, 12, 4))
        # h_{b,1} = b: log_b h = 1 and (sqrt(h)-1)/(sqrt(b)-1) = 1
        assert br.exploration == pytest.approx(2 * 16 * 2 * (12 / 4 + 2), rel=1e-12)

    def test_components_nonnegative_and_additive(self):
        br = theorem1_bound(self.inputs(), tau0(2.0, 2, 12, 4))
        assert br.projected_linucb >= 0
        assert br.communication >= 0
        assert br.exploration >= 0
        assert br.total == pytest.approx(
            br.projected_linucb + br.communication + br.exploration, rel=1e-12
        )

    def test_exploration_monotone_nonincreasing_in_N(self):
        e = [
            theorem1_bound(self.inputs(N=n), tau0(2.0, 2, 12, n)).exploration
            for n in (2, 4, 6, 12)
        ]
        assert all(b <= a for a, b in zip(e, e[1:]))

    def test_communication_formula_direct(self):
        inp = self.inputs()
        t = tau0(2.0, 2, 12, 4)
        br = theorem1_bound(inp, t)
        want = 2 * g_of_b(2.0) * (
            math.ceil(2.0 ** (2 * t))
            + (48 * 8 / math.log(2.0)) * (2**4 * 4 / 0.5**6)
            + 2.0 * 300.0
        )
        assert br.communication == pytest.approx(want, rel=1e-12)

    def test_invalid_inputs(self):
        with pytest.raises(InvalidConfigError):
            self.inputs(Delta=0.0)
        with pytest.raises(InvalidConfigError):
            self.inputs(delta=1.5)
        with pytest.raises(InvalidConfigError):
            self.inputs(b=1.0)

    @pytest.mark.parametrize("gap", [float("nan"), float("inf")])
    def test_gap_must_be_positive_and_finite(self, gap):
        with pytest.raises(InvalidConfigError, match="gap must be positive and finite"):
            self.inputs(Delta=gap)

    @pytest.mark.parametrize("moment", [float("nan"), float("inf"), -4.0, 0.5])
    def test_spread_moment_must_be_finite_and_at_least_one(self, moment):
        # E[b^(2 tau)] >= 1, since tau >= 0 and b > 1
        with pytest.raises(InvalidConfigError, match="spread moment"):
            self.inputs(spread_moment=moment)
        assert self.inputs(spread_moment=1.0).spread_moment == 1.0


class TestSingleAgentBound:
    def inputs(self, **kw):
        base = dict(T=20_000, d=24, m=2, K=12, N=1, b=2.0, lam=1.0,
                    delta=1.0 / 20_000, S=1.0, Delta=0.5)
        base.update(kw)
        return BoundInputs(**base)

    def test_exploration_linear_in_K(self):
        e1 = single_agent_bound(self.inputs(K=6)).exploration
        e2 = single_agent_bound(self.inputs(K=12)).exploration
        assert e2 == pytest.approx(2 * e1, rel=1e-12)

    def test_search_constant_k1(self):
        br = single_agent_bound(self.inputs(K=1, m=1, Delta=0.5))
        want = 2 * g_of_b(2.0) * (
            math.ceil(2.0 * (16 * 1 * 1) ** 2) + (8 * 4 / math.log(2.0)) * (1 / 0.25)
        )
        assert br.communication == pytest.approx(want, rel=1e-12)

    def test_exceeds_multi_agent_bound_at_fig1_config(self):
        multi = theorem1_bound(
            BoundInputs(T=20_000, d=24, m=2, K=12, N=4, b=2.0, lam=1.0,
                        delta=5e-5, S=1.0, Delta=0.5, spread_moment=300.0),
            tau0(2.0, 2, 12, 4),
        )
        single = single_agent_bound(self.inputs())
        assert single.exploration > multi.exploration


class TestLemmaTails:
    def test_frozen_count_fixture(self):
        assert lemma2_tail_count(0.5, 2, 64) == pytest.approx(LEMMA2_COUNT, rel=1e-12)

    def test_huge_eps_vanishes(self):
        assert lemma2_tail_count(50.0, 2, 64) < 1e-200

    def test_n0_vacuous(self):
        assert lemma2_tail_count(0.5, 2, 0) == pytest.approx(4.0)

    def test_phase_form(self):
        # at n = 8m b^((j-1)/2) explore samples the tail is the phase-indexed
        # 2m exp(-(4 eps^2/m) b^((j-1)/2)); here m=2, b=3, j=3
        got = lemma2_tail_count(0.5, 2, 8 * 2 * 3.0)
        assert got == pytest.approx(4 * math.exp(-(4 * 0.25 / 2) * 3.0), rel=1e-12)

    def test_lemma3_form(self):
        got = lemma3_tail(0.4, 2, 2.0, 5)
        assert got == pytest.approx(4 * 2 * math.exp(-(0.16 / 2) * 4.0), rel=1e-12)

    def test_lemma3_vs_lemma2_at_half_gap(self):
        # proof-step relation: lemma3(Delta) <= 2 * lemma2(Delta/2) at the
        # n = 8m b^((j-1)/2) explore samples of phase j
        for Delta in (0.2, 0.5, 1.0):
            for j in (1, 4, 9):
                n = 8 * 2 * 2.0 ** ((j - 1) / 2)
                assert lemma3_tail(Delta, 2, 2.0, j) <= 2 * lemma2_tail_count(
                    Delta / 2, 2, n
                ) + 1e-15


def test_pure_functions_bit_identical():
    a = theorem1_bound(
        BoundInputs(T=12_345, d=24, m=2, K=12, N=4, b=2.0, lam=1.0,
                    delta=1e-4, S=1.0, Delta=0.37, spread_moment=123.4),
        tau0(2.0, 2, 12, 4),
    )
    b = theorem1_bound(
        BoundInputs(T=12_345, d=24, m=2, K=12, N=4, b=2.0, lam=1.0,
                    delta=1e-4, S=1.0, Delta=0.37, spread_moment=123.4),
        tau0(2.0, 2, 12, 4),
    )
    assert a.total == b.total
    assert np.float64(a.projected_linucb) == np.float64(b.projected_linucb)
