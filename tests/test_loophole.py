"""Tests for the outcome-0 canonical form and critical detection efficiencies."""

import numpy as np
import pytest

from bellgap import (
    Behavior,
    CanonicalFunctional,
    DomainError,
    EfficiencyResult,
    InfeasibleEfficiencyError,
    NoViolationError,
    Scenario,
    ShapeMismatchError,
    UnsupportedScenarioError,
    canonical_lhv_bound,
    canonical_terms,
    canonical_value,
    canonicalize,
    critical_efficiency,
    evaluate,
    frequencies,
    lhv_bound,
    poisson_sample,
    strategy_behavior,
    tilted_behavior,
    tilted_functional,
    uniform_behavior,
)
from bellgap import loophole as loophole_module

from helpers import random_functional, random_ns_behavior, signaling_behavior

CHSH = Scenario(2, 2)
SQRT2 = np.sqrt(2.0)


def closed_form_canonical_bound(cf: CanonicalFunctional) -> float:
    """Independent d = 2 maximization over outcome-0 indicator vectors.

    Deterministic strategies are indicator vectors a0, b0 in {0,1}^m with
    p(00|xy) = a0[x] b0[y]; given a0 the best b0 is chosen per setting, so
    only Alice's 2^m assignments are enumerated.
    """
    m = cf.scenario.m
    a0 = (np.arange(2**m)[:, None] >> np.arange(m)) & 1
    t = a0 @ cf.joint0 + cf.marg_b0
    return float((a0 @ cf.marg_a0 + np.maximum(t, 0.0).sum(axis=1)).max())


def chsh_canonical():
    return canonicalize(tilted_functional(0.0))


class TestCanonicalFunctionalConstruction:
    def test_rejects_more_than_two_outcomes(self):
        sc = Scenario(2, 3)
        with pytest.raises(UnsupportedScenarioError):
            CanonicalFunctional(sc, np.zeros((2, 2)), np.zeros(2), np.zeros(2), 0.0)
        with pytest.raises(UnsupportedScenarioError):
            canonicalize(random_functional(sc, np.random.default_rng(0)))

    def test_rejects_wrong_shapes(self):
        with pytest.raises(ShapeMismatchError):
            CanonicalFunctional(CHSH, np.zeros((2, 3)), np.zeros(2), np.zeros(2), 0.0)
        with pytest.raises(ShapeMismatchError):
            CanonicalFunctional(CHSH, np.zeros((2, 2)), np.zeros(3), np.zeros(2), 0.0)

    def test_rejects_bad_offset_and_scale(self):
        args = (CHSH, np.zeros((2, 2)), np.zeros(2), np.zeros(2))
        for bad in (np.inf, -np.inf, np.nan):
            with pytest.raises(DomainError):
                CanonicalFunctional(*args, bad)

    def test_arrays_are_frozen(self):
        cf = chsh_canonical()
        with pytest.raises(ValueError):
            cf.joint0[0, 0] = 9.0

    def test_efficiency_result_validation(self):
        with pytest.raises(DomainError):
            EfficiencyResult(0.5, 0.5, "both_perfect")
        with pytest.raises(DomainError):
            EfficiencyResult(0.0, 1.0, "symmetric")
        with pytest.raises(DomainError):
            EfficiencyResult(1.2, 1.0, "symmetric")


class TestCanonicalize:
    @pytest.mark.parametrize("alpha", [0.0, 0.7, 1.5, 2.0])
    def test_tilted_coefficients(self, alpha):
        # 4 times the paper's coefficients; the offset is not scaled.
        cf = canonicalize(tilted_functional(alpha))
        np.testing.assert_allclose(cf.joint0, 4.0 * np.array([[1.0, 1.0], [1.0, -1.0]]), atol=1e-15)
        np.testing.assert_allclose(cf.marg_a0, 4.0 * np.array([alpha / 2.0 - 1.0, 0.0]), atol=1e-15)
        np.testing.assert_allclose(cf.marg_b0, 4.0 * np.array([-1.0, 0.0]), atol=1e-15)
        np.testing.assert_allclose(cf.offset, 2.0 - alpha, atol=1e-15)

    @pytest.mark.parametrize("seed", range(6))
    def test_reconstructs_values_on_no_signaling_behaviors(self, seed):
        rng = np.random.default_rng(900 + seed)
        f = random_functional(CHSH, rng, scale=2.0)
        cf = canonicalize(f)
        for _ in range(5):
            b = random_ns_behavior(CHSH, rng, include_quantum=True)
            np.testing.assert_allclose(
                canonical_value(cf, b), evaluate(f, b), rtol=1e-10, atol=1e-10
            )

    def test_reconstruction_breaks_on_signaling_input(self):
        # The outcome-1 elimination is valid only without signaling.
        rng = np.random.default_rng(10)
        f = random_functional(CHSH, rng)
        b = signaling_behavior(CHSH, rng)
        cf = canonicalize(f)
        assert abs(canonical_value(cf, b) - evaluate(f, b)) > 1e-4


class TestCanonicalTerms:
    def test_chsh_ideal_contributions(self):
        j, a, b = canonical_terms(chsh_canonical(), tilted_behavior(0.0))
        np.testing.assert_allclose(j, 4.0 * (1.0 + SQRT2) / 2.0, rtol=1e-12)
        np.testing.assert_allclose(a, 4.0 * -0.5, rtol=1e-12)
        np.testing.assert_allclose(b, 4.0 * -0.5, rtol=1e-12)

    def test_value_recovers_quantum_maximum(self):
        np.testing.assert_allclose(
            canonical_value(chsh_canonical(), tilted_behavior(0.0)), 2.0 * SQRT2, rtol=1e-12
        )

    def test_scenario_mismatch_rejected(self):
        with pytest.raises(ShapeMismatchError):
            canonical_terms(chsh_canonical(), uniform_behavior(Scenario(3, 2)))


class TestCanonicalLhvBound:
    @pytest.mark.parametrize("alpha", [0.0, 0.5, 1.0, 1.5, 2.0])
    def test_tilted_bound_is_half_alpha(self, alpha):
        # alpha / 2 for the paper's coefficients, a quarter of the canonical form's.
        cf = canonicalize(tilted_functional(alpha))
        np.testing.assert_allclose(canonical_lhv_bound(cf), 4.0 * (alpha / 2.0), atol=1e-13)

    @pytest.mark.parametrize("seed", range(6))
    def test_affine_relation_to_the_original_bound(self, seed):
        rng = np.random.default_rng(910 + seed)
        f = random_functional(CHSH, rng)
        cf = canonicalize(f)
        reconstructed = canonical_lhv_bound(cf) + cf.offset
        np.testing.assert_allclose(reconstructed, lhv_bound(f).bound, rtol=1e-10)

    def test_three_setting_scenario(self):
        rng = np.random.default_rng(911)
        f = random_functional(Scenario(3, 2), rng)
        cf = canonicalize(f)
        np.testing.assert_allclose(
            canonical_lhv_bound(cf) + cf.offset, lhv_bound(f).bound, rtol=1e-10
        )

    def test_bound_is_never_negative(self):
        # The empty indicator pair contributes max(0, .) sums only.
        for seed in range(5):
            f = random_functional(CHSH, np.random.default_rng(920 + seed), scale=3.0)
            assert canonical_lhv_bound(canonicalize(f)) >= 0.0

    @pytest.mark.parametrize("m", [2, 3, 4, 5])
    def test_matches_closed_form_maximization(self, m):
        rng = np.random.default_rng(930 + m)
        for _ in range(5):
            cf = CanonicalFunctional(
                Scenario(m, 2), rng.uniform(-2, 2, (m, m)), rng.uniform(-2, 2, m),
                rng.uniform(-2, 2, m), 0.0,
            )
            np.testing.assert_allclose(
                canonical_lhv_bound(cf), closed_form_canonical_bound(cf), rtol=1e-12, atol=1e-12
            )


class TestCriticalEfficiency:
    def test_chsh_ideal_thresholds(self):
        cf = chsh_canonical()
        b = tilted_behavior(0.0)
        asym = critical_efficiency(cf, b, "asymmetric_b_perfect")
        np.testing.assert_allclose(asym.eta_a, 1.0 / SQRT2, rtol=1e-12)
        assert asym.eta_b == 1.0
        sym = critical_efficiency(cf, b, "symmetric")
        np.testing.assert_allclose(sym.eta_a, 2.0 / (1.0 + SQRT2), rtol=1e-12)
        assert sym.eta_a == sym.eta_b

    @pytest.mark.parametrize("alpha", [0.0, 0.6, 1.2, 1.8])
    def test_thresholds_solve_their_equations(self, alpha):
        cf = canonicalize(tilted_functional(alpha))
        b = tilted_behavior(alpha)
        j, ta, tb = canonical_terms(cf, b)
        c = canonical_lhv_bound(cf)
        eta_a = critical_efficiency(cf, b, "asymmetric_b_perfect").eta_a
        np.testing.assert_allclose(eta_a * (j + ta) + tb, c, atol=1e-12)
        eta = critical_efficiency(cf, b, "symmetric").eta_a
        np.testing.assert_allclose(eta**2 * j + eta * (ta + tb), c, atol=1e-12)

    @pytest.mark.parametrize("alpha", [0.0, 0.6, 1.2, 1.8])
    def test_symmetric_needs_at_least_the_asymmetric_efficiency(self, alpha):
        cf = canonicalize(tilted_functional(alpha))
        b = tilted_behavior(alpha)
        asym = critical_efficiency(cf, b, "asymmetric_b_perfect").eta_a
        sym = critical_efficiency(cf, b, "symmetric").eta_a
        assert sym >= asym - 1e-12

    def test_weaker_violation_needs_better_detectors(self):
        cf = chsh_canonical()
        ideal = tilted_behavior(0.0).p
        mix = uniform_behavior(CHSH).p
        last = 0.0
        # The violation dies at lam = 1 - 2/(2 sqrt(2)) ~ 0.293; stay below.
        for lam in [0.0, 0.1, 0.2, 0.28]:
            b = Behavior(CHSH, (1.0 - lam) * ideal + lam * mix)
            eta = critical_efficiency(cf, b, "symmetric").eta_a
            assert eta > last
            last = eta

    def test_behavior_on_the_bound_returns_unit_efficiency(self):
        f = tilted_functional(0.9)
        cf = canonicalize(f)
        vertex = lhv_bound(f).maximizers[0]
        res = critical_efficiency(cf, strategy_behavior(vertex, CHSH), "symmetric")
        assert res.eta_a == 1.0 and res.eta_b == 1.0

    def test_no_violation_is_an_error(self):
        with pytest.raises(NoViolationError):
            critical_efficiency(chsh_canonical(), uniform_behavior(CHSH), "symmetric")

    @pytest.mark.parametrize("mode", ["asymmetric_b_perfect", "symmetric"])
    def test_zero_functional_is_no_violation(self, mode):
        # Every behavior sits on the zero functional's bound, the case that
        # would otherwise give eta = 1.
        cf = CanonicalFunctional(CHSH, np.zeros((2, 2)), np.zeros(2), np.zeros(2), 0.0)
        with pytest.raises(NoViolationError, match="zero"):
            critical_efficiency(cf, tilted_behavior(0.0), mode)

    def test_unknown_mode_rejected(self):
        with pytest.raises(DomainError):
            critical_efficiency(chsh_canonical(), tilted_behavior(0.0), "both_limited")

    def test_sampled_frequencies_reproduce_the_ideal_threshold(self):
        counts = poisson_sample(tilted_behavior(0.0), 100_000, seed=31)
        b = frequencies(counts)
        res = critical_efficiency(chsh_canonical(), b, "symmetric")
        np.testing.assert_allclose(res.eta_a, 2.0 / (1.0 + SQRT2), atol=0.01)


class TestInfeasibleBranches:
    """Defensive contract checks; physical no-signaling data cannot reach these."""

    def single_setting(self, joint0, marg_a0, marg_b0):
        return CanonicalFunctional(
            Scenario(1, 2), np.array([[joint0]]), np.array([marg_a0]), np.array([marg_b0]), 0.0
        )

    def detected_behavior(self):
        p = np.zeros((1, 1, 2, 2))
        p[0, 0, 0, 0] = 1.0
        return Behavior(Scenario(1, 2), p)

    def force_bound(self, monkeypatch, value):
        monkeypatch.setattr(loophole_module, "canonical_lhv_bound", lambda cf: value)

    def test_nonpositive_asymmetric_slope(self, monkeypatch):
        cf = self.single_setting(-2.0, 1.0, 0.0)  # J + A = -1 on full detection
        self.force_bound(monkeypatch, -2.0)
        with pytest.raises(InfeasibleEfficiencyError, match="not positive"):
            critical_efficiency(cf, self.detected_behavior(), "asymmetric_b_perfect")

    def test_asymmetric_root_above_one(self, monkeypatch):
        cf = self.single_setting(1.0, 1.0, 0.0)  # slope 2, value 2
        self.force_bound(monkeypatch, -3.0)  # root (c - tb)/slope = -1.5
        with pytest.raises(InfeasibleEfficiencyError, match="outside"):
            critical_efficiency(cf, self.detected_behavior(), "asymmetric_b_perfect")

    def test_symmetric_roots_outside_unit_interval(self, monkeypatch):
        cf = self.single_setting(1.0, -4.0, 0.0)  # roots collapse at eta = 2
        self.force_bound(monkeypatch, -4.0)
        with pytest.raises(InfeasibleEfficiencyError, match="no efficiency root"):
            critical_efficiency(cf, self.detected_behavior(), "symmetric")

    def test_symmetric_negative_discriminant(self, monkeypatch):
        cf = self.single_setting(1.0, 0.0, 0.0)  # J = 1, A + B = 0
        self.force_bound(monkeypatch, -1.0)  # (A + B)^2 + 4 J C = -4
        with pytest.raises(InfeasibleEfficiencyError, match="no real root"):
            critical_efficiency(cf, self.detected_behavior(), "symmetric")

    def test_symmetric_linear_case_solves(self, monkeypatch):
        cf = self.single_setting(0.0, 1.0, 1.0)  # no eta^2 term
        self.force_bound(monkeypatch, 1.0)
        res = critical_efficiency(cf, self.detected_behavior(), "symmetric")
        np.testing.assert_allclose(res.eta_a, 0.5, rtol=1e-15)

    def test_symmetric_constant_case_is_infeasible(self, monkeypatch):
        cf = self.single_setting(0.0, 0.0, 0.0)
        self.force_bound(monkeypatch, -1.0)
        with pytest.raises(InfeasibleEfficiencyError, match="constant"):
            critical_efficiency(cf, self.detected_behavior(), "symmetric")
