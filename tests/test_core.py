"""Container validation and algebraic identities of the core types."""

import numpy as np
import pytest

from bellgap import (
    Behavior,
    BellFunctional,
    DomainError,
    Scenario,
    ShapeMismatchError,
    ValidationError,
    absorb_marginals,
    evaluate,
    marginals,
    ns_residual,
    rescale,
    uniform_behavior,
)
from helpers import random_functional, random_ns_behavior, signaling_behavior


class TestScenario:
    def test_shapes(self):
        sc = Scenario(2, 3)
        assert sc.joint_shape == (2, 2, 3, 3)
        assert sc.marginal_shape == (2, 3)

    def test_validation(self):
        with pytest.raises(DomainError):
            Scenario(0, 2)
        with pytest.raises(DomainError):
            Scenario(2, 1)
        with pytest.raises(DomainError):
            Scenario(1.5, 2)

    @pytest.mark.parametrize("m, d", [(True, 2), (2, True), (np.True_, 2)])
    def test_booleans_are_not_counts(self, m, d):
        with pytest.raises(DomainError):
            Scenario(m, d)

    def test_numpy_integers_accepted(self):
        sc = Scenario(np.int64(3), np.int32(2))
        assert (sc.m, sc.d) == (3, 2) and type(sc.m) is int


class TestBehavior:
    def test_uniform_blocks_normalized(self):
        b = uniform_behavior(Scenario(3, 2))
        np.testing.assert_allclose(b.p.sum(axis=(2, 3)), 1.0, atol=1e-15)
        np.testing.assert_allclose(b.setting_weights, 1.0 / 9.0)

    def test_bad_normalization_rejected(self):
        p = np.full((2, 2, 2, 2), 0.3)
        with pytest.raises(ValidationError):
            Behavior(Scenario(2, 2), p)

    def test_entries_outside_unit_interval_rejected(self):
        # Every block still sums to one; only the range check can object.
        p = np.full((2, 2, 2, 2), 0.25)
        p[0, 0, 0, 0], p[0, 0, 0, 1] = 1.5, -1.0
        with pytest.raises(ValidationError, match=r"\[0, 1\]"):
            Behavior(Scenario(2, 2), p)

    def test_negative_setting_weights_rejected(self):
        p = uniform_behavior(Scenario(2, 2)).p
        with pytest.raises(ValidationError, match="nonnegative"):
            Behavior(Scenario(2, 2), p, np.array([[0.5, 0.5], [0.25, -0.25]]))

    def test_setting_weights_must_sum_to_one(self):
        p = uniform_behavior(Scenario(2, 2)).p
        with pytest.raises(ValidationError, match="not 1"):
            Behavior(Scenario(2, 2), p, np.full((2, 2), 0.5))

    def test_tolerance_is_adjustable(self):
        p = np.full((2, 2, 2, 2), 0.25)
        p[0, 0, 0, 0] += 5e-7
        with pytest.raises(ValidationError):
            Behavior(Scenario(2, 2), p)
        Behavior(Scenario(2, 2), p, tol=1e-5)

    def test_arrays_frozen(self):
        b = uniform_behavior(Scenario(2, 2))
        with pytest.raises(ValueError):
            b.p[0, 0, 0, 0] = 0.0


class TestBellFunctional:
    def test_missing_marginals_become_zero(self):
        sc = Scenario(2, 2)
        f = BellFunctional(sc, np.ones(sc.joint_shape))
        assert f.marginal_a.shape == sc.marginal_shape
        assert not f.marginal_a.any()
        assert f.is_joint_only

    def test_joint_only_detection(self):
        sc = Scenario(2, 2)
        marg = np.zeros(sc.marginal_shape)
        marg[0, 0] = 0.5
        f = BellFunctional(sc, np.zeros(sc.joint_shape), marg, None)
        assert not f.is_joint_only

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatchError):
            BellFunctional(Scenario(2, 2), np.zeros((2, 2, 3, 3)))

    def test_nonfinite_rejected(self):
        sc = Scenario(2, 2)
        joint = np.zeros(sc.joint_shape)
        joint[0, 0, 0, 0] = np.nan
        with pytest.raises(ValidationError):
            BellFunctional(sc, joint)


class TestEvaluate:
    def test_linear_in_coefficients(self):
        sc = Scenario(2, 2)
        rng = np.random.default_rng(3)
        f1 = random_functional(sc, rng)
        f2 = random_functional(sc, rng)
        b = random_ns_behavior(sc, rng)
        summed = BellFunctional(
            sc,
            f1.joint + f2.joint,
            f1.marginal_a + f2.marginal_a,
            f1.marginal_b + f2.marginal_b,
        )
        np.testing.assert_allclose(
            evaluate(summed, b), evaluate(f1, b) + evaluate(f2, b), rtol=1e-12
        )

    def test_scenario_mismatch(self):
        rng = np.random.default_rng(4)
        f = random_functional(Scenario(2, 2), rng)
        with pytest.raises(ShapeMismatchError):
            evaluate(f, uniform_behavior(Scenario(3, 2)))

    def test_rescale(self):
        sc = Scenario(2, 2)
        rng = np.random.default_rng(5)
        f = random_functional(sc, rng)
        b = random_ns_behavior(sc, rng)
        np.testing.assert_allclose(
            evaluate(rescale(f, 2.5), b), 2.5 * evaluate(f, b), rtol=1e-12
        )
        with pytest.raises(DomainError):
            rescale(f, 0.0)
        with pytest.raises(DomainError):
            rescale(f, -1.0)

    def test_absorb_marginals_preserves_value(self):
        """Folding marginal blocks into the joint table changes no evaluation."""
        sc = Scenario(2, 2)
        rng = np.random.default_rng(6)
        for _ in range(10):
            f = random_functional(sc, rng)
            g = absorb_marginals(f)
            assert g.is_joint_only
            b = random_ns_behavior(sc, rng)
            np.testing.assert_allclose(evaluate(g, b), evaluate(f, b), rtol=1e-12)


class TestMarginals:
    def test_rows_normalized(self):
        sc = Scenario(2, 2)
        b = random_ns_behavior(sc, np.random.default_rng(7))
        p_a, p_b = marginals(b)
        np.testing.assert_allclose(p_a.sum(axis=1), 1.0, atol=1e-12)
        np.testing.assert_allclose(p_b.sum(axis=1), 1.0, atol=1e-12)


class TestNsResidual:
    def test_zero_on_vertex_mixtures(self):
        sc = Scenario(2, 2)
        b = random_ns_behavior(sc, np.random.default_rng(8))
        assert ns_residual(b).max <= 1e-12

    def test_detects_marginal_shift(self):
        sc = Scenario(2, 2)
        b = signaling_behavior(sc, np.random.default_rng(9), eps=0.02)
        res = ns_residual(b)
        # The shift moves 0.02 of Bob's outcome-0 weight in one block only.
        np.testing.assert_allclose(res.max, 0.02, atol=1e-9)
