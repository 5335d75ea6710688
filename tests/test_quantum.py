"""Tests for the two-qubit Born-rule simulator and the tilted inequality family."""

import numpy as np
import pytest

from bellgap import (
    DomainError,
    Measurement,
    MeasurementError,
    ShapeMismatchError,
    TwoQubitState,
    ValidationError,
    alpha_for_concurrence,
    born_behavior,
    concurrence,
    evaluate,
    lhv_bound,
    ns_residual,
    tilted_behavior,
    tilted_constants,
    tilted_functional,
    tilted_realization,
)

ALPHAS = [0.0, 0.4, 1.0, 1.5, 1.9, 2.0]


def bloch_measurement(phi: float) -> Measurement:
    """Projectors of cos(phi) sigma_z + sin(phi) sigma_x, built from the operator."""
    op = np.cos(phi) * np.diag([1.0, -1.0]) + np.sin(phi) * np.array([[0.0, 1.0], [1.0, 0.0]])
    eye = np.eye(2)
    return Measurement(np.stack([(eye + op) / 2.0, (eye - op) / 2.0]).astype(complex))


def density_matrix_behavior(state, meas_a, meas_b):
    """Independent Born-rule route via the density matrix: p = tr(rho Pi_a x Pi_b)."""
    rho = np.outer(state.amplitudes, state.amplitudes.conj())
    m = len(meas_a)
    p = np.empty((m, m, 2, 2))
    for x in range(m):
        for y in range(m):
            for a in range(2):
                for b in range(2):
                    op = np.kron(meas_a[x].projectors[a], meas_b[y].projectors[b])
                    p[x, y, a, b] = np.trace(rho @ op).real
    return p


class TestTwoQubitState:
    def test_rejects_unnormalized(self):
        with pytest.raises(DomainError):
            TwoQubitState(np.array([1.0, 1.0, 0.0, 0.0]))

    def test_rejects_wrong_shape(self):
        with pytest.raises(ShapeMismatchError):
            TwoQubitState(np.array([1.0, 0.0]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
    def test_rejects_non_finite_amplitudes(self, bad):
        # The norm test alone passes nan: abs(nan - 1) > tol is False.
        with pytest.raises(ValidationError, match="amplitudes: entries must be finite"):
            TwoQubitState(np.array([bad, 0.0, 0.0, 0.0]))

    def test_amplitudes_are_frozen(self):
        state = TwoQubitState(np.array([1.0, 0.0, 0.0, 0.0]))
        with pytest.raises(ValueError):
            state.amplitudes[0] = 0.0


class TestMeasurement:
    def test_rejects_non_idempotent(self):
        proj = np.stack([0.5 * np.eye(2), 0.5 * np.eye(2)]).astype(complex)
        with pytest.raises(MeasurementError):
            Measurement(proj)

    def test_rejects_non_hermitian(self):
        p0 = np.array([[1.0, 1.0], [0.0, 0.0]], dtype=complex)  # idempotent, not Hermitian
        p1 = np.eye(2) - p0
        with pytest.raises(MeasurementError):
            Measurement(np.stack([p0, p1]))

    def test_rejects_incomplete(self):
        p0 = np.diag([1.0, 0.0]).astype(complex)
        with pytest.raises(MeasurementError):
            Measurement(np.stack([p0, p0]))

    def test_rejects_wrong_shape(self):
        with pytest.raises(ShapeMismatchError):
            Measurement(np.eye(2, dtype=complex))

    def test_rejects_nan_projectors(self):
        # Every projector test compares a nan residual, which is never above the tolerance.
        with pytest.raises(ValidationError, match="projectors: entries must be finite"):
            Measurement(np.full((2, 2, 2), np.nan, dtype=complex))

    def test_accepts_rotated_projectors(self):
        m = bloch_measurement(0.7)
        np.testing.assert_allclose(m.projectors.sum(axis=0), np.eye(2), atol=1e-14)


class TestTiltedFunctional:
    def test_coefficients(self):
        f = tilted_functional(1.3)
        signs = np.array([[1.0, -1.0], [-1.0, 1.0]])
        for x in range(2):
            for y in range(2):
                expect = -signs if x == 1 and y == 1 else signs
                np.testing.assert_array_equal(f.joint[x, y], expect)
        np.testing.assert_array_equal(f.marginal_a, [[1.3, -1.3], [0.0, 0.0]])
        assert not f.marginal_b.any()

    def test_alpha_zero_is_joint_only(self):
        assert tilted_functional(0.0).is_joint_only

    @pytest.mark.parametrize("alpha", [-0.1, 2.1, np.nan, np.inf])
    def test_alpha_outside_range_rejected(self, alpha):
        with pytest.raises(DomainError):
            tilted_functional(alpha)


class TestTiltedConstants:
    def test_chsh_endpoint(self):
        lhv, quantum = tilted_constants(0.0)
        assert lhv == 2.0
        np.testing.assert_allclose(quantum, 2.0 * np.sqrt(2.0), rtol=1e-15)

    def test_trivial_endpoint_closes_the_gap(self):
        lhv, quantum = tilted_constants(2.0)
        np.testing.assert_allclose(lhv, 4.0, rtol=0, atol=0)
        np.testing.assert_allclose(quantum, 4.0, rtol=1e-15)

    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_agrees_with_enumerated_lhv_bound(self, alpha):
        lhv, _ = tilted_constants(alpha)
        np.testing.assert_allclose(lhv, lhv_bound(tilted_functional(alpha)).bound, rtol=1e-13)


class TestTiltedRealization:
    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_achieves_the_quantum_maximum(self, alpha):
        q = evaluate(tilted_functional(alpha), tilted_behavior(alpha))
        np.testing.assert_allclose(q, tilted_constants(alpha)[1], rtol=1e-12)

    def test_alpha_two_is_a_product_state(self):
        r = tilted_realization(2.0)
        assert r.theta == 0.0
        np.testing.assert_allclose(r.state.amplitudes, [1.0, 0.0, 0.0, 0.0], atol=1e-15)
        b = tilted_behavior(2.0)
        np.testing.assert_allclose(b.p[0, 0, 0, 0], 1.0, rtol=1e-12)

    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_behavior_is_no_signaling(self, alpha):
        assert ns_residual(tilted_behavior(alpha)).max < 1e-12

    def test_concurrence_round_trip(self):
        for c in [0.0, 0.1931, 0.5, 0.8, 1.0]:
            alpha = alpha_for_concurrence(c)
            r = tilted_realization(alpha)
            np.testing.assert_allclose(concurrence(r.theta), c, rtol=0, atol=1e-12)

    def test_concurrence_of_singlet_angle(self):
        np.testing.assert_allclose(concurrence(np.pi / 4), 1.0, rtol=1e-15)

    def test_alpha_for_concurrence_rejects_outside_unit_interval(self):
        for c in [-0.01, 1.01]:
            with pytest.raises(DomainError):
                alpha_for_concurrence(c)


class TestBornBehavior:
    def test_matches_density_matrix_route(self):
        rng = np.random.default_rng(11)
        r = tilted_realization(0.9)
        meas_a = tuple(bloch_measurement(phi) for phi in rng.uniform(0, np.pi, 2))
        meas_b = tuple(bloch_measurement(phi) for phi in rng.uniform(0, np.pi, 2))
        b = born_behavior(r.state, meas_a, meas_b)
        np.testing.assert_allclose(b.p, density_matrix_behavior(r.state, meas_a, meas_b), atol=1e-14)

    def test_three_settings_supported(self):
        state = TwoQubitState(np.array([1.0, 0.0, 0.0, 1.0]) / np.sqrt(2.0))
        meas = tuple(bloch_measurement(phi) for phi in (0.0, 0.5, 1.1))
        b = born_behavior(state, meas, meas)
        assert b.scenario.m == 3
        assert ns_residual(b).max < 1e-12

    def test_setting_count_mismatch_rejected(self):
        state = TwoQubitState(np.array([1.0, 0.0, 0.0, 0.0]))
        meas = (bloch_measurement(0.0), bloch_measurement(1.0))
        with pytest.raises(ShapeMismatchError):
            born_behavior(state, meas, meas[:1])
