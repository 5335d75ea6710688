"""Two-qubit statevector simulator and the tilted Bell-inequality family.

The tilted family interpolates between CHSH (alpha = 0) and a trivial
inequality saturated by product states (alpha = 2):

    alpha <A0> + <A0 B0> + <A1 B0> + <A0 B1> - <A1 B1> <= alpha + 2

with quantum maximum sqrt(8 + 2 alpha^2), reached by a partially entangled
state whose entanglement shrinks as alpha grows.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import Behavior, BellFunctional, Scenario, INTERNAL_TOL, _freeze
from .errors import DomainError, MeasurementError, ShapeMismatchError

_PROJECTOR_TOL = 1e-10


@dataclass(frozen=True, eq=False)
class TwoQubitState:
    """Pure state on two qubits, amplitudes ordered |00>, |01>, |10>, |11>."""

    amplitudes: np.ndarray

    def __post_init__(self):
        amps = _freeze(self, "amplitudes", self.amplitudes, (4,), dtype=complex)
        norm = np.vdot(amps, amps).real
        if abs(norm - 1.0) > 1e-12:
            raise DomainError(f"state norm^2 = {norm!r}, not 1")


@dataclass(frozen=True, eq=False)
class Measurement:
    """Two-outcome projective measurement on one qubit.

    ``projectors[a]`` is the rank-1 projector for outcome a; the pair must
    be idempotent and sum to the identity.
    """

    projectors: np.ndarray

    def __post_init__(self):
        proj = _freeze(self, "projectors", self.projectors, (2, 2, 2), dtype=complex)
        # Both projectors at once; per projector a, the largest deviation.
        idempotent = np.abs(proj @ proj - proj).max(axis=(1, 2)) <= _PROJECTOR_TOL
        hermitian = np.abs(proj - proj.conj().transpose(0, 2, 1)).max(axis=(1, 2)) <= _PROJECTOR_TOL
        for a in range(2):
            if not idempotent[a]:
                raise MeasurementError(f"projector {a} is not idempotent")
            if not hermitian[a]:
                raise MeasurementError(f"projector {a} is not Hermitian")
        if np.abs(proj.sum(axis=0) - np.eye(2)).max() > _PROJECTOR_TOL:
            raise MeasurementError("projectors do not sum to the identity")


@dataclass(frozen=True, eq=False)
class TiltedRealization:
    """Optimal state and settings for the tilted inequality at a given alpha."""

    alpha: float
    theta: float
    mu: float
    state: TwoQubitState
    meas_a: tuple[Measurement, Measurement]
    meas_b: tuple[Measurement, Measurement]


def _check_alpha(alpha: float) -> float:
    alpha = float(alpha)
    if not (np.isfinite(alpha) and 0.0 <= alpha <= 2.0):
        raise DomainError(f"alpha must lie in [0, 2], got {alpha!r}")
    return alpha


def tilted_functional(alpha: float) -> BellFunctional:
    """Tilted coefficients at m = d = 2: CHSH correlators plus an alpha <A0> term."""
    alpha = _check_alpha(alpha)
    sc = Scenario(2, 2)
    # CHSH signs over (x, y) times the parity table over (a, b).
    joint = np.multiply.outer([[1.0, 1.0], [1.0, -1.0]], [[1.0, -1.0], [-1.0, 1.0]])
    marginal_a = np.zeros(sc.marginal_shape)
    marginal_a[0] = (alpha, -alpha)
    return BellFunctional(sc, joint, marginal_a, None)


def _rotated_measurement(phi: float) -> Measurement:
    """Measurement of cos(phi) sigma_z + sin(phi) sigma_x; outcome 0 is the +1 eigenvector."""
    plus = np.array([np.cos(phi / 2), np.sin(phi / 2)], dtype=complex)
    minus = np.array([-np.sin(phi / 2), np.cos(phi / 2)], dtype=complex)
    return Measurement(np.stack([np.outer(plus, plus.conj()), np.outer(minus, minus.conj())]))


def tilted_realization(alpha: float) -> TiltedRealization:
    """Maximally violating state and settings for the tilted inequality."""
    alpha = _check_alpha(alpha)
    t = np.sqrt((1.0 - (alpha / 2) ** 2) / (1.0 + (alpha / 2) ** 2))
    theta = 0.5 * np.arcsin(t)
    mu = np.arctan(t)
    state = TwoQubitState(np.array([np.cos(theta), 0.0, 0.0, np.sin(theta)], dtype=complex))
    meas_a = (_rotated_measurement(0.0), _rotated_measurement(np.pi / 2))
    meas_b = (_rotated_measurement(mu), _rotated_measurement(-mu))
    return TiltedRealization(alpha, float(theta), float(mu), state, meas_a, meas_b)


def born_behavior(
    state: TwoQubitState,
    meas_a: tuple[Measurement, ...] | list[Measurement],
    meas_b: tuple[Measurement, ...] | list[Measurement],
) -> Behavior:
    """Behavior p(ab|xy) = <psi| Pi_a^x tensor Pi_b^y |psi> from the Born rule."""
    if len(meas_a) != len(meas_b):
        raise ShapeMismatchError(
            f"need equally many settings per party, got {len(meas_a)} and {len(meas_b)}"
        )
    sc = Scenario(len(meas_a), 2)
    # psi[i, k]: amplitude of Alice's qubit in |i>, Bob's in |k>.
    psi = state.amplitudes.reshape(2, 2)
    proj_a = np.stack([m.projectors for m in meas_a])
    proj_b = np.stack([m.projectors for m in meas_b])
    p = np.einsum("ik,xaij,ybkl,jl->xyab", psi.conj(), proj_a, proj_b, psi).real
    return Behavior(sc, p, tol=INTERNAL_TOL)


def tilted_behavior(alpha: float) -> Behavior:
    """Born-rule behavior of the ideal tilted realization."""
    r = tilted_realization(alpha)
    return born_behavior(r.state, r.meas_a, r.meas_b)


def concurrence(theta: float) -> float:
    """Concurrence sin(2 theta) of cos(theta)|00> + sin(theta)|11>."""
    return float(np.sin(2.0 * theta))


def alpha_for_concurrence(c: float) -> float:
    """Tilt parameter whose optimal state has the given concurrence."""
    c = float(c)
    if not (0.0 <= c <= 1.0):
        raise DomainError(f"concurrence must lie in [0, 1], got {c!r}")
    return 2.0 * np.sqrt((1.0 - c**2) / (1.0 + c**2))


def tilted_constants(alpha: float) -> tuple[float, float]:
    """(LHV bound alpha + 2, quantum maximum sqrt(8 + 2 alpha^2))."""
    alpha = _check_alpha(alpha)
    return alpha + 2.0, float(np.sqrt(8.0 + 2.0 * alpha**2))
