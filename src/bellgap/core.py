"""Scenario-indexed tables for bipartite Bell experiments.

Conventions used throughout the package:

* joint tables are indexed ``[x][y][a][b]`` (settings first, outcomes last),
* marginal blocks are indexed ``[x][a]`` for Alice and ``[y][b]`` for Bob,
* one-party marginals are always obtained by averaging the joint table over
  the other party's settings, which is well defined whether or not the
  behavior is no-signaling.
"""

from __future__ import annotations

from dataclasses import dataclass, field, InitVar

import numpy as np

from .errors import DomainError, ShapeMismatchError, ValidationError

# Normalization tolerance for user-supplied tables; internally generated
# behaviors are validated at the tighter INTERNAL_TOL.
INGEST_TOL = 1e-9
INTERNAL_TOL = 1e-12


def _is_integer(value) -> bool:
    """True for Python and numpy integers, False for booleans (True == 1 in Python)."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _freeze(obj, name: str, values, shape, dtype=float) -> np.ndarray:
    """Store a read-only copy of values as the field obj.name and return it.

    The copy must have the given shape and finite entries.
    """
    arr = np.array(values, dtype=dtype, copy=True)
    if arr.shape != shape:
        raise ShapeMismatchError(f"{name}: expected shape {shape}, got {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValidationError(f"{name}: entries must be finite")
    arr.setflags(write=False)
    object.__setattr__(obj, name, arr)
    return arr


@dataclass(frozen=True)
class Scenario:
    """Bipartite scenario with ``m`` settings and ``d`` outcomes per party."""

    m: int
    d: int

    def __post_init__(self):
        if not (_is_integer(self.m) and self.m >= 1):
            raise DomainError(f"m must be a positive integer, got {self.m!r}")
        if not (_is_integer(self.d) and self.d >= 2):
            raise DomainError(f"d must be an integer >= 2, got {self.d!r}")
        object.__setattr__(self, "m", int(self.m))
        object.__setattr__(self, "d", int(self.d))

    @property
    def joint_shape(self) -> tuple[int, int, int, int]:
        return (self.m, self.m, self.d, self.d)

    @property
    def marginal_shape(self) -> tuple[int, int]:
        return (self.m, self.d)


@dataclass(frozen=True, eq=False)
class BellFunctional:
    """Coefficients of a linear functional on behaviors.

    ``joint[x, y, a, b]`` weighs the joint probabilities; the optional
    ``marginal_a[x, a]`` and ``marginal_b[y, b]`` blocks weigh the averaged
    one-party marginals.  Coefficients may be arbitrary finite reals; the
    unit box only constrains the optimizer's search space.
    """

    scenario: Scenario
    joint: np.ndarray
    marginal_a: np.ndarray | None = None
    marginal_b: np.ndarray | None = None

    def __post_init__(self):
        sc = self.scenario
        _freeze(self, "joint", self.joint, sc.joint_shape)
        for attr in ("marginal_a", "marginal_b"):
            block = getattr(self, attr)
            _freeze(self, attr, np.zeros(sc.marginal_shape) if block is None else block,
                    sc.marginal_shape)

    @property
    def is_joint_only(self) -> bool:
        return not (self.marginal_a.any() or self.marginal_b.any())


@dataclass(frozen=True, eq=False)
class Behavior:
    """Conditional probability table ``p[x, y, a, b]`` with setting weights.

    Every (x, y) block must sum to one within ``tol``.  ``setting_weights``
    gives the relative frequency of choosing each setting pair and defaults
    to uniform.
    """

    scenario: Scenario
    p: np.ndarray
    setting_weights: np.ndarray | None = None
    tol: InitVar[float] = INGEST_TOL

    def __post_init__(self, tol):
        sc = self.scenario
        p = _freeze(self, "p", self.p, sc.joint_shape)
        if p.min() < -tol or p.max() > 1 + tol:
            raise ValidationError("p: entries must lie in [0, 1]")
        block_sums = p.sum(axis=(2, 3))
        if np.abs(block_sums - 1.0).max() > tol:
            worst = np.unravel_index(np.abs(block_sums - 1.0).argmax(), block_sums.shape)
            raise ValidationError(
                f"p: block (x={worst[0]}, y={worst[1]}) sums to {block_sums[worst]!r}, not 1"
            )

        w = self.setting_weights
        if w is None:
            w = np.full((sc.m, sc.m), 1.0 / sc.m**2)
        w = _freeze(self, "setting_weights", w, (sc.m, sc.m))
        if w.min() < 0:
            raise ValidationError("setting_weights must be nonnegative")
        if abs(w.sum() - 1.0) > tol:
            raise ValidationError(f"setting_weights sum to {w.sum()!r}, not 1")


@dataclass(frozen=True)
class NsResidual:
    """Worst-case signaling of a behavior, per party.

    ``max_a_violation`` is the largest change of Alice's outcome
    distribution when Bob switches settings; ``max_b_violation`` is the
    symmetric quantity.  Both vanish iff the behavior is no-signaling.
    """

    max_a_violation: float
    max_b_violation: float

    @property
    def max(self) -> float:
        return max(self.max_a_violation, self.max_b_violation)


def uniform_behavior(scenario: Scenario) -> Behavior:
    """The maximally mixed behavior p(ab|xy) = 1/d^2."""
    p = np.full(scenario.joint_shape, 1.0 / scenario.d**2)
    return Behavior(scenario, p, tol=INTERNAL_TOL)


def marginals(behavior: Behavior) -> tuple[np.ndarray, np.ndarray]:
    """Averaged one-party marginals (p_A[x, a], p_B[y, b])."""
    m = behavior.scenario.m
    p_a = behavior.p.sum(axis=(1, 3)) / m
    p_b = behavior.p.sum(axis=(0, 2)) / m
    return p_a, p_b


def evaluate(functional: BellFunctional, behavior: Behavior) -> float:
    """Value of the functional on a behavior (joint plus marginal terms)."""
    if functional.scenario != behavior.scenario:
        raise ShapeMismatchError(
            f"functional scenario {functional.scenario} != behavior scenario {behavior.scenario}"
        )
    p_a, p_b = marginals(behavior)
    return float(
        np.vdot(functional.joint, behavior.p)
        + np.vdot(functional.marginal_a, p_a)
        + np.vdot(functional.marginal_b, p_b)
    )


def ns_residual(behavior: Behavior) -> NsResidual:
    """Largest absolute mismatch of per-setting marginals across the other party's settings."""
    # p_a_by_y[x, y, a]: Alice's outcome distribution when Bob measures y.
    p_a_by_y = behavior.p.sum(axis=3)
    a_viol = (p_a_by_y.max(axis=1) - p_a_by_y.min(axis=1)).max()
    p_b_by_x = behavior.p.sum(axis=2)
    b_viol = (p_b_by_x.max(axis=0) - p_b_by_x.min(axis=0)).max()
    return NsResidual(float(a_viol), float(b_viol))


def rescale(functional: BellFunctional, kappa: float) -> BellFunctional:
    """Multiply every coefficient block by kappa > 0."""
    if not (np.isfinite(kappa) and kappa > 0):
        raise DomainError(f"rescale factor must be positive and finite, got {kappa!r}")
    return BellFunctional(
        functional.scenario,
        kappa * functional.joint,
        kappa * functional.marginal_a,
        kappa * functional.marginal_b,
    )


def _fold(joint: np.ndarray, marg_a: np.ndarray, marg_b: np.ndarray) -> np.ndarray:
    """Per-entry weight s^{ab}_{xy} + s^a_{Ax}/m + s^b_{By}/m of each probability."""
    m = joint.shape[0]
    return joint + marg_a[:, None, :, None] / m + marg_b[None, :, None, :] / m


def _folded_joint(f: BellFunctional) -> np.ndarray:
    """The functional's coefficients folded into one joint table (``_fold``)."""
    return _fold(f.joint, f.marginal_a, f.marginal_b)


def absorb_marginals(functional: BellFunctional) -> BellFunctional:
    """Fold marginal blocks into the joint table.

    Because marginals are defined by averaging over the other party's
    settings, the returned joint-only functional evaluates identically to
    the original on every behavior.
    """
    return BellFunctional(functional.scenario, _folded_joint(functional))
