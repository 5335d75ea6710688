"""Outcome-0 canonical form of two-outcome functionals and detection thresholds.

For d = 2 every probability with an outcome-1 index can be rewritten in
terms of outcome-0 quantities alone:

    p(0,1|x,y) = p_A(0|x) - p(0,0|x,y)
    p(1,0|x,y) = p_B(0|y) - p(0,0|x,y)
    p(1,1|x,y) = 1 - p_A(0|x) - p_B(0|y) + p(0,0|x,y)

on any no-signaling behavior.  Eliminating outcome 1 collects every
functional into weights on p(0,0|x,y), p_A(0|x), p_B(0|y) plus a constant
offset.  In that form a detector of efficiency eta that maps non-detections
to outcome 1 simply multiplies the outcome-0 statistics by eta, so the
efficiency at which a violation disappears solves a linear or quadratic
equation in eta.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import Behavior, BellFunctional, Scenario, _fold, _freeze, _on_bound, marginals
from .errors import (
    DomainError,
    InfeasibleEfficiencyError,
    NoViolationError,
    ShapeMismatchError,
    UnsupportedScenarioError,
)
from .lhv import make_joint_bound_oracle

EFFICIENCY_MODES = ("asymmetric_b_perfect", "symmetric")

# Roots must clear 0, and may pass 1, by this much; eta is capped at 1.
_ROOT_TOL = 1e-12


@dataclass(frozen=True, eq=False)
class CanonicalFunctional:
    """Functional reduced to outcome-0 coefficients.

    On every no-signaling behavior,

        joint0 . p(00|xy) + marg_a0 . p_A(0|x) + marg_b0 . p_B(0|y) + offset

    equals the original functional's value; ``offset`` is the constant
    term the outcome-1 elimination produces.
    """

    scenario: Scenario
    joint0: np.ndarray
    marg_a0: np.ndarray
    marg_b0: np.ndarray
    offset: float

    def __post_init__(self):
        sc = self.scenario
        if sc.d != 2:
            raise UnsupportedScenarioError(
                f"canonical form requires two outcomes, got d={sc.d}"
            )
        m = sc.m
        _freeze(self, "joint0", self.joint0, (m, m))
        _freeze(self, "marg_a0", self.marg_a0, (m,))
        _freeze(self, "marg_b0", self.marg_b0, (m,))
        if not math.isfinite(self.offset):
            raise DomainError(f"offset must be finite, got {self.offset!r}")
        object.__setattr__(self, "offset", float(self.offset))


@dataclass(frozen=True)
class EfficiencyResult:
    """Detection efficiencies at which a violation just disappears."""

    eta_a: float
    eta_b: float
    mode: str

    def __post_init__(self):
        if self.mode not in EFFICIENCY_MODES:
            raise DomainError(f"mode must be one of {EFFICIENCY_MODES}, got {self.mode!r}")
        for name in ("eta_a", "eta_b"):
            eta = getattr(self, name)
            if not (0.0 < eta <= 1.0):
                raise DomainError(f"{name} must lie in (0, 1], got {eta!r}")
            object.__setattr__(self, name, float(eta))


def canonicalize(f: BellFunctional) -> CanonicalFunctional:
    """Eliminate outcome-1 probabilities from a two-outcome functional."""
    s = f.joint
    joint0 = s[:, :, 0, 0] - s[:, :, 0, 1] - s[:, :, 1, 0] + s[:, :, 1, 1]
    marg_a0 = (
        f.marginal_a[:, 0]
        - f.marginal_a[:, 1]
        + (s[:, :, 0, 1] - s[:, :, 1, 1]).sum(axis=1)
    )
    marg_b0 = (
        f.marginal_b[:, 0]
        - f.marginal_b[:, 1]
        + (s[:, :, 1, 0] - s[:, :, 1, 1]).sum(axis=0)
    )
    offset = s[:, :, 1, 1].sum() + f.marginal_a[:, 1].sum() + f.marginal_b[:, 1].sum()
    return CanonicalFunctional(f.scenario, joint0, marg_a0, marg_b0, float(offset))


def canonical_terms(cf: CanonicalFunctional, b: Behavior) -> tuple[float, float, float]:
    """Contributions (joint, Alice marginal, Bob marginal) of b."""
    if cf.scenario != b.scenario:
        raise ShapeMismatchError(
            f"canonical scenario {cf.scenario} != behavior scenario {b.scenario}"
        )
    p_a, p_b = marginals(b)
    return (
        float(np.vdot(cf.joint0, b.p[:, :, 0, 0])),
        float(np.vdot(cf.marg_a0, p_a[:, 0])),
        float(np.vdot(cf.marg_b0, p_b[:, 0])),
    )


def canonical_value(cf: CanonicalFunctional, b: Behavior) -> float:
    """Value of the reconstructed original functional on b."""
    return sum(canonical_terms(cf, b)) + cf.offset


def canonical_lhv_bound(cf: CanonicalFunctional) -> float:
    """LHV bound of the canonical coefficients (offset removed).

    The coefficients go into the outcome-0 slots of coefficient tables whose
    other entries are zero; their folded joint table is scored by the same
    enumerator as ``lhv_bound``, through ``make_joint_bound_oracle``, which
    gives the same bound without validating a functional or listing the
    maximizers.
    """
    sc = cf.scenario
    joint = np.zeros(sc.joint_shape)
    joint[:, :, 0, 0] = cf.joint0
    marg_a, marg_b = np.zeros(sc.marginal_shape), np.zeros(sc.marginal_shape)
    marg_a[:, 0], marg_b[:, 0] = cf.marg_a0, cf.marg_b0
    return make_joint_bound_oracle(sc)(_fold(joint, marg_a, marg_b).ravel())[0]


def critical_efficiency(
    cf: CanonicalFunctional, b: Behavior, mode: str
) -> EfficiencyResult:
    """Detection efficiency at which b stops violating the canonical bound.

    An inefficient detector maps non-detections to outcome 1, which in
    canonical form multiplies p(00|xy) by eta_A eta_B and each marginal by
    its party's efficiency.  With J, A, B the canonical contributions of b
    and C the canonical bound, both modes' lossy gap is

        g(eta) = a eta^2 + lin eta - k,  with (a, lin, k) =
            (0, J + A, C - B)  asymmetric (eta_B = 1),
            (J, A + B, C)      symmetric (eta common).

    The all-outcome-1 strategy scores 0, so C >= 0, and "Alice always 1,
    Bob's best answer" is an enumerated strategy, so B <= C; hence
    g(0) = -k <= 0 < g(1) for a violating b, and the threshold is g's one
    crossing in [0, 1), (-lin + sqrt(lin^2 + 4 a k)) / (2 a), or k / lin
    when a = 0.  A behavior on the bound (core._on_bound) returns eta = 1,
    except on the zero functional, which no behavior violates.
    """
    if mode not in EFFICIENCY_MODES:
        raise DomainError(f"mode must be one of {EFFICIENCY_MODES}, got {mode!r}")
    j, ta, tb = canonical_terms(cf, b)
    value, c = j + ta + tb, canonical_lhv_bound(cf)
    if _on_bound(value, c):
        # Every behavior is on the bound 0 of the zero functional.
        if not (cf.joint0.any() or cf.marg_a0.any() or cf.marg_b0.any()):
            raise NoViolationError("the canonical functional is zero; no behavior violates it")
        return EfficiencyResult(1.0, 1.0, mode)
    if value < c:
        raise NoViolationError(
            f"behavior does not violate the canonical bound: value {value!r} <= {c!r}"
        )

    symmetric = mode == "symmetric"
    a, lin, k = (j, ta + tb, c) if symmetric else (0.0, j + ta, c - tb)
    if a == 0.0:
        eta = k / lin if lin else math.nan
    else:
        eta = (-lin + math.sqrt(max(lin * lin + 4.0 * a * k, 0.0))) / (2.0 * a)
    if not (_ROOT_TOL < eta <= 1.0 + _ROOT_TOL):
        raise InfeasibleEfficiencyError(
            f"critical efficiency {eta!r} falls outside (0, 1]: "
            f"no root of {a!r} eta^2 + {lin!r} eta - {k!r} removes the violation"
        )
    eta = min(eta, 1.0)
    return EfficiencyResult(eta, eta if symmetric else 1.0, mode)
