"""Counting statistics: frequencies, Poisson sampling, error propagation, KL projection.

Coincidence counts are modeled as independent Poisson variables, so each
count carries squared error equal to itself.  The 1-sigma uncertainty of a
Bell-functional value follows by linear error propagation through the
count-to-frequency map.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse
from scipy.optimize import Bounds, LinearConstraint, minimize

from .core import (
    Behavior, BellFunctional, Scenario, INGEST_TOL, _folded_joint, _is_integer, ns_residual,
)
from .errors import (
    ConvergenceError,
    DegenerateDataError,
    DomainError,
    InfiniteDivergenceError,
    ShapeMismatchError,
)

_LOG_FLOOR = 1e-300

# An input whose signaling residual is already below the projection
# contract is its own projection.
_NS_PASSTHROUGH = 1e-8


@dataclass(frozen=True, eq=False)
class CountTable:
    """Nonnegative integer coincidence counts c(ab|xy)."""

    scenario: Scenario
    c: np.ndarray

    def __post_init__(self):
        c = np.array(self.c, copy=True)
        if c.shape != self.scenario.joint_shape:
            raise ShapeMismatchError(
                f"c: expected shape {self.scenario.joint_shape}, got {c.shape}"
            )
        if not np.all(np.isfinite(c.astype(float))):
            raise DomainError("c: counts must be finite")
        if np.any(c != np.floor(c)) or c.min() < 0:
            raise DomainError("c: counts must be nonnegative integers")
        c = c.astype(np.int64)
        c.setflags(write=False)
        object.__setattr__(self, "c", c)

    def block_totals(self) -> np.ndarray:
        """Per-setting totals N(x, y); raises if any block is empty."""
        totals = self.c.sum(axis=(2, 3))
        if totals.min() <= 0:
            x, y = np.unravel_index(totals.argmin(), totals.shape)
            raise DegenerateDataError(f"block (x={x}, y={y}) has zero total counts")
        return totals


@dataclass(frozen=True, eq=False)
class ErrorReport:
    """Functional value with its propagated Poisson uncertainty.

    ``partials[x, y, a, b]`` is dQ/dc(ab|xy); ``delta_q`` equals
    sqrt(sum partials^2 * c).
    """

    q: float
    delta_q: float
    partials: np.ndarray


def frequencies(counts: CountTable) -> Behavior:
    """Relative frequencies per block, with setting weights from the block totals."""
    totals = counts.block_totals()
    p = counts.c / totals[:, :, None, None]
    return Behavior(counts.scenario, p, totals / totals.sum(), tol=INGEST_TOL)


def poisson_sample(b: Behavior, n_per_setting: int, seed: int) -> CountTable:
    """Independent Poisson counts with mean n_per_setting * p(ab|xy).

    Uses numpy's PCG64 generator and its Poisson sampler, both stable,
    documented algorithms, so a seed pins the table exactly.
    """
    if not (_is_integer(n_per_setting) and n_per_setting > 0):
        raise DomainError(f"n_per_setting must be a positive integer, got {n_per_setting!r}")
    rng = np.random.default_rng(seed)
    return CountTable(b.scenario, rng.poisson(int(n_per_setting) * b.p))


def propagate(weights: np.ndarray, freq: np.ndarray, totals: np.ndarray, counts: np.ndarray):
    """Linear Poisson error propagation of per-entry frequency weights.

    Returns (centered, partials, delta_q): the weights centered on their
    frequency-weighted block mean, the partials dQ/dc(ab|xy) = centered /
    N(x, y), and delta_q = sqrt(sum partials^2 * c).
    """
    centered = weights - (weights * freq).sum(axis=(2, 3))[:, :, None, None]
    partials = centered / totals[:, :, None, None]
    return centered, partials, float(np.sqrt((partials**2 * counts).sum()))


def error_propagation(f: BellFunctional, counts: CountTable) -> ErrorReport:
    """Functional value on the frequencies and its 1-sigma Poisson error."""
    if f.scenario != counts.scenario:
        raise ShapeMismatchError(
            f"functional scenario {f.scenario} != counts scenario {counts.scenario}"
        )
    totals = counts.block_totals().astype(float)
    freq = counts.c / totals[:, :, None, None]
    e = _folded_joint(f)
    _, partials, delta_q = propagate(e, freq, totals, counts.c)
    partials.setflags(write=False)
    return ErrorReport(float(np.vdot(e, freq)), delta_q, partials)


def kl_divergence(f: Behavior, p: Behavior) -> float:
    """Setting-weighted Kullback-Leibler divergence of f from p, in bits.

    Weights are taken from f's setting_weights; terms with f = 0
    contribute nothing.
    """
    if f.scenario != p.scenario:
        raise ShapeMismatchError(f"scenario mismatch: {f.scenario} vs {p.scenario}")
    support = f.p > 0
    if np.any(p.p[support] == 0):
        raise InfiniteDivergenceError("f puts weight where p vanishes")
    w = (f.setting_weights[:, :, None, None] * f.p)[support]
    ratio = f.p[support] / p.p[support]
    return float(w @ np.log2(ratio))


def _ns_constraint_matrix(sc: Scenario) -> tuple[np.ndarray, np.ndarray]:
    """Stacked equality rows: block normalization and equal cross-party marginals."""
    m, d = sc.m, sc.d
    n = m * m * d * d
    idx = np.arange(n).reshape(sc.joint_shape)
    rows = []
    for x in range(m):
        for y in range(m):
            r = np.zeros(n)
            r[idx[x, y].ravel()] = 1.0
            rows.append(r)
    targets = [1.0] * len(rows)
    # Alice's marginal must not depend on y, Bob's must not depend on x.
    # Outcome d-1 is skipped: its row is implied by normalization plus the
    # others, and keeping it would make the system rank-deficient.
    for x in range(m):
        for a in range(d - 1):
            for y in range(1, m):
                r = np.zeros(n)
                r[idx[x, y, a, :]] = 1.0
                r[idx[x, 0, a, :]] -= 1.0
                rows.append(r)
                targets.append(0.0)
    for y in range(m):
        for b in range(d - 1):
            for x in range(1, m):
                r = np.zeros(n)
                r[idx[x, y, :, b]] = 1.0
                r[idx[0, y, :, b]] -= 1.0
                rows.append(r)
                targets.append(0.0)
    return np.array(rows), np.array(targets)


def ns_project(f: Behavior) -> Behavior:
    """Closest no-signaling behavior to f in kl_divergence(f, .).

    The divergence is convex in its second argument over the no-signaling
    polytope, so the solver's local minimum is global.
    """
    if ns_residual(f).max <= _NS_PASSTHROUGH:
        return f
    sc = f.scenario
    n = sc.m * sc.m * sc.d * sc.d
    # Minimizing D(f||p) over p is minimizing -sum w*f*log p.
    weight = (f.setting_weights[:, :, None, None] * f.p).ravel() / np.log(2.0)
    support = weight > 0

    def fun(p):
        return -float(weight[support] @ np.log(np.maximum(p[support], _LOG_FLOOR)))

    def grad(p):
        g = np.zeros(n)
        g[support] = -weight[support] / np.maximum(p[support], _LOG_FLOOR)
        return g

    def hess(p):
        h = np.zeros(n)
        h[support] = weight[support] / np.maximum(p[support], _LOG_FLOOR) ** 2
        return scipy.sparse.diags(h)

    a_eq, b_eq = _ns_constraint_matrix(sc)
    res = minimize(
        fun,
        np.full(n, 1.0 / sc.d**2),
        jac=grad,
        hess=hess,
        method="trust-constr",
        constraints=[LinearConstraint(a_eq, b_eq, b_eq)],
        bounds=Bounds(0.0, 1.0),
        options={
            "gtol": 1e-12,
            "xtol": 1e-14,
            "barrier_tol": 1e-12,
            "maxiter": 500,
        },
    )
    p_hat = np.clip(res.x.reshape(sc.joint_shape), 0.0, 1.0)
    p_hat /= p_hat.sum(axis=(2, 3))[:, :, None, None]
    projected = Behavior(sc, p_hat, f.setting_weights, tol=INGEST_TOL)
    if ns_residual(projected).max > _NS_PASSTHROUGH:
        raise ConvergenceError(
            f"projection stalled at signaling residual {ns_residual(projected).max:.3e}",
            best=projected,
        )
    return projected
