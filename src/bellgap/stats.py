"""Counting statistics: frequencies, Poisson sampling, error propagation, KL projection.

Coincidence counts are modeled as independent Poisson variables, so each
count carries squared error equal to itself.  The 1-sigma uncertainty of a
Bell-functional value follows by linear error propagation through the
count-to-frequency map.

The projection onto the no-signaling set minimizes a weighted negative
log-likelihood under linear equality constraints.  It is solved by a
feasible-start equality-constrained Newton method (Boyd & Vandenberghe,
*Convex Optimization*, section 10.2), started near the frequencies: every
step solves its KKT system through the Schur complement of the diagonal
Hessian, with dense LU as the guard where that is inaccurate.  Entries with
zero frequency carry a log barrier whose weight is driven to about zero
(section 11.3).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .core import (
    Behavior, BellFunctional, Scenario, INGEST_TOL, _folded_joint, _freeze, _is_integer,
    ns_residual,
)
from .errors import (
    ConvergenceError,
    DegenerateDataError,
    DomainError,
    InfiniteDivergenceError,
    ShapeMismatchError,
)

# An input whose signaling residual is already below the projection
# contract is its own projection.
_NS_PASSTHROUGH = 1e-8

# Newton steps allowed per centering; the centerings seen take 6 to 30.
_NEWTON_MAX_ITERS = 100

# Below this squared Newton decrement (in units of the total weight, 1) the
# iterate is in the quadratic phase: steps are taken in full, without the
# sufficient-decrease test, which rounding would fail there.
_NEWTON_TOL = 1e-12

# A Schur-complement Newton step is accepted when its KKT residual is within
# this fraction of the equation's scale, max |w / p| + max |a_eq^T nu| (which
# bounds max |H dp|), after at most this many refinements with the same
# Cholesky factor; otherwise the step is solved by dense LU.
_KKT_RESIDUAL = 1e-14
_KKT_REFINEMENTS = 3

# The warm start keeps every entry at least this fraction of the uniform
# value 1 / d^2 (blending toward uniform where the frequencies are lower).
_START_FLOOR = 1e-3

# Log-barrier weights on entries whose frequency weight is zero, as
# multiples of the mean entry weight, one centering each.  At the last one
# the barrier leaves the objective at most 1e-14 above its minimum (the
# duality gap of B&V section 11.2: barrier weight times the number of
# entries it covers).  Lower weights pin those entries so close to zero
# that the KKT matrix became exactly singular on some sparse samples.
_BARRIER_WEIGHTS = (1e-2, 1e-5, 1e-8, 1e-11, 1e-14)

# Frequencies divide by block totals in float64, which is exact up to 2**53.
_MAX_COUNT = 2**53


@dataclass(frozen=True, eq=False)
class CountTable:
    """Nonnegative integer coincidence counts c(ab|xy)."""

    scenario: Scenario
    c: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.c)  # _freeze stores a copy
        if c.shape != self.scenario.joint_shape:
            raise ShapeMismatchError(
                f"c: expected shape {self.scenario.joint_shape}, got {c.shape}"
            )
        if not np.all(np.isfinite(c.astype(float))):
            raise DomainError("c: counts must be finite")
        if np.any(c != np.floor(c)) or c.min() < 0:
            raise DomainError("c: counts must be nonnegative integers")
        if c.max() > _MAX_COUNT:
            raise DomainError(f"c: a count exceeds 2**53 = {_MAX_COUNT}")
        c = _freeze(self, "c", c, self.scenario.joint_shape, dtype=np.int64)
        if c.sum(axis=(2, 3), dtype=object).max() > _MAX_COUNT:  # exact: int64 could wrap
            raise DomainError(f"c: a block total exceeds 2**53 = {_MAX_COUNT}")

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
    if n_per_setting > _MAX_COUNT:
        raise DomainError(f"n_per_setting exceeds 2**53 = {_MAX_COUNT}, got {n_per_setting!r}")
    if not (_is_integer(seed) and seed >= 0):
        raise DomainError(f"seed must be a nonnegative integer, got {seed!r}")
    rng = np.random.default_rng(seed)
    return CountTable(b.scenario, rng.poisson(int(n_per_setting) * b.p))


def error_propagation(f: BellFunctional, counts: CountTable) -> ErrorReport:
    """Functional value on the frequencies and its 1-sigma Poisson error.

    Linear propagation: dQ/dc(ab|xy) is the coefficient centered on its
    frequency-weighted block mean, divided by the block total N(x, y).
    """
    if f.scenario != counts.scenario:
        raise ShapeMismatchError(
            f"functional scenario {f.scenario} != counts scenario {counts.scenario}"
        )
    totals = counts.block_totals().astype(float)[:, :, None, None]
    freq = counts.c / totals
    e = _folded_joint(f)
    partials = (e - (e * freq).sum(axis=(2, 3), keepdims=True)) / totals
    partials.setflags(write=False)
    delta_q = float(np.sqrt((partials**2 * counts.c).sum()))
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


@lru_cache(maxsize=None)
def _ns_constraint_matrix(sc: Scenario) -> tuple[np.ndarray, np.ndarray]:
    """Stacked equality rows: block normalization and equal cross-party marginals.

    Cached per scenario; both arrays are read-only.
    """
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
    a_eq, b_eq = np.array(rows), np.array(targets)
    a_eq.setflags(write=False)
    b_eq.setflags(write=False)
    return a_eq, b_eq


def _kkt_step(p: np.ndarray, w: np.ndarray, a_eq: np.ndarray, r: np.ndarray) -> np.ndarray:
    """Newton step dp of _center: the solution of

        [H     a_eq^T] [dp]   [w / p]
        [a_eq  0     ] [nu] = [r    ],    H = diag(w / p^2).

    H is diagonal, so nu solves the Schur complement system
    (a_eq H^-1 a_eq^T) nu = a_eq p - r by Cholesky and dp = p - H^-1 a_eq^T nu,
    which satisfies the first block row to rounding.  Entries the barrier
    pins near zero make the Schur matrix ill-conditioned, so the second
    block row's residual is checked and refined with the same factor, and
    a step whose residual stays above _KKT_RESIDUAL of the equation's
    scale, or whose Schur matrix is not numerically positive definite, is
    solved by dense LU on the full system instead (with neither guard a
    zero-count optimality test of ``ns_project`` fails).  An exactly
    singular KKT matrix raises ConvergenceError.
    """
    from scipy.linalg.blas import dsyrk  # here, so importing bellgap loads no scipy
    from scipy.linalg.lapack import dgesv, dpotrf, dpotrs
    h_inv = p * p / w
    g = w / p
    # dsyrk forms the upper triangle from the transposed, Fortran-ordered factor.
    chol, info = dpotrf(dsyrk(1.0, (a_eq * np.sqrt(h_inv)).T, trans=1))
    if not info:
        at_nu = a_eq.T @ dpotrs(chol, a_eq @ p - r)[0]
        dp = p - h_inv * at_nu
        tol = _KKT_RESIDUAL * (g.max() + np.abs(at_nu).max())
        for refinement in range(_KKT_REFINEMENTS + 1):
            res = r - a_eq @ dp
            if np.abs(res).max() <= tol:
                return dp
            if refinement < _KKT_REFINEMENTS:
                dp += h_inv * (a_eq.T @ dpotrs(chol, res)[0])
    n = p.size
    kkt = np.zeros((n + r.size, n + r.size))
    kkt[:n, n:] = a_eq.T
    kkt[n:, :n] = a_eq
    kkt[np.arange(n), np.arange(n)] = 1.0 / h_inv
    _, _, sol, info = dgesv(kkt, np.concatenate([g, r]))
    if info:
        raise ConvergenceError(f"projection stalled: KKT system singular at pivot {info}")
    return sol[:n]


def _center(p: np.ndarray, w: np.ndarray, a_eq: np.ndarray, b_eq: np.ndarray) -> np.ndarray:
    """Minimize -w . log(p) subject to a_eq p = b_eq by Newton's method, from p > 0.

    Each step is the solution dp of _kkt_step's KKT system, whose
    right-hand side b_eq - a_eq p keeps rounding drift off the constraints
    (B&V Algorithm 10.1).  Backtracking halves the step until p stays
    positive and, outside the quadratic phase, the objective falls by a
    quarter of the decrement's prediction.  In the quadratic phase full
    steps continue while the squared Newton decrement w . (dp / p)^2 still
    falls, so the divergence is not left a few ulps above its minimum.
    """
    last = np.inf
    for _ in range(_NEWTON_MAX_ITERS):
        rel = _kkt_step(p, w, a_eq, b_eq - a_eq @ p) / p
        dec = float(w @ rel**2)
        if dec < _NEWTON_TOL and dec >= last:
            break
        # The objective falls by w . log1p(t * rel) along the step, computed
        # without cancellation.
        t = 1.0
        while np.any(t * rel <= -1.0) or (
            dec >= _NEWTON_TOL and w @ np.log1p(t * rel) < 0.25 * t * dec
        ):
            t *= 0.5
        p = p * (1.0 + t * rel)
        last = dec
    return p


def _warm_start(f: np.ndarray, a_eq: np.ndarray, b_eq: np.ndarray, uniform: float) -> np.ndarray:
    """Feasible start for _center near the frequencies f.

    The Euclidean projection f - a_eq^T (a_eq a_eq^T)^-1 (a_eq f - b_eq) is
    feasible; it is blended toward the uniform behavior, also feasible, just
    enough to lift every entry to _START_FLOOR * uniform.
    """
    p = f - a_eq.T @ np.linalg.solve(a_eq @ a_eq.T, a_eq @ f - b_eq)
    floor = _START_FLOOR * uniform
    low = p.min()
    if low < floor:
        theta = (floor - low) / (uniform - low)
        p = (1.0 - theta) * p + theta * uniform
    return p


def ns_project(f: Behavior) -> Behavior:
    """Closest no-signaling behavior to f in kl_divergence(f, .).

    Minimizing the divergence over p is minimizing -sum w log p, with w the
    setting-weighted frequencies, subject to block normalization and equal
    cross-party marginals.  The objective is convex, so the Newton method of
    ``_center`` (Boyd & Vandenberghe, *Convex Optimization*, section 10.2),
    started at the feasible point of ``_warm_start``, reaches the global
    minimum.  Entries where w vanishes give the Hessian no curvature and
    would make the KKT matrix singular; they carry a log barrier instead,
    whose weight is lowered from 1e-2 to 1e-14 of the mean weight over five
    centerings (B&V section 11.3), each started where the previous one
    ended.  A result that still signals above 1e-8 raises
    ConvergenceError with that result as ``best``.
    """
    if ns_residual(f).max <= _NS_PASSTHROUGH:
        return f
    sc = f.scenario
    w = (f.setting_weights[:, :, None, None] * f.p).ravel()
    zero = w == 0.0
    a_eq, b_eq = _ns_constraint_matrix(sc)
    p = _warm_start(f.p.ravel(), a_eq, b_eq, 1.0 / sc.d**2)
    for barrier in _BARRIER_WEIGHTS if zero.any() else (0.0,):
        p = _center(p, np.where(zero, barrier * w.mean(), w), a_eq, b_eq)
    p_hat = np.clip(p.reshape(sc.joint_shape), 0.0, 1.0)
    p_hat /= p_hat.sum(axis=(2, 3))[:, :, None, None]
    projected = Behavior(sc, p_hat, f.setting_weights, tol=INGEST_TOL)
    if ns_residual(projected).max > _NS_PASSTHROUGH:
        raise ConvergenceError(
            f"projection stalled at signaling residual {ns_residual(projected).max:.3e}",
            best=projected,
        )
    return projected
