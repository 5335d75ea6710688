"""Maximization of the error-adjusted violation ratio over Bell functionals.

The objective is

    R(s) = (Q(s) - dQ(s) + d*m) / (C(s) + d*m)

where Q is the functional's value on the measured frequencies, dQ its
propagated Poisson error, C its LHV bound, and the d*m shift keeps the
denominator away from zero.  Data admits no local model exactly when some
functional reaches R > 1.  The search runs over joint-only coefficients in
the box [-1, 1]^((dm)^2), by one of three paths:

* 2x2 counts are solved exactly.  With u = s + 1 >= 0, R is a concave
  numerator over a convex denominator, both positively homogeneous in u,
  so max R is one concave program (Charnes & Cooper 1962), and the
  solver's KKT multipliers certify an upper bound on it.
* Elsewhere a local model within SIGNIFICANCE_SDN error units of the
  frequencies, found by Wolfe's minimum-norm-point method with the LHV
  enumerator as its oracle, proves that no functional clears the
  significance gate; the zero functional is then the answer, and no search
  runs.
* Otherwise the annealed gradient search runs from independent random
  restarts, which samples max R rather than solving it.

The split has three reasons.  When m > d the box holds points with
C + dm <= 0, since a strategy can score as low as -m^2 < -dm.  Near that
boundary C + dm -> 0+ while the numerator can stay positive, so R is
unbounded above: on chained-Bell 3x2 counts (concurrence 0.582, N = 1e5 per
setting, sampling seed 77), s = -1 + 0.3003 g, with g the chained
functional shifted to be nonnegative per block, has C + dm = 0.003 and
R = 11.2.  The restart search reports R = 1.021 there, but it can reach
the pole elsewhere: on 3x2 counts with a zero-count row in each of two
blocks (the zero-count test of _local_bracket), two restarts of seed 1 end
at C + dm = 3.0e-5 with R = 34 214 and SDN 172.  An exact maximizer would
always chase the pole.  Shifting by m^2 instead of dm removes the pole,
but the exact optimum of that ratio is a weaker witness on the same data:
the SDN of the chained 3x2 counts falls from 59.91 to 53.68, and of the
chained 4x2 counts from 75.14 to 64.04.
And on local 3x3 counts the exact optimum clears the SIGNIFICANCE_SDN gate
(R = 1.0048 at SDN 3.65) where the restart search stays below R = 1, so the
gate must be calibrated for larger scenarios before they are solved
exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import BellFunctional, _is_integer
from .errors import DegenerateObjectiveError, DomainError
from .lhv import _route, lhv_bound, make_joint_bound_oracle
from .stats import CountTable, error_propagation

# Sentinel returned when the shifted denominator C + dm falls below
# _DENOM_FLOOR; finite, so restart traces hold only finite numbers.
PENALTY_R = -1.0e6
_DENOM_FLOOR = 1e-6

# Subgradient of dQ is taken as zero below this; dQ is nondifferentiable
# at zero and the set is measure-zero anyway.
_DQ_GRAD_FLOOR = 1e-12

_MIN_STEP = 1e-12

# The zero functional scores R = 1 exactly; a candidate must beat it by
# more than accumulated rounding noise before a violation is credible.
_BASELINE_MARGIN = 1e-12

# Finite counts show fluke violations of one to three error units even on
# data with an exact local model, because empirical frequencies carry
# signaling noise.  A candidate replaces the zero-functional backstop only
# when its gap clears this many error units, the same threshold used to
# call a certification successful downstream.
SIGNIFICANCE_SDN = 3.0

# A local model within this many error units of the frequencies rules out
# every functional that could clear the gate (_local_bracket); the margin
# absorbs rounding in q - c.
_CLEARED_SDN = SIGNIFICANCE_SDN * (1.0 - 1e-9)

# Budget of one restart of the gradient search: ascent iterations, first
# step length and the per-step gain below which an ascent stops.
_MAX_ITERS = 5000
_STEP_INIT = 0.05
_CONVERGENCE_TOL = 1e-9

# Annealing schedule for the smoothed LHV bound in the gradient engine.
_TAU_INIT = 0.5
_TAU_DECAY = 0.25
_TAU_FLOOR = 1e-10

# Caps on the major and minor cycles of _local_bracket.  Without them the
# minor cycle on local 4x3 counts ran 10 000 iterations (42 s).
_WOLFE_MAJOR = 200
_WOLFE_MINOR = 100


@dataclass(frozen=True)
class OptimizerConfig:
    """Budget of the restart search: how many restarts, and their seed.

    Both steer the restart search only; the exact 2x2 path ignores them.
    """

    restarts: int = 200
    seed: int = 0

    def __post_init__(self):
        for name in ("restarts", "seed"):
            value = getattr(self, name)
            if not _is_integer(value):
                raise DomainError(f"{name} must be an integer, got {value!r}")
        if self.restarts < 1:
            raise DomainError("restarts must be a positive integer")


@dataclass(frozen=True, eq=False)
class OptimizationResult:
    """Best functional found, with what was measured of it and the search trace.

    q, delta_q and c are the one evaluation the significance gate read of
    the winning candidate, or of the zero functional if none cleared it;
    r, sdn and is_nonlocal derive from them.  engine_trace holds the final
    R of every restart, or one entry: on the exact 2x2 path the maximal R
    (both before the significance gate), and 1.0, the zero functional's R,
    when a local model skipped the restarts.  r_upper is an upper bound on
    max R over the box: on the exact path the dual bound of the
    Charnes-Cooper program at SLSQP's KKT multipliers, math.inf on the
    other two.
    """

    functional: BellFunctional
    q: float
    delta_q: float
    c: float
    engine_trace: tuple[float, ...]
    r_upper: float

    @property
    def r(self) -> float:
        sc = self.functional.scenario
        return r_value(self.q, self.delta_q, self.c, sc.d * sc.m)

    @property
    def sdn(self) -> float:
        return sdn(self.q, self.delta_q, self.c)

    @property
    def is_nonlocal(self) -> bool:
        return self.r > 1.0


def sdn(q: float, delta_q: float, c: float) -> float:
    """Standard-deviation number (q - c)/delta_q; +inf, -inf or 0 by sign(q - c) at delta_q = 0."""
    if not delta_q >= 0:
        raise DomainError(f"delta_q must be nonnegative, got {delta_q!r}")
    if delta_q > 0:
        return (q - c) / delta_q
    if q > c:
        return math.inf
    return -math.inf if q < c else 0.0


def r_value(q: float, delta_q: float, c: float, dm: float) -> float:
    """The ratio (q - delta_q + dm)/(c + dm), or the penalty sentinel."""
    if c + dm < _DENOM_FLOOR:
        return PENALTY_R
    return (q - delta_q + dm) / (c + dm)


def objective_r(f: BellFunctional, counts: CountTable) -> float:
    """R for a joint-only functional with coefficients in the box."""
    if not f.is_joint_only:
        raise DomainError("objective takes joint-only functionals")
    if np.abs(f.joint).max() > 1.0 + 1e-12:
        raise DomainError("coefficients must lie in [-1, 1]")
    rep = error_propagation(f, counts)
    c = lhv_bound(f).bound
    dm = f.scenario.d * f.scenario.m
    return r_value(rep.q, rep.delta_q, c, dm)


class _CountModel:
    """Q and dQ of flat joint-only coefficients s from one matrix product.

    The Poisson error of Q is dQ^2 = s^T Sigma s, with Sigma the per-block
    multinomial covariance.  Sigma = L^T L, where L is block-diagonal with
    the block diag(sqrt(f/N)) (I - 1 f^T) for the frequencies f and total N
    of each setting pair.  ``stacked`` is f (flat) on top of L, so
    y = stacked @ s holds q = y[0] and L s = y[1:], and dQ = ||L s||; its
    gradient needs no second product (grad_dq).  The quadratic form
    s^T Sigma s is not used: it cancels near block-constant s, where
    dQ -> 0.  With blocks constant up to 1e-4 it was up to 5e-9 off
    error_propagation's dQ, and ||L s|| less than 1e-12 (relative, 2x2 to
    3x3 counts).
    """

    def __init__(self, counts: CountTable):
        m, _, d, _ = counts.scenario.joint_shape
        totals = counts.block_totals().astype(float).reshape(-1, 1)
        self.freq = counts.c.reshape(m * m, d * d) / totals  # one row per setting pair
        self.root = np.sqrt(self.freq / totals).ravel()
        n = self.freq.size
        self.stacked = np.zeros((n + 1, n))
        self.stacked[0] = self.freq.ravel()
        for k, f in enumerate(self.freq):
            block = slice(k * d * d, (k + 1) * d * d)
            self.stacked[1:][block, block] = self.root[block, None] * (np.eye(d * d) - f)
        self.freq_flat = self.stacked[0]

    def propagate(self, s_flat: np.ndarray) -> tuple[float, float, np.ndarray]:
        """(q, dq, L s) from one product."""
        y = self.stacked @ s_flat
        ls = y[1:]
        return float(y[0]), math.sqrt(ls @ ls), ls

    def grad_dq(self, ls: np.ndarray, dq: float) -> np.ndarray:
        """Gradient L^T L s / dq = sqrt(f/N) (L s) / dq of dq, from propagate's parts.

        The two forms agree because each block's frequencies sum to 1.  The
        gradient is zeroed at dq ~ 0, where dq has none.
        """
        if dq < _DQ_GRAD_FLOOR:
            return np.zeros(self.root.size)
        return self.root * ls / dq


def _run_gradient(model, bound_oracle, dm, s0):
    """Annealed projected gradient ascent on R.

    R is quasiconcave (concave numerator over a positive convex
    denominator), so it has no spurious strict local maxima; what defeats
    a plain subgradient method is the piecewise-linear kink structure of
    the LHV bound.  The bound is therefore annealed through its
    log-sum-exp softening down to the exact objective, followed by
    accept-only polishing and corner probes that resolve the flat ridges
    left near the box boundary.

    Each point is scored once: one product with the count model's stacked
    matrix and one oracle call give R and the parts of its gradient, the
    ascent keeps them for the point it accepts, and the corner probes skip
    points they have scored before.  The oracle returns C's gradient as a
    callable, and the ascent calls it only for the point it moves from, so
    rejected candidates cost no gradient.
    """

    def score(s, tau):
        """(R, parts of its gradient) at s; the parts are None at the penalty."""
        q, dq, ls = model.propagate(s)
        c, grad_c = bound_oracle(s, tau)
        den = c + dm
        if den < _DENOM_FLOOR:
            return PENALTY_R, None
        num = q - dq + dm
        return num / den, (ls, dq, num, den, grad_c)

    def ascend(s, r, parts, tau, max_iters, tol):
        """Backtracking ascent from the scored point s, accepting only improving steps."""
        step = _STEP_INIT
        for _ in range(max_iters):
            # A point accepted at tau > 0 can be penalized at a lower tau:
            # C_tau >= C, so its exact C + dm may fall below _DENOM_FLOOR.
            if parts is None:
                break
            ls, dq, num, den, grad_c = parts
            grad = (model.freq_flat - model.grad_dq(ls, dq)) / den - (num / den**2) * grad_c()
            improved = False
            while step >= _MIN_STEP:
                cand = np.minimum(np.maximum(s + step * grad, -1.0), 1.0)
                r_cand, parts_cand = score(cand, tau)
                if r_cand > r:
                    improved = True
                    break
                step *= 0.5
            if not improved:
                break
            gain = r_cand - r
            s, r, parts = cand, r_cand, parts_cand
            step = min(step * 2.0, 1.0)
            if gain < tol:
                break
        return s, r, parts

    s = np.asarray(s0, dtype=float)
    if score(s, 0.0)[0] <= PENALTY_R:
        return s, PENALTY_R

    tau = _TAU_INIT
    while tau > _TAU_FLOOR:
        s, _, _ = ascend(s, *score(s, tau), tau, 300, 0.1 * _CONVERGENCE_TOL)
        tau *= _TAU_DECAY
    s, r, parts = ascend(s, *score(s, 0.0), 0.0, _MAX_ITERS, 1e-3 * _CONVERGENCE_TOL)

    # Flat ridges often end at box corners; probe full and near-wall sign
    # snaps plus single-coordinate pushes, re-polishing after any gain.  R
    # only rises from here on, so no point probed or held before can win.
    probed = set()

    def probe(cand, r):
        """(R, parts) of cand if it was not probed before and beats r, else None."""
        key = cand.tobytes()
        if key not in probed:
            probed.add(key)
            r_cand, parts_cand = score(cand, 0.0)
            return (r_cand, parts_cand) if r_cand > r else None

    for _ in range(6):
        changed = False
        probed.add(s.tobytes())
        snaps = [
            np.sign(s) + (s == 0.0),
            np.where(np.abs(np.abs(s) - 1.0) < 1e-6, np.sign(s), s),
        ]
        for cand in snaps:
            if hit := probe(cand, r):
                s, (r, parts) = cand.copy(), hit
                changed = True
        for i in range(s.size):
            for wall in (-1.0, 1.0):
                if s[i] == wall:
                    continue
                cand = s.copy()
                cand[i] = wall
                if hit := probe(cand, r):
                    s, (r, parts) = cand, hit
                    changed = True
        if not changed:
            break
        s, r, parts = ascend(s, r, parts, 0.0, 500, 1e-3 * _CONVERGENCE_TOL)
    return s, r


def _charnes_cooper(model, tables, dm):
    """Exact max of R on m = d by one concave program; returns (s, R(s), r_upper).

    With u = s + 1 >= 0, q and C = max_k T_k u both gain m^2 = dm and dQ
    does not change, so R = (q - dQ)(u) / C(u) is constant along rays and
    max R is max q(u) - dQ(u) subject to T u <= 1 and u >= 0 (Charnes &
    Cooper 1962).  SLSQP solves it from the block-centered frequencies, away
    from the block-constant u where dQ = 0 has no gradient; s = 2u/max(u) - 1
    puts the optimal ray in the box.

    q - dQ is concave and positively homogeneous, so q(u) - dQ(u) <= v.u
    with v its gradient at s, and max R <= max{v.u : T u <= 1, u >= 0}.
    Every u_i <= 1 on that set, so any y >= 0 bounds that LP by
    sum(y) + sum(max(v - T^T y, 0)).  y is SLSQP's KKT multipliers of the
    rows of T u <= 1 (bound multipliers are not among them); at a KKT point
    T^T y >= v, so y is feasible for the LP's dual.  The repair term keeps
    an early stop or solver tolerances from undercutting the bound.
    """
    from scipy.optimize import minimize  # here, so importing bellgap loads no scipy
    n = tables.shape[1]
    constraint = {"type": "ineq", "fun": lambda u: 1.0 - tables @ u, "jac": lambda u: -tables}

    def neg_objective(u):
        q, dq, ls = model.propagate(u)
        return dq - q, model.grad_dq(ls, dq) - model.freq_flat

    centered = model.freq - model.freq.mean(axis=1, keepdims=True)
    peak = np.abs(centered).max()
    u0 = (centered / peak).ravel() + 1.0 if peak > 0 else np.ones(n)
    # SLSQP stops once the change in the objective and the constraint
    # violation are both below ftol.  At 1e-14 that test read rounding
    # noise: on weakly entangled counts the last half of the evaluations
    # moved R by at most 5e-15, and how many ran depended on the BLAS
    # thread count.  At 1e-12 the solve ends where R stops changing; R
    # moved by at most 5e-13 on 105 sampled 2x2 tables.
    sol = minimize(neg_objective, u0 / (tables @ u0).max(), jac=True, method="SLSQP",
                   bounds=[(0.0, None)] * n, constraints=constraint,
                   options={"maxiter": 500, "ftol": 1e-12})
    u = np.clip(sol.x, 0.0, None)
    s = 2.0 * u / u.max() - 1.0
    q, dq, ls = model.propagate(s)
    v = model.freq_flat - model.grad_dq(ls, dq)
    y = np.clip(sol.multipliers, 0.0, None)
    r_upper = y.sum() + np.clip(v - tables.T @ y, 0.0, None).sum()
    return s, r_value(q, dq, float((tables @ s).max()), dm), float(r_upper)


def _local_bracket(model, bound_oracle):
    """Bracket lb <= D <= ub on the distance D from the data to the local polytope.

    D = min ||x|| over x = W (f - T^T lam), lam the weights of a local model
    whose strategies put no weight on zero-count entries, W = 1/model.root the
    inverse error scale of each entry with f > 0, and x taken over those
    entries.  f - T^T lam sums to zero in every block, so (f - T^T lam).s =
    x.(L s) for every s, and with C >= lam^T T s,

        q - C <= ||x|| ||L s|| = ub dQ.

    Wolfe's (1976) minimum-norm-point method finds D over conv{W(T_k - f)},
    with maximize_r's bound oracle at tau = 0 as its oracle: it gets -W x,
    and on zero-count entries a block that outweighs every other entry.
    ub = ||x|| at the current point, and lb the largest
    min_k <x/||x||, W(T_k - f)> seen so far.  The minor cycle solves least
    squares on differences from a base point, not the Gram system, which
    would square the conditioning.  The run stops once ub <= _CLEARED_SDN
    or lb > _CLEARED_SDN, that is once the side of the gate that D is on
    is known, at convergence, or at a cap on either cycle.  Returns (lb, ub,
    weights, tables): the local model is sum_k weights[k] tables[k].  ub
    is inf, with no tables, when every strategy needs a zero-count entry.
    """
    pos = model.root > 0
    w = np.divide(1.0, model.root, out=np.zeros(model.root.size), where=pos)
    f = model.freq_flat

    def vertex(direction):
        """(table, W(table - f)) of the best strategy, one without zero-count entries if any is."""
        # Scores on positive-count entries lie within sum |direction| of 0, so a
        # strategy taking this block scores below every one that avoids it.
        block = -(1.0 + 2.0 * np.abs(direction[pos]).sum())
        table = bound_oracle(np.where(pos, direction, block))[1]()
        return table, w * (table - f)

    start = vertex(f)
    if start[0][~pos].any():
        return 0.0, math.inf, np.ones(0), np.zeros((0, f.size))
    tables, points, lam = start[0][None, :], start[1][None, :], np.ones(1)
    x, lb = points[0], 0.0
    ub = math.sqrt(x @ x)
    for _ in range(_WOLFE_MAJOR):
        if ub <= _CLEARED_SDN:
            break
        new = vertex(-w * x)
        lb = max(lb, float(x @ new[1]) / ub)
        converged = ub - lb <= 1e-10 * ub or (tables == new[0]).all(axis=1).any()
        if lb > _CLEARED_SDN or converged:
            break
        tables = np.vstack([tables, new[0]])
        points = np.vstack([points, new[1]])
        lam = np.append(lam, 0.0)
        for _ in range(_WOLFE_MINOR):
            # Affine min-norm point of the corral: base + (rest - base) mu.
            mu = np.linalg.lstsq((points[1:] - points[0]).T, -points[0], rcond=None)[0]
            alpha = np.concatenate([[1.0 - mu.sum()], mu])
            out = np.nonzero(alpha < 0.0)[0]
            if out.size:
                # Step from lam toward alpha until a weight reaches zero;
                # that point leaves the corral, which shrinks every step.
                ratios = lam[out] / (lam[out] - alpha[out])
                lam = lam + ratios.min() * (alpha - lam)
                lam[out[ratios.argmin()]] = 0.0
            else:
                lam = alpha
            keep = lam > 0.0
            tables, points, lam = tables[keep], points[keep], lam[keep] / lam[keep].sum()
            if not out.size:
                break
        x = lam @ points
        ub, last_ub = math.sqrt(x @ x), ub
        # Stop when the minor cycle hit its cap, or when ub stopped falling:
        # at rounding level the cycle can drop the vertex just added, and
        # the next major step adds it again.
        if out.size or ub >= last_ub:
            break
    return lb, ub, lam, tables


def maximize_r(counts: CountTable, cfg: OptimizerConfig = OptimizerConfig()) -> OptimizationResult:
    """Best R in the box: exact on 2x2, elsewhere restarts unless a local model rules them out.

    On 2x2 counts the single candidate is the exact maximizer, found by
    one SLSQP solve of the Charnes-Cooper program and certified by its KKT
    multipliers, and the result does not depend on cfg.seed.  Elsewhere
    restart i draws its start from a generator seeded by (seed, i), so runs
    are reproducible and a restart prefix is deterministic regardless of
    the total count.
    Each candidate is evaluated once (q and dQ by error_propagation, C by
    the LHV enumerator); the significance gate and the result read that
    evaluation.  A zero functional (R = 1 exactly), evaluated only when
    needed, backstops every path: a candidate displaces it only when its
    gap q - c exceeds SIGNIFICANCE_SDN error units, which filters the fluke
    violations that finite-count noise produces on perfectly local data.
    Among significant candidates the largest r wins, ties keeping the
    earliest restart.  Before the restarts, _local_bracket looks for a
    local model within SIGNIFICANCE_SDN error units of the frequencies; one
    bounds q - c by that distance times dQ for every functional, so no
    restart could displace the backstop, and the backstop is returned with
    the restarts skipped.  Every field but engine_trace is then the one the
    restarts would give.
    """
    sc = counts.scenario
    dm = sc.d * sc.m
    model = _CountModel(counts)
    bound_oracle = make_joint_bound_oracle(sc)
    n = (sc.d * sc.m) ** 2

    # Exact only on 2x2 (module docstring): m > d has the pole at
    # C + dm -> 0+ (an m^2 shift removes it but finds weaker witnesses),
    # and on local 3x3 counts the exact optimum passes the uncalibrated
    # SIGNIFICANCE_SDN gate (R = 1.0048, SDN 3.65).  Elsewhere, when a local
    # model puts q - C <= ub dQ for every s with ub below the gate, no
    # restart could clear it, so the backstop is the answer and its R = 1
    # the only trace entry.
    r_upper = math.inf
    if (sc.m, sc.d) == (2, 2):
        s_x, r_x, r_upper = _charnes_cooper(model, _route(sc).tables_j, dm)
        runs = [(s_x, r_x)]
    elif _local_bracket(model, bound_oracle)[1] <= _CLEARED_SDN:
        runs = [(np.zeros(n), 1.0)]
    else:
        seed = cfg.seed % 2**63
        runs = (
            _run_gradient(
                model, bound_oracle, dm, np.random.default_rng([seed, i]).uniform(-1.0, 1.0, n)
            )
            for i in range(cfg.restarts)
        )

    def evaluate(s):
        """(functional, q, dQ, C, R) of flat coefficients s: the one scoring of a candidate."""
        functional = BellFunctional(sc, s.reshape(sc.joint_shape))
        rep = error_propagation(functional, counts)
        c = bound_oracle(s)[0]
        return functional, rep.q, rep.delta_q, c, r_value(rep.q, rep.delta_q, c, dm)

    best = None
    trace = []
    for s_i, r_i in runs:
        trace.append(float(r_i))
        # A penalized point has no R, and the zero functional (q = dQ = C
        # = 0) cannot clear the gate; it is the backstop, scored below.
        if r_i <= PENALTY_R or not s_i.any():
            continue
        cand = evaluate(s_i)
        _, q_i, dq_i, c_i, r_i = cand
        significant = q_i - c_i > SIGNIFICANCE_SDN * dq_i and r_i > 1.0 + _BASELINE_MARGIN
        if significant and (best is None or r_i > best[4]):
            best = cand

    if all(t <= PENALTY_R for t in trace):
        raise DegenerateObjectiveError(
            f"all {cfg.restarts} restarts of seed {cfg.seed} started where C + dm < "
            f"{_DENOM_FLOOR}, so R has no finite value there; try another seed"
        )
    functional, q, delta_q, c, r = best or evaluate(np.zeros(n))
    # r is attained in the box, so the max only absorbs rounding between
    # the solver's and the final evaluation of R.
    return OptimizationResult(functional, q, delta_q, c, tuple(trace), max(r_upper, r))
