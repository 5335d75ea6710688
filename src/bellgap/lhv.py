"""Exact local-hidden-variable bounds by deterministic-strategy enumeration.

The LHV maximum of a Bell functional is attained at deterministic
strategies (one fixed outcome per setting and party), so the bound is the
maximum of d^(2m) linear scores.  Marginal blocks are folded into the
joint table first (``core._folded_joint``: a marginal of a deterministic
strategy is the average of its joint entries), so the enumerators score
joint tables only.  ``strategy_tables`` is the one builder of the
strategies' joint tables.  Two equivalent enumeration routes are used:
small scenarios score all of those tables in one product, larger ones
enumerate Alice's assignments and exploit that Bob's best response
decomposes per setting.  Both enumerate in lexicographic order on
(assign_a, assign_b).  One cached enumerator per scenario picks the route.
Each route has two methods: ``bound(joint, tau)``, the exact bound with
its first maximizer's table at tau <= 0 and the log-sum-exp softening
above, which the optimizer calls as its bound oracle and ``lhv_value``
reads at tau = 0; and ``maximizers(joint)``, every maximizer up to ties,
behind ``lhv_bound``.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .core import Behavior, BellFunctional, Scenario, INTERNAL_TOL, _folded_joint, _is_integer
from .errors import CapacityError, DomainError, ShapeMismatchError

# Scenarios with more deterministic strategy pairs raise CapacityError;
# read by _route at call time.
DEFAULT_ENUMERATION_CAP = 100_000_000

# Up to this many strategy pairs the full score matrix is cached; one
# matrix-vector product then yields all scores at once.  Beyond it the
# response route is faster: one bound on 6x2 (4096 pairs) took 42-55 us
# against 221-238 us at tau = 0, one BLAS thread; 5x2 is about even.
_MATRIX_PATH_LIMIT = 1024


@dataclass(frozen=True)
class DeterministicStrategy:
    """Fixed outcome assignments x -> a and y -> b for the two parties."""

    assign_a: tuple[int, ...]
    assign_b: tuple[int, ...]

    def __post_init__(self):
        for name in ("assign_a", "assign_b"):
            outcomes = tuple(getattr(self, name))
            if not all(_is_integer(v) and v >= 0 for v in outcomes):
                raise DomainError(f"{name}: strategy outcomes must be nonnegative integers")
            object.__setattr__(self, name, tuple(int(v) for v in outcomes))


@dataclass(frozen=True)
class LhvResult:
    """LHV bound together with every strategy achieving it (up to ties)."""

    bound: float
    maximizers: tuple[DeterministicStrategy, ...]


def _assignment_array(m: int, d: int) -> np.ndarray:
    """All d^m outcome assignments, lexicographic, shape (d^m, m)."""
    arr = np.array(list(itertools.product(range(d), repeat=m)), dtype=np.intp)
    arr.setflags(write=False)
    return arr


def _one_hot(assign, d: int) -> np.ndarray:
    """One party's outcomes (..., m) as 0/1 indicators (..., m, d); a strategy
    pair's joint table is the outer product einsum("xa,yb->xyab") of its parties'."""
    return (np.asarray(assign)[..., None] == np.arange(d)).astype(float)


@lru_cache(maxsize=None)
def strategy_tables(m: int, d: int) -> np.ndarray:
    """Flat joint tables of all d^(2m) deterministic strategy pairs, one per row.

    Row k belongs to Alice's assignment k // d^m and Bob's k % d^m, so rows
    run in lexicographic order on (assign_a, assign_b).  Cached per (m, d);
    the array is read-only and C-contiguous, shape (d^(2m), m*m*d*d).
    """
    hot = _one_hot(_assignment_array(m, d), d)
    pairs = np.einsum("ixa,jyb->ijxyab", hot, hot)
    tables = np.ascontiguousarray(pairs).reshape(len(hot) ** 2, -1)
    tables.setflags(write=False)
    return tables


def _tie_tolerance(bound: float) -> float:
    """Scores this close to the bound count as maximal."""
    return 1e-9 * max(1.0, abs(bound))


class _MatrixRoute:
    """Scores all strategy pairs with one product against strategy_tables(m, d)."""

    def __init__(self, m: int, d: int):
        self.assign = _assignment_array(m, d)
        self.tables_j = strategy_tables(m, d)

    def bound(self, joint, tau=0.0):
        """(bound, callable giving its flat gradient table); see make_joint_bound_oracle."""
        scores = self.tables_j @ joint
        if tau <= 0.0:
            k = int(np.argmax(scores))
            return float(scores[k]), lambda: self.tables_j[k]
        peak = scores.max()
        w = np.exp((scores - peak) / tau)
        z = w.sum()
        return float(peak + tau * np.log(z)), lambda: self.tables_j.T @ (w / z)

    def maximizers(self, joint):
        scores = self.tables_j @ joint
        bound = float(scores.max())
        hits = np.nonzero(scores >= bound - _tie_tolerance(bound))[0]
        n_side = self.assign.shape[0]
        return bound, [
            DeterministicStrategy(tuple(self.assign[k // n_side]), tuple(self.assign[k % n_side]))
            for k in hits
        ]


class _ResponseRoute:
    """Enumerates Alice's assignments; Bob's best response decomposes per setting."""

    def __init__(self, m: int, d: int):
        self.shape = (m, m, d, d)
        self.assign = _assignment_array(m, d)
        self.a_hot = _one_hot(self.assign, d)
        self.a_flat = self.a_hot.reshape(len(self.assign), m * d)

    def _scores(self, joint):
        """(scores, resp): resp[i, y, b] is the total weight of Bob answering
        b on setting y given Alice's i-th assignment, scores[i] the best total."""
        # Alice's one-hot outcomes against the joint table read as [b, x, a, y]
        # lay the weights out as (b, i, y), so the max over b runs over
        # contiguous slices; resp is a view of them.
        m, _, d, _ = self.shape
        bxay = joint.reshape(self.shape).transpose(3, 0, 2, 1).reshape(d, m * d, m)
        by_b = np.matmul(self.a_flat, bxay)
        return by_b.max(axis=0).sum(axis=1), by_b.transpose(1, 2, 0)

    def bound(self, joint, tau=0.0):
        """(bound, callable giving its flat gradient table); see make_joint_bound_oracle."""
        scores, resp = self._scores(joint)
        if tau <= 0.0:
            i = int(np.argmax(scores))
            return float(scores[i]), lambda: np.einsum(
                "xa,yb->xyab", self.a_hot[i], _one_hot(resp[i].argmax(axis=1), self.shape[2])
            ).ravel()
        # The pair sum factorizes over Bob's settings for fixed Alice
        # assignment, so the log-sum-exp needs only d^m * m * d work.
        peak_b = resp.max(axis=2, keepdims=True)
        w_b = np.exp((resp - peak_b) / tau)
        z_b = w_b.sum(axis=2, keepdims=True)
        per_alice = (peak_b[:, :, 0] + tau * np.log(z_b[:, :, 0])).sum(axis=1)
        peak = per_alice.max()
        w_a = np.exp((per_alice - peak) / tau)
        z_a = w_a.sum()
        return float(peak + tau * np.log(z_a)), lambda: np.tensordot(
            self.a_hot * (w_a / z_a)[:, None, None], w_b / z_b, (0, 0)
        ).transpose(0, 2, 1, 3).ravel()

    def maximizers(self, joint):
        scores, resp = self._scores(joint)
        bound = float(scores.max())
        tie_tolerance = _tie_tolerance(bound)
        found = []
        for i in np.nonzero(scores >= bound - tie_tolerance)[0]:
            budget = scores[i] - bound + tie_tolerance
            deficits = resp[i].max(axis=1)[:, None] - resp[i]  # (y, b), all >= 0
            allowed = [np.nonzero(row <= budget)[0] for row in deficits]
            for choice in itertools.product(*allowed):
                if sum(row[b] for row, b in zip(deficits, choice)) <= budget:
                    found.append(
                        DeterministicStrategy(tuple(self.assign[i]), tuple(int(b) for b in choice))
                    )
        return bound, found


@lru_cache(maxsize=None)
def _cached_route(m: int, d: int, matrix: bool):
    """The route cache; the matrix route's tables are strategy_tables' cached array."""
    return _MatrixRoute(m, d) if matrix else _ResponseRoute(m, d)


def _route(scenario: Scenario):
    """The scenario's cached enumerator, after the enumeration-cap check."""
    total = scenario.d ** (2 * scenario.m)
    if total > DEFAULT_ENUMERATION_CAP:
        raise CapacityError(
            f"{total} deterministic strategies exceed the enumeration cap {DEFAULT_ENUMERATION_CAP}"
        )
    return _cached_route(scenario.m, scenario.d, total <= _MATRIX_PATH_LIMIT)


def lhv_bound(functional: BellFunctional) -> LhvResult:
    """Exact LHV bound and all maximizing strategies, by exhaustive enumeration.

    Strategies scoring within 1e-9 * max(1, |bound|) of the bound count as
    maximizers.
    """
    route = _route(functional.scenario)
    bound, maximizers = route.maximizers(_folded_joint(functional).ravel())
    return LhvResult(bound, tuple(maximizers))


def lhv_value(functional: BellFunctional) -> float:
    """Exact LHV bound alone: the bits of ``lhv_bound(functional).bound``
    without listing the maximizing strategies."""
    return _route(functional.scenario).bound(_folded_joint(functional).ravel())[0]


def strategy_behavior(strategy: DeterministicStrategy, scenario: Scenario) -> Behavior:
    """Deterministic behavior (local-polytope vertex) realizing the strategy."""
    if len(strategy.assign_a) != scenario.m or len(strategy.assign_b) != scenario.m:
        raise ShapeMismatchError(
            f"strategy length {len(strategy.assign_a)}/{len(strategy.assign_b)} "
            f"does not match m={scenario.m}"
        )
    if max(strategy.assign_a + strategy.assign_b) >= scenario.d:
        raise DomainError(f"strategy outcomes must be < d={scenario.d}")
    p = np.einsum(
        "xa,yb->xyab", _one_hot(strategy.assign_a, scenario.d), _one_hot(strategy.assign_b, scenario.d)
    )
    return Behavior(scenario, p, tol=INTERNAL_TOL)


def make_joint_bound_oracle(scenario: Scenario):
    """The scenario's bound method: s_flat, tau=0.0 -> (bound, gradient) for joint-only coefficients.

    gradient is a zero-argument callable that forms the flat gradient
    table, so a caller that discards the point pays only for the bound.
    At tau <= 0 the bound is the exact LHV maximum and the gradient is the
    lexicographically first maximizer's table.  For tau > 0 both are
    replaced by the log-sum-exp softening

        C_tau(s) = tau * log(sum_k exp(score_k / tau)),

    a smooth convex upper bound on C whose gradient blends the tables of
    near-maximal strategies; optimizers anneal tau to zero to avoid
    stalling on the kinks of the exact bound.  The enumeration structures
    are cached per scenario; the returned gradient table must not be
    mutated.
    """
    return _route(scenario).bound
