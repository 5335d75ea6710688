"""Shared construction helpers for the test suite."""

import numpy as np

from bellgap import (
    Behavior,
    BellFunctional,
    DeterministicStrategy,
    Scenario,
    TwoQubitState,
    born_behavior,
    strategy_behavior,
    tilted_behavior,
)
from bellgap.quantum import _rotated_measurement


def random_functional(sc: Scenario, rng, scale=2.0, with_marginals=True) -> BellFunctional:
    marg_a = rng.uniform(-scale, scale, sc.marginal_shape) if with_marginals else None
    marg_b = rng.uniform(-scale, scale, sc.marginal_shape) if with_marginals else None
    return BellFunctional(sc, rng.uniform(-scale, scale, sc.joint_shape), marg_a, marg_b)


def random_strategy(sc: Scenario, rng) -> DeterministicStrategy:
    return DeterministicStrategy(
        tuple(int(v) for v in rng.integers(sc.d, size=sc.m)),
        tuple(int(v) for v in rng.integers(sc.d, size=sc.m)),
    )


def random_ns_behavior(sc: Scenario, rng, n_components=24, include_quantum=False) -> Behavior:
    """Random no-signaling behavior: a mixture of local vertices.

    With include_quantum (two-setting, two-outcome scenarios only) one
    component is an entangled behavior, so the mixture leaves the local
    polytope while staying no-signaling.
    """
    parts = [strategy_behavior(random_strategy(sc, rng), sc).p for _ in range(n_components)]
    if include_quantum and (sc.m, sc.d) == (2, 2):
        parts.append(tilted_behavior(float(rng.uniform(0.0, 2.0))).p)
    weights = rng.dirichlet(np.ones(len(parts)))
    return Behavior(sc, np.tensordot(weights, np.stack(parts), axes=1))


def signaling_behavior(sc: Scenario, rng, eps=0.02) -> Behavior:
    """No-signaling mixture plus a one-block marginal shift of size eps.

    The shift moves weight between Bob's outcomes inside a single setting
    block only, so his marginal depends on Alice's setting afterwards.
    """
    base = random_ns_behavior(sc, rng)
    p = 0.7 * base.p + 0.3 / sc.d**2
    shift = np.zeros(sc.joint_shape)
    shift[0, 0, 0, 0] = eps
    shift[0, 0, 0, 1] = -eps
    return Behavior(sc, p + shift)


def local_mixture(sc: Scenario, rng, n_strategies, uniform_weight=0.0) -> Behavior:
    """Random mixture of deterministic strategies, drawn as the benchmark draws its local data."""
    parts = [
        strategy_behavior(
            DeterministicStrategy(
                tuple(rng.integers(0, sc.d, sc.m)), tuple(rng.integers(0, sc.d, sc.m))
            ),
            sc,
        ).p
        for _ in range(n_strategies)
    ]
    mix = np.tensordot(rng.dirichlet(np.ones(n_strategies)), np.stack(parts), axes=1)
    return Behavior(sc, (1.0 - uniform_weight) * mix + uniform_weight / sc.d**2)


def chained_behavior(m: int, concurrence: float) -> Behavior:
    """cos(t)|00> + sin(t)|11> measured at the chained-Bell angles in the X-Z plane:
    Alice at k pi/m, Bob at k pi/m + pi/2m, k = 0..m-1."""
    theta = 0.5 * np.arcsin(concurrence)
    state = TwoQubitState(np.array([np.cos(theta), 0.0, 0.0, np.sin(theta)], dtype=complex))
    alice = [_rotated_measurement(k * np.pi / m) for k in range(m)]
    bob = [_rotated_measurement(k * np.pi / m + np.pi / (2 * m)) for k in range(m)]
    return born_behavior(state, alice, bob)
