"""Tests for count tables, Poisson errors, KL divergence, and the NS projection."""

import itertools

import numpy as np
import pytest
import scipy.linalg.lapack
from scipy.optimize import linprog

from bellgap import (
    Behavior,
    ConvergenceError,
    CountTable,
    DegenerateDataError,
    DeterministicStrategy,
    DomainError,
    InfiniteDivergenceError,
    Scenario,
    ShapeMismatchError,
    alpha_for_concurrence,
    error_propagation,
    evaluate,
    frequencies,
    kl_divergence,
    ns_project,
    ns_residual,
    poisson_sample,
    strategy_behavior,
    tilted_behavior,
    tilted_functional,
    uniform_behavior,
)

from bellgap import stats as stats_module

from helpers import (
    chained_behavior, local_mixture, random_functional, random_ns_behavior, signaling_behavior,
)

CHSH = Scenario(2, 2)


def loop_error_report(f, counts):
    """Independent propagation oracle: explicit loops, no shared code path."""
    m, d = f.scenario.m, f.scenario.d
    e = np.zeros(f.scenario.joint_shape)
    for x in range(m):
        for y in range(m):
            for a in range(d):
                for b in range(d):
                    e[x, y, a, b] = (
                        f.joint[x, y, a, b]
                        + f.marginal_a[x, a] / m
                        + f.marginal_b[y, b] / m
                    )
    totals = counts.c.sum(axis=(2, 3)).astype(float)
    q = 0.0
    var = 0.0
    for x in range(m):
        for y in range(m):
            n_xy = totals[x, y]
            freq = counts.c[x, y] / n_xy
            block_mean = float((e[x, y] * freq).sum())
            q += block_mean
            for a in range(d):
                for b in range(d):
                    partial = (e[x, y, a, b] - block_mean) / n_xy
                    var += partial**2 * counts.c[x, y, a, b]
    return q, np.sqrt(var)


def loop_kl(f, p):
    total = 0.0
    for x in range(f.scenario.m):
        for y in range(f.scenario.m):
            w = f.setting_weights[x, y]
            for a in range(f.scenario.d):
                for b in range(f.scenario.d):
                    if f.p[x, y, a, b] > 0:
                        total += w * f.p[x, y, a, b] * np.log2(f.p[x, y, a, b] / p.p[x, y, a, b])
    return total


class TestCountTable:
    def test_accepts_and_freezes_integer_counts(self):
        c = np.arange(16).reshape(CHSH.joint_shape)
        table = CountTable(CHSH, c)
        assert table.c.dtype == np.int64
        with pytest.raises(ValueError):
            table.c[0, 0, 0, 0] = 5

    def test_float_valued_integers_accepted(self):
        table = CountTable(CHSH, np.full(CHSH.joint_shape, 3.0))
        assert table.c[0, 0, 0, 0] == 3

    def test_rejects_wrong_shape(self):
        with pytest.raises(ShapeMismatchError):
            CountTable(CHSH, np.zeros((2, 2, 2)))

    @pytest.mark.parametrize("bad", [-1, 2.5, np.nan, np.inf, 1e300])
    def test_rejects_non_counts(self, bad):
        c = np.ones(CHSH.joint_shape)
        c[0, 0, 0, 0] = bad
        with pytest.raises(DomainError):
            CountTable(CHSH, c)

    @pytest.mark.parametrize("count", [4 * 10**18, 2**52])
    def test_rejects_blocks_beyond_exact_float_totals(self, count):
        # Four counts of 4e18 sum past int64 to a negative total; four of
        # 2**52 fit int64 but total 2**54, beyond float64's exact integers.
        c = np.ones(CHSH.joint_shape, dtype=np.int64)
        c[0, 0] = count
        with pytest.raises(DomainError, match=r"2\*\*53"):
            CountTable(CHSH, c)

    def test_largest_exact_block_total_accepted(self):
        c = np.zeros(CHSH.joint_shape, dtype=np.int64)
        c[..., 0, 0] = 2**53
        np.testing.assert_array_equal(CountTable(CHSH, c).block_totals(), np.full((2, 2), 2**53))

    def test_block_totals(self):
        c = np.arange(16).reshape(CHSH.joint_shape)
        np.testing.assert_array_equal(
            CountTable(CHSH, c).block_totals(), [[6, 22], [38, 54]]
        )

    def test_block_totals_rejects_empty_block(self):
        c = np.ones(CHSH.joint_shape)
        c[1, 0] = 0
        with pytest.raises(DegenerateDataError, match="x=1, y=0"):
            CountTable(CHSH, c).block_totals()


class TestFrequencies:
    def test_blocks_normalize_and_weights_follow_totals(self):
        c = np.ones(CHSH.joint_shape)
        c[1, 1] *= 3  # one block with three times the data
        b = frequencies(CountTable(CHSH, c))
        np.testing.assert_allclose(b.p.sum(axis=(2, 3)), np.ones((2, 2)), rtol=1e-15)
        np.testing.assert_allclose(b.setting_weights, [[1 / 6, 1 / 6], [1 / 6, 1 / 2]], rtol=1e-14)

    def test_counts_recovered_from_frequencies(self):
        rng = np.random.default_rng(3)
        c = rng.integers(1, 50, size=CHSH.joint_shape)
        table = CountTable(CHSH, c)
        b = frequencies(table)
        recovered = b.p * table.block_totals()[:, :, None, None]
        np.testing.assert_allclose(recovered, c, rtol=1e-13)


class TestPoissonSample:
    def test_seed_pins_the_table(self):
        b = tilted_behavior(1.0)
        t1 = poisson_sample(b, 1000, seed=42)
        t2 = poisson_sample(b, 1000, seed=42)
        np.testing.assert_array_equal(t1.c, t2.c)

    def test_different_seeds_differ(self):
        b = uniform_behavior(CHSH)
        assert (poisson_sample(b, 1000, 0).c != poisson_sample(b, 1000, 1).c).any()

    def test_means_are_poisson_consistent(self):
        # Uniform blocks: every cell has mean 2500, so |z| < 6 is ~certain.
        b = uniform_behavior(CHSH)
        t = poisson_sample(b, 10_000, seed=7)
        z = (t.c - 2500.0) / np.sqrt(2500.0)
        assert np.abs(z).max() < 6.0

    def test_rejects_nonpositive_rate(self):
        with pytest.raises(DomainError):
            poisson_sample(uniform_behavior(CHSH), 0, seed=1)

    @pytest.mark.parametrize("n", [2.9, 1000.0, True, "1000", None])
    def test_rejects_non_integer_rate(self, n):
        with pytest.raises(DomainError, match="n_per_setting"):
            poisson_sample(uniform_behavior(CHSH), n, seed=1)

    def test_rejects_rate_beyond_exact_counts(self):
        with pytest.raises(DomainError, match="n_per_setting exceeds"):
            poisson_sample(uniform_behavior(CHSH), 2**53 + 1, seed=1)

    @pytest.mark.parametrize("seed", [-1, 1.5, True, None, "1"])
    def test_rejects_bad_seed(self, seed):
        with pytest.raises(DomainError, match="seed"):
            poisson_sample(uniform_behavior(CHSH), 1000, seed)

    def test_numpy_integer_rate_accepted(self):
        b = uniform_behavior(CHSH)
        np.testing.assert_array_equal(
            poisson_sample(b, np.int64(1000), seed=4).c, poisson_sample(b, 1000, seed=4).c
        )


class TestErrorPropagation:
    @pytest.mark.parametrize("seed", range(4))
    def test_matches_loop_oracle(self, seed):
        rng = np.random.default_rng(600 + seed)
        f = random_functional(CHSH, rng)
        counts = poisson_sample(random_ns_behavior(CHSH, rng), 500, seed=seed)
        report = error_propagation(f, counts)
        q_ref, dq_ref = loop_error_report(f, counts)
        np.testing.assert_allclose(report.q, q_ref, rtol=1e-12)
        np.testing.assert_allclose(report.delta_q, dq_ref, rtol=1e-12)

    def test_q_equals_functional_on_frequencies(self):
        rng = np.random.default_rng(61)
        f = random_functional(CHSH, rng)
        counts = poisson_sample(random_ns_behavior(CHSH, rng), 800, seed=5)
        report = error_propagation(f, counts)
        np.testing.assert_allclose(report.q, evaluate(f, frequencies(counts)), rtol=1e-12)

    def test_partials_match_finite_differences(self):
        rng = np.random.default_rng(62)
        f = random_functional(CHSH, rng)
        counts = poisson_sample(uniform_behavior(CHSH), 10_000, seed=9)
        report = error_propagation(f, counts)

        def q_of(c):
            return loop_error_report(f, CountTable(CHSH, c))[0]

        for x, y, a, b in [(0, 0, 0, 0), (1, 0, 1, 0), (1, 1, 0, 1)]:
            up = counts.c.copy()
            down = counts.c.copy()
            up[x, y, a, b] += 1
            down[x, y, a, b] -= 1
            fd = (q_of(up) - q_of(down)) / 2.0
            np.testing.assert_allclose(report.partials[x, y, a, b], fd, rtol=0, atol=1e-9)

    def test_quadrupling_counts_halves_the_error(self):
        rng = np.random.default_rng(63)
        f = random_functional(CHSH, rng)
        c = np.random.default_rng(0).integers(10, 90, size=CHSH.joint_shape)
        r1 = error_propagation(f, CountTable(CHSH, c))
        r4 = error_propagation(f, CountTable(CHSH, 4 * c))
        np.testing.assert_allclose(r4.q, r1.q, rtol=1e-13)
        np.testing.assert_allclose(r4.delta_q, r1.delta_q / 2.0, rtol=1e-13)

    def test_tilted_sample_lands_near_quantum_value(self):
        alpha = 1.0
        counts = poisson_sample(tilted_behavior(alpha), 100_000, seed=12)
        report = error_propagation(tilted_functional(alpha), counts)
        assert abs(report.q - np.sqrt(10.0)) < 6.0 * report.delta_q
        assert 0.0 < report.delta_q < 0.05

    def test_scenario_mismatch_rejected(self):
        f = random_functional(Scenario(3, 2), np.random.default_rng(1))
        counts = CountTable(CHSH, np.ones(CHSH.joint_shape))
        with pytest.raises(ShapeMismatchError):
            error_propagation(f, counts)

    def test_partials_are_frozen(self):
        f = tilted_functional(0.5)
        counts = CountTable(CHSH, np.ones(CHSH.joint_shape))
        report = error_propagation(f, counts)
        with pytest.raises(ValueError):
            report.partials[0, 0, 0, 0] = 1.0


class TestKlDivergence:
    def test_zero_on_itself(self):
        b = random_ns_behavior(CHSH, np.random.default_rng(2))
        assert kl_divergence(b, b) == 0.0

    def test_zero_on_itself_with_deterministic_entries(self):
        # Entries where both arguments vanish must contribute nothing.
        b = tilted_behavior(2.0)
        assert b.p.min() == 0.0
        assert kl_divergence(b, b) == 0.0

    @pytest.mark.parametrize("seed", range(4))
    def test_positive_and_matches_loop_oracle(self, seed):
        rng = np.random.default_rng(700 + seed)
        f = signaling_behavior(CHSH, rng)
        p = random_ns_behavior(CHSH, rng)
        p = Behavior(CHSH, 0.9 * p.p + 0.1 * uniform_behavior(CHSH).p, f.setting_weights)
        d = kl_divergence(f, p)
        assert d > 0.0
        np.testing.assert_allclose(d, loop_kl(f, p), rtol=1e-12)

    def test_infinite_divergence_detected(self):
        f = uniform_behavior(CHSH)
        with pytest.raises(InfiniteDivergenceError):
            kl_divergence(f, tilted_behavior(2.0))

    def test_scenario_mismatch_rejected(self):
        with pytest.raises(ShapeMismatchError):
            kl_divergence(uniform_behavior(CHSH), uniform_behavior(Scenario(3, 2)))


class TestNsProject:
    def test_no_signaling_input_passes_through(self):
        b = random_ns_behavior(CHSH, np.random.default_rng(4))
        assert ns_project(b) is b

    def test_projection_is_no_signaling_and_idempotent(self):
        f = signaling_behavior(CHSH, np.random.default_rng(5))
        assert ns_residual(f).max > 1e-3
        proj = ns_project(f)
        assert ns_residual(proj).max <= 1e-8
        assert ns_project(proj) is proj
        np.testing.assert_array_equal(proj.setting_weights, f.setting_weights)

    def test_projection_beats_random_ns_candidates(self):
        rng = np.random.default_rng(6)
        f = signaling_behavior(CHSH, rng)
        proj = ns_project(f)
        d_star = kl_divergence(f, proj)
        uniform = uniform_behavior(CHSH).p
        for k in range(200):
            q = random_ns_behavior(CHSH, rng)
            q = Behavior(CHSH, 0.9 * q.p + 0.1 * uniform, f.setting_weights)
            assert d_star <= kl_divergence(f, q) + 1e-9

    def test_projection_distance_scales_with_signaling(self):
        rng = np.random.default_rng(7)
        small = signaling_behavior(CHSH, rng, eps=0.005)
        rng = np.random.default_rng(7)
        large = signaling_behavior(CHSH, rng, eps=0.05)
        assert kl_divergence(small, ns_project(small)) < kl_divergence(large, ns_project(large))

    def test_stalled_solver_raises_with_best_iterate(self, monkeypatch):
        # A solver answer that still signals must be rejected, not returned:
        # here every Newton centering stalls at the signaling input itself.
        f = signaling_behavior(CHSH, np.random.default_rng(8))
        monkeypatch.setattr(stats_module, "_center", lambda p, w, a_eq, b_eq: f.p.ravel())
        with pytest.raises(ConvergenceError) as info:
            ns_project(f)
        assert isinstance(info.value.best, Behavior)
        assert ns_residual(info.value.best).max > 1e-8

    def test_singular_kkt_system_is_a_convergence_error(self, monkeypatch):
        f = signaling_behavior(CHSH, np.random.default_rng(8))
        # Cholesky fails on the Schur complement, so the step falls back to
        # LU, which then reports the singular KKT matrix.
        monkeypatch.setattr(scipy.linalg.lapack, "dpotrf", lambda a: (a, 1))
        monkeypatch.setattr(scipy.linalg.lapack, "dgesv", lambda a, b: (a, None, b, 1))
        with pytest.raises(ConvergenceError, match="singular"):
            ns_project(f)

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("source", ["tilted_2x2", "local_3x2_2", "local_3x2_3",
                                        "local_3x3_2", "local_3x3_3"])
    def test_zero_counts_reach_the_global_minimum(self, source, seed):
        # Deterministic-vertex data sampled at N = 1000 leave zero counts, where
        # the divergence has no curvature.  The divergence is convex in p, so a
        # feasible p at which no no-signaling candidate q decreases it to first
        # order is the global minimum.  The candidates are random no-signaling
        # behaviors, random mixtures of the local strategies the data support,
        # and the no-signaling vertex with the largest first-order decrease.
        f = zero_count_frequencies(source, seed)
        assert f.p.min() == 0.0
        proj = ns_project(f)
        assert ns_residual(proj).max <= 1e-8
        rng = np.random.default_rng(seed)
        supported = supported_strategies(f)
        candidates = [random_ns_behavior(f.scenario, rng).p for _ in range(20)]
        candidates += [np.tensordot(rng.dirichlet(np.ones(len(supported))), supported, axes=1)
                       for _ in range(20)]
        candidates.append(steepest_ns_vertex(f, proj))
        for q in candidates:
            for t in (1e-4, 1e-8, 1e-12):
                assert kl_increase(f, proj.p, q, t) >= -1e-12 * t, (t, kl_increase(f, proj.p, q, t))

    @pytest.mark.parametrize("source", ["tilted_2x2", "chained_3x2", "chained_4x2", "local_3x3",
                                        "zero_count_4x3"])
    def test_schur_steps_match_dense_lu(self, source, monkeypatch):
        # The benchmark's four projections and a zero-count sample, against
        # the same Newton method with every step solved by LU on the full
        # KKT matrix (a Cholesky factorization that always fails).
        f = PROJECTION_INPUTS[source]()
        proj = ns_project(f)
        monkeypatch.setattr(scipy.linalg.lapack, "dpotrf", lambda a: (a, 1))
        ref = ns_project(f)
        assert kl_divergence(f, proj) == pytest.approx(kl_divergence(f, ref), rel=1e-12)
        np.testing.assert_allclose(proj.p, ref.p, rtol=0, atol=1e-12)

    def test_large_zero_count_projection(self):
        f = PROJECTION_INPUTS["zero_count_6x4"]()
        assert (f.p == 0).sum() > 0
        proj = ns_project(f)
        assert ns_residual(proj).max <= 1e-8
        assert kl_divergence(f, proj) > 0.0

    @pytest.mark.parametrize("kind", ["outcomes", "settings", "parties"])
    def test_projection_commutes_with_relabeling(self, kind):
        rng = np.random.default_rng(60)
        inputs = [
            frequencies(poisson_sample(random_ns_behavior(sc, rng), 10_000, seed=61))
            for sc in (Scenario(3, 2), Scenario(3, 3))
        ]
        inputs.append(zero_count_frequencies("local_3x3_2", 0))
        for f in inputs:
            p, weights = relabeled(f.p, f.setting_weights, kind)
            got = ns_project(Behavior(f.scenario, p, weights))
            want, _ = relabeled(ns_project(f).p, f.setting_weights, kind)
            np.testing.assert_allclose(got.p, want, rtol=0, atol=1e-12, err_msg=str(f.scenario))


def _sampled(behavior: Behavior, seed: int) -> Behavior:
    return frequencies(poisson_sample(behavior, 100_000, seed))


# Frequencies of N = 1e5 counts per setting: the benchmark's projection
# inputs (sampling seed 77), and 40-strategy mixtures whose samples keep
# zero counts (seed 5).
PROJECTION_INPUTS = {
    "tilted_2x2": lambda: _sampled(tilted_behavior(alpha_for_concurrence(0.582)), 77),
    "chained_3x2": lambda: _sampled(chained_behavior(3, 0.582), 77),
    "chained_4x2": lambda: _sampled(chained_behavior(4, 0.582), 77),
    "local_3x3": lambda: _sampled(
        local_mixture(Scenario(3, 3), np.random.default_rng(77), 8, 0.2), 77
    ),
    "zero_count_4x3": lambda: _sampled(
        random_ns_behavior(Scenario(4, 3), np.random.default_rng(5), n_components=40), 5
    ),
    "zero_count_6x4": lambda: _sampled(
        random_ns_behavior(Scenario(6, 4), np.random.default_rng(5), n_components=40), 5
    ),
}


def zero_count_frequencies(source: str, seed: int) -> Behavior:
    """Frequencies of N = 1000 counts per setting from a behavior with zero entries.

    ``tilted_2x2`` samples tilted_behavior(2.0); ``local_<m>x<d>_<k>`` samples
    a mixture of k random deterministic strategies.
    """
    if source == "tilted_2x2":
        b = tilted_behavior(2.0)
    else:
        shape, k = source.split("_")[1:]
        m, d = (int(v) for v in shape.split("x"))
        b = random_ns_behavior(Scenario(m, d), np.random.default_rng(seed), n_components=int(k))
    return frequencies(poisson_sample(b, 1000, seed))


def supported_strategies(f: Behavior) -> np.ndarray:
    """Joint tables of the deterministic strategies that put no weight where f vanishes."""
    sc = f.scenario
    tables = []
    for a in itertools.product(range(sc.d), repeat=sc.m):
        for b in itertools.product(range(sc.d), repeat=sc.m):
            table = strategy_behavior(DeterministicStrategy(a, b), sc).p
            if np.all(f.p[table > 0] > 0):
                tables.append(table)
    return np.stack(tables)


def steepest_ns_vertex(f: Behavior, proj: Behavior) -> np.ndarray:
    """No-signaling q maximizing sum w q / proj over f's support, w the weighted frequencies.

    That sum is the first-order decrease of the divergence along q - proj,
    up to a constant, so this q is the hardest candidate for a claimed minimum.
    """
    a_eq, b_eq = stats_module._ns_constraint_matrix(f.scenario)
    w = (f.setting_weights[:, :, None, None] * f.p).ravel()
    gain = np.divide(w, proj.p.ravel(), out=np.zeros_like(w), where=w > 0)
    res = linprog(-gain, A_eq=a_eq, b_eq=b_eq, bounds=(0.0, None), method="highs")
    assert res.status == 0, res.message
    q = np.clip(res.x, 0.0, None).reshape(f.scenario.joint_shape)
    assert ns_residual(Behavior(f.scenario, q)).max <= 1e-9
    return q


def kl_increase(f: Behavior, p: np.ndarray, q: np.ndarray, t: float) -> float:
    """kl_divergence(f, (1 - t) p + t q) - kl_divergence(f, p), in bits.

    Summed as -w log1p(t (q - p) / p) term by term, so the difference of two
    nearly equal divergences loses no digits to cancellation.
    """
    support = f.p > 0
    w = (f.setting_weights[:, :, None, None] * f.p)[support]
    return -float(w @ np.log1p(t * (q - p)[support] / p[support])) / np.log(2.0)


def relabeled(p: np.ndarray, weights: np.ndarray, kind: str):
    """(p, weights) with Alice's outcomes of setting 1 cycled, Bob's settings
    cycled, or the parties swapped."""
    if kind == "outcomes":
        p = p.copy()
        p[1] = np.roll(p[1], 1, axis=1)
        return p, weights
    if kind == "settings":
        return np.roll(p, 1, axis=1), np.roll(weights, 1, axis=1)
    return p.transpose(1, 0, 3, 2), weights.T
