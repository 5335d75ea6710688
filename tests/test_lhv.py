"""Tests for exact LHV bounds, maximizer enumeration, and the smoothed oracle."""

import itertools

import numpy as np
import pytest

from bellgap import (
    BellFunctional,
    CapacityError,
    DeterministicStrategy,
    DomainError,
    Scenario,
    ShapeMismatchError,
    absorb_marginals,
    evaluate,
    lhv_bound,
    lhv_value,
    make_joint_bound_oracle,
    strategy_behavior,
    tilted_functional,
)
from bellgap import io
from bellgap import lhv as lhv_module
from bellgap.cli import main

from helpers import random_functional

CHSH = Scenario(2, 2)

# The two enumeration routes are compared on these scenarios, all below
# the matrix-route limit, by forcing the best-response route with the
# limit set to 0.  Each test loops over them so its id stays the same.
ROUTE_SCENARIOS = (CHSH, Scenario(3, 2), Scenario(4, 2), Scenario(3, 3))

# 3^8 strategy pairs: the matrix route covers 4x3 only with the limit raised.
FULL_MATRIX_LIMIT = 6561


def first_maximizer_table(f: BellFunctional) -> np.ndarray:
    """The tau = 0 oracle gradient at f's folded joint table, shaped like it."""
    oracle = make_joint_bound_oracle(f.scenario)
    return oracle(absorb_marginals(f).joint.ravel(), 0.0)[1]().reshape(f.scenario.joint_shape)


def eager_gradient(route, s: np.ndarray, tau: float) -> np.ndarray:
    """The oracle's gradient table at s, formed at once by the route's own formula."""
    if isinstance(route, lhv_module._MatrixRoute):
        scores = route.tables_j @ s
        if tau <= 0.0:
            return route.tables_j[int(np.argmax(scores))]
        w = np.exp((scores - scores.max()) / tau)
        return route.tables_j.T @ (w / w.sum())
    scores, resp = route._scores(s)
    if tau <= 0.0:
        i = int(np.argmax(scores))
        hot = np.eye(route.shape[2])
        return np.einsum("xa,yb->xyab", hot[route.assign[i]], hot[resp[i].argmax(axis=1)]).ravel()
    peak_b = resp.max(axis=2, keepdims=True)
    w_b = np.exp((resp - peak_b) / tau)
    z_b = w_b.sum(axis=2, keepdims=True)
    per_alice = (peak_b[:, :, 0] + tau * np.log(z_b[:, :, 0])).sum(axis=1)
    w_a = np.exp((per_alice - per_alice.max()) / tau)
    a_weighted = route.a_hot * (w_a / w_a.sum())[:, None, None]
    return np.tensordot(a_weighted, w_b / z_b, (0, 0)).transpose(0, 2, 1, 3).ravel()


def brute_force_bound(f: BellFunctional) -> float:
    """Independent LHV maximum: plain Python loops over all strategy pairs."""
    sc = f.scenario
    best = -np.inf
    for aa in itertools.product(range(sc.d), repeat=sc.m):
        for bb in itertools.product(range(sc.d), repeat=sc.m):
            score = 0.0
            for x in range(sc.m):
                for y in range(sc.m):
                    score += f.joint[x, y, aa[x], bb[y]]
            for x in range(sc.m):
                score += f.marginal_a[x, aa[x]]
            for y in range(sc.m):
                score += f.marginal_b[y, bb[y]]
            best = max(best, score)
    return best


def strategy_score(f: BellFunctional, strat: DeterministicStrategy) -> float:
    return evaluate(f, strategy_behavior(strat, f.scenario))


class TestDeterministicStrategy:
    def test_coerces_to_int_tuples(self):
        s = DeterministicStrategy((np.intp(0), np.intp(1)), [1, 0])
        assert s.assign_a == (0, 1)
        assert s.assign_b == (1, 0)
        assert all(type(v) is int for v in s.assign_a + s.assign_b)

    def test_negative_outcome_rejected(self):
        with pytest.raises(DomainError):
            DeterministicStrategy((0, -1), (0, 0))

    @pytest.mark.parametrize("bad", [1.5, 1.0, True, np.nan],
                             ids=["fraction", "float", "bool", "nan"])
    def test_non_integer_outcome_rejected(self, bad):
        # int() would truncate 1.5 to 1 and read True as 1.
        with pytest.raises(DomainError, match="assign_b: strategy outcomes must be nonnegative"):
            DeterministicStrategy((0, 1), (0, bad))


class TestLhvBound:
    def test_chsh_bound_is_two_with_eight_maximizers(self):
        signs = np.array([[1.0, -1.0], [-1.0, 1.0]])
        joint = np.empty((2, 2, 2, 2))
        for x in range(2):
            for y in range(2):
                joint[x, y] = (-1.0) ** (x * y) * signs
        res = lhv_bound(BellFunctional(CHSH, joint))
        np.testing.assert_allclose(res.bound, 2.0, rtol=0, atol=1e-14)
        assert len(res.maximizers) == 8

    @pytest.mark.parametrize("alpha", [0.0, 0.5, 1.0, 1.5, 1.9, 2.0])
    def test_tilted_bound_is_alpha_plus_two(self, alpha):
        res = lhv_bound(tilted_functional(alpha))
        np.testing.assert_allclose(res.bound, alpha + 2.0, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("seed", range(8))
    def test_matches_brute_force_on_random_functionals(self, seed):
        rng = np.random.default_rng(seed)
        f = random_functional(CHSH, rng)
        res = lhv_bound(f)
        np.testing.assert_allclose(res.bound, brute_force_bound(f), rtol=1e-13)

    def test_matches_brute_force_three_settings_three_outcomes(self):
        rng = np.random.default_rng(33)
        f = random_functional(Scenario(3, 3), rng)
        res = lhv_bound(f)
        np.testing.assert_allclose(res.bound, brute_force_bound(f), rtol=1e-13)

    @pytest.mark.parametrize("sc", ROUTE_SCENARIOS + (Scenario(4, 3), Scenario(6, 4)))
    def test_value_is_the_bound_without_maximizers(self, sc):
        # Both routes: up to 3x3 the matrix, from 4x3 on Alice's assignments.
        f = random_functional(sc, np.random.default_rng(34))
        assert lhv_value(f) == lhv_bound(f).bound

    @pytest.mark.parametrize("seed", range(4))
    def test_every_maximizer_attains_the_bound(self, seed):
        rng = np.random.default_rng(100 + seed)
        f = random_functional(CHSH, rng)
        res = lhv_bound(f)
        assert res.maximizers
        for strat in res.maximizers:
            np.testing.assert_allclose(strategy_score(f, strat), res.bound, rtol=1e-12)

    def test_zero_functional_has_all_strategies_maximal(self):
        res = lhv_bound(BellFunctional(CHSH, np.zeros(CHSH.joint_shape)))
        assert res.bound == 0.0
        assert len(res.maximizers) == 16
        # Lexicographic on (assign_a, assign_b): first and last are fixed.
        assert res.maximizers[0] == DeterministicStrategy((0, 0), (0, 0))
        assert res.maximizers[-1] == DeterministicStrategy((1, 1), (1, 1))

    def test_near_tie_beyond_the_tolerance_is_not_a_maximizer(self):
        joint = np.zeros(CHSH.joint_shape)
        joint[0, 0, 0, 0] = 1.0
        joint[0, 0, 1, 1] = 1.0 - 1e-6
        f = BellFunctional(CHSH, joint)
        assert len(lhv_bound(f).maximizers) == 4

    def test_capacity_error_on_large_scenario(self):
        f = BellFunctional(Scenario(14, 2), np.zeros(Scenario(14, 2).joint_shape))
        with pytest.raises(CapacityError):
            lhv_bound(f)

    def test_enumeration_cap_is_adjustable(self, tmp_path, monkeypatch):
        # 2x2 has 16 strategy pairs: a cap of 15 refuses it, 16 admits it.
        f = random_functional(CHSH, np.random.default_rng(7))
        path = tmp_path / "f.json"
        io.write_functional(path, f)
        monkeypatch.setattr(lhv_module, "DEFAULT_ENUMERATION_CAP", 15)
        with pytest.raises(CapacityError):
            lhv_bound(f)
        with pytest.raises(CapacityError):
            make_joint_bound_oracle(CHSH)
        assert main(["bound", str(path)]) == 3
        monkeypatch.setattr(lhv_module, "DEFAULT_ENUMERATION_CAP", 16)
        lhv_bound(f)
        make_joint_bound_oracle(CHSH)
        assert main(["bound", str(path)]) == 0


class TestBestResponsePath:
    """The per-setting best-response route must agree with the matrix route."""

    def test_route_choice_at_the_matrix_limit(self):
        # 5x2 has 1024 strategy pairs; 6x2 and 3x4 have 4096.
        assert isinstance(lhv_module._route(Scenario(5, 2)), lhv_module._MatrixRoute)
        for sc in (Scenario(6, 2), Scenario(3, 4)):
            assert isinstance(lhv_module._route(sc), lhv_module._ResponseRoute), sc

    def test_matrix_rows_are_the_strategy_tables_in_order(self):
        for m, d in [(2, 2), (3, 2), (2, 3)]:
            sc = Scenario(m, d)
            tables = lhv_module.strategy_tables(m, d)
            assert tables.flags.c_contiguous and not tables.flags.writeable
            assert lhv_module.strategy_tables(m, d) is tables
            assign = list(itertools.product(range(d), repeat=m))
            assert tables.shape == (len(assign) ** 2, m * m * d * d)
            for k, row in enumerate(tables):
                strat = DeterministicStrategy(assign[k // len(assign)], assign[k % len(assign)])
                np.testing.assert_array_equal(row, strategy_behavior(strat, sc).p.ravel())
            assert lhv_module._route(sc).tables_j is tables

    @pytest.mark.parametrize("seed", range(6))
    def test_bound_and_maximizers_agree(self, seed, monkeypatch):
        rng = np.random.default_rng(200 + seed)
        # Rounded coefficients in odd seeds make ties, so maximizer sets
        # with several members are compared too.
        fs = [random_functional(sc, rng) for sc in ROUTE_SCENARIOS + (Scenario(4, 3),)]
        if seed % 2:
            fs = [BellFunctional(f.scenario, np.round(f.joint), np.round(f.marginal_a),
                                 np.round(f.marginal_b)) for f in fs]
        monkeypatch.setattr(lhv_module, "_MATRIX_PATH_LIMIT", FULL_MATRIX_LIMIT)
        via_matrix = [lhv_bound(f) for f in fs]
        monkeypatch.setattr(lhv_module, "_MATRIX_PATH_LIMIT", 0)
        for f, ref in zip(fs, via_matrix):
            via_loop = lhv_bound(f)
            np.testing.assert_allclose(
                via_loop.bound, ref.bound, rtol=1e-13, err_msg=str(f.scenario)
            )
            assert set(via_loop.maximizers) == set(ref.maximizers), f.scenario

    def test_tied_bob_responses_are_all_reported(self, monkeypatch):
        # Bob's settings decouple, so ties multiply across settings.
        joint = np.zeros(CHSH.joint_shape)
        joint[0, 0, 0, 0] = 1.0
        joint[0, 0, 0, 1] = 1.0
        joint[0, 1, 0, 0] = 1.0
        f = BellFunctional(CHSH, joint)
        via_matrix = lhv_bound(f)
        monkeypatch.setattr(lhv_module, "_MATRIX_PATH_LIMIT", 0)
        via_loop = lhv_bound(f)
        assert set(via_loop.maximizers) == set(via_matrix.maximizers)
        assert len(via_loop.maximizers) == len(set(via_loop.maximizers))

    def test_subgradient_agrees(self, monkeypatch):
        rng = np.random.default_rng(321)
        fs = [random_functional(sc, rng, with_marginals=False) for sc in ROUTE_SCENARIOS]
        fs += [random_functional(sc, rng) for sc in ROUTE_SCENARIOS]
        via_matrix = [first_maximizer_table(f) for f in fs]
        monkeypatch.setattr(lhv_module, "_MATRIX_PATH_LIMIT", 0)
        for f, ref in zip(fs, via_matrix):
            np.testing.assert_array_equal(first_maximizer_table(f), ref, err_msg=str(f.scenario))


def _relabeled(f: BellFunctional, kind: str, rng) -> BellFunctional:
    """f on relabeled outcomes, settings or parties; the LHV bound must not change."""
    sc = f.scenario
    joint, marg_a, marg_b = f.joint.copy(), f.marginal_a.copy(), f.marginal_b.copy()
    if kind == "outcomes":
        # Outcome a of Alice's setting x becomes pa[x][a]; likewise for Bob.
        pa = [rng.permutation(sc.d) for _ in range(sc.m)]
        pb = [rng.permutation(sc.d) for _ in range(sc.m)]
        for x in range(sc.m):
            for y in range(sc.m):
                joint[x, y][np.ix_(pa[x], pb[y])] = f.joint[x, y]
        for k in range(sc.m):
            marg_a[k, pa[k]] = f.marginal_a[k]
            marg_b[k, pb[k]] = f.marginal_b[k]
    elif kind == "settings":
        sa, sb = rng.permutation(sc.m), rng.permutation(sc.m)
        joint[np.ix_(sa, sb)] = f.joint
        marg_a[sa], marg_b[sb] = f.marginal_a, f.marginal_b
    else:
        joint = f.joint.transpose(1, 0, 3, 2)
        marg_a, marg_b = f.marginal_b, f.marginal_a
    return BellFunctional(sc, joint, marg_a, marg_b)


class TestRelabelingInvariance:
    """Relabeling outcomes, settings or parties permutes the strategies."""

    # Limits 4096 and 0 send every scenario below to the matrix route and
    # to the response route.
    @pytest.mark.parametrize("route_limit", [4096, 0])
    @pytest.mark.parametrize("kind", ["outcomes", "settings", "parties"])
    def test_bound_and_maximizer_count(self, kind, route_limit, monkeypatch):
        monkeypatch.setattr(lhv_module, "_MATRIX_PATH_LIMIT", route_limit)
        rng = np.random.default_rng(700)
        for sc in (CHSH, Scenario(3, 2), Scenario(3, 3)):
            for rounded in (False, True):
                f = random_functional(sc, rng)
                if rounded:
                    # Integer coefficients tie, so maximizer counts above one are compared.
                    f = BellFunctional(sc, np.round(f.joint), np.round(f.marginal_a),
                                       np.round(f.marginal_b))
                ref, got = lhv_bound(f), lhv_bound(_relabeled(f, kind, rng))
                np.testing.assert_allclose(got.bound, ref.bound, rtol=1e-12, atol=1e-12,
                                           err_msg=str(sc))
                assert len(got.maximizers) == len(ref.maximizers), sc


class TestSubgradient:
    @pytest.mark.parametrize("seed", range(5))
    def test_is_table_of_a_maximizer(self, seed):
        rng = np.random.default_rng(400 + seed)
        f = random_functional(CHSH, rng)
        g = first_maximizer_table(f)
        assert set(np.unique(g)) <= {0.0, 1.0}
        assert g.sum() == f.scenario.m**2
        # Recover the strategy from the one-hot table and check membership.
        hits = np.argwhere(g == 1.0)
        aa = [None] * f.scenario.m
        bb = [None] * f.scenario.m
        for x, y, a, b in hits:
            aa[x], bb[y] = int(a), int(b)
        strat = DeterministicStrategy(tuple(aa), tuple(bb))
        assert strat in lhv_bound(f).maximizers

    def test_supports_the_bound_for_joint_only_functionals(self):
        rng = np.random.default_rng(55)
        f = random_functional(CHSH, rng, with_marginals=False)
        g = first_maximizer_table(f)
        np.testing.assert_allclose(np.vdot(g, f.joint), lhv_bound(f).bound, rtol=1e-13)


class TestStrategyBehavior:
    def test_deterministic_table(self):
        strat = DeterministicStrategy((0, 1), (1, 0))
        b = strategy_behavior(strat, CHSH)
        for x in range(2):
            for y in range(2):
                expect = np.zeros((2, 2))
                expect[strat.assign_a[x], strat.assign_b[y]] = 1.0
                np.testing.assert_array_equal(b.p[x, y], expect)

    def test_score_equals_evaluate(self):
        rng = np.random.default_rng(77)
        f = random_functional(CHSH, rng)
        strat = DeterministicStrategy((1, 0), (0, 1))
        expected = (
            sum(
                f.joint[x, y, strat.assign_a[x], strat.assign_b[y]]
                for x in range(2)
                for y in range(2)
            )
            + sum(f.marginal_a[x, strat.assign_a[x]] for x in range(2))
            + sum(f.marginal_b[y, strat.assign_b[y]] for y in range(2))
        )
        np.testing.assert_allclose(strategy_score(f, strat), expected, rtol=1e-13)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ShapeMismatchError):
            strategy_behavior(DeterministicStrategy((0,), (0,)), CHSH)

    def test_out_of_range_outcome_rejected(self):
        with pytest.raises(DomainError):
            strategy_behavior(DeterministicStrategy((0, 2), (0, 0)), CHSH)


class TestJointBoundOracle:
    @pytest.mark.parametrize("seed", range(5))
    def test_tau_zero_matches_exact_bound(self, seed):
        rng = np.random.default_rng(500 + seed)
        oracle = make_joint_bound_oracle(CHSH)
        s = rng.normal(size=16)
        bound, grad = oracle(s, 0.0)
        grad = grad()
        f = BellFunctional(CHSH, s.reshape(CHSH.joint_shape))
        np.testing.assert_allclose(bound, lhv_bound(f).bound, rtol=1e-13)
        first = strategy_behavior(lhv_bound(f).maximizers[0], CHSH)
        np.testing.assert_array_equal(grad.reshape(CHSH.joint_shape), first.p)

    @pytest.mark.parametrize("route", ["_MatrixRoute", "_ResponseRoute"])
    def test_tau_zero_gradient_is_the_first_maximizer(self, route, monkeypatch):
        # The reference of the subgradient table and route-agreement tests.
        if route == "_ResponseRoute":
            monkeypatch.setattr(lhv_module, "_MATRIX_PATH_LIMIT", 0)
        rng = np.random.default_rng(510)
        for sc in ROUTE_SCENARIOS:
            assert isinstance(lhv_module._route(sc), getattr(lhv_module, route))
            for _ in range(3):
                f = absorb_marginals(random_functional(sc, rng))
                grad = make_joint_bound_oracle(sc)(f.joint.ravel(), 0.0)[1]()
                first = strategy_behavior(lhv_bound(f).maximizers[0], sc)
                np.testing.assert_array_equal(grad.reshape(sc.joint_shape), first.p,
                                              err_msg=str(sc))

    @pytest.mark.parametrize("tau", [1e-3, 0.1, 1.0])
    def test_smoothing_brackets_the_exact_bound(self, tau):
        rng = np.random.default_rng(60)
        oracle = make_joint_bound_oracle(CHSH)
        n_strategies = 16
        for _ in range(5):
            s = rng.normal(size=16)
            exact, _ = oracle(s, 0.0)
            smooth, _ = oracle(s, tau)
            assert exact <= smooth + 1e-12
            assert smooth <= exact + tau * np.log(n_strategies) + 1e-12

    def test_smooth_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(61)
        oracle = make_joint_bound_oracle(CHSH)
        s = rng.normal(size=16)
        tau = 0.3
        grad = oracle(s, tau)[1]()
        h = 1e-6
        for k in range(16):
            e = np.zeros(16)
            e[k] = h
            fd = (oracle(s + e, tau)[0] - oracle(s - e, tau)[0]) / (2 * h)
            np.testing.assert_allclose(grad[k], fd, rtol=0, atol=1e-7)

    def test_smooth_gradient_is_a_strategy_mixture(self):
        rng = np.random.default_rng(62)
        oracle = make_joint_bound_oracle(CHSH)
        grad = oracle(rng.normal(size=16), 0.5)[1]()
        g = grad.reshape(CHSH.joint_shape)
        assert np.all(g >= -1e-15)
        # Softmax weights sum to one within each (x, y) block.
        np.testing.assert_allclose(g.sum(axis=(2, 3)), np.ones((2, 2)), rtol=1e-12)

    @pytest.mark.parametrize("tau", [0.0, 0.25])
    def test_loop_path_oracle_agrees(self, tau, monkeypatch):
        rng = np.random.default_rng(63)
        points = [(sc, rng.normal(size=sc.m**2 * sc.d**2)) for sc in ROUTE_SCENARIOS]
        refs = [make_joint_bound_oracle(sc)(s, tau) for sc, s in points]
        refs = [(bound, grad()) for bound, grad in refs]
        monkeypatch.setattr(lhv_module, "_MATRIX_PATH_LIMIT", 0)
        for (sc, s), (ref_bound, ref_grad) in zip(points, refs):
            bound, grad = make_joint_bound_oracle(sc)(s, tau)
            grad = grad()
            np.testing.assert_allclose(bound, ref_bound, rtol=1e-12, err_msg=str(sc))
            np.testing.assert_allclose(
                np.asarray(grad), np.asarray(ref_grad), atol=1e-12, err_msg=str(sc)
            )

    @pytest.mark.parametrize("route", ["_MatrixRoute", "_ResponseRoute"])
    @pytest.mark.parametrize("tau", [0.0, 0.25])
    def test_lazy_gradient_is_the_eager_one(self, route, tau, monkeypatch):
        if route == "_ResponseRoute":
            monkeypatch.setattr(lhv_module, "_MATRIX_PATH_LIMIT", 0)
        rng = np.random.default_rng(64)
        for sc in ROUTE_SCENARIOS:
            enumerator = lhv_module._route(sc)
            assert isinstance(enumerator, getattr(lhv_module, route))
            oracle = make_joint_bound_oracle(sc)
            s1, s2 = rng.normal(size=(2, sc.m**2 * sc.d**2))
            _, grad1 = oracle(s1, tau)
            _, grad2 = oracle(s2, tau)
            # Formed after a later call, each gradient is still its own point's.
            np.testing.assert_array_equal(grad1(), eager_gradient(enumerator, s1, tau), str(sc))
            np.testing.assert_array_equal(grad2(), eager_gradient(enumerator, s2, tau), str(sc))

    def test_capacity_error_at_construction(self):
        with pytest.raises(CapacityError):
            make_joint_bound_oracle(Scenario(14, 2))
