"""Tests for the violation-ratio objective and its maximizers.

On 2x2 the maximum is exact; elsewhere a local model near the data can
rule out any significant functional, and otherwise the restarts run.
"""

import dataclasses
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from bellgap import (
    Behavior,
    BellFunctional,
    CountTable,
    DegenerateObjectiveError,
    DomainError,
    OptimizerConfig,
    Scenario,
    alpha_for_concurrence,
    error_propagation,
    io,
    lhv_bound,
    maximize_r,
    objective_r,
    poisson_sample,
    r_value,
    sdn,
    tilted_behavior,
    tilted_functional,
    uniform_behavior,
)
from bellgap import lhv as lhv_module
from bellgap import optimize as optimize_module
from bellgap.lhv import make_joint_bound_oracle, strategy_behavior, strategy_tables
from bellgap.lhv import DeterministicStrategy
from bellgap.cli import main
from bellgap.optimize import PENALTY_R, SIGNIFICANCE_SDN, _CountModel

from helpers import local_mixture, random_ns_behavior

CHSH = Scenario(2, 2)
DM = 4.0

# Shared count tables; sampling is cheap but optimization is not, so the
# heavier maximize_r checks reuse these and keep budgets small.
TILTED_COUNTS = poisson_sample(tilted_behavior(1.0), 100_000, seed=21)
UNIFORM_COUNTS = poisson_sample(uniform_behavior(CHSH), 100_000, seed=5)
VERTEX_COUNTS = poisson_sample(
    strategy_behavior(DeterministicStrategy((0, 1), (1, 0)), CHSH), 100_000, seed=6
)

FAST = OptimizerConfig(restarts=6, seed=123)

# The five acceptance datasets (tilted counts, sampling seed 77).
ACCEPTANCE_COUNTS = {
    conc: poisson_sample(tilted_behavior(alpha_for_concurrence(conc)), 100_000, seed=77)
    for conc in (0.193, 0.375, 0.582, 0.835, 0.986)
}
NONLOCAL_2X2 = {"tilted": TILTED_COUNTS} | {f"c{c}": t for c, t in ACCEPTANCE_COUNTS.items()}
ALL_2X2 = NONLOCAL_2X2 | {"uniform": UNIFORM_COUNTS, "vertex": VERTEX_COUNTS}
# The added uniform counts are ones on which the LP's reported optimum
# (-lp.fun) falls below the maximal R, so a certificate must not take it
# (1024, 1228, 1019), and ones on which SLSQP ends on a block-constant ray,
# where dQ = 0 has no gradient and the bound is loose by ~2e-3 (1053, 1095).
CERTIFY_2X2 = ALL_2X2 | {
    f"uniform{seed}": poisson_sample(uniform_behavior(CHSH), 100_000, seed=seed)
    for seed in (1024, 1228, 1019, 1053, 1095)
}

# R of the five acceptance sets from the exact solve at SLSQP ftol = 1e-14
# (one BLAS thread); every one is nonlocal.
ACCEPTANCE_R = {
    0.193: 1.004679685114502,
    0.375: 1.0227533228958454,
    0.582: 1.0528258449718362,
    0.835: 1.1013625882916733,
    0.986: 1.135126330360257,
}

# A script that prints SLSQP's nit and nfev, one line per exact solve, on
# the c = 0.193 acceptance counts and on uniform counts of seeds 1000-1002.
SOLVER_STEPS_SCRIPT = """
import scipy.optimize
from bellgap import (Scenario, alpha_for_concurrence, maximize_r, poisson_sample,
                     tilted_behavior, uniform_behavior)
sols = []
real = scipy.optimize.minimize
def spy(*args, **kwargs):
    sols.append(real(*args, **kwargs))
    return sols[-1]
scipy.optimize.minimize = spy
maximize_r(poisson_sample(tilted_behavior(alpha_for_concurrence(0.193)), 100_000, seed=77))
for seed in (1000, 1001, 1002):
    maximize_r(poisson_sample(uniform_behavior(Scenario(2, 2)), 100_000, seed=seed))
for sol in sols:
    print(sol.nit, sol.nfev)
"""

# maximize_r keeps the restart search outside 2x2, so restart semantics
# are pinned on a 3x2 table.  Its distance to the local polytope, 3.22
# error units, exceeds the significance gate, so the restarts run.
MULTI_COUNTS = poisson_sample(
    random_ns_behavior(Scenario(3, 2), np.random.default_rng(31)), 10_000, seed=8
)


# The benchmark's local 3x2 counts: a six-strategy mixture, three zero
# counts, distance 2.58 to the local polytope, so no functional clears the
# significance gate and maximize_r skips the restarts.
LOCAL_3X2 = poisson_sample(
    local_mixture(Scenario(3, 2), np.random.default_rng(77), 6), 100_000, seed=77
)

# Local 7x2 counts, scored on the response route: an eight-strategy mixture
# plus 0.2 uniform, on which the bracket converges to a gap of 2e-10
# relative, above its 1e-10 stop.
LOCAL_7X2 = poisson_sample(
    local_mixture(Scenario(7, 2), np.random.default_rng(77), 8, 0.2), 100_000, seed=77
)

# Singlet CHSH counts on 3x2, Alice's and Bob's third setting repeating
# their second: far from local, so a single restart clears the gate.
_PAD = np.array([0, 1, 1])
CHSH_3X2 = poisson_sample(
    Behavior(Scenario(3, 2), tilted_behavior(0.0).p[_PAD][:, _PAD]), 10_000, seed=8
)

# Count tables of every scenario the count model is checked on; the 4x2
# and 3x3 mixtures leave some entries with zero counts.
MODEL_COUNTS = {
    "2x2": TILTED_COUNTS,
    "3x2": MULTI_COUNTS,
    "4x2": poisson_sample(
        random_ns_behavior(Scenario(4, 2), np.random.default_rng(32)), 10_000, seed=9
    ),
    "3x3": poisson_sample(
        random_ns_behavior(Scenario(3, 3), np.random.default_rng(33)), 10_000, seed=10
    ),
}


def block_constant(counts, rng):
    """Coefficients constant on each setting block, flat."""
    m, _, d, _ = counts.scenario.joint_shape
    return np.repeat(rng.uniform(-1.0, 1.0, m * m), d * d)


class TestOptimizerConfig:
    def test_defaults_are_valid(self):
        cfg = OptimizerConfig()
        assert cfg.restarts == 200

    @pytest.mark.parametrize("field", ["restarts"])
    def test_counts_must_be_positive(self, field):
        with pytest.raises(DomainError):
            OptimizerConfig(**{field: 0})

    @pytest.mark.parametrize("field", ["restarts", "seed"])
    @pytest.mark.parametrize("value", [2.5, 1.0, True])
    def test_non_integers_rejected(self, field, value):
        with pytest.raises(DomainError):
            OptimizerConfig(**{field: value})

    def test_numpy_integers_accepted(self):
        assert OptimizerConfig(restarts=np.int64(2), seed=np.int32(-7)) == OptimizerConfig(2, -7)


class TestSdn:
    def test_gap_in_error_units(self):
        np.testing.assert_allclose(sdn(4.0, 0.5, 2.0), 4.0, rtol=0)

    def test_signal_variant_extends_to_zero_error(self):
        assert sdn(3.0, 0.0, 2.0) == math.inf
        assert sdn(1.0, 0.0, 2.0) == -math.inf
        assert sdn(2.0, 0.0, 2.0) == 0.0
        np.testing.assert_allclose(sdn(4.0, 0.5, 2.0), 4.0, rtol=0)

    @pytest.mark.parametrize("q, delta_q, expect", [
        (4.0, 0.5, 4.0),
        (3.0, 0.0, math.inf),
        (1.0, 0.0, -math.inf),
        (2.0, 0.0, 0.0),
        (2.0 + 4e-16, 0.0, 0.0),  # on the bound: the gap is rounding
        (4.0, -1.0, DomainError),
        (4.0, math.nan, DomainError),
    ])
    def test_gap_signal_and_domain(self, q, delta_q, expect):
        if expect is DomainError:
            with pytest.raises(DomainError, match="delta_q"):
                sdn(q, delta_q, 2.0)
        else:
            assert sdn(q, delta_q, 2.0) == expect


class TestRValue:
    def test_plain_ratio(self):
        np.testing.assert_allclose(r_value(3.0, 0.1, 2.0, 4.0), 6.9 / 6.0, rtol=1e-15)

    def test_penalty_below_denominator_floor(self):
        assert r_value(3.0, 0.1, -4.0, 4.0) == PENALTY_R
        assert r_value(3.0, 0.1, -4.0 + 2e-6, 4.0) != PENALTY_R


class TestObjectiveR:
    def test_rejects_marginal_blocks(self):
        with pytest.raises(DomainError):
            objective_r(tilted_functional(1.0), TILTED_COUNTS)

    def test_rejects_out_of_box_coefficients(self):
        f = BellFunctional(CHSH, 1.5 * tilted_functional(0.0).joint)
        with pytest.raises(DomainError):
            objective_r(f, TILTED_COUNTS)

    def test_matches_reference_assembly(self):
        rng = np.random.default_rng(13)
        f = BellFunctional(CHSH, rng.uniform(-1.0, 1.0, CHSH.joint_shape))
        rep = error_propagation(f, TILTED_COUNTS)
        expect = r_value(rep.q, rep.delta_q, lhv_bound(f).bound, DM)
        np.testing.assert_allclose(objective_r(f, TILTED_COUNTS), expect, rtol=1e-14)

    def test_chsh_corner_beats_the_baseline_on_tilted_data(self):
        assert objective_r(tilted_functional(0.0), TILTED_COUNTS) > 1.0


class TestCountModel:
    def test_q_dq_match_error_propagation(self):
        rng = np.random.default_rng(14)
        s = rng.uniform(-1.0, 1.0, 16)
        model = _CountModel(TILTED_COUNTS)
        q, dq, _ = model.propagate(s)
        rep = error_propagation(
            BellFunctional(CHSH, s.reshape(CHSH.joint_shape)), TILTED_COUNTS
        )
        np.testing.assert_allclose(q, rep.q, rtol=1e-13)
        np.testing.assert_allclose(dq, rep.delta_q, rtol=1e-13)

    @pytest.mark.parametrize("scenario", MODEL_COUNTS)
    def test_dq_matches_error_propagation(self, scenario):
        counts = MODEL_COUNTS[scenario]
        model = _CountModel(counts)
        sc = counts.scenario
        n = model.freq_flat.size
        rng = np.random.default_rng(18)
        for _ in range(5):
            cases = {
                "uniform": rng.uniform(-1.0, 1.0, n),
                "corner": rng.choice([-1.0, 1.0], n),
                "near block-constant": block_constant(counts, rng) + 1e-4 * rng.uniform(-1, 1, n),
            }
            for name, s in cases.items():
                _, dq, _ = model.propagate(s)
                rep = error_propagation(BellFunctional(sc, s.reshape(sc.joint_shape)), counts)
                np.testing.assert_allclose(dq, rep.delta_q, rtol=1e-12, err_msg=name)

    @pytest.mark.parametrize("scenario", MODEL_COUNTS)
    def test_dq_vanishes_on_block_constant_coefficients(self, scenario):
        model = _CountModel(MODEL_COUNTS[scenario])
        n = model.freq_flat.size
        rng = np.random.default_rng(19)
        for _ in range(5):
            _, dq, ls = model.propagate(block_constant(MODEL_COUNTS[scenario], rng))
            # Zero up to rounding of the product, never NaN, and without a gradient.
            assert 0.0 <= dq <= 1e-15
            np.testing.assert_array_equal(model.grad_dq(ls, dq), np.zeros(n))

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(15)
        for counts in (TILTED_COUNTS, MULTI_COUNTS):
            model = _CountModel(counts)
            n = model.freq_flat.size
            s = rng.uniform(-1.0, 1.0, n)
            _, dq0, ls = model.propagate(s)
            grad_q, grad_dq = model.freq_flat, model.grad_dq(ls, dq0)
            h = 1e-7
            for k in range(0, n, 3):
                e = np.zeros(n)
                e[k] = h
                q_up, dq_up, _ = model.propagate(s + e)
                q_dn, dq_dn, _ = model.propagate(s - e)
                np.testing.assert_allclose(grad_q[k], (q_up - q_dn) / (2 * h), atol=1e-8)
                np.testing.assert_allclose(grad_dq[k], (dq_up - dq_dn) / (2 * h), atol=1e-6)

    def test_dq_gradient_is_zeroed_at_the_kink(self):
        for counts in MODEL_COUNTS.values():
            model = _CountModel(counts)
            n = model.freq_flat.size
            _, dq, ls = model.propagate(np.zeros(n))
            assert dq == 0.0
            np.testing.assert_array_equal(model.grad_dq(ls, dq), np.zeros(n))


class TestMaximizeR:
    def test_finds_violation_on_tilted_data(self):
        res = maximize_r(TILTED_COUNTS, FAST)
        assert res.is_nonlocal
        assert res.r > 1.0
        assert res.sdn > optimize_module.SIGNIFICANCE_SDN
        assert res.q - res.c > optimize_module.SIGNIFICANCE_SDN * res.delta_q

    def test_beats_the_known_chsh_witness(self):
        res = maximize_r(TILTED_COUNTS, FAST)
        assert res.r >= objective_r(tilted_functional(0.0), TILTED_COUNTS) - 1e-9

    def test_result_fields_are_mutually_consistent(self):
        res = maximize_r(TILTED_COUNTS, FAST)
        rep = error_propagation(res.functional, TILTED_COUNTS)
        np.testing.assert_allclose(res.q, rep.q, rtol=0, atol=1e-12)
        np.testing.assert_allclose(res.delta_q, rep.delta_q, rtol=0, atol=1e-12)
        np.testing.assert_allclose(res.c, lhv_bound(res.functional).bound, rtol=0, atol=1e-12)
        np.testing.assert_allclose(
            res.r, r_value(res.q, res.delta_q, res.c, DM), rtol=0, atol=1e-12
        )
        assert res.is_nonlocal == (res.r > 1.0)
        assert res.functional.is_joint_only
        assert np.abs(res.functional.joint).max() <= 1.0 + 1e-12

    def test_runs_are_reproducible(self):
        a = maximize_r(TILTED_COUNTS, FAST)
        b = maximize_r(TILTED_COUNTS, FAST)
        np.testing.assert_array_equal(a.functional.joint, b.functional.joint)
        assert a.r == b.r
        assert a.engine_trace == b.engine_trace

    def test_restart_prefix_is_stable(self):
        short = maximize_r(MULTI_COUNTS, OptimizerConfig(restarts=3, seed=123))
        long = maximize_r(MULTI_COUNTS, OptimizerConfig(restarts=6, seed=123))
        assert long.engine_trace[:3] == short.engine_trace
        assert len(long.engine_trace) == 6

    def test_negative_seed_is_accepted(self):
        res = maximize_r(MULTI_COUNTS, OptimizerConfig(restarts=2, seed=-7))
        assert len(res.engine_trace) == 2

    def test_uniform_data_falls_back_to_the_zero_functional(self):
        res = maximize_r(UNIFORM_COUNTS, FAST)
        assert res.r == 1.0
        assert not res.is_nonlocal
        assert not res.functional.joint.any()
        assert res.q == 0.0 and res.delta_q == 0.0 and res.c == 0.0
        assert res.sdn == 0.0

    def test_fluke_violations_are_filtered_not_reported(self):
        # Raw restart scores on local data exceed 1 by noise-level margins;
        # the significance gate must still return the exact baseline.
        res = maximize_r(UNIFORM_COUNTS, FAST)
        assert any(t > 1.0 for t in res.engine_trace)
        assert res.r == 1.0

    def test_vertex_data_is_local(self):
        res = maximize_r(VERTEX_COUNTS, FAST)
        assert res.r == 1.0
        assert not res.is_nonlocal

    def test_all_penalized_restarts_raise(self, monkeypatch):
        monkeypatch.setattr(
            optimize_module, "_run_gradient", lambda *a: (np.zeros(36), PENALTY_R)
        )
        # Only a start with C + dm below the floor is penalized, whatever
        # the counts, so the message names the seed and the restarts.
        with pytest.raises(DegenerateObjectiveError, match=r"all 3 restarts of seed 0 started"):
            maximize_r(MULTI_COUNTS, OptimizerConfig(restarts=3, seed=0))


# One case per path of maximize_r: (counts, config, candidates it scores).
PATHS = {
    "exact_2x2": (TILTED_COUNTS, FAST, 1),
    "skip": (LOCAL_3X2, FAST, 0),
    "restarts": (CHSH_3X2, OptimizerConfig(restarts=2, seed=1), 2),
}


class TestOneEvaluation:
    """maximize_r scores each candidate once, and the gate and the result read that scoring."""

    @pytest.mark.parametrize("path", ["exact_2x2", "restarts"])
    def test_gate_reads_the_reported_delta_q(self, monkeypatch, path):
        counts, cfg, _ = PATHS[path]
        assert maximize_r(counts, cfg).is_nonlocal
        real = optimize_module.error_propagation

        def inflated(f, c):
            rep = real(f, c)
            return dataclasses.replace(rep, delta_q=1e3 * rep.delta_q)

        # With every dQ a thousandfold larger no candidate is significant,
        # so the backstop is the answer.
        monkeypatch.setattr(optimize_module, "error_propagation", inflated)
        res = maximize_r(counts, cfg)
        assert res.sdn == 0.0 and res.r == 1.0 and not res.is_nonlocal
        assert not res.functional.joint.any()

    @pytest.mark.parametrize("path", PATHS)
    def test_each_candidate_is_scored_once(self, monkeypatch, path):
        counts, cfg, candidates = PATHS[path]
        bounds, propagations = [], []
        real_bound, real_propagation = optimize_module.lhv_bound, optimize_module.error_propagation
        monkeypatch.setattr(optimize_module, "lhv_bound", lambda f: bounds.append(f) or real_bound(f))
        monkeypatch.setattr(
            optimize_module, "error_propagation",
            lambda f, c: propagations.append(f) or real_propagation(f, c),
        )
        res = maximize_r(counts, cfg)
        assert bounds == []
        # The backstop is scored only when no candidate clears the gate.
        assert len(propagations) == candidates + (not res.is_nonlocal)
        assert any(f is res.functional for f in propagations)

    @pytest.mark.parametrize("path, route", [
        ("exact_2x2", "_MatrixRoute"), ("exact_2x2", "_ResponseRoute"),
        ("restarts", "_MatrixRoute"), ("restarts", "_ResponseRoute"),
    ])
    def test_c_is_the_lhv_bound_bit_for_bit(self, monkeypatch, path, route):
        counts, cfg, _ = PATHS[path]
        if route == "_ResponseRoute":
            monkeypatch.setattr(lhv_module, "_MATRIX_PATH_LIMIT", 0)
        assert isinstance(lhv_module._route(counts.scenario), getattr(lhv_module, route))
        res = maximize_r(counts, cfg)
        assert res.is_nonlocal
        assert res.c == lhv_bound(res.functional).bound


class TestGradientEngineInternals:
    def test_start_inside_penalty_region_returns_immediately(self):
        model = _CountModel(TILTED_COUNTS)
        oracle = make_joint_bound_oracle(CHSH)
        s0 = -np.ones(16)  # C = -4 exactly, so C + dm sits below the floor
        s, r = optimize_module._run_gradient(model, oracle, DM, s0)
        assert r == PENALTY_R
        np.testing.assert_array_equal(s, s0)

    def test_iterates_stay_inside_the_box(self):
        model = _CountModel(TILTED_COUNTS)
        oracle = make_joint_bound_oracle(CHSH)
        rng = np.random.default_rng(99)
        s, r = optimize_module._run_gradient(model, oracle, DM, rng.uniform(-1, 1, 16))
        assert np.abs(s).max() <= 1.0
        assert r > PENALTY_R

    @pytest.mark.parametrize("route", ["_MatrixRoute", "_ResponseRoute"])
    def test_multisetting_run_stays_in_the_box_and_reports_its_exact_r(self, monkeypatch, route):
        sc = MULTI_COUNTS.scenario
        if route == "_ResponseRoute":
            monkeypatch.setattr(lhv_module, "_MATRIX_PATH_LIMIT", 0)
        assert isinstance(lhv_module._route(sc), getattr(lhv_module, route))
        model = _CountModel(MULTI_COUNTS)
        oracle = make_joint_bound_oracle(sc)
        s0 = np.random.default_rng(17).uniform(-1.0, 1.0, 36)
        s, r = optimize_module._run_gradient(model, oracle, 6, s0)
        assert np.abs(s).max() <= 1.0
        assert r == r_value(*model.propagate(s)[:2], oracle(s, 0.0)[0], 6)

    @pytest.mark.parametrize("seed", [1, 2])
    def test_no_point_is_scored_twice(self, seed):
        # The ascent keeps the parts of R's gradient for the point it
        # accepts, and the corner probes skip points already scored.
        sc = MULTI_COUNTS.scenario
        oracle = make_joint_bound_oracle(sc)
        scored = []

        def recording_oracle(s, tau=0.0):
            scored.append((s.tobytes(), tau))
            return oracle(s, tau)

        s0 = np.random.default_rng(seed).uniform(-1.0, 1.0, 36)
        optimize_module._run_gradient(_CountModel(MULTI_COUNTS), recording_oracle, 6, s0)
        assert len(scored) > 1000
        assert len(set(scored)) == len(scored)

    @pytest.mark.parametrize("route", ["_MatrixRoute", "_ResponseRoute"])
    @pytest.mark.parametrize("seed", [1, 2])
    def test_gradients_are_formed_only_for_accepted_points(self, monkeypatch, route, seed):
        # The oracle's gradient is lazy; the ascent forms it only for the
        # point it moves from, never for a rejected candidate.
        if route == "_ResponseRoute":
            monkeypatch.setattr(lhv_module, "_MATRIX_PATH_LIMIT", 0)
        sc = MULTI_COUNTS.scenario
        model = _CountModel(MULTI_COUNTS)
        oracle = make_joint_bound_oracle(sc)
        scored = []  # (tau, R) of every scored point
        formed = []  # index in scored of every gradient formed

        def recording_oracle(s, tau=0.0):
            c, grad = oracle(s, tau)
            index = len(scored)
            scored.append((tau, r_value(*model.propagate(s)[:2], c, 6)))

            def recorded_grad():
                formed.append(index)
                return grad()

            return c, recorded_grad

        s0 = np.random.default_rng(seed).uniform(-1.0, 1.0, 36)
        optimize_module._run_gradient(model, recording_oracle, 6, s0)
        # A stage starts wherever tau changes, from the point it holds;
        # within a stage a point is accepted when it beats the best so far.
        accepted, best, tau_before = set(), None, None
        for index, (tau, r) in enumerate(scored):
            if tau != tau_before or r > best:
                accepted.add(index)
                best = r
            tau_before = tau
        assert len(scored) - len(accepted) > 1000
        # So at most one gradient per accepted step and one per stage start.
        assert set(formed) <= accepted
        assert len(formed) == len(set(formed))


class TestExactPath:
    """maximize_r on 2x2 counts: one Charnes-Cooper solve, certified by its KKT multipliers."""

    @pytest.mark.parametrize("name", CERTIFY_2X2)
    def test_certificate_bounds_the_result(self, name):
        res = maximize_r(CERTIFY_2X2[name], FAST)
        assert len(res.engine_trace) == 1
        assert res.r_upper >= res.r
        assert res.r_upper >= res.engine_trace[0]

    @pytest.mark.parametrize("name", CERTIFY_2X2)
    def test_certificate_bounds_the_lp_optimum(self, name):
        # The certificate bounds max{v.u : T u <= 1, u >= 0}, with v the
        # gradient of q - dQ at the solver's point.  linprog's optimum,
        # scaled onto the polytope exactly, is a value of that LP.
        from scipy.optimize import linprog

        counts = CERTIFY_2X2[name]
        model = _CountModel(counts)
        tables = strategy_tables(2, 2)
        s, _, r_upper = optimize_module._charnes_cooper(model, tables, DM)
        _, dq, ls = model.propagate(s)
        v = model.freq_flat - model.grad_dq(ls, dq)
        lp = linprog(-v, A_ub=tables, b_ub=np.ones(len(tables)), bounds=(0.0, None))
        assert lp.status == 0
        u = np.clip(lp.x, 0.0, None)
        u /= max(1.0, (tables @ u).max())
        assert r_upper >= v @ u

    def test_one_solver_call_and_no_lp(self, monkeypatch):
        import scipy.optimize

        calls = []

        def spy(name):
            real = getattr(scipy.optimize, name)

            def wrapper(*args, **kwargs):
                calls.append(name)
                return real(*args, **kwargs)

            return wrapper

        for name in ("minimize", "linprog"):
            monkeypatch.setattr(scipy.optimize, name, spy(name))
        maximize_r(ACCEPTANCE_COUNTS[0.193], FAST)
        assert calls == ["minimize"]

    def test_solver_stops_where_r_stops_changing(self, monkeypatch):
        # Under ftol = 1e-14 SLSQP's stop test read rounding noise: seeds
        # 1000-1019 took 1 061 evaluations (default BLAS threads) or 1 207
        # (one thread), and c = 0.193 took 102 or 52.  Under ftol = 1e-12
        # they take 703 and 52 under either setting; the bound of 750 leaves
        # 7% above the 703.
        import scipy.optimize

        sols = []
        real = scipy.optimize.minimize

        def spy(*args, **kwargs):
            sols.append(real(*args, **kwargs))
            return sols[-1]

        monkeypatch.setattr(scipy.optimize, "minimize", spy)
        for seed in range(1000, 1020):
            maximize_r(poisson_sample(uniform_behavior(CHSH), 100_000, seed=seed), FAST)
        assert sum(sol.nfev for sol in sols) <= 750
        sols.clear()
        for conc, r in ACCEPTANCE_R.items():
            res = maximize_r(ACCEPTANCE_COUNTS[conc], FAST)
            assert res.is_nonlocal
            assert abs(res.r - r) <= 1e-12
        assert sols[0].nfev <= 60

    def test_solver_steps_do_not_depend_on_blas_threads(self):
        # The last digits of R still may (SDN by 2.7e-11 at c = 0.193); the
        # number of SLSQP iterations and evaluations may not.
        src = str(Path(optimize_module.__file__).resolve().parents[1])
        outs = [
            subprocess.run(
                [sys.executable, "-c", SOLVER_STEPS_SCRIPT],
                env={**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": threads},
                capture_output=True, text=True, check=True,
            ).stdout
            for threads in ("1", "2")
        ]
        assert outs[0] == outs[1]
        assert len(outs[0].splitlines()) == 4

    @pytest.mark.parametrize("name", NONLOCAL_2X2)
    def test_certificate_is_tight_on_nonlocal_data(self, name):
        res = maximize_r(NONLOCAL_2X2[name], FAST)
        assert res.is_nonlocal
        assert res.r_upper - res.r <= 1e-9

    def test_weakest_acceptance_state_reaches_the_optimum(self):
        # The 200-restart search stopped at R = 1.002612 (SDN 14.3) here.
        res = maximize_r(ACCEPTANCE_COUNTS[0.193], FAST)
        np.testing.assert_allclose(res.r, 1.004679685115, rtol=0, atol=1e-9)
        assert res.sdn > 17.0

    def test_dominates_seeded_gradient_runs(self):
        counts = ACCEPTANCE_COUNTS[0.193]
        model = _CountModel(counts)
        oracle = make_joint_bound_oracle(CHSH)
        best = max(
            optimize_module._run_gradient(
                model, oracle, DM, np.random.default_rng([5, i]).uniform(-1.0, 1.0, 16)
            )[1]
            for i in range(20)
        )
        assert maximize_r(counts, FAST).r >= best

    def test_seed_does_not_change_the_result(self):
        runs = [maximize_r(TILTED_COUNTS, OptimizerConfig(seed=seed)) for seed in (0, 1, -7)]
        for res in runs[1:]:
            np.testing.assert_array_equal(res.functional.joint, runs[0].functional.joint)
            assert (res.r, res.r_upper, res.engine_trace) == (
                runs[0].r, runs[0].r_upper, runs[0].engine_trace
            )

    def test_flat_counts_certify_the_baseline(self):
        # No contrast in the frequencies: the solver starts off the zero
        # functional and proves max R = 1.
        res = maximize_r(CountTable(CHSH, np.full(CHSH.joint_shape, 25_000)), FAST)
        assert res.r == 1.0 and not res.is_nonlocal
        np.testing.assert_allclose(res.r_upper, 1.0, rtol=0, atol=1e-9)

    def test_restart_path_has_no_certificate(self):
        res = maximize_r(MULTI_COUNTS, OptimizerConfig(restarts=2, seed=1))
        assert res.r_upper == math.inf


def _bracket(counts):
    """_local_bracket as maximize_r runs it."""
    oracle = make_joint_bound_oracle(counts.scenario)
    return optimize_module._local_bracket(_CountModel(counts), oracle)


def _scored_sdn(counts, s_flat):
    """SDN of joint coefficients s, scored by error_propagation and lhv_bound."""
    f = BellFunctional(counts.scenario, s_flat.reshape(counts.scenario.joint_shape))
    rep = error_propagation(f, counts)
    return sdn(rep.q, rep.delta_q, lhv_bound(f).bound)


def _spy_restarts(monkeypatch):
    """Record every call of the restart search; returns the list of calls."""
    calls = []
    real = optimize_module._run_gradient

    def spy(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(optimize_module, "_run_gradient", spy)
    return calls


BRACKET_COUNTS = ALL_2X2 | {"multi": MULTI_COUNTS, "local_3x2": LOCAL_3X2}


class TestLocalBracket:
    """The local-model bracket lb <= D <= ub, and the restarts it skips when ub clears the gate."""

    @pytest.mark.parametrize("name", BRACKET_COUNTS)
    def test_bracket_comes_with_a_local_model(self, name):
        counts = BRACKET_COUNTS[name]
        lb, ub, lam, tables = _bracket(counts)
        assert 0.0 <= lb <= ub < math.inf
        assert (lam >= 0.0).all()
        assert abs(lam.sum() - 1.0) <= 1e-12
        zero = (counts.c == 0).ravel()
        assert not tables[:, zero].any()
        # ub is the error-weighted distance of that model from the
        # frequencies, recomputed from the counts.
        n = np.broadcast_to(counts.block_totals()[:, :, None, None], counts.c.shape)
        f = counts.c / n
        p = (lam @ tables).reshape(counts.scenario.joint_shape)
        pos = f > 0
        distance = math.sqrt((n[pos] * (f - p)[pos] ** 2 / f[pos]).sum())
        np.testing.assert_allclose(distance, ub, rtol=1e-9)

    @pytest.mark.parametrize("name", ALL_2X2)
    def test_ub_bounds_the_sdn_of_the_exact_optimum(self, name):
        counts = ALL_2X2[name]
        tables = strategy_tables(2, 2)
        s, _, _ = optimize_module._charnes_cooper(_CountModel(counts), tables, DM)
        assert _scored_sdn(counts, s) <= _bracket(counts)[1] * (1.0 + 1e-12)

    def test_ub_bounds_the_sdn_of_restart_results(self):
        ub = _bracket(MULTI_COUNTS)[1]
        model = _CountModel(MULTI_COUNTS)
        oracle = make_joint_bound_oracle(MULTI_COUNTS.scenario)
        for i in range(4):
            s0 = np.random.default_rng([123, i]).uniform(-1.0, 1.0, 36)
            s, _ = optimize_module._run_gradient(model, oracle, 6, s0)
            assert _scored_sdn(MULTI_COUNTS, s) <= ub * (1.0 + 1e-12)

    def test_local_counts_skip_the_restarts(self, monkeypatch):
        def no_restarts(*args):
            raise AssertionError("the restart search ran")

        monkeypatch.setattr(optimize_module, "_run_gradient", no_restarts)
        assert _bracket(LOCAL_3X2)[1] <= SIGNIFICANCE_SDN
        res = maximize_r(LOCAL_3X2, FAST)
        assert res.engine_trace == (1.0,)
        assert res.r == 1.0 and not res.is_nonlocal
        assert not res.functional.joint.any()
        assert res.r_upper == math.inf

    def test_zero_count_block_outweighs_large_counts(self, monkeypatch):
        # Three strategies mixed and sampled at N = 1e9 per setting: the
        # oracle's direction reaches ~1e9 per entry, so a fixed block on the
        # 16 zero-count entries would be outscored and the bracket would
        # stop at ub ~ 7.5e4.  A block that scales with the direction keeps
        # the model on positive counts, at D = 2.29.
        sc = Scenario(3, 2)
        rng = np.random.default_rng(4)
        picks = strategy_tables(sc.m, sc.d)[rng.choice(64, 3, replace=False)]
        p = (rng.dirichlet(np.ones(3)) @ picks).reshape(sc.joint_shape)
        counts = poisson_sample(Behavior(sc, p), 10**9, seed=4)
        _, ub, _, tables = _bracket(counts)
        assert ub <= SIGNIFICANCE_SDN
        assert not tables[:, (counts.c == 0).ravel()].any()

        def no_restarts(*args):
            raise AssertionError("the restart search ran")

        monkeypatch.setattr(optimize_module, "_run_gradient", no_restarts)
        assert maximize_r(counts, FAST).engine_trace == (1.0,)

    def test_bracket_calls_go_through_the_bound_oracle(self, monkeypatch):
        # maximize_r hands _local_bracket the oracle it builds, so a wrapper
        # of make_joint_bound_oracle sees every call the bracket makes.
        calls, in_bracket = [], []
        real_oracle, real_bracket = make_joint_bound_oracle, optimize_module._local_bracket

        def counted_oracle(scenario):
            oracle = real_oracle(scenario)

            def counted(*args):
                calls.append(args)
                return oracle(*args)

            return counted

        def bracket(model, oracle):
            before = len(calls)
            result = real_bracket(model, oracle)
            in_bracket.append(len(calls) - before)
            return result

        monkeypatch.setattr(optimize_module, "make_joint_bound_oracle", counted_oracle)
        monkeypatch.setattr(optimize_module, "_local_bracket", bracket)
        assert maximize_r(LOCAL_3X2, FAST).engine_trace == (1.0,)
        assert len(in_bracket) == 1 and in_bracket[0] > 1
        # Besides the bracket's calls, the backstop's one scoring.
        assert len(calls) == in_bracket[0] + 1

    def test_skip_writes_the_bytes_of_the_restart_search(self, tmp_path, monkeypatch):
        counts_path = tmp_path / "local_3x2.json"
        io.write_counts(counts_path, LOCAL_3X2)

        def optimize(name):
            out = tmp_path / f"{name}.json"
            argv = ["optimize", str(counts_path), "--seed", "123", "--restarts", "2"]
            assert main([*argv, "--out", str(out)]) == 0
            return out.read_bytes(), (tmp_path / f"{name}_functional.json").read_bytes()

        skipped = optimize("skipped")
        calls = _spy_restarts(monkeypatch)
        no_certificate = (0.0, math.inf, np.ones(0), np.zeros((0, 36)))
        monkeypatch.setattr(optimize_module, "_local_bracket", lambda *a: no_certificate)
        searched = optimize("searched")
        assert len(calls) == 2
        assert searched == skipped

    def test_local_counts_report_no_efficiency(self, tmp_path):
        # The zero functional wins on local counts; it has no detection
        # efficiency, so both blocks carry an error and the run succeeds.
        counts_path, out = tmp_path / "local_3x2.json", tmp_path / "r.json"
        io.write_counts(counts_path, LOCAL_3X2)
        assert main(["optimize", str(counts_path), "--seed", "123", "--restarts", "2",
                     "--out", str(out)]) == 0
        blocks = io.read_json(out)["efficiencies"]
        assert [b["mode"] for b in blocks] == ["asymmetric_b_perfect", "symmetric"]
        for block in blocks:
            assert set(block) == {"functional", "mode", "error"}
            assert "zero" in block["error"]

    def test_no_skip_beyond_the_gate(self, monkeypatch):
        # D = 3.22 on these counts: the bracket proves it exceeds the gate.
        assert _bracket(MULTI_COUNTS)[0] > SIGNIFICANCE_SDN
        calls = _spy_restarts(monkeypatch)
        res = maximize_r(MULTI_COUNTS, OptimizerConfig(restarts=2, seed=1))
        assert len(calls) == 2
        assert len(res.engine_trace) == 2

    def test_bracket_stops_once_ub_stops_falling(self, monkeypatch):
        # With the gate's early stop off, these counts reach a point where
        # the minor cycle drops the vertex that each major step re-adds, so
        # ub stays put; only a stop on ub keeps the run from the cap.
        monkeypatch.setattr(optimize_module, "_CLEARED_SDN", math.nan)
        model = _CountModel(LOCAL_7X2)
        route = lhv_module._route(LOCAL_7X2.scenario)
        assert isinstance(route, lhv_module._ResponseRoute)

        def bracket():
            calls = []

            def best(direction):
                calls.append(direction)
                return route.bound(direction)

            lb, ub, _, _ = optimize_module._local_bracket(model, best)
            return (lb, ub), len(calls)

        (lb, ub), calls = bracket()
        assert calls < optimize_module._WOLFE_MAJOR
        assert ub - lb <= 1e-9 * ub
        monkeypatch.setattr(optimize_module, "_WOLFE_MAJOR", 100)
        assert bracket()[0] == (lb, ub)

    def test_zero_counts_that_exclude_every_strategy_leave_no_certificate(self, monkeypatch):
        # Alice's outcome on setting 0 has zero counts for a = 0 against
        # Bob's setting 0 and for a = 1 against his setting 1, so every
        # deterministic strategy puts weight on a zero-count entry.
        c = MULTI_COUNTS.c.copy()
        c[0, 0, 0, :] = 0
        c[0, 1, 1, :] = 0
        counts = CountTable(MULTI_COUNTS.scenario, c)
        lb, ub, lam, tables = _bracket(counts)
        assert ub == math.inf and lam.size == 0 and tables.shape == (0, 36)
        calls = _spy_restarts(monkeypatch)
        res = maximize_r(counts, OptimizerConfig(restarts=2, seed=1))
        assert len(calls) == 2
        assert len(res.engine_trace) == 2


def _swap_parties(c):
    return c.transpose(1, 0, 3, 2)


def _swap_alice_settings(c):
    return c[::-1]


def _flip_alice_setting_0(c):
    c = c.copy()
    c[0] = c[0, :, ::-1]
    return c


RELABELINGS = [_swap_parties, _swap_alice_settings, _flip_alice_setting_0]


class TestRelabelingInvariance:
    @pytest.mark.parametrize("relabel", RELABELINGS)
    @pytest.mark.parametrize("name", ["tilted", "c0.193", "uniform"])
    def test_r_and_verdict_are_invariant(self, name, relabel):
        counts = ALL_2X2[name]
        base = maximize_r(counts, FAST)
        moved = maximize_r(CountTable(CHSH, relabel(counts.c)), FAST)
        np.testing.assert_allclose(moved.r, base.r, rtol=0, atol=1e-9)
        np.testing.assert_allclose(moved.r_upper, base.r_upper, rtol=0, atol=1e-9)
        assert moved.is_nonlocal == base.is_nonlocal
        # On local data r is the baseline 1 either way; the optimum before
        # the significance gate must not move either.
        np.testing.assert_allclose(moved.engine_trace, base.engine_trace, rtol=0, atol=1e-9)

    @pytest.mark.parametrize("relabel", RELABELINGS)
    def test_local_3x2_skip_is_invariant(self, relabel):
        moved_counts = CountTable(LOCAL_3X2.scenario, relabel(LOCAL_3X2.c))
        base, moved = maximize_r(LOCAL_3X2, FAST), maximize_r(moved_counts, FAST)
        assert moved.engine_trace == base.engine_trace == (1.0,)
        assert (moved.r, moved.q, moved.delta_q) == (base.r, base.q, base.delta_q)
        assert moved.c == base.c
        np.testing.assert_array_equal(moved.functional.joint, base.functional.joint)
        # Each bracket holds the same distance, so the two overlap.
        (lb, ub), (lb_moved, ub_moved) = _bracket(LOCAL_3X2)[:2], _bracket(moved_counts)[:2]
        assert max(lb, lb_moved) <= min(ub, ub_moved) <= SIGNIFICANCE_SDN
