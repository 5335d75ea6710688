"""Acceptance gate: nine end-to-end criteria for the violation-search pipeline.

Each test records one PASS/FAIL line (echoed after the run by conftest)
and then asserts, so a red run still reports every criterion it reached.
The heavy 200-restart optimization series is computed once and shared.
"""

import math
from types import SimpleNamespace

import numpy as np
import pytest

from bellgap import (
    Behavior,
    BellFunctional,
    CountTable,
    OptimizerConfig,
    Scenario,
    alpha_for_concurrence,
    canonical_lhv_bound,
    canonical_value,
    canonicalize,
    critical_efficiency,
    error_propagation,
    evaluate,
    io,
    kl_divergence,
    lhv_bound,
    maximize_r,
    ns_project,
    ns_residual,
    poisson_sample,
    rescale,
    strategy_behavior,
    tilted_behavior,
    tilted_functional,
    uniform_behavior,
)
from bellgap.cli import main
from bellgap.lhv import DeterministicStrategy
from bellgap.optimize import sdn

from helpers import random_functional, random_ns_behavior, signaling_behavior

CHSH = Scenario(2, 2)
DM = 4.0
ALPHA_GRID = [0.25 * k for k in range(9)]
CONCURRENCES = (0.193, 0.375, 0.582, 0.835, 0.986)
N_PER_SETTING = 100_000
DATA_SEED = 77
SEARCH_CFG = OptimizerConfig(restarts=200, seed=123)

RESULTS: list[str] = []


def record(number: int, name: str, passed: bool, detail: str) -> None:
    verdict = "PASS" if passed else "FAIL"
    RESULTS.append(f"{verdict}  criterion {number}: {name} ({detail})")


@pytest.fixture(scope="module")
def concurrence_series():
    """Synthetic counts and full optimization at the five target concurrences."""
    rows = []
    for conc in CONCURRENCES:
        alpha = alpha_for_concurrence(conc)
        behavior = tilted_behavior(alpha)
        counts = poisson_sample(behavior, N_PER_SETTING, seed=DATA_SEED)
        tilted = tilted_functional(alpha)
        rep = error_propagation(tilted, counts)
        sdn_tilted = sdn(rep.q, rep.delta_q, lhv_bound(tilted).bound)
        result = maximize_r(counts, SEARCH_CFG)
        rows.append(
            SimpleNamespace(
                concurrence=conc,
                alpha=alpha,
                behavior=behavior,
                counts=counts,
                tilted=tilted,
                sdn_tilted=sdn_tilted,
                result=result,
            )
        )
    return rows


@pytest.fixture(scope="module")
def local_series():
    """Full optimization on counts whose underlying behavior is exactly local."""
    rows = [("uniform", poisson_sample(uniform_behavior(CHSH), N_PER_SETTING, seed=5))]
    rng = np.random.default_rng(2024)
    for k in range(5):
        strat = DeterministicStrategy(
            tuple(rng.integers(0, 2, size=2)), tuple(rng.integers(0, 2, size=2))
        )
        b = strategy_behavior(strat, CHSH)
        rows.append((f"vertex {strat.assign_a}/{strat.assign_b}",
                     poisson_sample(b, N_PER_SETTING, seed=6 + k)))
    return [(name, maximize_r(counts, SEARCH_CFG)) for name, counts in rows]


def test_criterion_1_tilted_family_constants():
    bound_err = 0.0
    value_err = 0.0
    for alpha in ALPHA_GRID:
        bound = lhv_bound(tilted_functional(alpha)).bound
        bound_err = max(bound_err, abs(bound - (alpha + 2.0)))
        q = evaluate(tilted_functional(alpha), tilted_behavior(alpha))
        value_err = max(value_err, abs(q - math.sqrt(8.0 + 2.0 * alpha**2)))
    ok = bound_err <= 1e-12 and value_err <= 1e-9
    record(1, "tilted family constants", ok,
           f"bound err {bound_err:.2e}, quantum value err {value_err:.2e}")
    assert ok


def test_criterion_2_canonical_reduction():
    coeff_err = 0.0
    bound_err = 0.0
    for alpha in ALPHA_GRID:
        cf = canonicalize(tilted_functional(alpha), normalize=4.0)
        coeff_err = max(
            coeff_err,
            np.abs(cf.joint0 - [[1.0, 1.0], [1.0, -1.0]]).max(),
            np.abs(cf.marg_a0 - [alpha / 2.0 - 1.0, 0.0]).max(),
            np.abs(cf.marg_b0 - [-1.0, 0.0]).max(),
            abs(cf.offset - (2.0 - alpha)),
        )
        bound_err = max(bound_err, abs(canonical_lhv_bound(cf) - alpha / 2.0))

    identity_err = 0.0
    rng = np.random.default_rng(1234)
    for k in range(100):
        alpha = ALPHA_GRID[k % len(ALPHA_GRID)]
        cf = canonicalize(tilted_functional(alpha), normalize=4.0)
        b = random_ns_behavior(CHSH, rng, include_quantum=True)
        identity_err = max(
            identity_err, abs(canonical_value(cf, b) - evaluate(tilted_functional(alpha), b))
        )
    ok = coeff_err == 0.0 and bound_err <= 1e-12 and identity_err <= 1e-10
    record(2, "canonical two-outcome reduction", ok,
           f"coefficient err {coeff_err:.1e}, bound err {bound_err:.2e}, "
           f"identity err over 100 behaviors {identity_err:.2e}")
    assert ok


def test_criterion_3_poisson_propagation_oracle():
    rng = np.random.default_rng(4321)
    fd_rel_err = 0.0
    homo_rel_err = 0.0
    uniform = uniform_behavior(CHSH).p
    for k in range(50):
        f = random_functional(CHSH, rng)
        base = random_ns_behavior(CHSH, rng)
        b = Behavior(CHSH, 0.8 * base.p + 0.2 * uniform)
        counts = poisson_sample(b, 10_000, seed=k)
        report = error_propagation(f, counts)

        fd = np.zeros(CHSH.joint_shape)
        for idx in np.ndindex(CHSH.joint_shape):
            up = counts.c.copy()
            down = counts.c.copy()
            up[idx] += 1
            down[idx] -= 1
            q_up = error_propagation(f, CountTable(CHSH, up)).q
            q_down = error_propagation(f, CountTable(CHSH, down)).q
            fd[idx] = (q_up - q_down) / 2.0
        scale = np.abs(report.partials).max()
        fd_rel_err = max(fd_rel_err, np.abs(fd - report.partials).max() / scale)

        kappa = float(rng.uniform(0.5, 5.0))
        scaled = error_propagation(rescale(f, kappa), counts)
        homo_rel_err = max(
            homo_rel_err, abs(scaled.delta_q - kappa * report.delta_q) / (kappa * report.delta_q)
        )
    ok = fd_rel_err <= 1e-6 and homo_rel_err <= 1e-12
    record(3, "Poisson propagation matches finite differences", ok,
           f"50 instances: partials rel err {fd_rel_err:.2e}, "
           f"homogeneity rel err {homo_rel_err:.2e}")
    assert ok


def test_criterion_4_ratio_identity(concurrence_series, local_series):
    results = [row.result for row in concurrence_series]
    results += [res for _, res in local_series]
    rng = np.random.default_rng(77)
    small = OptimizerConfig(restarts=2, seed=9)
    for alpha in (0.0, 0.5, 1.0, 1.5):
        for seed in (1, 2):
            counts = poisson_sample(tilted_behavior(alpha), 20_000, seed=seed)
            results.append(maximize_r(counts, small))
    counts = poisson_sample(tilted_behavior(0.0), 20_000, seed=3)
    results.append(maximize_r(counts, small))

    identity_err = 0.0
    flag_ok = True
    for res in results:
        lhs = res.q - res.delta_q - res.c
        rhs = (res.r - 1.0) * (res.c + DM)
        identity_err = max(identity_err, abs(lhs - rhs) / max(1.0, abs(lhs)))
        flag_ok = flag_ok and res.is_nonlocal == (res.r > 1.0)
    ok = len(results) >= 20 and identity_err <= 1e-9 and flag_ok
    record(4, "gap identity and nonlocality flag", ok,
           f"{len(results)} runs: identity rel err {identity_err:.2e}, "
           f"flag consistent: {flag_ok}")
    assert ok


def test_criterion_5_local_data_stays_local(local_series):
    flagged = [name for name, res in local_series if res.is_nonlocal]
    ok = not flagged
    record(5, "local data never certified nonlocal", ok,
           f"uniform + 5 deterministic vertices at N={N_PER_SETTING}: "
           f"false positives {flagged!r}")
    assert ok, flagged


def test_criterion_6_optimized_functionals_dominate(concurrence_series):
    margins = []
    for row in concurrence_series:
        margins.append(row.result.sdn - row.sdn_tilted)
    strictly_better = all(m > 0.0 for m in margins)
    weak_rows = [row for row in concurrence_series if row.concurrence in (0.193, 0.375)]
    rescue = all(row.sdn_tilted < 3.0 and row.result.sdn > 3.0 for row in weak_rows)
    ok = strictly_better and rescue
    pairs = ", ".join(
        f"c={row.concurrence}: {row.sdn_tilted:.2f} -> {row.result.sdn:.2f}"
        for row in concurrence_series
    )
    record(6, "optimization beats the tilted inequality on every dataset", ok, pairs)
    assert ok


def test_criterion_7_critical_efficiency_thresholds(concurrence_series):
    cf = canonicalize(tilted_functional(0.0), normalize=4.0)
    ideal = tilted_behavior(0.0)
    sym = critical_efficiency(cf, ideal, "symmetric").eta_a
    asym = critical_efficiency(cf, ideal, "asymmetric_b_perfect").eta_a
    sym_err = abs(sym - 2.0 / (1.0 + math.sqrt(2.0)))
    asym_err = abs(asym - 1.0 / math.sqrt(2.0))

    # On the ideal behavior behind each dataset, the optimized functional
    # must tolerate detectors no better than the tilted one needs.
    dominated = True
    for row in concurrence_series:
        cf_tilted = canonicalize(row.tilted, normalize=4.0)
        cf_opt = canonicalize(row.result.functional)
        for mode in ("symmetric", "asymmetric_b_perfect"):
            eta_t = critical_efficiency(cf_tilted, row.behavior, mode).eta_a
            eta_o = critical_efficiency(cf_opt, row.behavior, mode).eta_a
            dominated = dominated and eta_o <= eta_t + 1e-12
    ok = sym_err <= 1e-3 and asym_err <= 1e-3 and dominated
    record(7, "critical detection efficiencies", ok,
           f"symmetric err {sym_err:.2e}, asymmetric err {asym_err:.2e}, "
           f"optimized <= tilted at all 5 concurrences: {dominated}")
    assert ok


def test_criterion_8_no_signaling_projection():
    rng = np.random.default_rng(4242)
    uniform = uniform_behavior(CHSH).p
    pool = []
    for _ in range(1000):
        q = random_ns_behavior(CHSH, rng)
        pool.append(Behavior(CHSH, 0.9 * q.p + 0.1 * uniform))

    worst_residual = 0.0
    worst_idem = 0.0
    beaten = True
    for k in range(20):
        f = signaling_behavior(CHSH, np.random.default_rng(100 + k),
                               eps=0.005 + 0.002 * k)
        proj = ns_project(f)
        worst_residual = max(worst_residual, ns_residual(proj).max)
        again = ns_project(proj)
        worst_idem = max(worst_idem, float(np.abs(again.p - proj.p).max()))
        d_star = kl_divergence(f, proj)
        for cand in pool:
            if d_star > kl_divergence(f, cand) + 1e-9:
                beaten = False
                break
    ok = worst_residual <= 1e-8 and worst_idem <= 1e-9 and beaten
    record(8, "divergence projection onto the no-signaling set", ok,
           f"20 inputs: residual {worst_residual:.2e}, idempotence {worst_idem:.1e}, "
           f"beats 1000 candidates: {beaten}")
    assert ok


def test_criterion_9_report_determinism(tmp_path):
    counts_path = tmp_path / "counts.json"
    assert main(["simulate", "--alpha", "1.0", "--n-per-setting", "20000",
                 "--seed", "11", "--out", str(counts_path)]) == 0
    argv = ["optimize", str(counts_path), "--seed", "42", "--restarts", "3"]
    assert main(argv + ["--out", str(tmp_path / "one.json")]) == 0
    assert main(argv + ["--out", str(tmp_path / "two.json")]) == 0
    reports_equal = (tmp_path / "one.json").read_bytes() == (tmp_path / "two.json").read_bytes()
    functionals_equal = (
        (tmp_path / "one_functional.json").read_bytes()
        == (tmp_path / "two_functional.json").read_bytes()
    )
    ok = reports_equal and functionals_equal
    record(9, "identical seeds give byte-identical reports", ok,
           f"report bytes equal: {reports_equal}, functional bytes equal: {functionals_equal}")
    assert ok
