"""The three workloads: inputs written at set-up, the commands of one pass, and their checks.

Every command runs in process through ``bellgap.cli.main``.  The first
run of each command gets the full check below; every later run must
print the same text and write the same bytes as the first one.

The search and projection datasets are the acceptance datasets (sampling
seed 77, N = 100 000 per setting), identical for every benchmark seed.
Their cost depends on the Poisson sample: over twelve 4x2 samples
``ns_project`` took 43 to 160 solver iterations and 0.6 to 1.4 s, which
alone would spread pass_s across seeds by about 20%.  The benchmark
seed draws the inputs whose cost does not depend on the sample (the
sampling seed of ``simulate``, the counts ``evaluate`` reads, the random
functionals given to ``bound`` and ``evaluate``) and the order of the
commands in every pass.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Callable

import numpy as np

from bellgap import (
    Behavior,
    BellFunctional,
    DeterministicStrategy,
    Measurement,
    Scenario,
    TwoQubitState,
    alpha_for_concurrence,
    born_behavior,
    error_propagation,
    evaluate,
    frequencies,
    io,
    kl_divergence,
    lhv_bound,
    ns_residual,
    objective_r,
    poisson_sample,
    r_value,
    strategy_behavior,
    tilted_behavior,
    tilted_functional,
)

DATA_SEED = 77
N_PER_SETTING = 100_000
CONCURRENCES = (0.193, 0.375, 0.582, 0.835, 0.986)
CHAINED_CONCURRENCE = 0.582
OPTIMIZER_SEED = 123
RESTARTS = 2

# An expected violation must clear this many error units, the threshold
# maximize_r itself applies before it certifies.
CERTIFIED_SDN = 3.0
NS_RESIDUAL_LIMIT = 1e-8
R_AGREEMENT = 1e-9
ETA_SYMMETRIC = 2.0 / (1.0 + math.sqrt(2.0))
ETA_ASYMMETRIC = 1.0 / math.sqrt(2.0)


class CheckFailed(Exception):
    """An output failed its check; ``quality`` still carries what it measured."""

    def __init__(self, message: str, quality: dict | None = None):
        super().__init__(message)
        self.quality = quality or {}


@dataclass
class Op:
    label: str
    argv: list[str]
    # Files the command writes; later runs must reproduce their bytes.
    outputs: tuple[Path, ...]
    # Full check of the first run, given its stdout.  Returns the quality
    # entries (sdn, r_excess) of a dataset expected to be nonlocal.
    check: Callable[[str], dict]


def _require(ok: bool, message: str, quality: dict | None = None) -> None:
    if not ok:
        raise CheckFailed(message, quality)


def _close(a: float, b: float, rel: float = 1e-12) -> bool:
    return abs(a - b) <= rel * max(1.0, abs(b))


def _fields(stdout: str) -> dict[str, str]:
    """The ``key = value`` lines a command printed."""
    return dict(line.split(" = ", 1) for line in stdout.splitlines() if " = " in line)


# -- inputs ---------------------------------------------------------------


def _bloch_measurement(phi: float) -> Measurement:
    """Measurement of cos(phi) Z + sin(phi) X; outcome 0 is the +1 eigenvector."""
    plus = np.array([math.cos(phi / 2), math.sin(phi / 2)], dtype=complex)
    minus = np.array([-math.sin(phi / 2), math.cos(phi / 2)], dtype=complex)
    return Measurement(np.stack([np.outer(plus, plus.conj()), np.outer(minus, minus.conj())]))


def chained_behavior(m: int, concurrence: float) -> Behavior:
    """cos(t)|00> + sin(t)|11> measured at chained-Bell angles.

    Alice measures at k pi/m and Bob at k pi/m + pi/2m, k = 0..m-1, in the
    X-Z plane of the Bloch sphere.
    """
    theta = 0.5 * math.asin(concurrence)
    state = TwoQubitState(np.array([math.cos(theta), 0.0, 0.0, math.sin(theta)], dtype=complex))
    alice = [_bloch_measurement(k * math.pi / m) for k in range(m)]
    bob = [_bloch_measurement(k * math.pi / m + math.pi / (2 * m)) for k in range(m)]
    return born_behavior(state, alice, bob)


def chained_functional(m: int) -> BellFunctional:
    """Chained Bell inequality on correlators; LHV bound 2m - 2."""
    sc = Scenario(m, 2)
    corr = np.array([[1.0, -1.0], [-1.0, 1.0]])
    joint = np.zeros(sc.joint_shape)
    for k in range(m):
        joint[k, k] = corr
        if k + 1 < m:
            joint[k + 1, k] = corr
    joint[0, m - 1] = -corr
    return BellFunctional(sc, joint)


def local_behavior(sc: Scenario, rng, n_strategies: int, uniform_weight: float = 0.0) -> Behavior:
    """Random mixture of deterministic strategies, optionally blended with uniform noise."""
    parts = [
        strategy_behavior(
            DeterministicStrategy(tuple(rng.integers(0, sc.d, sc.m)), tuple(rng.integers(0, sc.d, sc.m))),
            sc,
        ).p
        for _ in range(n_strategies)
    ]
    mix = np.tensordot(rng.dirichlet(np.ones(n_strategies)), np.stack(parts), axes=1)
    return Behavior(sc, (1.0 - uniform_weight) * mix + uniform_weight / sc.d**2)


def random_functional(sc: Scenario, rng) -> BellFunctional:
    return BellFunctional(
        sc,
        rng.uniform(-1.0, 1.0, sc.joint_shape),
        rng.uniform(-1.0, 1.0, sc.marginal_shape),
        rng.uniform(-1.0, 1.0, sc.marginal_shape),
    )


def _sample(behavior: Behavior):
    return poisson_sample(behavior, N_PER_SETTING, DATA_SEED)


# -- optimize ---------------------------------------------------------------


def _check_optimize(counts_path, report_path, functional_path, expect_nonlocal, stdout):
    out = _fields(stdout)
    payload = io.read_json(report_path)
    block = payload["functionals"][0]
    r = block["r"]
    quality = {"sdn": float(block["sdn"]), "r_excess": r - 1.0} if expect_nonlocal else {}
    counts, _ = io.read_counts(counts_path)
    r_check = objective_r(io.read_functional(functional_path), counts)
    _require(abs(r - r_check) <= R_AGREEMENT, f"report r {r!r}, objective_r {r_check!r}", quality)
    _require(float(out["R"]) == r, f"printed R {out['R']} differs from the report", quality)
    _require(block["nonlocal"] == (r > 1.0), "nonlocal flag disagrees with R > 1", quality)
    _require(out["nonlocal"] == str(block["nonlocal"]).lower(), "printed verdict differs", quality)
    _require(payload["input_digest"] == io.file_digest(counts_path), "wrong input digest", quality)
    if expect_nonlocal:
        _require(block["nonlocal"], "nonlocal dataset not certified (miss)", quality)
    else:
        _require(not block["nonlocal"], "local dataset flagged nonlocal")
    return quality


def _optimize_op(work: Path, name: str, counts, expect_nonlocal: bool) -> Op:
    counts_path = work / f"{name}.json"
    report = work / f"{name}_report.json"
    functional = work / f"{name}_report_functional.json"
    io.write_counts(counts_path, counts)
    argv = [
        "optimize", str(counts_path), "--seed", str(OPTIMIZER_SEED),
        "--restarts", str(RESTARTS), "--out", str(report),
    ]
    check = partial(_check_optimize, counts_path, report, functional, expect_nonlocal)
    return Op(f"optimize {name}", argv, (report, functional), check)


def search_chsh(work: Path, seed: int) -> list[Op]:
    """The five acceptance datasets: 2x2 tilted counts across concurrence."""
    return [
        _optimize_op(work, f"tilted_c{c}", _sample(tilted_behavior(alpha_for_concurrence(c))), True)
        for c in CONCURRENCES
    ]


def search_multisetting(work: Path, seed: int) -> list[Op]:
    """Chained-Bell 3x2 and 4x2 counts, plus 3x2 counts of a local mixture."""
    local = local_behavior(Scenario(3, 2), np.random.default_rng(DATA_SEED), 6)
    return [
        _optimize_op(work, "chained_3x2", _sample(chained_behavior(3, CHAINED_CONCURRENCE)), True),
        _optimize_op(work, "chained_4x2", _sample(chained_behavior(4, CHAINED_CONCURRENCE)), True),
        _optimize_op(work, "local_3x2", _sample(local), False),
    ]


# -- analysis commands ------------------------------------------------------


def _check_simulated_counts(out_path, expected, seed, stdout):
    counts, meta = io.read_counts(out_path)
    _require(np.array_equal(counts.c, expected.c), "simulated counts differ from poisson_sample")
    _require(meta.get("seed") == seed and meta.get("n_per_setting") == N_PER_SETTING, "bad metadata")
    return {}


def _check_exact_behavior(out_path, expected, stdout):
    _require(np.array_equal(io.read_behavior(out_path).p, expected.p), "exact behavior differs")
    return {}


def _check_evaluate(functional_path, counts_path, expect_nonlocal, stdout):
    out = _fields(stdout)
    f = io.read_functional(functional_path)
    counts, _ = io.read_counts(counts_path)
    rep = error_propagation(f, counts)
    c = lhv_bound(f).bound
    q, dq, sdn = float(out["Q"]), float(out["dQ"]), float(out["SDN"])
    _require(_close(q, rep.q) and _close(dq, rep.delta_q), "Q or dQ differs from error_propagation")
    _require(_close(sdn, (rep.q - c) / rep.delta_q, 1e-9), "SDN differs from (Q - C)/dQ")
    if not expect_nonlocal:
        return {}
    dm = f.scenario.d * f.scenario.m
    quality = {"sdn": sdn, "r_excess": r_value(q, dq, c, dm) - 1.0}
    _require(sdn > CERTIFIED_SDN, f"expected violation not resolved: SDN {sdn}", quality)
    return quality


def _check_efficiency(mode, stdout):
    out = _fields(stdout)
    eta_a, eta_b = float(out["eta_a"]), float(out["eta_b"])
    want = (ETA_SYMMETRIC, ETA_SYMMETRIC) if mode == "symmetric" else (ETA_ASYMMETRIC, 1.0)
    _require(out["mode"] == mode, "wrong mode printed")
    _require(
        abs(eta_a - want[0]) <= 1e-9 and abs(eta_b - want[1]) <= 1e-9,
        f"eta ({eta_a}, {eta_b}) differs from the closed form {want}",
    )
    return {}


def _check_project(counts_path, out_path, stdout):
    projected = io.read_behavior(out_path)
    residual = ns_residual(projected).max
    _require(residual <= NS_RESIDUAL_LIMIT, f"signaling residual {residual:.3e}")
    d_kl = float(_fields(stdout)["D_KL"])
    _require(d_kl >= 0.0, f"negative divergence {d_kl}")
    freq = frequencies(io.read_counts(counts_path)[0])
    _require(abs(d_kl - kl_divergence(freq, projected)) <= 1e-12, "D_KL differs from the written behavior")
    return {}


def _check_bound(functional_path, expected, stdout):
    out = _fields(stdout)
    f = io.read_functional(functional_path)
    c = float(out["C"])
    result = lhv_bound(f)
    vertex = evaluate(f, strategy_behavior(result.maximizers[0], f.scenario))
    _require(_close(c, vertex, 1e-9), f"C {c} but a maximizer scores {vertex}")
    _require(int(out["maximizers"]) == len(result.maximizers), "maximizer count differs")
    if expected is not None:
        _require(abs(c - expected) <= 1e-12, f"C {c}, closed form {expected}")
    return {}


def analyze_cli(work: Path, seed: int) -> list[Op]:
    """simulate, evaluate, efficiency, project and bound on files written here."""
    rng = np.random.default_rng(seed)

    def write(name, writer, obj):
        path = work / f"{name}.json"
        writer(path, obj)
        return path

    sim_counts = poisson_sample(tilted_behavior(1.0), N_PER_SETTING, seed)
    exact = tilted_behavior(0.0)
    files = {
        "tilted_alpha1": write("tilted_alpha1", io.write_functional, tilted_functional(1.0)),
        "tilted_alpha0": write("tilted_alpha0", io.write_functional, tilted_functional(0.0)),
        "chained_3x2": write("chained_3x2", io.write_functional, chained_functional(3)),
        "chained_4x2": write("chained_4x2", io.write_functional, chained_functional(4)),
        "random_3x3": write("random_3x3", io.write_functional, random_functional(Scenario(3, 3), rng)),
        "random_4x3": write("random_4x3", io.write_functional, random_functional(Scenario(4, 3), rng)),
        "random_6x4": write("random_6x4", io.write_functional, random_functional(Scenario(6, 4), rng)),
        "sim_counts": write("sim_counts", io.write_counts, sim_counts),
        "chsh_exact": write("chsh_exact", io.write_behavior, exact),
    }
    sources = {
        "2x2": tilted_behavior(alpha_for_concurrence(CHAINED_CONCURRENCE)),
        "3x2": chained_behavior(3, CHAINED_CONCURRENCE),
        "4x2": chained_behavior(4, CHAINED_CONCURRENCE),
        "3x3": local_behavior(Scenario(3, 3), np.random.default_rng(DATA_SEED), 8, 0.2),
    }
    counts = {label: write(f"counts_{label}", io.write_counts, _sample(b)) for label, b in sources.items()}

    sim_out = work / "simulate_out.json"
    exact_out = work / "simulate_exact_out.json"
    ops = [
        Op(
            "simulate counts",
            ["simulate", "--alpha", "1.0", "--n-per-setting", str(N_PER_SETTING),
             "--seed", str(seed), "--out", str(sim_out)],
            (sim_out,),
            partial(_check_simulated_counts, sim_out, sim_counts, seed),
        ),
        Op(
            "simulate exact",
            ["simulate", "--alpha", "0.0", "--exact", "--out", str(exact_out)],
            (exact_out,),
            partial(_check_exact_behavior, exact_out, exact),
        ),
    ]

    # (functional, counts file, noiseless behavior behind the counts)
    evaluations = (
        ("tilted_alpha1", files["sim_counts"], tilted_behavior(1.0)),
        ("chained_3x2", counts["3x2"], sources["3x2"]),
        ("chained_4x2", counts["4x2"], sources["4x2"]),
        ("random_3x3", counts["3x3"], sources["3x3"]),
    )
    for name, counts_path, behavior in evaluations:
        f = io.read_functional(files[name])
        expect_nonlocal = evaluate(f, behavior) > lhv_bound(f).bound
        ops.append(Op(
            f"evaluate {name}",
            ["evaluate", str(files[name]), str(counts_path)],
            (),
            partial(_check_evaluate, files[name], counts_path, expect_nonlocal),
        ))

    for mode in ("symmetric", "asymmetric_b_perfect"):
        ops.append(Op(
            f"efficiency {mode}",
            ["efficiency", str(files["tilted_alpha0"]), str(files["chsh_exact"]), "--mode", mode],
            (),
            partial(_check_efficiency, mode),
        ))

    for label, counts_path in counts.items():
        out = work / f"projected_{label}.json"
        ops.append(Op(
            f"project {label}",
            ["project", str(counts_path), "--out", str(out)],
            (out,),
            partial(_check_project, counts_path, out),
        ))

    closed_forms = {"tilted_alpha1": 3.0, "chained_3x2": 4.0, "chained_4x2": 6.0}
    for name in ("tilted_alpha1", "chained_3x2", "chained_4x2", "random_4x3", "random_6x4"):
        ops.append(Op(
            f"bound {name}",
            ["bound", str(files[name])],
            (),
            partial(_check_bound, files[name], closed_forms.get(name)),
        ))
    return ops


WORKLOADS = {
    "search_chsh": search_chsh,
    "search_multisetting": search_multisetting,
    "analyze_cli": analyze_cli,
}
