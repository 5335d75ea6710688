"""Command-line pipeline around the library.

Subcommands:
    simulate    sample Poisson counts (or write the exact behavior) for a
                tilted-inequality realization
    bound       LHV bound and maximizer count of a functional file
    evaluate    Q, its Poisson error, and the SDN of a functional on counts
    project     closest no-signaling behavior to the count frequencies
    optimize    find the functional maximizing the adjusted ratio R (exact on 2x2)
    efficiency  critical detection efficiencies of a functional on data
    report      batch CSV series (SDN and efficiency vs concurrence)

Exit codes: 0 success, 2 validation/schema errors, 3 numerical failures.
Randomized commands require an explicit --seed; reports with identical
inputs and seeds are byte-identical.
"""

from __future__ import annotations

import argparse
import csv
import math
import sys
from dataclasses import dataclass, fields as dataclass_fields
from pathlib import Path

from . import __version__, io
from .errors import DomainError, NumericalError, SchemaError, ValidationError
from .lhv import lhv_bound
from .loophole import EFFICIENCY_MODES, canonicalize, critical_efficiency
from .optimize import OptimizerConfig, _sdn_signal, maximize_r, r_value
from .quantum import born_behavior, concurrence, tilted_functional, tilted_realization
from .stats import error_propagation, frequencies, kl_divergence, ns_project, poisson_sample


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


@dataclass(frozen=True)
class AnalysisReport:
    """Everything one optimization run reports, ready for serialization.

    Each functional block carries (q, delta_q, c, sdn, r, nonlocal); the
    construction re-checks that r equals (q - delta_q + dm)/(c + dm)
    within 1e-9 so a report can never ship an inconsistent triple.
    """

    input_digest: str
    m: int
    d: int
    functionals: tuple[dict, ...]
    optimizer_config: dict
    efficiencies: tuple[dict, ...]
    deviations: tuple[str, ...]
    artifact_version: str = __version__

    def __post_init__(self):
        dm = float(self.d * self.m)
        for block in self.functionals:
            want = r_value(block["q"], block["delta_q"], block["c"], dm)
            if abs(block["r"] - want) > 1e-9 * max(1.0, abs(want)):
                raise DomainError(
                    f"functional block {block['name']!r}: r {block['r']!r} "
                    f"inconsistent with its (q, delta_q, c)"
                )
            if block["nonlocal"] != (block["r"] > 1.0):
                raise DomainError(
                    f"functional block {block['name']!r}: nonlocal flag "
                    f"inconsistent with r {block['r']!r}"
                )

    def payload(self) -> dict:
        return {
            "format_version": io.FORMAT_VERSION,
            "kind": "report",
            "artifact_version": self.artifact_version,
            "input_digest": self.input_digest,
            "m": self.m,
            "d": self.d,
            "functionals": list(self.functionals),
            "optimizer_config": self.optimizer_config,
            "efficiencies": list(self.efficiencies),
            "deviations": list(self.deviations),
        }


def _efficiency_blocks(name: str, f, behavior) -> list[dict]:
    """Critical efficiencies of f on the behavior, one block per mode.

    Failures (wrong outcome count, no violation, no admissible root) are
    recorded in the block instead of aborting the report.
    """
    blocks = []
    for mode in EFFICIENCY_MODES:
        block = {"functional": name, "mode": mode}
        try:
            res = critical_efficiency(canonicalize(f), behavior, mode)
            block["eta_a"] = res.eta_a
            block["eta_b"] = res.eta_b
        except (ValidationError, NumericalError) as exc:
            block["error"] = str(exc)
        blocks.append(block)
    return blocks


def _config_payload(cfg: OptimizerConfig) -> dict:
    return {f.name: getattr(cfg, f.name) for f in dataclass_fields(OptimizerConfig)}


def _add_optimizer_flags(parser) -> None:
    parser.add_argument(
        "--restarts", type=int, default=None, help="independent restarts (ignored on 2x2)"
    )
    parser.add_argument(
        "--max-iters", type=int, default=None, help="iterations per restart (ignored on 2x2)"
    )
    parser.add_argument(
        "--step-init", type=float, default=None, help="initial ascent step (ignored on 2x2)"
    )
    parser.add_argument(
        "--convergence-tol", type=float, default=None,
        help="per-restart gain tolerance (ignored on 2x2)",
    )
    parser.add_argument(
        "--denom-floor", type=float, default=None, help="penalized denominator floor"
    )
    parser.add_argument(
        "--config", default=None, help="JSON file of optimizer fields; flags win over it"
    )


def _optimizer_config(args) -> OptimizerConfig:
    allowed = {f.name for f in dataclass_fields(OptimizerConfig)}
    merged = {}
    if args.config:
        payload = io.read_json(args.config)
        unknown = set(payload) - allowed
        if unknown:
            raise SchemaError(f"{args.config}: unknown optimizer fields {sorted(unknown)}")
        merged.update(payload)
    # Every field but the seed has its own flag; the seed is always given.
    for flag in allowed - {"seed"}:
        value = getattr(args, flag)
        if value is not None:
            merged[flag] = value
    merged["seed"] = args.seed
    return OptimizerConfig(**merged)


def cmd_simulate(args) -> None:
    realization = tilted_realization(args.alpha)
    behavior = born_behavior(realization.state, realization.meas_a, realization.meas_b)
    if args.exact:
        io.write_behavior(args.out, behavior)
        print(f"wrote exact behavior for alpha = {_fmt(args.alpha)} -> {args.out}")
        return
    if args.seed is None:
        raise DomainError("--seed is required unless --exact is given")
    counts = poisson_sample(behavior, args.n_per_setting, args.seed)
    meta = {
        "alpha": args.alpha,
        "concurrence": concurrence(realization.theta),
        "n_per_setting": args.n_per_setting,
        "seed": args.seed,
    }
    io.write_counts(args.out, counts, meta)
    print(
        f"wrote counts for alpha = {_fmt(args.alpha)} "
        f"(N = {args.n_per_setting} per setting, seed = {args.seed}) -> {args.out}"
    )


def cmd_bound(args) -> None:
    result = lhv_bound(io.read_functional(args.functional))
    print(f"C = {_fmt(result.bound)}")
    print(f"maximizers = {len(result.maximizers)}")


def cmd_evaluate(args) -> None:
    f = io.read_functional(args.functional)
    counts, _ = io.read_counts(args.counts)
    rep = error_propagation(f, counts)
    c = lhv_bound(f).bound
    print(f"Q = {_fmt(rep.q)}")
    print(f"dQ = {_fmt(rep.delta_q)}")
    print(f"SDN = {_fmt(_sdn_signal(rep.q, rep.delta_q, c))}")


def cmd_project(args) -> None:
    counts, _ = io.read_counts(args.counts)
    freq = frequencies(counts)
    projected = ns_project(freq)
    io.write_behavior(args.out, projected)
    print(f"D_KL = {_fmt(kl_divergence(freq, projected))}")
    print(f"wrote no-signaling behavior -> {args.out}")


def cmd_optimize(args) -> None:
    counts, _ = io.read_counts(args.counts)
    cfg = _optimizer_config(args)
    result = maximize_r(counts, cfg)

    functional_out = args.functional_out
    if functional_out is None:
        out = Path(args.out)
        functional_out = out.with_name(out.stem + "_functional" + out.suffix)
    io.write_functional(functional_out, result.functional)

    block = {
        "name": "optimized",
        "q": result.q,
        "delta_q": result.delta_q,
        "c": result.c,
        "sdn": result.sdn if math.isfinite(result.sdn) else repr(result.sdn),
        "r": result.r,
        "nonlocal": result.is_nonlocal,
    }
    report = AnalysisReport(
        input_digest=io.file_digest(args.counts),
        m=counts.scenario.m,
        d=counts.scenario.d,
        functionals=(block,),
        optimizer_config=_config_payload(cfg),
        efficiencies=tuple(
            _efficiency_blocks("optimized", result.functional, frequencies(counts))
        ),
        deviations=(),
    )
    io.write_json(args.out, report.payload())
    print(f"R = {_fmt(result.r)}")
    print(f"nonlocal = {str(result.is_nonlocal).lower()}")
    print(f"wrote report -> {args.out}")
    print(f"wrote functional -> {functional_out}")


def cmd_efficiency(args) -> None:
    f = io.read_functional(args.functional)
    payload = io.read_json(args.data)
    if payload.get("kind") == "counts":
        counts, _ = io.counts_from_payload(payload)
        behavior = frequencies(counts)
    else:
        behavior = io.behavior_from_payload(payload)
    result = critical_efficiency(canonicalize(f, args.normalize), behavior, args.mode)
    print(f"mode = {result.mode}")
    print(f"eta_a = {_fmt(result.eta_a)}")
    print(f"eta_b = {_fmt(result.eta_b)}")


def cmd_report(args) -> None:
    cfg = _optimizer_config(args)
    rows = []
    for path in args.counts:
        counts, meta = io.read_counts(path)
        if "alpha" not in meta:
            raise SchemaError(f"{path}: counts file lacks simulation metadata 'alpha'")
        alpha = float(meta["alpha"])
        conc = float(meta.get("concurrence", concurrence(tilted_realization(alpha).theta)))

        tilted = tilted_functional(alpha)
        rep = error_propagation(tilted, counts)
        sdn_tilted = _sdn_signal(rep.q, rep.delta_q, lhv_bound(tilted).bound)
        result = maximize_r(counts, cfg)

        behavior = frequencies(counts)
        if args.projected:
            behavior = ns_project(behavior)

        etas = {}
        for name, f in (("tilted", tilted), ("optimized", result.functional)):
            try:
                etas[name] = critical_efficiency(canonicalize(f), behavior, args.mode).eta_a
            except (ValidationError, NumericalError):
                etas[name] = math.nan
        rows.append((conc, sdn_tilted, result.sdn, etas["tilted"], etas["optimized"]))
        print(
            f"{path}: concurrence = {conc:.4f}, sdn_tilted = {sdn_tilted:.3f}, "
            f"sdn_optimized = {result.sdn:.3f}"
        )

    rows.sort()
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    sdn_path = out_dir / "sdn_vs_concurrence.csv"
    eta_path = out_dir / "efficiency_vs_concurrence.csv"
    with open(sdn_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["concurrence", "sdn_tilted", "sdn_optimized"])
        for conc, sdn_t, sdn_o, _, _ in rows:
            writer.writerow([_fmt(conc), _fmt(sdn_t), _fmt(sdn_o)])
    with open(eta_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["concurrence", "eta_tilted", "eta_optimized"])
        for conc, _, _, eta_t, eta_o in rows:
            writer.writerow([_fmt(conc), _fmt(eta_t), _fmt(eta_o)])
    print(f"wrote {sdn_path}")
    print(f"wrote {eta_path}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bellgap",
        description="Bell-inequality search and detection-efficiency analysis "
        "for coincidence-count data.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="write tilted-realization counts or behavior")
    p.add_argument("--alpha", type=float, required=True, help="tilt parameter in [0, 2]")
    p.add_argument("--n-per-setting", type=int, default=100000, help="mean counts per block")
    p.add_argument("--seed", type=int, default=None, help="sampling seed")
    p.add_argument("--exact", action="store_true", help="write the noiseless behavior instead")
    p.add_argument("--out", required=True, help="output JSON path")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("bound", help="LHV bound of a functional file")
    p.add_argument("functional", help="functional JSON path")
    p.set_defaults(func=cmd_bound)

    p = sub.add_parser("evaluate", help="Q, dQ, and SDN of a functional on counts")
    p.add_argument("functional", help="functional JSON path")
    p.add_argument("counts", help="counts JSON path")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("project", help="closest no-signaling behavior to the frequencies")
    p.add_argument("counts", help="counts JSON path")
    p.add_argument("--out", required=True, help="output behavior JSON path")
    p.set_defaults(func=cmd_project)

    p = sub.add_parser("optimize", help="search for the functional maximizing R")
    p.add_argument("counts", help="counts JSON path")
    p.add_argument("--seed", type=int, required=True, help="restart seed")
    p.add_argument("--out", required=True, help="report JSON path")
    p.add_argument(
        "--functional-out", default=None, help="functional JSON path (default: <out>_functional)"
    )
    _add_optimizer_flags(p)
    p.set_defaults(func=cmd_optimize)

    p = sub.add_parser("efficiency", help="critical detection efficiencies")
    p.add_argument("functional", help="functional JSON path")
    p.add_argument("data", help="counts or behavior JSON path")
    p.add_argument("--mode", choices=EFFICIENCY_MODES, default="symmetric")
    p.add_argument("--normalize", type=float, default=1.0, help="canonical scale divisor")
    p.set_defaults(func=cmd_efficiency)

    p = sub.add_parser("report", help="CSV series over simulated counts files")
    p.add_argument("counts", nargs="+", help="counts JSON paths with simulation metadata")
    p.add_argument("--seed", type=int, required=True, help="restart seed")
    p.add_argument("--out-dir", required=True, help="directory for the CSV files")
    p.add_argument("--mode", choices=EFFICIENCY_MODES, default="symmetric")
    p.add_argument(
        "--projected", action="store_true", help="evaluate efficiencies on NS-projected frequencies"
    )
    _add_optimizer_flags(p)
    p.set_defaults(func=cmd_report)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        args.func(args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
