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
import functools
import math
import sys
from dataclasses import asdict
from pathlib import Path

from . import __version__, io
from .errors import DomainError, NumericalError, SchemaError, ValidationError
from .lhv import lhv_bound, lhv_value
from .loophole import EFFICIENCY_MODES, canonicalize, critical_efficiency
from .optimize import OptimizerConfig, maximize_r, sdn
from .quantum import born_behavior, concurrence, tilted_functional, tilted_realization
from .stats import error_propagation, frequencies, kl_divergence, ns_project, poisson_sample


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _efficiency(f, behavior, mode: str) -> dict:
    """{eta_a, eta_b} of f on the behavior, or {error} when there is none.

    Failures (wrong outcome count, no violation, no admissible root) are
    returned instead of raised, so one functional cannot abort a report.
    """
    try:
        res = critical_efficiency(canonicalize(f), behavior, mode)
    except (ValidationError, NumericalError) as exc:
        return {"error": str(exc)}
    return {"eta_a": res.eta_a, "eta_b": res.eta_b}


def _efficiency_blocks(name: str, f, behavior) -> list[dict]:
    """Critical efficiencies of f on the behavior, one block per mode."""
    return [
        {"functional": name, "mode": mode, **_efficiency(f, behavior, mode)}
        for mode in EFFICIENCY_MODES
    ]


def _report_payload(counts_path, counts, result, cfg: OptimizerConfig) -> dict:
    """The optimize report of one run, ready for serialization."""
    block = {
        "name": "optimized",
        "q": result.q,
        "delta_q": result.delta_q,
        "c": result.c,
        "sdn": result.sdn if math.isfinite(result.sdn) else repr(result.sdn),
        "r": result.r,
        "nonlocal": result.is_nonlocal,
    }
    return {
        **io.file_header("report", counts.scenario),
        "artifact_version": __version__,
        "input_digest": io.file_digest(counts_path),
        "functionals": [block],
        "optimizer_config": asdict(cfg),
        "efficiencies": _efficiency_blocks("optimized", result.functional, frequencies(counts)),
    }


def _add_optimizer_flags(parser) -> None:
    parser.add_argument("--seed", type=int, required=True, help="restart seed (ignored on 2x2)")
    parser.add_argument(
        "--restarts", type=int, default=OptimizerConfig.restarts,
        help="independent restarts (ignored on 2x2)",
    )


def _meta_number(path, meta: dict, key: str) -> float:
    value = meta.get(key)
    if type(value) not in (int, float) or not abs(value) <= sys.float_info.max:  # nan fails too
        raise SchemaError(f"{path}: simulation metadata {key!r} must be a number, got {value!r}")
    return float(value)


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
    c = lhv_value(f)
    print(f"Q = {_fmt(rep.q)}")
    print(f"dQ = {_fmt(rep.delta_q)}")
    print(f"SDN = {_fmt(sdn(rep.q, rep.delta_q, c))}")


def cmd_project(args) -> None:
    counts, _ = io.read_counts(args.counts)
    freq = frequencies(counts)
    projected = ns_project(freq)
    io.write_behavior(args.out, projected)
    print(f"D_KL = {_fmt(kl_divergence(freq, projected))}")
    print(f"wrote no-signaling behavior -> {args.out}")


def cmd_optimize(args) -> None:
    counts, _ = io.read_counts(args.counts)
    cfg = OptimizerConfig(restarts=args.restarts, seed=args.seed)
    result = maximize_r(counts, cfg)

    functional_out = args.functional_out
    if functional_out is None:
        out = Path(args.out)
        functional_out = out.with_name(out.stem + "_functional" + out.suffix)
    io.write_functional(functional_out, result.functional)

    io.write_json(args.out, _report_payload(args.counts, counts, result, cfg))
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
    result = critical_efficiency(canonicalize(f), behavior, args.mode)
    print(f"mode = {result.mode}")
    print(f"eta_a = {_fmt(result.eta_a)}")
    print(f"eta_b = {_fmt(result.eta_b)}")


def cmd_report(args) -> None:
    cfg = OptimizerConfig(restarts=args.restarts, seed=args.seed)
    rows = []
    for path in args.counts:
        counts, meta = io.read_counts(path)
        alpha = _meta_number(path, meta, "alpha")
        if "concurrence" in meta:
            conc = _meta_number(path, meta, "concurrence")
        else:
            conc = float(concurrence(tilted_realization(alpha).theta))

        tilted = tilted_functional(alpha)
        rep = error_propagation(tilted, counts)
        sdn_tilted = sdn(rep.q, rep.delta_q, lhv_value(tilted))
        result = maximize_r(counts, cfg)

        behavior = frequencies(counts)
        if args.projected:
            behavior = ns_project(behavior)

        etas = [
            _efficiency(f, behavior, args.mode).get("eta_a", math.nan)
            for f in (tilted, result.functional)
        ]
        rows.append((conc, sdn_tilted, result.sdn, *etas))
        print(
            f"{path}: concurrence = {conc:.4f}, sdn_tilted = {sdn_tilted:.3f}, "
            f"sdn_optimized = {result.sdn:.3f}"
        )

    rows.sort()
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    series = (
        ("sdn_vs_concurrence.csv", ("concurrence", "sdn_tilted", "sdn_optimized"), (0, 1, 2)),
        ("efficiency_vs_concurrence.csv", ("concurrence", "eta_tilted", "eta_optimized"), (0, 3, 4)),
    )
    for name, header, columns in series:
        csv_path = out_dir / name
        with open(csv_path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(header)
            writer.writerows([_fmt(row[k]) for k in columns] for row in rows)
        print(f"wrote {csv_path}")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built once per process; parsing leaves it unchanged."""
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
    p.set_defaults(func=cmd_efficiency)

    p = sub.add_parser("report", help="CSV series over simulated counts files")
    p.add_argument("counts", nargs="+", help="counts JSON paths with simulation metadata")
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
