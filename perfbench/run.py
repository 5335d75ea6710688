"""bellgap benchmark: closed-loop CLI workloads with checked outputs.

Run from the repository root:

    python3 perfbench/run.py --workload search_chsh --seed 1 --seconds 20 --trace 0

One process runs one workload.  Set-up imports bellgap from ``src/`` and
writes the workload's input files; then one untimed pass runs every
command once and checks its outputs in full, and timed passes follow, one
command at a time, until ``--seconds`` have passed.  Every later run of a
command must reproduce the first run's stdout and file bytes.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` alternates
untraced passes with traced ones, prints the per-layer metrics, and
writes the spans to ``perfbench/.traces/``.  The last stdout line is one
JSON object: {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io as _stdio  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK_DIR = BENCH_DIR / ".work"
TRACE_DIR = BENCH_DIR / ".traces"

WORKLOAD_NAMES = ("search_chsh", "search_multisetting", "analyze_cli")

# Fresh-process set-ups per run, besides this process's own; setup_s is
# the median of all of them.
SETUP_PROBES = 2

END_TO_END_UNITS = {
    "setup_s": "s",
    "pass_s": "s",
    "op_s.p50": "s",
    "op_s.tail": "s",
    "sdn_min": "sdn",
    "r_excess_mean": "ratio",
    "ok_frac": "ratio",
    "peak_rss_mb": "MB",
}
PER_LAYER_UNITS = {
    "lhv.oracle.calls": "count",
    "lhv.oracle.busy_s": "s",
    "lhv.oracle.us_per_call.2x2": "us",
    "lhv.oracle.us_per_call.3x2": "us",
    "lhv.oracle.us_per_call.4x2": "us",
    "optimize.maximize_r.self_s": "s",
    "optimize.restart_hit_ratio": "ratio",
    "stats.ns_project.s_per_call.2x2": "s",
    "stats.ns_project.s_per_call.3x2": "s",
    "stats.ns_project.s_per_call.4x2": "s",
    "stats.ns_project.s_per_call.3x3": "s",
    "stats.ns_project.failed": "count",
    "lhv.lhv_bound.us_per_call.2x2": "us",
    "lhv.lhv_bound.us_per_call.3x2": "us",
    "lhv.lhv_bound.us_per_call.4x2": "us",
    "lhv.lhv_bound.us_per_call.3x3": "us",
    "lhv.lhv_bound.us_per_call.4x3": "us",
    "lhv.lhv_bound.us_per_call.6x4": "us",
    "stats.error_propagation.us_per_call": "us",
    "loophole.critical_efficiency.us_per_call": "us",
    "io.read_s": "s",
    "io.write_s": "s",
    "io.bytes_written": "bytes",
    "cli.main.self_s": "s",
    "trace.overhead": "ratio",
}


class MissingSource(RuntimeError):
    pass


def import_bellgap():
    """Import bellgap from this checkout's src/, never from anywhere else."""
    init = SRC / "bellgap" / "__init__.py"
    if not init.is_file():
        raise MissingSource(f"{init} not found; run from a full checkout of the repository")
    sys.path.insert(0, str(SRC))
    import bellgap.cli

    if Path(bellgap.__file__).resolve() != init.resolve():
        raise MissingSource(f"imported bellgap from {bellgap.__file__}, not {init}")
    return bellgap


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=20.0, help="length of the timed passes")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # Internal: time one set-up in a fresh process, print it, and exit.
    p.add_argument("--setup-probe", default=None, help=argparse.SUPPRESS)
    return p.parse_args(argv)


def data_seed(seed: int) -> int:
    return seed % 2**32


def setup_probe(args) -> float:
    """Set-up seconds measured in a fresh interpreter."""
    probe_dir = WORK_DIR / f"probe-{os.getpid()}"
    try:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
             "--seed", str(args.seed), "--setup-probe", str(probe_dir)],
            capture_output=True, text=True, timeout=120, check=True,
        )
    finally:
        shutil.rmtree(probe_dir, ignore_errors=True)
    return float(proc.stdout.strip().splitlines()[-1])


class Runner:
    """Runs commands through cli.main, checks them and counts failures."""

    def __init__(self, ops):
        self.ops = ops
        self.reference: dict[int, tuple[str, dict]] = {}
        self.bad: set[int] = set()
        self.quality: list[dict] = []
        self.attempted = 0
        self.failed = 0

    def run(self, i: int, entry) -> float:
        """Run command i through entry (cli.main or its traced wrapper); return its seconds."""
        op = self.ops[i]
        self.attempted += 1
        out, err = _stdio.StringIO(), _stdio.StringIO()
        code, crash = None, None
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            t = time.perf_counter()
            try:
                code = entry(op.argv)
            except Exception:  # a crash is a failed operation, not the end of the run
                crash = traceback.format_exc()
            seconds = time.perf_counter() - t
        try:
            if crash is not None:
                raise RuntimeError(f"raised:\n{crash}")
            if code != 0:
                raise RuntimeError(f"exit code {code}: {err.getvalue().strip()}")
            produced = (out.getvalue(), {p: p.read_bytes() for p in op.outputs})
            if i not in self.reference:
                self.reference[i] = produced
                self.quality.append(op.check(produced[0]))
            elif produced != self.reference[i]:
                raise RuntimeError("output differs from the first run")
            if i in self.bad:
                self.failed += 1
        except Exception as exc:  # every failed check, whatever it raised, counts
            self.quality.append(getattr(exc, "quality", {}))
            self.failed += 1
            if i not in self.bad:
                self.bad.add(i)
                print(f"FAILED {op.label}: {exc}", file=sys.stderr)
        return seconds


def tail(samples):
    """(value, percentile, n): the highest percentile with at least 10 samples beyond it."""
    s = sorted(samples)
    n = len(s)
    if n <= 10:
        return s[-1], 100.0, n
    return s[n - 11], 100.0 * (n - 10) / n, n


def measure(runner, bellgap, seconds, seed, tracer=None):
    """Warm-up pass, then timed passes; in a traced run every other pass is traced."""
    import numpy as np

    n = len(runner.ops)
    for i in range(n):
        runner.run(i, bellgap.cli.main)

    rng = np.random.default_rng(data_seed(seed))
    untraced, traced, op_times = [], [], []
    start = time.perf_counter()
    k = 0
    while True:
        trace_this = tracer is not None and k % 2 == 1
        entry = bellgap.cli.main
        if trace_this:
            tracer.begin_pass()
            entry = tracer.install(bellgap)
        total = 0.0
        try:
            for i in rng.permutation(n):
                dt = runner.run(int(i), entry)
                total += dt
                if not trace_this:
                    op_times.append((int(i), dt))
        finally:
            if trace_this:
                tracer.uninstall()
                tracer.end_pass()
        (traced if trace_this else untraced).append(total)
        k += 1
        if time.perf_counter() - start >= seconds and (tracer is None or traced):
            return untraced, traced, op_times


def end_to_end(runner, untraced, op_samples, setup_s):
    for i, op in enumerate(runner.ops):
        mine = [dt for j, dt in op_samples if j == i]
        print(f"  {op.label}: median {statistics.median(mine):.6f} s over {len(mine)} runs")
    op_times = [dt for _, dt in op_samples]
    p50 = statistics.median(op_times)
    tail_value, pct, n = tail(op_times)
    print(f"op_s: {n} samples, p50 {p50:.6f} s, tail p{math.floor(pct)} {tail_value:.6f} s")
    print(f"pass_s: mean of {len(untraced)} timed passes: " + ", ".join(f"{t:.3f}" for t in untraced))
    scored = [q for q in runner.quality if q]
    return {
        "setup_s": setup_s,
        # A mean, not a median: on a shared 2-vCPU machine the cores slowed
        # down by up to 1.8x for seconds at a time, and the median of passes
        # jumps between the fast and the slow level when the run spends
        # about half its time in each; the mean moves in proportion.
        "pass_s": statistics.fmean(untraced),
        "op_s.p50": p50,
        "op_s.tail": tail_value,
        "sdn_min": min((q["sdn"] for q in scored), default=0.0),
        "r_excess_mean": statistics.fmean(q["r_excess"] for q in scored) if scored else 0.0,
        "ok_frac": 1.0 - runner.failed / runner.attempted,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def per_layer(tracer, untraced, traced, path):
    from spans import layer_metrics

    metrics = layer_metrics(tracer)
    base, with_spans = statistics.fmean(untraced), statistics.fmean(traced)
    metrics["trace.overhead"] = with_spans / base
    print(
        f"trace.overhead: traced pass_s {with_spans:.6f} s ({len(traced)} passes) over "
        f"untraced pass_s {base:.6f} s ({len(untraced)} passes)"
    )
    tracer.dump(path)
    print(f"spans: {len(tracer.start)} written to {path.relative_to(ROOT)}")
    return metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        bellgap = import_bellgap()
    except MissingSource as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    import workloads

    build = workloads.WORKLOADS[args.workload]
    if args.setup_probe:
        probe_dir = Path(args.setup_probe)
        probe_dir.mkdir(parents=True, exist_ok=True)
        build(probe_dir, data_seed(args.seed))
        print(time.perf_counter() - _T0)
        return 0

    work = WORK_DIR / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        ops = build(work, data_seed(args.seed))
        setups = [time.perf_counter() - _T0]
        setups += [setup_probe(args) for _ in range(SETUP_PROBES)]
        print("setup_s samples: " + ", ".join(f"{s:.4f}" for s in setups))

        runner = Runner(ops)
        if args.trace:
            from spans import Tracer

            tracer = Tracer()
            untraced, traced, _ = measure(runner, bellgap, args.seconds, args.seed, tracer)
            trace_path = TRACE_DIR / f"{args.workload}-seed{args.seed}.npz"
            metrics = per_layer(tracer, untraced, traced, trace_path)
            units = PER_LAYER_UNITS
        else:
            untraced, _, op_times = measure(runner, bellgap, args.seconds, args.seed)
            metrics = end_to_end(runner, untraced, op_times, statistics.median(setups))
            units = END_TO_END_UNITS
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):  # still holds another run's files
            WORK_DIR.rmdir()

    for name, unit in units.items():
        print(f"{name} = {metrics[name]!r} {unit}")
    print(f"operations: {runner.attempted} attempted, {runner.failed} failed")
    print(json.dumps({
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
