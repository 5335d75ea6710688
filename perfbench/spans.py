"""In-memory span recorder for the traced benchmark run.

Spans are recorded around the library names that each caller module
imports (``bellgap.cli``, ``bellgap.io``, ``bellgap.optimize``), by
replacing those module attributes for the length of one traced pass.
Nothing under ``src/`` changes; code that is not reached through a
wrapped name (``optimize._CountModel``, the internals of ``ns_project``)
stays in its caller's self time.

Each span keeps its name, scenario, parent span and start/end clock in
flat arrays, so the roughly 10^5 bound-oracle calls of a search pass cost
a few tens of bytes each.  The arrays are written out once, at the end.
"""

from __future__ import annotations

import os
import time
from array import array
from pathlib import Path

import numpy as np

# A restart is a hit when its final R lies this close to the best R of
# the same maximize_r call.
HIT_TOLERANCE = 1e-9

# (module attribute, span name) pairs wrapped in each caller module.
_CLI_NAMES = (
    ("maximize_r", "optimize.maximize_r"),
    ("ns_project", "stats.ns_project"),
    ("lhv_bound", "lhv.lhv_bound"),
    ("error_propagation", "stats.error_propagation"),
    ("critical_efficiency", "loophole.critical_efficiency"),
    ("canonicalize", "loophole.canonicalize"),
)
_OPTIMIZE_NAMES = (
    ("error_propagation", "stats.error_propagation"),
    ("lhv_bound", "lhv.lhv_bound"),
)
_IO_READS = ("read_json", "read_counts", "read_functional", "read_behavior", "file_digest")
_IO_WRITES = ("write_json", "write_counts", "write_functional", "write_behavior")

ORACLE = "lhv.oracle"
ROOT = "cli.main"


def _first_scenario(args):
    return args[0].scenario


class Tracer:
    """Spans of the traced passes, with per-pass counters."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.scenarios: list[str] = []
        self._scenario_ids: dict[tuple[int, int], int] = {}
        self.name_id = array("h")
        self.scenario_id = array("h")
        self.parent = array("i")
        self.failed = array("b")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self.counters: dict[str, float] = {}
        # Spans exist only inside traced passes: (first span, one past the last, counters).
        self.passes: list[tuple[int, int, dict]] = []
        self._pass_first = 0

    def _name(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _scenario(self, sc) -> int:
        key = (sc.m, sc.d)
        if key not in self._scenario_ids:
            self._scenario_ids[key] = len(self.scenarios)
            self.scenarios.append(f"{sc.m}x{sc.d}")
        return self._scenario_ids[key]

    def wrap(self, name, fn, *, scenario=None, scenario_of=None, after=None):
        """fn with a span around each call; after(result, args) may replace the result."""
        nid = self._name(name)
        fixed = -1 if scenario is None else self._scenario(scenario)
        clock = time.perf_counter
        stack = self._stack

        def traced(*args, **kwargs):
            idx = len(self.start)
            self.name_id.append(nid)
            self.scenario_id.append(fixed if scenario_of is None else self._scenario(scenario_of(args)))
            self.parent.append(stack[-1] if stack else -1)
            self.failed.append(0)
            self.end.append(0.0)
            stack.append(idx)
            self.start.append(clock())
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.failed[idx] = 1
                raise
            finally:
                self.end[idx] = clock()
                stack.pop()
            return result if after is None else after(result, args)

        return traced

    # -- patching ---------------------------------------------------------

    def _patch(self, module, attr, name, **kw):
        orig = getattr(module, attr)
        self._patches.append((module, attr, orig))
        setattr(module, attr, self.wrap(name, orig, **kw))

    def install(self, bellgap):
        """Wrap the imported names, undone by uninstall(); return the traced cli.main."""
        cli, io, optimize = bellgap.cli, bellgap.io, bellgap.optimize
        for attr, name in _CLI_NAMES:
            after = self._count_restarts if attr == "maximize_r" else None
            self._patch(cli, attr, name, scenario_of=_first_scenario, after=after)
        for attr, name in _OPTIMIZE_NAMES:
            self._patch(optimize, attr, name, scenario_of=_first_scenario)
        self._patch(
            optimize,
            "make_joint_bound_oracle",
            "lhv.make_joint_bound_oracle",
            scenario_of=lambda args: args[0],
            after=lambda oracle, args: self.wrap(ORACLE, oracle, scenario=args[0]),
        )
        for attr in _IO_READS:
            self._patch(io, attr, "io." + attr)
        for attr in _IO_WRITES:
            after = self._count_bytes if attr == "write_json" else None
            self._patch(io, attr, "io." + attr, after=after)
        return self.wrap(ROOT, cli.main)

    def uninstall(self) -> None:
        while self._patches:
            module, attr, orig = self._patches.pop()
            setattr(module, attr, orig)

    def _count_restarts(self, result, args):
        trace = result.engine_trace
        best = max(trace)
        self.counters["optimize.restarts"] += len(trace)
        self.counters["optimize.restart_hits"] += sum(abs(r - best) <= HIT_TOLERANCE for r in trace)
        return result

    def _count_bytes(self, result, args):
        self.counters["io.bytes_written"] += os.path.getsize(args[0])
        return result

    # -- passes -----------------------------------------------------------

    def begin_pass(self) -> None:
        self._pass_first = len(self.start)
        self.counters = {"optimize.restarts": 0, "optimize.restart_hits": 0, "io.bytes_written": 0}

    def end_pass(self) -> None:
        self.passes.append((self._pass_first, len(self.start), self.counters))

    # -- analysis ---------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        # Copies, so the arrays stay appendable (a buffer view would pin them).
        start = np.frombuffer(self.start, dtype=np.float64).copy()
        end = np.frombuffer(self.end, dtype=np.float64).copy()
        parent = np.frombuffer(self.parent, dtype=np.int32).copy()
        duration = end - start
        covered = np.zeros_like(duration)
        has_parent = parent >= 0
        # Calls are sequential, so children never overlap and their
        # durations add up to the time they cover.
        np.add.at(covered, parent[has_parent], duration[has_parent])
        return {
            "name_id": np.frombuffer(self.name_id, dtype=np.int16).copy(),
            "scenario_id": np.frombuffer(self.scenario_id, dtype=np.int16).copy(),
            "parent": parent,
            "failed": np.frombuffer(self.failed, dtype=np.int8).copy(),
            "start": start,
            "end": end,
            "duration": duration,
            "self_time": duration - covered,
        }

    def dump(self, path: Path) -> None:
        """Write every span and the pass boundaries as one compressed .npz file."""
        a = self.arrays()
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(
            path,
            names=np.array(self.names),
            scenarios=np.array(self.scenarios),
            passes=np.array([(lo, hi) for lo, hi, _ in self.passes], dtype=np.int64).reshape(-1, 2),
            **{k: a[k] for k in ("name_id", "scenario_id", "parent", "failed", "start", "end")},
        )


# Per-call metrics: (metric prefix, span name, unit scale, scenario labels).
_PER_SCENARIO = (
    ("lhv.oracle.us_per_call", ORACLE, 1e6, ("2x2", "3x2", "4x2")),
    ("stats.ns_project.s_per_call", "stats.ns_project", 1.0, ("2x2", "3x2", "4x2", "3x3")),
    ("lhv.lhv_bound.us_per_call", "lhv.lhv_bound", 1e6, ("2x2", "3x2", "4x2", "3x3", "4x3", "6x4")),
)


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer numbers from the traced passes.

    Per-pass quantities (counts, busy and self seconds) are medians over
    the traced passes; per-call times pool every traced call.  A layer or
    scenario that a workload never calls reports 0 calls and 0 time.
    """
    a = tracer.arrays()
    name_of, parent, duration, self_time = a["name_id"], a["parent"], a["duration"], a["self_time"]

    def mask(*names):
        ids = [tracer.names.index(n) for n in names if n in tracer.names]
        return np.isin(name_of, ids)

    is_read = mask(*("io." + n for n in _IO_READS))
    is_write = mask(*("io." + n for n in _IO_WRITES))
    # Outermost io spans only: read_counts encloses read_json.
    nested = parent >= 0
    io_top = is_read | is_write
    io_top[nested] &= ~io_top[parent[nested]]
    oracle, maximize, project, root = (
        mask(n) for n in (ORACLE, "optimize.maximize_r", "stats.ns_project", ROOT)
    )

    per_pass: dict[str, list[float]] = {}
    for lo, hi, counters in tracer.passes:
        sl = slice(lo, hi)
        for key, value in (
            ("lhv.oracle.calls", oracle[sl].sum()),
            ("lhv.oracle.busy_s", duration[sl][oracle[sl]].sum()),
            ("optimize.maximize_r.self_s", self_time[sl][maximize[sl]].sum()),
            ("stats.ns_project.failed", a["failed"][sl][project[sl]].sum()),
            ("io.read_s", duration[sl][(io_top & is_read)[sl]].sum()),
            ("io.write_s", duration[sl][(io_top & is_write)[sl]].sum()),
            ("io.bytes_written", counters["io.bytes_written"]),
            ("cli.main.self_s", self_time[sl][root[sl]].sum()),
        ):
            per_pass.setdefault(key, []).append(float(value))
    metrics = {key: float(np.median(values)) for key, values in per_pass.items()}

    restarts = sum(c["optimize.restarts"] for _, _, c in tracer.passes)
    hits = sum(c["optimize.restart_hits"] for _, _, c in tracer.passes)
    metrics["optimize.restart_hit_ratio"] = hits / restarts if restarts else 0.0

    def per_call(name, scale, scenario=None):
        calls = mask(name)
        if scenario is not None:
            sid = tracer.scenarios.index(scenario) if scenario in tracer.scenarios else -2
            calls &= a["scenario_id"] == sid
        n = int(calls.sum())
        return scale * float(duration[calls].sum()) / n if n else 0.0

    for prefix, name, scale, labels in _PER_SCENARIO:
        for label in labels:
            metrics[f"{prefix}.{label}"] = per_call(name, scale, label)
    metrics["stats.error_propagation.us_per_call"] = per_call("stats.error_propagation", 1e6)
    metrics["loophole.critical_efficiency.us_per_call"] = per_call(
        "loophole.critical_efficiency", 1e6
    )
    return metrics
