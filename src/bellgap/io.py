"""JSON file formats for behaviors, counts, and functionals.

Every file is an object with a ``format_version`` gate and a ``kind`` tag.
Tables are nested lists indexed [x][y][a][b] (joint blocks) or [x][a]
(marginal blocks).  Keys are sorted and floats use Python's shortest
round-tripping decimal form (at most 17 significant digits), so equal
objects serialize to byte-identical files and write-then-read is lossless.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np

from .core import Behavior, BellFunctional, Scenario, _is_integer
from .errors import SchemaError
from .stats import _MAX_COUNT, CountTable

FORMAT_VERSION = 1


def write_json(path, payload: dict) -> None:
    """Canonical JSON: sorted keys, two-space indent, trailing newline."""
    text = json.dumps(payload, sort_keys=True, indent=2, allow_nan=False)
    Path(path).write_text(text + "\n")


def read_json(path) -> dict:
    def refuse(literal):  # json.loads would read NaN, Infinity and -Infinity as floats
        raise SchemaError(f"{path}: {literal} is not a JSON number")

    try:
        payload = json.loads(Path(path).read_text(encoding="utf-8"), parse_constant=refuse)
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise SchemaError(f"{path}: not valid JSON ({exc})") from exc
    if not isinstance(payload, dict):
        raise SchemaError(f"{path}: top level must be a JSON object")
    return payload


def file_digest(path) -> str:
    """Content hash of a file, prefixed with the algorithm name."""
    return "sha256:" + hashlib.sha256(Path(path).read_bytes()).hexdigest()


def file_header(kind: str, scenario: Scenario) -> dict:
    """The fields every file starts with; _scenario_of checks them on reading."""
    return {"format_version": FORMAT_VERSION, "kind": kind, "m": scenario.m, "d": scenario.d}


def _scenario_of(payload: dict, kind: str) -> Scenario:
    """The scenario of a file of the given kind, after its header is checked."""
    version = payload.get("format_version")
    if not _is_integer(version) or version != FORMAT_VERSION:
        raise SchemaError(
            f"unsupported format_version {version!r} (this build reads {FORMAT_VERSION})"
        )
    if payload.get("kind") != kind:
        raise SchemaError(f"expected kind {kind!r}, got {payload.get('kind')!r}")
    for key in ("m", "d"):
        if not _is_integer(payload.get(key)):
            raise SchemaError(f"field {key!r} must be an integer")
    return Scenario(payload["m"], payload["d"])


def _cells_of(payload: dict, key: str) -> np.ndarray:
    """The table under key as an object array whose cells are JSON numbers.

    Only int and float cells pass: numpy would parse "5" as 5, true as 1
    and null as nan, none of which the schema allows.
    """
    if key not in payload:
        raise SchemaError(f"missing field {key!r}")
    cells = np.asarray(payload[key], dtype=object)
    if set(map(type, cells.flat)) <= {int, float}:
        return cells
    for cell in cells.flat:  # only to word the error
        if type(cell) not in (int, float):
            if isinstance(cell, (list, dict)):
                raise SchemaError(f"field {key!r} is not a rectangular numeric array")
            raise SchemaError(f"field {key!r}: {json.dumps(cell)} is not a JSON number")
    return cells


def _array_of(payload: dict, key: str) -> np.ndarray:
    try:
        return _cells_of(payload, key).astype(float)
    except OverflowError as exc:
        raise SchemaError(f"field {key!r} holds an integer too large for a float") from exc


def behavior_to_payload(b: Behavior) -> dict:
    return {
        **file_header("behavior", b.scenario),
        "p": b.p.tolist(),
        "setting_weights": b.setting_weights.tolist(),
    }


def behavior_from_payload(payload: dict) -> Behavior:
    sc = _scenario_of(payload, "behavior")
    weights = _array_of(payload, "setting_weights") if "setting_weights" in payload else None
    return Behavior(sc, _array_of(payload, "p"), weights)


def counts_to_payload(counts: CountTable, meta: dict | None = None) -> dict:
    payload = {
        **file_header("counts", counts.scenario),
        "counts": counts.c.tolist(),
    }
    if meta:
        payload["meta"] = dict(meta)
    return payload


def counts_from_payload(payload: dict) -> tuple[CountTable, dict]:
    sc = _scenario_of(payload, "counts")
    meta = payload.get("meta", {})
    if not isinstance(meta, dict):
        raise SchemaError("field 'meta' must be an object")
    cells = _cells_of(payload, "counts")
    # float64 rounds integers above 2**53 (9007199254740993 reads as
    # ...992), so the counts are compared as the JSON numbers.
    if (cells > _MAX_COUNT).any():
        raise SchemaError(f"field 'counts': a count exceeds 2**53 = {_MAX_COUNT}")
    return CountTable(sc, cells.astype(float)), meta


def functional_to_payload(f: BellFunctional) -> dict:
    return {
        **file_header("functional", f.scenario),
        "joint": f.joint.tolist(),
        "marginal_a": f.marginal_a.tolist(),
        "marginal_b": f.marginal_b.tolist(),
    }


def functional_from_payload(payload: dict) -> BellFunctional:
    sc = _scenario_of(payload, "functional")
    marg_a = _array_of(payload, "marginal_a") if "marginal_a" in payload else None
    marg_b = _array_of(payload, "marginal_b") if "marginal_b" in payload else None
    return BellFunctional(sc, _array_of(payload, "joint"), marg_a, marg_b)


def write_behavior(path, b: Behavior) -> None:
    write_json(path, behavior_to_payload(b))


def read_behavior(path) -> Behavior:
    return behavior_from_payload(read_json(path))


def write_counts(path, counts: CountTable, meta: dict | None = None) -> None:
    write_json(path, counts_to_payload(counts, meta))


def read_counts(path) -> tuple[CountTable, dict]:
    return counts_from_payload(read_json(path))


def write_functional(path, f: BellFunctional) -> None:
    write_json(path, functional_to_payload(f))


def read_functional(path) -> BellFunctional:
    return functional_from_payload(read_json(path))
