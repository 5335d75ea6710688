"""Tests for the JSON file formats: lossless round-trips, schema gates, digests."""

import json

import numpy as np
import pytest

from bellgap import BellFunctional, SchemaError, Scenario, io, tilted_behavior, tilted_functional
from bellgap.stats import CountTable, poisson_sample

from helpers import random_functional, random_ns_behavior

CHSH = Scenario(2, 2)


class TestRoundTrips:
    def test_behavior_exact(self, tmp_path):
        b = random_ns_behavior(CHSH, np.random.default_rng(1))
        path = tmp_path / "b.json"
        io.write_behavior(path, b)
        back = io.read_behavior(path)
        assert back.scenario == b.scenario
        np.testing.assert_array_equal(back.p, b.p)
        np.testing.assert_array_equal(back.setting_weights, b.setting_weights)

    def test_behavior_with_irrational_entries_exact(self, tmp_path):
        # Shortest round-trip floats must reproduce every bit.
        b = tilted_behavior(np.sqrt(2.0) - 0.3)
        path = tmp_path / "b.json"
        io.write_behavior(path, b)
        np.testing.assert_array_equal(io.read_behavior(path).p, b.p)

    def test_counts_exact_with_meta(self, tmp_path):
        counts = poisson_sample(tilted_behavior(1.0), 5000, seed=3)
        meta = {"alpha": 1.0, "seed": 3, "n_per_setting": 5000}
        path = tmp_path / "c.json"
        io.write_counts(path, counts, meta)
        back, back_meta = io.read_counts(path)
        np.testing.assert_array_equal(back.c, counts.c)
        assert back_meta == meta

    def test_counts_without_meta_reads_empty_dict(self, tmp_path):
        counts = CountTable(CHSH, np.ones(CHSH.joint_shape))
        path = tmp_path / "c.json"
        io.write_counts(path, counts)
        _, meta = io.read_counts(path)
        assert meta == {}
        assert "meta" not in io.read_json(path)

    def test_functional_exact(self, tmp_path):
        f = random_functional(Scenario(3, 2), np.random.default_rng(2))
        path = tmp_path / "f.json"
        io.write_functional(path, f)
        back = io.read_functional(path)
        np.testing.assert_array_equal(back.joint, f.joint)
        np.testing.assert_array_equal(back.marginal_a, f.marginal_a)
        np.testing.assert_array_equal(back.marginal_b, f.marginal_b)

    def test_functional_payload_without_marginals(self):
        payload = io.functional_to_payload(tilted_functional(0.7))
        del payload["marginal_a"], payload["marginal_b"]
        back = io.functional_from_payload(payload)
        assert back.is_joint_only


class TestDeterminism:
    def test_equal_objects_serialize_identically(self, tmp_path):
        b = tilted_behavior(0.8)
        io.write_behavior(tmp_path / "x.json", b)
        io.write_behavior(tmp_path / "y.json", tilted_behavior(0.8))
        assert (tmp_path / "x.json").read_bytes() == (tmp_path / "y.json").read_bytes()

    def test_key_order_is_sorted_with_trailing_newline(self, tmp_path):
        path = tmp_path / "f.json"
        io.write_functional(path, tilted_functional(0.2))
        text = path.read_text()
        assert text.endswith("}\n")
        keys = list(json.loads(text))
        assert keys == sorted(keys)

    def test_nan_payloads_are_refused(self, tmp_path):
        with pytest.raises(ValueError):
            io.write_json(tmp_path / "bad.json", {"format_version": 1, "x": float("nan")})


class TestSchemaGates:
    def test_non_json_file(self, tmp_path):
        path = tmp_path / "junk.json"
        path.write_text("not json {")
        with pytest.raises(SchemaError):
            io.read_json(path)

    def test_non_utf8_file(self, tmp_path):
        path = tmp_path / "binary.json"
        path.write_bytes(b"\x89PNG\r\n\x1a\n\xff\xfe")
        with pytest.raises(SchemaError, match="not valid JSON"):
            io.read_json(path)

    def test_non_object_top_level(self, tmp_path):
        path = tmp_path / "list.json"
        path.write_text("[1, 2]\n")
        with pytest.raises(SchemaError):
            io.read_json(path)

    def test_wrong_format_version(self):
        payload = io.behavior_to_payload(tilted_behavior(0.0))
        payload["format_version"] = 99
        with pytest.raises(SchemaError, match="format_version"):
            io.behavior_from_payload(payload)

    def test_wrong_kind(self):
        payload = io.behavior_to_payload(tilted_behavior(0.0))
        with pytest.raises(SchemaError, match="kind"):
            io.functional_from_payload(payload)

    def test_non_integer_scenario_field(self):
        payload = io.functional_to_payload(tilted_functional(0.0))
        payload["m"] = 2.0
        with pytest.raises(SchemaError, match="'m'"):
            io.functional_from_payload(payload)

    @pytest.mark.parametrize(
        "key, message", [("m", "field 'm'"), ("d", "field 'd'"), ("format_version", "format_version")]
    )
    def test_boolean_integer_field_rejected(self, key, message):
        # true == 1, so a one-setting functional would otherwise read as valid.
        payload = io.functional_to_payload(BellFunctional(Scenario(1, 2), np.ones((1, 1, 2, 2))))
        payload[key] = True
        with pytest.raises(SchemaError, match=message):
            io.functional_from_payload(payload)

    def test_missing_table(self):
        payload = io.functional_to_payload(tilted_functional(0.0))
        del payload["joint"]
        with pytest.raises(SchemaError, match="joint"):
            io.functional_from_payload(payload)

    def test_ragged_table(self):
        payload = io.functional_to_payload(tilted_functional(0.0))
        payload["joint"][0] = [[1.0]]
        with pytest.raises(SchemaError, match="rectangular"):
            io.functional_from_payload(payload)

    def test_non_object_meta(self):
        payload = io.counts_to_payload(CountTable(CHSH, np.ones(CHSH.joint_shape)))
        payload["meta"] = [1, 2]
        with pytest.raises(SchemaError, match="meta"):
            io.counts_from_payload(payload)

    def test_integer_count_beyond_exact_floats(self, tmp_path):
        # float64 reads 2**53 + 1 as 2**53, which CountTable would accept.
        payload = io.counts_to_payload(CountTable(CHSH, np.ones(CHSH.joint_shape, dtype=np.int64)))
        payload["counts"][0][0][0][0] = 2**53 + 1
        path = tmp_path / "huge.json"
        io.write_json(path, payload)
        with pytest.raises(SchemaError, match=r"a count exceeds 2\*\*53"):
            io.read_counts(path)

    def test_count_at_the_exact_float_limit_reads_back(self, tmp_path):
        c = np.zeros(CHSH.joint_shape, dtype=np.int64)
        c[..., 0, 0] = 2**53
        path = tmp_path / "limit.json"
        io.write_counts(path, CountTable(CHSH, c))
        counts, _ = io.read_counts(path)
        np.testing.assert_array_equal(counts.c, c)

    @pytest.mark.parametrize("count", [2**63, 2**64, 10**400])
    def test_integer_counts_numpy_reads_as_other_dtypes_are_rejected(self, tmp_path, count):
        # numpy reads 2**63 as uint64 and 2**64 as object; 10**400 overflows a float.
        payload = io.counts_to_payload(CountTable(CHSH, np.ones(CHSH.joint_shape, dtype=np.int64)))
        payload["counts"][1][0][1][1] = count
        path = tmp_path / "huge.json"
        io.write_json(path, payload)
        with pytest.raises(SchemaError, match=r"a count exceeds 2\*\*53"):
            io.read_counts(path)

    def test_integer_coefficient_beyond_floats_is_rejected(self):
        payload = io.functional_to_payload(tilted_functional(0.0))
        payload["joint"][0][0][0][0] = 10**400
        with pytest.raises(SchemaError, match="'joint' holds an integer too large"):
            io.functional_from_payload(payload)


# One cell of each table, and the reader that must refuse a non-number there.
_TABLE_CELLS = {
    "counts": (
        lambda: io.counts_to_payload(CountTable(CHSH, np.ones(CHSH.joint_shape, dtype=np.int64))),
        lambda p: p["counts"][0][1][1], io.counts_from_payload,
    ),
    "joint": (
        lambda: io.functional_to_payload(tilted_functional(1.0)),
        lambda p: p["joint"][1][1][0], io.functional_from_payload,
    ),
    "marginal_a": (
        lambda: io.functional_to_payload(tilted_functional(1.0)),
        lambda p: p["marginal_a"][0], io.functional_from_payload,
    ),
    "p": (
        lambda: io.behavior_to_payload(tilted_behavior(1.0)),
        lambda p: p["p"][1][0][0], io.behavior_from_payload,
    ),
    "setting_weights": (
        lambda: io.behavior_to_payload(tilted_behavior(1.0)),
        lambda p: p["setting_weights"][0], io.behavior_from_payload,
    ),
}


class TestCellsAreJsonNumbers:
    """numpy would read "5" as 5, true as 1 and null as nan; the schema takes only numbers."""

    @pytest.mark.parametrize("bad", ["5", True, False, None], ids=["string", "true", "false", "null"])
    @pytest.mark.parametrize("field", _TABLE_CELLS)
    def test_non_number_cell_is_a_schema_error(self, tmp_path, field, bad):
        make, row_of, from_payload = _TABLE_CELLS[field]
        payload = make()
        row = row_of(payload)
        row[1] = bad
        path = tmp_path / "bad.json"
        io.write_json(path, payload)
        with pytest.raises(SchemaError, match=f"field '{field}': {json.dumps(bad)} is not a JSON number"):
            from_payload(io.read_json(path))

    @pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity"])
    @pytest.mark.parametrize("field", _TABLE_CELLS)
    def test_non_finite_literal_is_a_schema_error(self, tmp_path, field, literal):
        # json.dumps writes these literals unless allow_nan=False; the CLI exits 2 on them.
        make, row_of, from_payload = _TABLE_CELLS[field]
        payload = make()
        row_of(payload)[1] = float(literal)
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(payload))
        with pytest.raises(SchemaError, match=f"{literal} is not a JSON number"):
            from_payload(io.read_json(path))

    def test_integer_and_float_cells_read_as_before(self):
        payload = io.functional_to_payload(tilted_functional(1.0))
        payload["joint"][0][0][0] = [1, 0]  # JSON integers where floats were written
        expect = tilted_functional(1.0).joint.copy()
        expect[0, 0, 0] = [1.0, 0.0]
        np.testing.assert_array_equal(io.functional_from_payload(payload).joint, expect)


class TestFileDigest:
    def test_matches_reference_hash(self, tmp_path):
        path = tmp_path / "x.bin"
        path.write_bytes(b"bellgap\n")
        import hashlib

        expect = hashlib.sha256(b"bellgap\n").hexdigest()
        assert io.file_digest(path) == "sha256:" + expect

    def test_sensitive_to_content(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        a.write_bytes(b"0")
        b.write_bytes(b"1")
        assert io.file_digest(a) != io.file_digest(b)
