"""End-to-end tests of the command-line pipeline, run in-process via main()."""

import json
import os
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from bellgap import (
    BellFunctional,
    CountTable,
    OptimizerConfig,
    Scenario,
    concurrence,
    io,
    lhv_bound,
    ns_residual,
    poisson_sample,
    tilted_behavior,
    tilted_functional,
    tilted_realization,
    uniform_behavior,
)
from bellgap.cli import build_parser, main
from bellgap.stats import error_propagation

CHSH = Scenario(2, 2)
SQRT2 = np.sqrt(2.0)


def value_of(line: str) -> float:
    return float(line.split("=")[1])


@pytest.fixture(scope="module")
def data_dir(tmp_path_factory):
    """Counts and functional files shared across CLI tests."""
    root = tmp_path_factory.mktemp("cli_data")
    assert main(["simulate", "--alpha", "1.0", "--n-per-setting", "20000",
                 "--seed", "4", "--out", str(root / "tilted_counts.json")]) == 0
    assert main(["simulate", "--alpha", "0.0", "--n-per-setting", "20000",
                 "--seed", "9", "--out", str(root / "chsh_counts.json")]) == 0
    assert main(["simulate", "--alpha", "0.0", "--exact",
                 "--out", str(root / "chsh_behavior.json")]) == 0
    io.write_counts(root / "uniform_counts.json",
                    poisson_sample(uniform_behavior(CHSH), 20000, seed=2))
    io.write_functional(root / "chsh_functional.json", tilted_functional(0.0))
    io.write_functional(root / "tilted_functional.json", tilted_functional(1.0))
    return root


class TestSimulate:
    def test_exact_behavior_matches_library_route(self, data_dir):
        back = io.read_behavior(data_dir / "chsh_behavior.json")
        np.testing.assert_array_equal(back.p, tilted_behavior(0.0).p)

    def test_counts_match_seeded_sampling(self, data_dir):
        counts, meta = io.read_counts(data_dir / "tilted_counts.json")
        expect = poisson_sample(tilted_behavior(1.0), 20000, seed=4)
        np.testing.assert_array_equal(counts.c, expect.c)
        assert meta["alpha"] == 1.0
        assert meta["n_per_setting"] == 20000
        assert meta["seed"] == 4
        # Concurrence of the alpha = 1 optimal state: sqrt((4 - 1)/(4 + 1)).
        np.testing.assert_allclose(meta["concurrence"], np.sqrt(0.6), rtol=1e-12)

    def test_seed_required_without_exact(self, tmp_path, capsys):
        code = main(["simulate", "--alpha", "1.0", "--out", str(tmp_path / "x.json")])
        assert code == 2
        assert "--seed" in capsys.readouterr().err

    def test_alpha_out_of_range_fails_validation(self, tmp_path):
        assert main(["simulate", "--alpha", "2.5", "--seed", "1",
                     "--out", str(tmp_path / "x.json")]) == 2

    @pytest.mark.parametrize("flags", [["--seed", "-1"],
                                       ["--seed", "1", "--n-per-setting", str(10**20)]])
    def test_out_of_range_sampling_argument_fails_validation(self, tmp_path, capsys, flags):
        assert main(["simulate", "--alpha", "1.0", *flags, "--out", str(tmp_path / "x.json")]) == 2
        assert "error:" in capsys.readouterr().err

    def test_missing_required_flag_is_a_usage_error(self):
        with pytest.raises(SystemExit) as info:
            main(["simulate", "--seed", "1", "--out", "x.json"])
        assert info.value.code == 2


class TestBound:
    def test_reports_bound_and_maximizer_count(self, data_dir, capsys):
        assert main(["bound", str(data_dir / "tilted_functional.json")]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "C = 3"
        ref = lhv_bound(tilted_functional(1.0))
        assert lines[1] == f"maximizers = {len(ref.maximizers)}"

    def test_missing_file_fails_cleanly(self, tmp_path, capsys):
        assert main(["bound", str(tmp_path / "nope.json")]) == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("key", ["m", "format_version"])
    def test_boolean_integer_field_is_a_schema_error(self, tmp_path, capsys, key):
        payload = io.functional_to_payload(BellFunctional(Scenario(1, 2), np.ones((1, 1, 2, 2))))
        payload[key] = True
        path = tmp_path / "f.json"
        io.write_json(path, payload)
        assert main(["bound", str(path)]) == 2
        assert key in capsys.readouterr().err


    def test_binary_file_is_a_schema_error(self, tmp_path, capsys):
        path = tmp_path / "f.json"
        path.write_bytes(b"\x89PNG\r\n\x1a\n\xff\xfe")
        assert main(["bound", str(path)]) == 2
        assert "not valid JSON" in capsys.readouterr().err


class TestEvaluate:
    def test_matches_error_propagation(self, data_dir, capsys):
        assert main(["evaluate", str(data_dir / "tilted_functional.json"),
                     str(data_dir / "tilted_counts.json")]) == 0
        q_line, dq_line, sdn_line = capsys.readouterr().out.splitlines()
        counts, _ = io.read_counts(data_dir / "tilted_counts.json")
        rep = error_propagation(tilted_functional(1.0), counts)
        np.testing.assert_allclose(value_of(q_line), rep.q, rtol=1e-15)
        np.testing.assert_allclose(value_of(dq_line), rep.delta_q, rtol=1e-15)
        np.testing.assert_allclose(
            value_of(sdn_line), (rep.q - 3.0) / rep.delta_q, rtol=1e-12
        )

    def test_zero_functional_reports_zero_sdn(self, data_dir, tmp_path, capsys):
        path = tmp_path / "zero.json"
        io.write_functional(path, BellFunctional(CHSH, np.zeros(CHSH.joint_shape)))
        assert main(["evaluate", str(path), str(data_dir / "tilted_counts.json")]) == 0
        q_line, dq_line, sdn_line = capsys.readouterr().out.splitlines()
        assert value_of(q_line) == 0.0
        assert value_of(dq_line) == 0.0
        assert sdn_line == "SDN = 0"

    def test_schema_error_exit_code(self, data_dir, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"format_version": 1, "kind": "behavior"}\n')
        assert main(["evaluate", str(bad), str(data_dir / "tilted_counts.json")]) == 2


class TestProject:
    def test_writes_no_signaling_behavior(self, data_dir, tmp_path, capsys):
        out = tmp_path / "projected.json"
        assert main(["project", str(data_dir / "tilted_counts.json"),
                     "--out", str(out)]) == 0
        d_line = capsys.readouterr().out.splitlines()[0]
        assert value_of(d_line) >= 0.0
        assert ns_residual(io.read_behavior(out)).max <= 1e-8

    @pytest.mark.parametrize("count, message", [(1e300, "a count"), (2**52, "a block total")])
    def test_counts_beyond_exact_floats_are_rejected(self, tmp_path, capsys, count, message):
        counts = np.ones(CHSH.joint_shape)
        counts[0, 0] = count
        path = tmp_path / "huge.json"
        io.write_json(path, {"format_version": 1, "kind": "counts", "m": 2, "d": 2,
                             "counts": counts.tolist()})
        assert main(["project", str(path), "--out", str(tmp_path / "p.json")]) == 2
        assert f"{message} exceeds 2**53" in capsys.readouterr().err

    def test_integer_count_beyond_exact_floats_is_rejected(self, tmp_path, capsys):
        # 2**53 + 1 is a JSON integer that float64 would round down to 2**53.
        counts = np.ones(CHSH.joint_shape, dtype=np.int64).tolist()
        counts[0][0][0][0] = 2**53 + 1
        path = tmp_path / "huge.json"
        io.write_json(path, {"format_version": 1, "kind": "counts", "m": 2, "d": 2,
                             "counts": counts})
        assert main(["project", str(path), "--out", str(tmp_path / "p.json")]) == 2
        assert "a count exceeds 2**53" in capsys.readouterr().err

    @pytest.mark.parametrize("cell", ["5", True, None])
    def test_non_number_count_is_a_schema_error(self, tmp_path, capsys, cell):
        counts = np.ones(CHSH.joint_shape, dtype=np.int64).tolist()
        counts[0][1][0][1] = cell
        path = tmp_path / "bad.json"
        io.write_json(path, {"format_version": 1, "kind": "counts", "m": 2, "d": 2,
                             "counts": counts})
        assert main(["project", str(path), "--out", str(tmp_path / "p.json")]) == 2
        assert "is not a JSON number" in capsys.readouterr().err


class TestOptimize:
    def run(self, data_dir, out, extra=()):
        return main(["optimize", str(data_dir / "tilted_counts.json"),
                     "--seed", "123", "--restarts", "2", "--out", str(out), *extra])

    def test_report_and_functional_files(self, data_dir, tmp_path, capsys):
        out = tmp_path / "report.json"
        assert self.run(data_dir, out) == 0
        lines = capsys.readouterr().out.splitlines()
        assert value_of(lines[0]) > 1.0
        assert lines[1] == "nonlocal = true"

        payload = io.read_json(out)
        assert set(payload) == {
            "format_version", "kind", "artifact_version", "input_digest", "m", "d",
            "functionals", "optimizer_config", "efficiencies",
        }
        assert payload["kind"] == "report"
        assert payload["input_digest"] == io.file_digest(data_dir / "tilted_counts.json")
        block = payload["functionals"][0]
        assert block["name"] == "optimized"
        assert block["nonlocal"] is True
        assert block["sdn"] > 3.0
        assert payload["optimizer_config"] == {"restarts": 2, "seed": 123}
        assert {b["mode"] for b in payload["efficiencies"]} == {
            "asymmetric_b_perfect", "symmetric"
        }

        functional = io.read_functional(tmp_path / "report_functional.json")
        assert functional.scenario == CHSH
        counts, _ = io.read_counts(data_dir / "tilted_counts.json")
        rep = error_propagation(functional, counts)
        np.testing.assert_allclose(rep.q, block["q"], rtol=1e-15)

    def test_runs_are_byte_identical(self, data_dir, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert self.run(data_dir, a) == 0
        assert self.run(data_dir, b) == 0
        assert a.read_bytes() == b.read_bytes()
        assert (tmp_path / "a_functional.json").read_bytes() == \
            (tmp_path / "b_functional.json").read_bytes()

    def test_explicit_functional_path(self, data_dir, tmp_path):
        out = tmp_path / "r.json"
        fpath = tmp_path / "best.json"
        assert self.run(data_dir, out, ["--functional-out", str(fpath)]) == 0
        assert fpath.exists()
        assert not (tmp_path / "r_functional.json").exists()

    @pytest.mark.parametrize("command, out_flag", [("optimize", "--out"), ("report", "--out-dir")])
    def test_every_config_field_but_the_seed_has_a_flag(self, command, out_flag):
        # Two ways: every config field has a flag (the seed's is the
        # required --seed), and every other parsed value is one of the
        # command's own inputs, so no optimizer flag is parsed and ignored.
        args = build_parser().parse_args([command, "c.json", "--seed", "1", out_flag, "o"])
        own = {"command", "func", "counts", "out", "out_dir", "functional_out", "mode", "projected"}
        assert set(vars(args)) - own == {field.name for field in fields(OptimizerConfig)}
        assert args.restarts == OptimizerConfig().restarts

    @pytest.mark.parametrize("command, extra", [
        ("optimize", ["--denom-floor", "5"]),
        ("optimize", ["--max-iters", "50"]),
        ("optimize", ["--config", "f.json"]),
        ("efficiency", ["--normalize", "4"]),
    ])
    def test_removed_flags_are_unknown(self, data_dir, tmp_path, capsys, command, extra):
        if command == "optimize":
            argv = ["optimize", str(data_dir / "tilted_counts.json"), "--seed", "1",
                    "--out", str(tmp_path / "r.json")]
        else:
            argv = ["efficiency", str(data_dir / "chsh_functional.json"),
                    str(data_dir / "chsh_behavior.json")]
        with pytest.raises(SystemExit) as info:
            main(argv + extra)
        assert info.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err
        assert not (tmp_path / "r.json").exists()

    def test_local_data_reports_the_baseline(self, data_dir, tmp_path, capsys):
        out = tmp_path / "u.json"
        assert main(["optimize", str(data_dir / "uniform_counts.json"),
                     "--seed", "123", "--restarts", "2", "--out", str(out)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert value_of(lines[0]) == 1.0
        assert lines[1] == "nonlocal = false"

    def test_efficiency_failures_are_reported_not_raised(self, tmp_path, capsys):
        # Local three-outcome counts: the zero functional wins, and neither
        # efficiency mode has a canonical form for d = 3.
        counts = tmp_path / "local_3x3.json"
        io.write_counts(counts, CountTable(Scenario(3, 3), np.full((3, 3, 3, 3), 1000)))
        out = tmp_path / "r.json"
        assert main(["optimize", str(counts), "--seed", "1", "--restarts", "1",
                     "--out", str(out)]) == 0
        assert capsys.readouterr().out.splitlines()[1] == "nonlocal = false"
        blocks = io.read_json(out)["efficiencies"]
        assert [b["mode"] for b in blocks] == ["asymmetric_b_perfect", "symmetric"]
        for block in blocks:
            assert set(block) == {"functional", "mode", "error"}
            assert "two outcomes" in block["error"]


class TestEfficiency:
    def test_exact_behavior_hits_the_known_threshold(self, data_dir, capsys):
        assert main(["efficiency", str(data_dir / "chsh_functional.json"),
                     str(data_dir / "chsh_behavior.json")]) == 0
        mode, a_line, b_line = capsys.readouterr().out.splitlines()
        assert mode == "mode = symmetric"
        np.testing.assert_allclose(value_of(a_line), 2.0 / (1.0 + SQRT2), rtol=1e-12)
        assert value_of(a_line) == value_of(b_line)

    def test_counts_input_uses_frequencies(self, data_dir, capsys):
        assert main(["efficiency", str(data_dir / "chsh_functional.json"),
                     str(data_dir / "chsh_counts.json"),
                     "--mode", "asymmetric_b_perfect"]) == 0
        mode, a_line, b_line = capsys.readouterr().out.splitlines()
        assert mode == "mode = asymmetric_b_perfect"
        np.testing.assert_allclose(value_of(a_line), 1.0 / SQRT2, atol=0.01)
        assert value_of(b_line) == 1.0

    def test_no_violation_is_a_numerical_failure(self, data_dir, capsys):
        assert main(["efficiency", str(data_dir / "chsh_functional.json"),
                     str(data_dir / "uniform_counts.json")]) == 3
        assert "violate" in capsys.readouterr().err


class TestReport:
    def test_csv_series_over_two_alphas(self, data_dir, tmp_path, capsys):
        out_dir = tmp_path / "series"
        assert main(["report", str(data_dir / "tilted_counts.json"),
                     str(data_dir / "chsh_counts.json"),
                     "--seed", "123", "--restarts", "2",
                     "--out-dir", str(out_dir)]) == 0
        sdn_rows = (out_dir / "sdn_vs_concurrence.csv").read_text().splitlines()
        eta_rows = (out_dir / "efficiency_vs_concurrence.csv").read_text().splitlines()
        assert sdn_rows[0] == "concurrence,sdn_tilted,sdn_optimized"
        assert eta_rows[0] == "concurrence,eta_tilted,eta_optimized"
        assert len(sdn_rows) == 3 and len(eta_rows) == 3
        concs = [float(r.split(",")[0]) for r in sdn_rows[1:]]
        assert concs == sorted(concs)
        np.testing.assert_allclose(concs, [np.sqrt(0.6), 1.0], rtol=1e-12)
        # CHSH data at concurrence 1: both functionals certify violation.
        last = sdn_rows[2].split(",")
        assert float(last[1]) > 3.0 and float(last[2]) > 3.0

    def test_reruns_are_byte_identical(self, data_dir, tmp_path):
        args = ["report", str(data_dir / "chsh_counts.json"), "--seed", "123",
                "--restarts", "2"]
        assert main(args + ["--out-dir", str(tmp_path / "one")]) == 0
        assert main(args + ["--out-dir", str(tmp_path / "two")]) == 0
        for name in ("sdn_vs_concurrence.csv", "efficiency_vs_concurrence.csv"):
            assert (tmp_path / "one" / name).read_bytes() == \
                (tmp_path / "two" / name).read_bytes()

    def test_projected_frequencies_accepted(self, data_dir, tmp_path):
        assert main(["report", str(data_dir / "chsh_counts.json"), "--seed", "123",
                     "--restarts", "2", "--projected",
                     "--out-dir", str(tmp_path / "proj")]) == 0

    def test_concurrence_defaults_to_the_alphas_state(self, data_dir, tmp_path):
        counts, meta = io.read_counts(data_dir / "tilted_counts.json")
        path = tmp_path / "alpha_only.json"
        io.write_counts(path, counts, {"alpha": meta["alpha"]})
        assert main(["report", str(path), "--seed", "1", "--restarts", "2",
                     "--out-dir", str(tmp_path / "x")]) == 0
        rows = (tmp_path / "x" / "sdn_vs_concurrence.csv").read_text().splitlines()
        expect = concurrence(tilted_realization(meta["alpha"]).theta)
        assert float(rows[1].split(",")[0]) == expect

    def test_counts_without_metadata_rejected(self, data_dir, tmp_path, capsys):
        code = main(["report", str(data_dir / "uniform_counts.json"), "--seed", "1",
                     "--restarts", "2", "--out-dir", str(tmp_path / "x")])
        assert code == 2
        assert "alpha" in capsys.readouterr().err

    @pytest.mark.parametrize("key, value", [
        ("alpha", "abc"), ("alpha", [1]), ("alpha", True), ("concurrence", "abc"),
        ("concurrence", {"c": 1}),
    ])
    def test_non_numeric_metadata_rejected(self, data_dir, tmp_path, capsys, key, value):
        counts, meta = io.read_counts(data_dir / "tilted_counts.json")
        path = tmp_path / "bad_meta.json"
        io.write_counts(path, counts, meta | {key: value})
        code = main(["report", str(path), "--seed", "1", "--restarts", "2",
                     "--out-dir", str(tmp_path / "x")])
        assert code == 2
        err = capsys.readouterr().err
        assert key in err and "must be a number" in err

    @pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity", "1e400", "1" + "0" * 400],
                             ids=["NaN", "Infinity", "-Infinity", "1e400", "10**400"])
    def test_non_finite_metadata_rejected(self, data_dir, tmp_path, capsys, literal):
        # json reads the first three as floats and 1e400 as inf; 10**400 has no float.
        counts, meta = io.read_counts(data_dir / "tilted_counts.json")
        text = json.dumps(io.counts_to_payload(counts, meta | {"concurrence": "VALUE"}))
        path = tmp_path / "bad_meta.json"
        path.write_text(text.replace('"VALUE"', literal))
        code = main(["report", str(path), "--seed", "1", "--restarts", "2",
                     "--out-dir", str(tmp_path / "x")])
        assert code == 2
        assert not (tmp_path / "x").exists()
        assert str(path) in capsys.readouterr().err


class TestTopLevel:
    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["--version"])
        assert info.value.code == 0
        assert "bellgap" in capsys.readouterr().out

    def test_subcommand_required(self):
        with pytest.raises(SystemExit) as info:
            main([])
        assert info.value.code == 2

    def test_parser_is_reused_unchanged(self, data_dir, capsys):
        # One parser serves every call in a process; an argparse error exit
        # or another subcommand in between must not change a later result.
        argv = ["bound", str(data_dir / "tilted_functional.json")]
        assert main(argv) == 0
        first = capsys.readouterr().out
        with pytest.raises(SystemExit) as info:
            main(["bound"])
        assert info.value.code == 2
        assert main(["evaluate", str(data_dir / "tilted_functional.json"),
                     str(data_dir / "tilted_counts.json")]) == 0
        capsys.readouterr()
        assert main(argv) == 0
        assert capsys.readouterr().out == first
        assert build_parser() is build_parser()

    def test_import_loads_no_scipy(self):
        # scipy is imported where it is used, so the CLI starts without it.
        code = "import sys, bellgap.cli; print(sorted(m for m in sys.modules if m.startswith('scipy')))"
        env = {**os.environ, "PYTHONPATH": str(Path(io.__file__).resolve().parents[1])}
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             env=env, check=True).stdout
        assert out.strip() == "[]"
