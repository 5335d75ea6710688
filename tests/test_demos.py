"""Each demo runs to the end in process and prints its report."""

import runpy
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


def test_every_demo_is_collected():
    assert [p.name for p in DEMOS] == [
        "certify_counts.py",
        "cli_pipeline.py",
        "detection_thresholds.py",
        "project_signaling.py",
        "tilted_family.py",
    ]


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(path, capsys):
    runpy.run_path(str(path), run_name="__main__")
    assert capsys.readouterr().out.strip()
