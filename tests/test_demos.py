"""Each script under demos/ runs to its end."""

import runpy
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.name)
def test_demo_runs(demo, tmp_path, monkeypatch):
    # two demos write CSV files to the working directory
    monkeypatch.chdir(tmp_path)
    runpy.run_path(str(demo), run_name="__main__")
