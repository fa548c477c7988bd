"""Every demo script runs to completion without writing to stderr, and the
README's library quick start runs without a warning."""

import pathlib
import warnings

import pytest

from conftest import run_python

ROOT = pathlib.Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_there_are_demos():
    assert DEMOS


@pytest.mark.parametrize("script", DEMOS, ids=lambda p: p.name)
def test_demo_runs_cleanly(script, tmp_path):
    res = run_python([str(script)], tmp_path)
    assert res.returncode == 0, res.stderr
    assert res.stderr == ""


def test_readme_quick_start_runs_without_warnings():
    section = (ROOT / "README.md").read_text().split("## Library quick start\n", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        exec(compile(code, "README.md", "exec"), {})
