"""Every demo script runs to completion without writing to stderr."""

import pathlib

import pytest

from conftest import run_python

DEMOS = sorted((pathlib.Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


def test_there_are_demos():
    assert DEMOS


@pytest.mark.parametrize("script", DEMOS, ids=lambda p: p.name)
def test_demo_runs_cleanly(script, tmp_path):
    res = run_python([str(script)], tmp_path)
    assert res.returncode == 0, res.stderr
    assert res.stderr == ""
