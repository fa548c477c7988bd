"""tools/command_rss.py: one line per session command, each tree's peak and the change."""

import re
from pathlib import Path

from conftest import SRC, run_python

TOOL = str(Path(SRC).parent / "tools" / "command_rss.py")


def test_a_tree_against_itself(tmp_path):
    res = run_python([TOOL, "--tree", SRC, "--tree", SRC, "--workload", "prior-d6",
                      "--seeds", "1"], tmp_path)
    assert res.returncode == 0, res.stderr
    lines = res.stdout.splitlines()
    commands = ["fit", "explain", "analyze", "predict-explain"]
    assert len(lines) == len(commands)
    for line, command in zip(lines, commands):
        match = re.fullmatch(rf"prior-d6 seed 1: {command}: ([\d.]+) MB \| ([\d.]+) MB "
                             r"\| ([+-][\d.]+) MB", line)
        assert match, line
        old, new, change = map(float, match.groups())
        # an interpreter with numpy and scipy loaded holds tens of MB
        assert old > 20 and new > 20 and abs(new - old - change) < 0.011


def test_more_than_two_trees_is_a_usage_error(tmp_path):
    res = run_python([TOOL, *["--tree", SRC] * 3], tmp_path)
    assert res.returncode == 2 and "give one or two --tree folders" in res.stderr
