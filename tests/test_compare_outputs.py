"""tools/compare_outputs.py: no difference between a tree and itself, and a
changed Bayes prior shows in exactly the cases that use it."""

import shutil
from pathlib import Path

from conftest import SRC, run_python

TOOL = str(Path(SRC).parent / "tools" / "compare_outputs.py")


def compare(parent, change, cwd):
    return run_python([TOOL, "--parent", str(parent), "--change", str(change),
                       "--workload", "prior-d6", "--seeds", "1"], cwd)


def test_a_tree_matches_itself(tmp_path):
    res = compare(SRC, SRC, tmp_path)
    assert (res.returncode, res.stdout) == (0, "0 of 14 cases differ\n"), res.stderr


def test_a_changed_ell0_is_reported(tmp_path):
    changed = tmp_path / "src"
    shutil.copytree(SRC, changed, ignore=shutil.ignore_patterns("__pycache__"))
    explain = changed / "ssvkit" / "explain.py"
    text = explain.read_text()
    check = '        for name, value in (("ell0", self.ell0)'     # BayesConfig.__post_init__
    assert text.count(check) == 1
    explain.write_text(text.replace(
        check, '        object.__setattr__(self, "ell0", 2 * self.ell0)\n' + check))
    res = compare(SRC, changed, tmp_path)
    assert res.returncode == 1, res.stderr
    lines = res.stdout.splitlines()
    differing = {line.split(": ")[1] for line in lines[:-1]}
    assert {"explain --algo bayesgpshap", "explain --algo bayesgpshap --credible 0.9",
            "session explain"} <= differing
    assert not {"session fit", "fit -o -", "fit reordered grid", "explain --algo gpshap",
                "session predict-explain"} & differing
    assert lines[-1] == f"{len(lines) - 1} of 14 cases differ"
