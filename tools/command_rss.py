"""Peak memory of each benchmark session command, each in a fresh interpreter.

    python tools/command_rss.py --tree src
    python tools/command_rss.py --tree ../old/src --tree src --workload enum-d10 --seeds 4,5

For each workload of ``perfbench/workloads.py`` and each seed, the inputs come
from its ``make_inputs``.  Each tree then runs, in its own copy of those inputs,
the workload's session commands in order (fit, explain, analyze,
predict-explain), every one in a new interpreter with one BLAS thread, and the
peak resident set size of that interpreter is read from ``os.wait4``.  The tool
prints one line per command: each tree's peak in MB and, for two trees, the
change from the first to the second.  So a benchmark record can show which
command sets ``peak_rss_mb``.  It exits 1 if a command fails, else 0 (2 for
bad arguments).
"""

from __future__ import annotations

import argparse
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

from compare_outputs import BLAS_THREAD_VARS, WORKLOADS, cases


def peak_mb(src: Path, inputs: Path, work: Path, todo) -> list[tuple[int, float]]:
    """(exit code, peak RSS in MB) of each command under the tree ``src``, run
    one after another in a fresh copy of ``inputs`` at ``work``."""
    shutil.copytree(inputs, work)
    env = dict(os.environ, PYTHONPATH=str(src), **dict.fromkeys(BLAS_THREAD_VARS, "1"))
    results = []
    for _, argv, _ in todo:
        proc = subprocess.Popen([sys.executable, "-m", "ssvkit.cli", *argv], cwd=work,
                                env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        results.append((proc.returncode, usage.ru_maxrss / 1024))     # KiB on Linux
    return results


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--tree", type=Path, action="append", required=True,
                   help="an ssvkit 'src' folder; give one or two")
    p.add_argument("--workload", choices=[*WORKLOADS, "all"], default="all")
    p.add_argument("--seeds", default="1", help="comma-separated workload seeds")
    args = p.parse_args(argv)
    if len(args.tree) > 2:
        p.error("give one or two --tree folders")
    for src in args.tree:
        if not (src / "ssvkit" / "cli.py").is_file():
            p.error(f"no ssvkit sources under {src}")
    try:
        seeds = [int(s) for s in args.seeds.split(",")]
    except ValueError:
        p.error(f"--seeds must list integers, got {args.seeds!r}")
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]

    failed = False
    for name in names:
        for seed in seeds:
            with tempfile.TemporaryDirectory(prefix="command_rss.") as tmp:
                inputs = Path(tmp) / "inputs"
                inputs.mkdir()
                todo = [case for case in cases(WORKLOADS[name], seed, inputs)
                        if case[0].startswith("session ")]
                runs = [peak_mb(src.resolve(), inputs, Path(tmp) / f"tree{k}", todo)
                        for k, src in enumerate(args.tree)]
            for (case, _, _), *results in zip(todo, *runs):
                cells = [f"{mb:.2f} MB" + (f" (exit {code})" if code else "")
                         for code, mb in results]
                if len(results) == 2:
                    cells.append(f"{results[1][1] - results[0][1]:+.2f} MB")
                failed |= any(code for code, _ in results)
                print(f"{name} seed {seed}: {case.removeprefix('session ')}: "
                      + " | ".join(cells))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
