"""Compare what two ssvkit source trees write, case by case and byte for byte.

    python tools/compare_outputs.py --parent ../old/src --change src
    python tools/compare_outputs.py --parent A/src --change B/src --workload prior-d6 --seeds 1

For each workload of ``perfbench/workloads.py`` and each seed, the inputs come
from its ``make_inputs``.  Each tree then runs, in its own copy of those inputs,
the workload's session (fit, explain, analyze, predict-explain) and these
further cases: ``fit -o -``, ``fit`` on a reordered grid with repeated values
(which checks the search's tie-break), ``explain --algo gpshap|bayesgpshap|bayesshap``
with and without ``--credible 0.9``, ``explain --format csv`` and
``predict-explain --credible 0.9``.  Every command runs in a new interpreter
with one BLAS thread.  A case differs when its exit code, standard output,
standard error or a file it writes differs.  The tool prints one line per
differing case and exits 1 if there is one, else 0 (2 for bad arguments).
"""

from __future__ import annotations

import argparse
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

from workloads import WORKLOADS, make_inputs  # noqa: E402

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def cases(w, seed: int, work: Path) -> list[tuple[str, tuple[str, ...], tuple[str, ...]]]:
    """(name, argv, output files) of every case, with paths relative to ``work``,
    after writing the workload's inputs there.  A variant repeats options of a
    session command after its own: click keeps an option's last value."""
    steps = {s.command: s for s in make_inputs(w, seed, work)}

    def rel(args):
        return tuple(os.path.relpath(a, work) if a.startswith(f"{work}{os.sep}") else a
                     for a in args)

    out = [(f"session {s.command}", rel(s.argv), rel(map(str, s.outputs)))
           for s in steps.values()]
    fit, explain, predict = (rel(steps[c].argv) for c in ("fit", "explain", "predict-explain"))
    out.append(("fit -o -", fit + ("-o", "-"), ()))
    out.append(("fit reordered grid", fit + ("--ls-multipliers", "4,1,0.25,1", "--noise-fractions",
                                             "1,1e-3,0.1,1e-3", "-o", "posterior_reordered.json"),
                ("posterior_reordered.json",)))
    for algo in ("gpshap", "bayesgpshap", "bayesshap"):
        for credible in ((), ("--credible", "0.9")):
            name = " ".join(("explain --algo", algo, *credible))
            file = f"explain_{algo}{'_credible' if credible else ''}.json"
            out.append((name, explain + ("--algo", algo, *credible, "-o", file), (file,)))
    out.append(("explain --format csv", explain + ("--format", "csv", "-o", "explain.out.csv"),
                ("explain.out.csv",)))
    out.append(("predict-explain --credible 0.9",
                predict + ("--credible", "0.9", "-o", "predicted_credible.json"),
                ("predicted_credible.json",)))
    return out


def run_cases(src: Path, inputs: Path, work: Path, todo) -> list[tuple]:
    """Each case's (exit code, stdout, stderr, output bytes) under the tree ``src``,
    run one after another in a fresh copy of ``inputs`` at ``work``."""
    shutil.copytree(inputs, work)
    env = dict(os.environ, PYTHONPATH=str(src), **dict.fromkeys(BLAS_THREAD_VARS, "1"))
    results = []
    for _, argv, outputs in todo:
        proc = subprocess.run([sys.executable, "-m", "ssvkit.cli", *argv], cwd=work, env=env,
                              capture_output=True, timeout=600)
        files = tuple((work / f).read_bytes() if (work / f).exists() else None
                      for f in outputs)
        results.append((proc.returncode, proc.stdout, proc.stderr, files))
    return results


def differences(old: tuple, new: tuple, outputs) -> list[str]:
    """What differs between two results of one case."""
    parts = [f"exit code {old[0]} -> {new[0]}"] if old[0] != new[0] else []
    parts += [what for what, a, b in (("stdout", old[1], new[1]), ("stderr", old[2], new[2]))
              if a != b]
    return parts + [name for name, a, b in zip(outputs, old[3], new[3]) if a != b]


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--parent", type=Path, required=True, help="the reference 'src' folder")
    p.add_argument("--change", type=Path, required=True, help="the 'src' folder to check")
    p.add_argument("--workload", choices=[*WORKLOADS, "all"], default="all")
    p.add_argument("--seeds", default="1,5,13", help="comma-separated workload seeds")
    args = p.parse_args(argv)
    for src in (args.parent, args.change):
        if not (src / "ssvkit" / "cli.py").is_file():
            p.error(f"no ssvkit sources under {src}")
    try:
        seeds = [int(s) for s in args.seeds.split(",")]
    except ValueError:
        p.error(f"--seeds must list integers, got {args.seeds!r}")
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]

    total = differ = 0
    for name in names:
        for seed in seeds:
            with tempfile.TemporaryDirectory(prefix="compare_outputs.") as tmp:
                inputs = Path(tmp) / "inputs"
                inputs.mkdir()
                todo = cases(WORKLOADS[name], seed, inputs)
                old, new = (run_cases(src.resolve(), inputs, Path(tmp) / side, todo)
                            for side, src in (("parent", args.parent), ("change", args.change)))
            for (case, _, outputs), a, b in zip(todo, old, new):
                parts = differences(a, b, outputs)
                if parts:
                    print(f"{name} seed {seed}: {case}: {', '.join(parts)} differ")
                differ += bool(parts)
            total += len(todo)
    print(f"{differ} of {total} cases differ")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
