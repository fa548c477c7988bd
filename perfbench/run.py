"""Run one ssvkit benchmark workload and print its metrics.

    python3 perfbench/run.py --workload enum-d10 --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30

The commands run in-process through the click entry point, so interpreter
start and imports are paid once and measured apart as ``setup_s``.  With
``--trace 0`` the run reports the end-to-end metrics; with ``--trace 1`` it
wraps every layer function, runs only the workload's primary commands and
reports the per-layer metrics.  The last line of standard output is one
JSON object: ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import os

# Pinned before numpy loads: on a 2-core machine two BLAS threads make the
# fit timing bimodal, and one thread is what every workload is tuned for.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from contextlib import nullcontext, redirect_stderr, redirect_stdout  # noqa: E402
from dataclasses import replace  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
SETUP_REPS = 3
MIN_REPS = 3          # untraced repetitions, so a median exists
MIN_TRACED_REPS = 2   # one untraced and one traced repetition
TIMEOUT_S = 170


def parse_args(argv):
    from workloads import WORKLOADS

    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def environment() -> str:
    import numpy
    import scipy

    def blas(module):
        info = module.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{info.get('name')}-{info.get('version')}"

    lines = sum(len(f.read_text().splitlines()) for f in (SRC / "ssvkit").glob("*.py"))
    return (f"nproc={os.cpu_count()} python={platform.python_version()} "
            f"numpy={numpy.__version__} scipy={scipy.__version__} "
            f"numpy_blas={blas(numpy)} scipy_blas={blas(scipy)} "
            f"blas_threads={os.environ[BLAS_THREAD_VARS[0]]} src_ssvkit_lines={lines}")


def measure_setup(reps: int) -> list[float]:
    """Wall time of a fresh interpreter that imports the CLI."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = []
    for _ in range(reps):
        t0 = perf_counter()
        subprocess.run([sys.executable, "-c", "import ssvkit.cli"], env=env, cwd=ROOT,
                       check=True, timeout=60)
        times.append(perf_counter() - t0)
    return times


def invoke(argv) -> int:
    """One CLI invocation through click; returns its exit code.  The
    command's own output is kept only when it fails, on standard error."""
    from ssvkit import cli

    sink = io.StringIO()
    code = 0
    try:
        with redirect_stdout(sink), redirect_stderr(sink):
            cli.main.main(args=list(argv), prog_name="ssvkit")
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else int(exc.code is not None)
    except Exception:  # a traceback is a failed invocation, not a dead benchmark
        sys.stderr.write(sink.getvalue())
        traceback.print_exc()
        return 1
    if code:
        sys.stderr.write(sink.getvalue())
    return code


def digest(paths) -> str:
    h = hashlib.sha256()
    for path in paths:
        h.update(path.read_bytes() if path.exists() else b"<missing>")
    return h.hexdigest()


def calls_due(repeat: int, rounds: int, r: int) -> int:
    """Calls of a step with ``repeat`` calls in round ``r`` of ``rounds``:
    0 or 1, evenly spaced and centred, so a step called once runs in the
    middle round."""
    def done(k):
        return (2 * k * repeat + rounds) // (2 * rounds)
    return done(r + 1) - done(r)


def run_rep(steps, tracer=None) -> list[dict]:
    """One repetition of the session: one record per CLI invocation.

    The repetition runs in rounds, as many as the most repeated step has
    calls; every other step's calls are spread evenly over them.  So the
    calls of a short command run before, between and after the long ones
    rather than back to back.  After the warm-up every file a command reads
    exists, and each rewrite of it is byte-identical, so the order within a
    repetition does not change what a command reads."""
    calls = []
    rounds = max(step.repeat for step in steps)
    for r in range(rounds):
        for step in (s for s in steps if calls_due(s.repeat, rounds, r)):
            scope = tracer.command(f"cli.{step.command}") if tracer else nullcontext()
            with scope:
                t0 = perf_counter()
                code = invoke(step.argv)
                seconds = perf_counter() - t0
            calls.append({"command": step.command, "seconds": seconds, "code": code,
                          "digest": digest(step.outputs)})
    return calls


def command_seconds(calls) -> dict[str, float]:
    """Each command's mean time over its calls in one repetition."""
    per_command = {}
    for call in calls:
        per_command.setdefault(call["command"], []).append(call["seconds"])
    return {command: statistics.fmean(v) for command, v in per_command.items()}


def session_seconds(calls) -> float:
    """One pass through the session: each command's mean time, summed."""
    return sum(command_seconds(calls).values())


def failed_calls(reps, steps, check) -> set[tuple[int, int]]:
    """(repetition, call) pairs that failed: a nonzero exit, an output that
    differs from the command's first output, or a failed output check."""
    first = {}
    failed = set()
    for r, calls in enumerate(reps):
        for i, call in enumerate(calls):
            ref = first.setdefault(call["command"], call["digest"])
            if call["code"] != 0 or call["digest"] != ref:
                failed.add((r, i))
    for step in steps:
        mine = {(r, i) for r, calls in enumerate(reps) for i, call in enumerate(calls)
                if call["command"] == step.command}
        if mine & failed:
            continue  # outputs missing or unstable; already counted
        if check(step.command):
            failed |= mine
    return failed


def run_workload(args) -> int:
    import checks
    import metrics
    import spans
    from workloads import WORKLOADS, make_inputs

    w = WORKLOADS[args.workload]
    print(f"env: {environment()}")
    setup = [] if args.trace else measure_setup(SETUP_REPS)
    sys.path.insert(0, str(SRC))
    import ssvkit.cli  # noqa: F401  (imported once, outside every timed region)

    work = WORK / f"{w.name}-seed{args.seed}-pid{os.getpid()}"
    work.mkdir(parents=True)
    try:
        steps = make_inputs(w, args.seed, work)
        if args.trace:
            steps = [replace(s, repeat=1) for s in steps if s.command in w.primary]
        t_start = perf_counter()
        # The first call of each command grows the allocator's arenas and
        # fills caches: on a 1,000-instance explain workload the first
        # explain ran 30% and the first analyze 80% slower than later
        # calls.  This pass is checked but not timed.
        warmup = run_rep([replace(s, repeat=1) for s in steps])
        reps, traced = [], []
        while True:
            tracer = spans.Tracer() if args.trace and len(reps) % 2 == 1 else None
            with spans.installed(tracer) if tracer else nullcontext():
                reps.append(run_rep(steps, tracer))
            if tracer:
                out_bytes = sum(p.stat().st_size for s in steps for p in s.outputs
                                if p.exists())
                traced.append(metrics.layer_metrics(tracer.spans, out_bytes))
                last_spans = tracer.spans
            elapsed = perf_counter() - t_start
            enough = len(reps) >= (MIN_TRACED_REPS if args.trace else MIN_REPS)
            if enough and elapsed + sum(c["seconds"] for c in reps[-1]) > args.seconds:
                break
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

        def check(command):
            try:
                problems = checks.CHECKS[command](work, w)
            except Exception as exc:  # a malformed output is a failed check
                problems = [f"check raised {type(exc).__name__}: {exc}"]
            for problem in problems:
                print(f"check failed: {command}: {problem}")
            return problems

        failed = failed_calls([warmup, *reps], steps, check)
        attempted = sum(len(calls) for calls in [warmup, *reps])
        print(f"workload {w.name}: 1 warm-up and {len(reps)} timed repetitions, "
              f"{attempted} invocations, "
              f"{len(failed)} failed, failed_frac={len(failed) / attempted:g}")

        sessions = [session_seconds(calls) for calls in reps]
        if args.trace:
            plain, with_spans = sessions[0::2], sessions[1::2]
            base, slow = statistics.median(plain), statistics.median(with_spans)
            print(f"tracing overhead: session_s {slow:.4f} s traced (n={len(with_spans)}) "
                  f"vs {base:.4f} s untraced (n={len(plain)}), "
                  f"{100 * (slow / base - 1):+.1f}%")
            write_spans(last_spans, WORK / f"{w.name}.spans.jsonl")
            values = {name: statistics.median([t[name] for t in traced])
                      for name in metrics.PER_LAYER}
            units, counts = metrics.PER_LAYER, dict.fromkeys(values, len(traced))
        else:
            samples = {"setup_s": setup, "session_s": sessions}
            for step in steps:
                samples[step.command.replace("-", "_") + "_s"] = [
                    command_seconds(calls)[step.command] for calls in reps]
            values = {name: statistics.median(v) for name, v in samples.items()}
            values["peak_rss_mb"] = peak_rss_mb
            units = metrics.END_TO_END
            counts = {name: len(v) for name, v in samples.items()} | {"peak_rss_mb": 1}
            values = {name: values[name] for name in units}
        for name, value in values.items():
            print(f"  {name} = {value:.6g} {units[name]} (n={counts[name]})")
        result = {
            "correct": not failed,
            "attempted": attempted,
            "failed": len(failed),
            "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()},
        }
        print(json.dumps(result))
        return 0
    finally:
        shutil.rmtree(work, ignore_errors=True)


def write_spans(recorded, path: Path) -> None:
    """Write one traced repetition's spans as JSON lines, times from its start."""
    t0 = recorded[0].start if recorded else 0.0
    tmp = path.with_suffix(".tmp")
    with open(tmp, "w") as fh:
        for i, s in enumerate(recorded):
            fh.write(json.dumps({"id": i, "name": s.name, "start": s.start - t0,
                                 "end": s.end - t0, "parent": s.parent,
                                 "command": s.command, **s.info}) + "\n")
    tmp.replace(path)


def run_all(args) -> int:
    """Each workload in its own process, so peak RSS stays per workload."""
    from workloads import WORKLOADS

    results = {}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=TIMEOUT_S + 30)
        lines = proc.stdout.strip().splitlines()
        print(f"== {name} (exit {proc.returncode})")
        print("\n".join(lines[:-1]))
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            return proc.returncode
        results[name] = json.loads(lines[-1])
    print(json.dumps(results))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "ssvkit" / "cli.py").is_file():
        print(f"error: no ssvkit sources at {SRC / 'ssvkit'}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    return run_all(args) if args.workload == "all" else run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
