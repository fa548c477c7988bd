"""Tests of the benchmark's own code.

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import metrics  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from spans import Span, Tracer, self_times  # noqa: E402


def test_self_time_subtracts_the_union_of_children():
    tree = [
        Span("root", 0.0, 10.0),
        Span("a", 1.0, 4.0, parent=0),
        Span("aa", 2.0, 3.0, parent=1),
        Span("b", 5.0, 9.0, parent=0),
        Span("ba", 6.0, 8.0, parent=3),
        Span("bb", 7.0, 8.5, parent=3),   # overlaps ba: covered once
    ]
    assert self_times(tree) == pytest.approx([3.0, 2.0, 1.0, 1.5, 2.0, 1.5])


def test_self_time_clips_children_to_the_parent():
    tree = [Span("root", 0.0, 2.0), Span("late", 1.5, 3.0, parent=0)]
    assert self_times(tree) == pytest.approx([1.5, 1.5])


@pytest.mark.parametrize("n, expected", [
    (9, None), (99, None), (100, 90.0), (999, 90.0), (1000, 99.0), (10_000, 99.9),
])
def test_tail_percentile_keeps_ten_samples_beyond(n, expected):
    assert metrics.tail_percentile(n) == expected


def test_percentile_matches_numpy_interpolation():
    values = np.random.default_rng(0).exponential(size=101)
    for p in (0, 50, 90, 99, 100):
        assert metrics.percentile(values, p) == pytest.approx(np.percentile(values, p))
    assert metrics.percentile([3.0], 90) == 3.0


def test_command_samples_are_per_repetition_means():
    calls = [{"command": "fit", "seconds": 1.0}, {"command": "fit", "seconds": 3.0},
             {"command": "explain", "seconds": 5.0}]
    assert run.command_seconds(calls) == {"fit": 2.0, "explain": 5.0}
    assert run.session_seconds(calls) == 7.0


@pytest.mark.parametrize("repeat, rounds, expected", [
    (1, 1, [0]), (1, 15, [7]), (3, 15, [2, 7, 12]), (4, 6, [0, 2, 3, 5]), (6, 6, list(range(6))),
])
def test_calls_of_a_step_are_spread_evenly_over_the_rounds(repeat, rounds, expected):
    due = [run.calls_due(repeat, rounds, r) for r in range(rounds)]
    assert set(due) <= {0, 1}
    assert [r for r, n in enumerate(due) if n] == expected


def test_failed_calls_counts_exits_unstable_outputs_and_checks():
    def call(command, code, digest):
        return {"command": command, "code": code, "digest": digest}

    steps = [SimpleNamespace(command="fit"), SimpleNamespace(command="explain")]
    reps = [[call("fit", 0, "a"), call("explain", 0, "x")],
            [call("fit", 0, "b"), call("explain", 0, "x")],
            [call("fit", 0, "a"), call("explain", 2, "x")]]
    assert run.failed_calls(reps, steps, lambda command: []) == {(1, 0), (2, 1)}
    flagged = run.failed_calls(reps[:1], steps,
                               lambda command: ["bad"] if command == "explain" else [])
    assert flagged == {(0, 1)}


def test_metric_names_and_units_match_the_benchmark_file():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert e2e == metrics.END_TO_END
    assert layer == metrics.PER_LAYER
    names = [*e2e, *layer, *(w["name"] for w in spec["workloads"])]
    assert len(names) == len(set(names))
    for name in names:
        assert metrics.NAME_PATTERN.fullmatch(name), name
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)


@pytest.mark.parametrize("name", ["a b", "", "_lead", "x" * 65, "lat/ms", "é"])
def test_name_pattern_rejects(name):
    assert not metrics.NAME_PATTERN.fullmatch(name)


def test_cholesky_attempts_follow_the_jitter_ladder():
    m = np.eye(2)
    info = spans.ANNOTATE["numerics.cholesky_psd"]
    assert info((m,), {}, SimpleNamespace(jitter_used=0.0))["attempts"] == 1
    assert info((m,), {}, SimpleNamespace(jitter_used=1e-12))["attempts"] == 2
    assert info((m,), {}, SimpleNamespace(jitter_used=1e-12 * 10.0 * 10.0))["attempts"] == 4
    # failure at cap 1e-8: no jitter, then 1e-12 .. 1e-8
    assert info((m,), {"max_jitter": 1e-8}, None)["attempts"] == 6


def test_wrappers_see_calls_inside_a_module_and_are_removed():
    from ssvkit import numerics

    original = numerics.cholesky_psd
    tracer = Tracer()
    with spans.installed(tracer):
        numerics.solve_regularized(np.eye(3), 0.5, np.ones(3))
    assert numerics.cholesky_psd is original
    names = [s.name for s in tracer.spans]
    assert names == ["numerics.solve_regularized", "numerics.cholesky_psd"]
    assert tracer.spans[1].parent == 0
    assert tracer.spans[1].info == {"m": 3, "attempts": 1}


def _traced_layers(workload: str, commands, work: Path) -> dict:
    w = workloads.WORKLOADS[workload]
    steps = [replace(s, repeat=1) for s in workloads.make_inputs(w, 0, work)
             if s.command in commands]
    tracer = Tracer()
    with spans.installed(tracer):
        calls = run.run_rep(steps, tracer)
    assert [c["code"] for c in calls] == [0] * len(steps)
    return metrics.layer_metrics(tracer.spans, 0)


def test_seed_call_counts_on_prior_d6(tmp_path):
    got = _traced_layers("prior-d6", ["predict-explain"], tmp_path)
    assert got["numerics.cholesky_calls"] == 25_602
    assert got["kernels.gram_calls"] == 51_201
    assert got["shapley_prior.fit_factorizations"] == 6_401
    assert got["shapley_prior.factorizations_per_predict"] == 192
    assert got["coalition.n_coalitions"] == 64
    assert got["gp.lml_calls"] == 0 and got["cme.embedding_batch_s"] == 0


def test_seed_lml_calls_on_enum_d10_fit(tmp_path):
    got = _traced_layers("enum-d10", ["fit"], tmp_path)
    assert got["gp.lml_calls"] == 21


def test_benchmark_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "prior-d6", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
