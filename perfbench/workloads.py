"""Seeded synthetic workloads and the CLI sessions that run them.

Every workload draws ``X ~ N(0, I)`` and ``y = sin x1 + x2^2 / 2 + x3 * x4
+ 0.1 * eps``; features x5 and up are null players.  A session is the four
``ssvkit`` commands a user runs: ``fit`` -> ``explain`` -> ``analyze`` on the
same data, and ``predict-explain`` from previously computed explanations.

Each workload is *about* some of those commands (``primary``) and sizes them
as the workload's purpose needs.  The other commands still run, at a small
guard size, because every end-to-end metric is reported on every workload;
the traced run skips them, so the per-layer numbers describe only the
primary commands.  A command shorter than about a second runs ``repeat``
times in each repetition, its calls spread over the repetition, and the
mean of those calls is the repetition's sample.  On a shared
machine whose speed swings on a sub-second scale, the median of single
short calls flips between the fast and the slow speed; a mean over calls
spread across seconds averages over the swings, as a long command does.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

@dataclass(frozen=True)
class Workload:
    name: str
    d: int
    n_train: int           # fit: training rows
    inducing: int          # fit: farthest-point inducing rows
    n_explain: int         # explain: instances
    coalitions: str        # explain: 'full' or a sampled count
    n_observed: int        # predict-explain: observed explanations
    n_new: int             # predict-explain: new inputs
    anchors: int           # predict-explain: farthest-point anchors
    prior_coalitions: str  # predict-explain: 'full' or a sampled count
    primary: tuple[str, ...]
    repeat: dict[str, int]


WORKLOADS = {
    w.name: w
    for w in (
        # Exact enumeration: 1,024 factorizations of 200x200, the ell x n x m
        # contraction and the n=1,000 hyperparameter grid.
        Workload(
            name="enum-d10", d=10, n_train=1000, inducing=200, n_explain=100,
            coalitions="full", n_observed=20, n_new=20, anchors=20,
            prior_coalitions="32", primary=("fit", "explain", "analyze"),
            repeat={"analyze": 12, "predict-explain": 3},
        ),
        # Only the Shapley prior works: 2^d anchor grams refactored per input;
        # predict-explain has no GP fit and no cme.embedding_batch.
        Workload(
            name="prior-d6", d=6, n_train=300, inducing=50, n_explain=200,
            coalitions="full", n_observed=100, n_new=100, anchors=50,
            prior_coalitions="full", primary=("predict-explain",),
            repeat={"fit": 6, "explain": 4, "analyze": 5},
        ),
    )
}


def target(X: np.ndarray, eps: np.ndarray) -> np.ndarray:
    return np.sin(X[:, 0]) + 0.5 * X[:, 1] ** 2 + X[:, 2] * X[:, 3] + 0.1 * eps


def true_shapley(X: np.ndarray) -> np.ndarray:
    """Exact interventional Shapley values of the noise-free target.

    Under independent N(0, 1) features: phi1 = sin x1, phi2 = (x2^2 - 1)/2,
    phi3 = phi4 = x3 x4 / 2 and every other feature is a null player.
    """
    phi = np.zeros_like(X)
    phi[:, 0] = np.sin(X[:, 0])
    phi[:, 1] = 0.5 * (X[:, 1] ** 2 - 1.0)
    phi[:, 2] = phi[:, 3] = 0.5 * X[:, 2] * X[:, 3]
    return phi


def _write_csv(path: Path, header: list[str], rows: np.ndarray) -> None:
    with open(path, "w", newline="") as fh:
        out = csv.writer(fh, lineterminator="\n")
        out.writerow(header)
        for row in rows:
            out.writerow([repr(float(v)) for v in row])


@dataclass(frozen=True)
class Step:
    command: str
    argv: tuple[str, ...]
    outputs: tuple[Path, ...]
    repeat: int = 1


def make_inputs(w: Workload, seed: int, work: Path) -> list[Step]:
    """Write the workload's seeded input files and return its session."""
    rng = np.random.default_rng([seed, w.d])
    names = [f"x_{i + 1}" for i in range(w.d)]
    X_train = rng.normal(size=(w.n_train, w.d))
    y = target(X_train, rng.normal(size=w.n_train))
    X_explain = rng.normal(size=(w.n_explain, w.d))
    X_obs = rng.normal(size=(w.n_observed, w.d))
    X_new = rng.normal(size=(w.n_new, w.d))

    _write_csv(work / "train.csv", names + ["y"], np.column_stack([X_train, y]))
    _write_csv(work / "explain.csv", names, X_explain)
    _write_csv(work / "observed.csv", names + [f"phi_{i + 1}" for i in range(w.d)],
               np.column_stack([X_obs, true_shapley(X_obs)]))
    _write_csv(work / "new.csv", names, X_new)

    s = str(seed)
    analysis = work / "analysis"
    steps = [
        Step("fit", ("fit", "--data", str(work / "train.csv"), "--target", "y",
                     "--inducing", str(w.inducing), "--seed", s,
                     "-o", str(work / "posterior.json")),
             (work / "posterior.json",)),
        Step("explain", ("explain", "--posterior", str(work / "posterior.json"),
                         "--instances", str(work / "explain.csv"),
                         "--algo", "bayesgpshap", "--coalitions", w.coalitions,
                         "--seed", s, "-o", str(work / "explanations.json")),
             (work / "explanations.json",)),
        Step("analyze", ("analyze", "--explanations", str(work / "explanations.json"),
                         "--prefix", str(analysis)),
             tuple(Path(f"{analysis}_{suffix}") for suffix in
                   ("global.csv", "correlation.json", "graph.csv", "beeswarm.csv"))),
        Step("predict-explain", ("predict-explain",
                                 "--explanations", str(work / "observed.csv"),
                                 "--instances", str(work / "new.csv"),
                                 "--anchors", str(w.anchors),
                                 "--coalitions", w.prior_coalitions, "--seed", s,
                                 "-o", str(work / "predicted.json")),
             (work / "predicted.json",)),
    ]
    return [replace(step, repeat=w.repeat.get(step.command, 1)) for step in steps]
