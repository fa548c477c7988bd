"""Output checks, run after the timed repetitions and outside every span.

Each check returns a list of problems, keyed by the command whose output
is wrong; an empty list means the output passed.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path

import numpy as np

TOL = 1e-8
ORACLE_INSTANCES = 3


def _close(a, b, tol=TOL) -> bool:
    a, b = np.asarray(a, float), np.asarray(b, float)
    return a.shape == b.shape and bool(
        np.all(np.abs(a - b) <= tol * max(1.0, float(np.max(np.abs(b), initial=0.0)))))


def _psd_problems(covs, label: str) -> list[str]:
    worst = min(float(np.linalg.eigvalsh(np.asarray(c, float)).min()) for c in covs)
    return [] if worst >= -TOL else [f"{label}: a covariance has eigenvalue {worst:.3e}"]


def _read_csv(path: Path) -> np.ndarray:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return np.array([[float(v) for v in row] for row in rows[1:]])


def check_fit(work: Path, w) -> list[str]:
    from ssvkit import gp

    post = gp.GPPosterior.from_json((work / "posterior.json").read_text())
    problems = []
    if post.inducing_points.shape != (w.inducing, w.d):
        problems.append(f"posterior has inducing shape {post.inducing_points.shape}")
    if not np.all(np.isfinite(post.cov_at_inducing)):
        problems.append("posterior covariance is not finite")
    return problems


def check_explain(work: Path, w) -> list[str]:
    """Efficiency for every instance, PSD covariances and, under full
    enumeration, agreement with the brute-force oracle."""
    from ssvkit import cme, coalition, gp, kernels

    post = gp.GPPosterior.from_json((work / "posterior.json").read_text())
    doc = json.loads((work / "explanations.json").read_text())
    X = _read_csv(work / "explain.csv")
    means = np.asarray(doc["means"], float)
    covs = np.asarray(doc["cov"], float)
    if means.shape != X.shape or covs.shape != (X.shape[0], w.d, w.d):
        return [f"explanations have shapes {means.shape}, {covs.shape}"]
    problems = _psd_problems(covs, "explain")

    lam = cme.default_lambda(post.n_inducing)
    nu = {
        which: cme.embedding_weights(post, subset, X, lam).weights.T @ post.mean_at_inducing
        for which, subset in (("empty", kernels.FeatureSubset.empty(w.d)),
                              ("full", kernels.FeatureSubset.full(w.d)))
    }
    if not _close(means.sum(axis=1), nu["full"] - nu["empty"]):
        problems.append("sum of attributions differs from nu(full) - nu(empty)")

    if w.coalitions == "full":
        design = coalition.enumerate_coalitions(w.d)
        bayes = np.linalg.inv(design.ZtWZ_interior)
        bayes = 0.5 * (bayes + bayes.T)
        sigma2 = np.asarray(doc["sigma2"], float)
        picks = np.unique(np.linspace(0, X.shape[0] - 1, ORACLE_INSTANCES).astype(int))
        batch = cme.embedding_batch(post, design, X[picks], lam)
        for k, game in zip(picks, cme.game_moments(post, batch)):
            mean, cov = coalition.exact_ssv(game)
            if not _close(means[k], mean):
                problems.append(f"instance {k}: means differ from the oracle")
            if not _close(covs[k] - sigma2[k] * bayes, cov):
                problems.append(f"instance {k}: GP-term covariance differs from the oracle")
    return problems


def check_analyze(work: Path, w) -> list[str]:
    means = np.asarray(json.loads((work / "explanations.json").read_text())["means"])
    table = np.loadtxt(work / "analysis_global.csv", delimiter=",", skiprows=1,
                       usecols=(1, 2), ndmin=2)
    if table.shape != (w.d, 2):
        return [f"global importance has shape {table.shape}"]
    problems = []
    if not _close(table[:, 1], np.abs(means).mean(axis=0)):
        problems.append("abs_mean_ssv differs from the explanation means")
    if np.any(table[:, 0] < table[:, 1] - TOL):
        problems.append("folded mean below |mean|")
    return problems


def check_predict(work: Path, w) -> list[str]:
    doc = json.loads((work / "predicted.json").read_text())
    means = np.asarray(doc["means"], float)
    covs = np.asarray(doc["cov"], float)
    if means.shape != (w.n_new, w.d) or covs.shape != (w.n_new, w.d, w.d):
        return [f"predictions have shapes {means.shape}, {covs.shape}"]
    if not (np.all(np.isfinite(means)) and np.all(np.isfinite(covs))):
        return ["predictions are not finite"]
    return _psd_problems(covs, "predict-explain")


CHECKS = {
    "fit": check_fit,
    "explain": check_explain,
    "analyze": check_analyze,
    "predict-explain": check_predict,
}
