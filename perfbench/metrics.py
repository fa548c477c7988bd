"""Metric names and units, and the arithmetic that turns samples and spans
into them.

Timings are medians over a run's repetitions.  Counts marked *computed*
are derived from matrix shapes or file sizes, not measured traffic; they
and the call counts repeat exactly for a given seed.
"""

from __future__ import annotations

import re
from collections import defaultdict

from spans import Span, has_ancestor, self_times

NAME_PATTERN = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")

END_TO_END = {
    "setup_s": "s",
    "session_s": "s",
    "fit_s": "s",
    "explain_s": "s",
    "analyze_s": "s",
    "predict_explain_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "cli.self_s": "s",
    "cli.output_bytes": "bytes",
    "gp.lml_calls": "count",
    "gp.lml_s": "s",
    "gp.fit_exact_s": "s",
    "gp.select_inducing_s": "s",
    "kernels.gram_calls": "count",
    "kernels.gram_s": "s",
    "kernels.gram_entries": "count",
    "kernels.median_heuristic_s": "s",
    "numerics.cholesky_calls": "count",
    "numerics.cholesky_s": "s",
    "numerics.cholesky_flops": "flop",
    "numerics.cholesky_attempts": "count",
    "numerics.cholesky_first_try_ratio": "ratio",
    "coalition.design_s": "s",
    "coalition.n_coalitions": "count",
    "cme.embedding_batch_s": "s",
    "cme.self_s": "s",
    "explain.gpshap_self_s": "s",
    "explain.contraction_flops": "flop",
    "explain.bayes_s": "s",
    "explain.to_json_s": "s",
    "explain.factor_share": "ratio",
    "shapley_prior.fit_s": "s",
    "shapley_prior.fit_factorizations": "count",
    "shapley_prior.predict_ms_p50": "ms",
    "shapley_prior.predict_ms_p90": "ms",
    "shapley_prior.factorizations_per_predict": "count",
    "analysis.folded_mean_calls": "count",
    "analysis.self_s": "s",
}

# Percentiles reported beyond the median, highest first.
TAIL_PERCENTILES = (99.9, 99.0, 90.0)
MIN_BEYOND = 10


def tail_percentile(n: int) -> float | None:
    """Highest tail percentile with at least ten of ``n`` samples beyond it."""
    for p in TAIL_PERCENTILES:
        if n * (100.0 - p) / 100.0 >= MIN_BEYOND - 1e-9:
            return p
    return None


def percentile(values, p: float) -> float:
    """Linear interpolation between closest ranks (numpy's default)."""
    xs = sorted(values)
    if not xs:
        raise ValueError("percentile of no samples")
    pos = (len(xs) - 1) * p / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def layer_metrics(spans: list[Span], output_bytes: int) -> dict[str, float]:
    """Per-layer metrics of one traced repetition of a session."""
    selfs = self_times(spans)
    by_name: dict[str, list[int]] = defaultdict(list)
    for i, span in enumerate(spans):
        by_name[span.name].append(i)

    def calls(name):
        return len(by_name[name])

    def inclusive(*names):
        return sum(spans[i].duration for name in names for i in by_name[name])

    def self_of(layer):
        return sum(t for span, t in zip(spans, selfs)
                   if span.name.startswith(layer + "."))

    def ratio(num, den):
        return num / den if den else 0.0

    chol = by_name["numerics.cholesky_psd"]
    attempts = [spans[i].info["attempts"] for i in chol]
    explain_cmd = set(by_name["cli.explain"])
    predicts = [spans[i].duration * 1e3 for i in by_name["shapley_prior.predict"]]
    tail = tail_percentile(len(predicts))
    gpshap = [spans[i].info for i in by_name["explain.gpshap"]]

    return {
        "cli.self_s": self_of("cli"),
        "cli.output_bytes": output_bytes,
        "gp.lml_calls": calls("gp.log_marginal_likelihood"),
        "gp.lml_s": inclusive("gp.log_marginal_likelihood"),
        "gp.fit_exact_s": inclusive("gp.fit_exact"),
        "gp.select_inducing_s": inclusive("gp.select_inducing"),
        "kernels.gram_calls": calls("kernels.gram"),
        "kernels.gram_s": inclusive("kernels.gram"),
        "kernels.gram_entries": sum(spans[i].info.get("entries", 0)
                                    for i in by_name["kernels.gram"]),
        "kernels.median_heuristic_s": inclusive("kernels.median_heuristic"),
        "numerics.cholesky_calls": len(chol),
        "numerics.cholesky_s": inclusive("numerics.cholesky_psd"),
        "numerics.cholesky_flops": sum(spans[i].info["m"] ** 3 for i in chol) / 3,
        "numerics.cholesky_attempts": sum(attempts),
        "numerics.cholesky_first_try_ratio": ratio(attempts.count(1), len(attempts)),
        "coalition.design_s": inclusive("coalition.enumerate_coalitions",
                                        "coalition.sample_coalitions"),
        "coalition.n_coalitions": sum(
            spans[i].info.get("n_coalitions", 0)
            for name in ("coalition.enumerate_coalitions", "coalition.sample_coalitions")
            for i in by_name[name]),
        "cme.embedding_batch_s": inclusive("cme.embedding_batch"),
        "cme.self_s": self_of("cme"),
        "explain.gpshap_self_s": sum(selfs[i] for i in by_name["explain.gpshap"]),
        # B.L (2 ell n m^2) then A.Q (2 d ell n m): the seed's contraction order
        "explain.contraction_flops": sum(
            2 * g["ell"] * g["n"] * g["m"] * (g["m"] + g["d"]) for g in gpshap),
        "explain.bayes_s": inclusive("explain.bayes_s2", "explain.sample_sigma2",
                                     "explain._bayes_term"),
        "explain.to_json_s": inclusive("explain.ExplanationBatch.to_json"),
        "explain.factor_share": ratio(
            sum(spans[i].duration for i in chol if spans[i].command in explain_cmd),
            inclusive("cli.explain")),
        "shapley_prior.fit_s": inclusive("shapley_prior.fit"),
        "shapley_prior.fit_factorizations": sum(
            1 for i in chol if has_ancestor(spans, i, "shapley_prior.fit")),
        "shapley_prior.predict_ms_p50": percentile(predicts, 50) if predicts else 0.0,
        "shapley_prior.predict_ms_p90": (percentile(predicts, 90)
                                         if tail is not None and tail >= 90 else 0.0),
        "shapley_prior.factorizations_per_predict": ratio(
            sum(1 for i in chol if has_ancestor(spans, i, "shapley_prior.predict")),
            len(predicts)),
        "analysis.folded_mean_calls": calls("analysis.folded_mean"),
        "analysis.self_s": self_of("analysis"),
    }
