"""Command-line front end: fit, explain, predict-explain, analyze, selftest.

Every subcommand is deterministic under its seed; JSON outputs are
pretty-printed with stable key order so reruns are byte-identical.
Exit codes: 2 for parse/validation problems, 3 for numerics failures,
1 for selftest oracle failures.
"""

from __future__ import annotations

import csv
import json
import math
import sys

import click
import numpy as np
from scipy.special import ndtri

from . import analysis, cme, coalition, explain, gp, kernels, shapley_prior
from .errors import CountOutOfRange, SsvkitError


def _fail(code: int, message: str):
    click.echo(f"error: {message}", err=True)
    sys.exit(code)


def _read_csv_matrix(path: str, target: str | None = None):
    """Read a numeric CSV with a header row.

    Returns (header, matrix, target_vector); target_vector is None when no
    target column was requested.  A row whose cell count differs from the
    header's and a non-numeric or non-finite cell are reported with their
    row and column location.
    """
    try:
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            rows = list(reader)
    except OSError as exc:
        _fail(2, f"cannot read {path}: {exc}")
    if not rows:
        _fail(2, f"{path} is empty")
    if len(rows) < 2:
        _fail(2, f"{path} has a header but no data rows")
    header = rows[0]
    t_idx = None
    if target is not None:
        if target not in header:
            _fail(2, f"target column {target!r} not found in {path}")
        t_idx = header.index(target)
    data, y = [], []
    for r, row in enumerate(rows[1:], start=2):
        if len(row) != len(header):
            where = (f"column {header[len(row)]!r} is missing" if len(row) < len(header)
                     else f"column {len(header) + 1} has no header")
            _fail(2, f"row {r} has {len(row)} cells, the header has {len(header)} "
                     f"({where}) in {path}")
        vals = []
        for c, cell in enumerate(row):
            try:
                v = float(cell)
            except ValueError:
                _fail(2, f"non-numeric value {cell!r} at row {r}, column {header[c]!r} in {path}")
            if not math.isfinite(v):
                _fail(2, f"non-finite value {cell!r} at row {r}, column {header[c]!r} in {path}")
            if c == t_idx:
                y.append(v)
            else:
                vals.append(v)
        data.append(vals)
    feat_names = [h for i, h in enumerate(header) if i != t_idx]
    X = np.asarray(data, dtype=float)
    return feat_names, X, (np.asarray(y) if target is not None else None)


def _write(path: str | None, text: str):
    if path is None or path == "-":
        click.echo(text, nl=False)
    else:
        with open(path, "w") as fh:
            fh.write(text)


def _floats(spec: str) -> list[float]:
    return [float(tok) for tok in spec.split(",") if tok.strip()]


def _credible_level(ctx, param, value):
    """Click callback: a credible level must lie strictly inside (0, 1)."""
    if value is not None and not 0.0 < value < 1.0:
        _fail(2, f"--credible must lie in (0, 1), got {value!r}")
    return value


def _design(d: int, coalitions: str, seed: int) -> coalition.CoalitionDesign:
    """The design a --coalitions value names: 'full' or a sampled count."""
    if coalitions == "full":
        if d > coalition.ENUMERATION_CAP:
            _fail(2, f"full enumeration is capped at d <= {coalition.ENUMERATION_CAP}; "
                     "use --coalitions N")
        return coalition.enumerate_coalitions(d)
    try:
        return coalition.sample_coalitions(d, int(coalitions), seed)
    except ValueError:
        _fail(2, f"--coalitions must be 'full' or an integer, got {coalitions!r}")
    except CountOutOfRange as exc:
        _fail(2, f"--coalitions {coalitions}: {exc}")


@click.group()
@click.option("--threads", type=int, default=None, envvar="SSVKIT_THREADS",
              help="Internal parallelism hint; outputs do not depend on it.")
def main(threads):
    """Stochastic Shapley-value explanations for GP regression models."""
    if threads is not None and threads < 1:
        _fail(2, "--threads must be a positive integer")


@main.command("fit")
@click.option("--data", "data_path", required=True, type=click.Path())
@click.option("--target", required=True, help="Name of the target column.")
@click.option("--inducing", type=int, default=None,
              help="Number of inducing rows (default: all).")
@click.option("--strategy", type=click.Choice(["all", "uniform", "farthest_point"]),
              default="farthest_point", show_default=True)
@click.option("--ls-multipliers", default="0.25,0.5,1,2,4", show_default=True,
              help="Median-heuristic lengthscale multiples to grid over.")
@click.option("--noise-fractions", default="1e-3,1e-2,1e-1,1", show_default=True,
              help="Noise grid as fractions of var(y).")
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--output", "-o", default="posterior.json", show_default=True)
def cmd_fit(data_path, target, inducing, strategy, ls_multipliers, noise_fractions,
            seed, output):
    """Fit an exact GP to a CSV dataset and store its inducing-set posterior."""
    names, X, y = _read_csv_matrix(data_path, target)
    try:
        data = gp.Dataset(X=X, y=y, feature_names=names)
        base = kernels.median_heuristic(data.X)
        var_y = float(np.var(data.y)) or 1.0
        grid = [
            (kernels.KernelParams(variance=1.0, lengthscales=m * base), f * var_y)
            for m in _floats(ls_multipliers)
            for f in _floats(noise_fractions)
        ]
        params, noise = gp.select_hyperparameters(data, grid)
        count = data.n if inducing is None else inducing
        strategy = "all" if count >= data.n else strategy
        idx = gp.select_inducing(data, min(count, data.n), strategy, seed)
        posterior = gp.fit_exact(data, params, noise, idx)
        ll = gp.log_marginal_likelihood(data, params, noise)
    except ValueError as exc:
        _fail(2, str(exc))
    except SsvkitError as exc:
        _fail(3, str(exc))
    _write(output, posterior.to_json() + "\n")
    click.echo(
        f"n={data.n} d={data.d} n_inducing={posterior.n_inducing} "
        f"lengthscales={np.round(params.lengthscales, 6).tolist()} "
        f"noise={noise:.6g} log_marginal_likelihood={ll:.6f}"
    )


def _load_posterior(path: str) -> gp.GPPosterior:
    try:
        with open(path) as fh:
            return gp.GPPosterior.from_json(fh.read())
    except (OSError, KeyError, ValueError, json.JSONDecodeError) as exc:
        _fail(2, f"cannot load posterior from {path}: {exc}")


@main.command("explain")
@click.option("--posterior", "posterior_path", required=True, type=click.Path())
@click.option("--instances", "instances_path", required=True, type=click.Path())
@click.option("--algo", type=click.Choice(["gpshap", "bayesgpshap", "bayesshap"]),
              default="gpshap", show_default=True)
@click.option("--coalitions", default="full", show_default=True,
              help="'full' or the number of sampled coalitions.")
@click.option("--lam", type=float, default=None,
              help="CME regularizer (default 1e-3 * n_inducing).")
@click.option("--ell0", type=float, default=0.1, show_default=True)
@click.option("--sigma0-sq", type=float, default=0.1, show_default=True)
@click.option("--credible", type=float, default=None, callback=_credible_level,
              help="Append credible-interval columns at this level.")
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--format", "fmt", type=click.Choice(["json", "csv"]), default="json",
              show_default=True)
@click.option("--output", "-o", default="explanations.json", show_default=True)
def cmd_explain(posterior_path, instances_path, algo, coalitions, lam, ell0,
                sigma0_sq, credible, seed, fmt, output):
    """Explain instances with GP-SHAP, BayesGP-SHAP, or BayesSHAP."""
    posterior = _load_posterior(posterior_path)
    names, X, _ = _read_csv_matrix(instances_path)
    if X.shape[1] != posterior.d:
        _fail(2, f"instances have {X.shape[1]} features, posterior expects {posterior.d}")
    design = _design(posterior.d, coalitions, seed)
    config = explain.BayesConfig(ell0=ell0, sigma0_sq=sigma0_sq, seed=seed)
    try:
        if algo == "gpshap":
            batch = explain.gpshap(posterior, design, X, lam, feature_names=names)
        elif algo == "bayesgpshap":
            batch = explain.bayesgpshap(posterior, design, X, lam, config,
                                        feature_names=names)
        else:
            base = explain.gpshap(posterior, design, X, lam)
            batch = explain.bayesshap_deterministic(base.payoff_means, design, config,
                                                    feature_names=names)
    except SsvkitError as exc:
        _fail(3, str(exc))
    if fmt == "csv":
        _write(output, batch.to_csv(level=credible if credible else 0.95))
    else:
        doc = json.loads(batch.to_json())
        doc["X"] = X.tolist()
        if credible:
            lo, hi = explain.credible_intervals(batch, credible)
            doc["credible_level"] = credible
            doc["lo"], doc["hi"] = lo.tolist(), hi.tolist()
        _write(output, json.dumps(doc, indent=2, sort_keys=True) + "\n")
    click.echo(f"explained {X.shape[0]} instances with {algo} "
               f"({design.n_coalitions} coalitions)")


def _load_explanations(path: str) -> tuple[np.ndarray, np.ndarray]:
    """Load (X, Phi) from a wide CSV with x_*/phi_* columns or explain JSON."""
    try:
        text = open(path).read()
    except OSError as exc:
        _fail(2, f"cannot read {path}: {exc}")
    if path.endswith(".json") or text.lstrip().startswith("{"):
        try:
            doc = json.loads(text)
            return np.asarray(doc["X"], float), np.asarray(doc["means"], float)
        except (KeyError, ValueError) as exc:
            _fail(2, f"{path} is not a usable explanation file: {exc}")
    rows = list(csv.DictReader(text.splitlines()))
    if not rows:
        _fail(2, f"{path} contains no rows")
    x_cols = sorted((c for c in rows[0] if c.startswith("x_")),
                    key=lambda c: int(c.split("_")[1]))
    p_cols = sorted((c for c in rows[0] if c.startswith("phi_")),
                    key=lambda c: int(c.split("_")[1]))
    if not x_cols or len(x_cols) != len(p_cols):
        _fail(2, f"{path} must provide matching x_1..x_d and phi_1..phi_d columns")
    try:
        X = np.array([[float(r[c]) for c in x_cols] for r in rows])
        Phi = np.array([[float(r[c]) for c in p_cols] for r in rows])
    except ValueError as exc:
        _fail(2, f"non-numeric cell in {path}: {exc}")
    return X, Phi


@main.command("predict-explain")
@click.option("--explanations", "expl_path", required=True, type=click.Path())
@click.option("--instances", "instances_path", required=True, type=click.Path())
@click.option("--anchors", type=int, default=50, show_default=True,
              help="Farthest-point anchor count for the explanation kernel.")
@click.option("--coalitions", default="full", show_default=True)
@click.option("--lam", type=float, default=None)
@click.option("--noise", type=float, default=1e-2, show_default=True)
@click.option("--credible", type=float, default=None, callback=_credible_level)
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--output", "-o", default="predicted_explanations.json", show_default=True)
def cmd_predict_explain(expl_path, instances_path, anchors, coalitions, lam, noise,
                        credible, seed, output):
    """Predict explanations for new instances from previously computed ones."""
    X, Phi = _load_explanations(expl_path)
    _, X_new, _ = _read_csv_matrix(instances_path)
    if X_new.shape[1] != X.shape[1]:
        _fail(2, f"new instances have {X_new.shape[1]} features, "
                 f"explanations have {X.shape[1]}")
    design = _design(X.shape[1], coalitions, seed)
    try:
        data = shapley_prior.ExplanationDataset(X=X, Phi=Phi)
        anchor_pts = shapley_prior.farthest_point_anchors(X, anchors)
        params = kernels.KernelParams(
            variance=1.0, lengthscales=kernels.median_heuristic(X)
        )
        if lam is None:
            lam = cme.default_lambda(anchor_pts.shape[0])
        model = shapley_prior.fit(data, anchor_pts, params, design, lam, noise)
        means, covs = shapley_prior.predict_batch(model, X_new)
        out = {"means": means.tolist(), "cov": covs.tolist()}
        if credible:
            z = float(ndtri(0.5 * (1 + credible)))
            sds = np.sqrt(np.maximum(np.diagonal(covs, axis1=1, axis2=2), 0.0))
            out["credible_level"] = credible
            out["lo"], out["hi"] = (means - z * sds).tolist(), (means + z * sds).tolist()
    except ValueError as exc:
        _fail(2, str(exc))
    except SsvkitError as exc:
        _fail(3, str(exc))
    _write(output, json.dumps(out, indent=2, sort_keys=True) + "\n")
    click.echo(f"predicted explanations for {X_new.shape[0]} instances "
               f"from {X.shape[0]} observed ones")


@main.command("analyze")
@click.option("--explanations", "expl_path", required=True, type=click.Path())
@click.option("--instance", type=int, default=0, show_default=True,
              help="Instance whose covariance feeds correlation/graph outputs.")
@click.option("--sparsity", type=float, default=0.9, show_default=True)
@click.option("--prefix", default="analysis", show_default=True,
              help="Output file prefix.")
def cmd_analyze(expl_path, instance, sparsity, prefix):
    """Emit global importance, correlation, graph edges, and beeswarm tables."""
    try:
        doc = json.load(open(expl_path))
        means = np.asarray(doc["means"], float)
        covs = [np.asarray(c, float) for c in doc["cov"]]
        names = doc.get("feature_names")
        X = np.asarray(doc["X"], float) if "X" in doc else None
    except (OSError, KeyError, ValueError, json.JSONDecodeError) as exc:
        _fail(2, f"cannot load explanations with covariance from {expl_path}: {exc}")
    if not 0 <= instance < len(covs):
        _fail(2, f"--instance {instance} is out of range: {expl_path} holds "
                 f"{len(covs)} instances")
    d = means.shape[1]
    names = names or [f"x_{i + 1}" for i in range(d)]
    sds = np.array([np.sqrt(np.maximum(np.diag(c), 0.0)) for c in covs])

    folded = np.array([
        [analysis.folded_mean(means[k, i], sds[k, i]) for i in range(d)]
        for k in range(means.shape[0])
    ])
    lines = ["feature,mean_abs_ssv,abs_mean_ssv"]
    for i in range(d):
        lines.append(
            f"{names[i]},{float(folded[:, i].mean())!r},"
            f"{float(np.abs(means[:, i]).mean())!r}"
        )
    _write(f"{prefix}_global.csv", "\n".join(lines) + "\n")

    corr = analysis.correlation_matrix(covs[instance])
    _write(f"{prefix}_correlation.json",
           json.dumps({"feature_names": names, "correlation": corr.tolist()},
                      indent=2, sort_keys=True) + "\n")

    edges = analysis.precision_graph(covs[instance], sparsity)
    lines = ["feature_i,feature_j,partial_correlation"]
    for i, j, r in edges:
        lines.append(f"{names[i]},{names[j]},{float(r)!r}")
    _write(f"{prefix}_graph.csv", "\n".join(lines) + "\n")

    if X is not None:
        ranks = np.stack(
            [(analysis.average_ranks(X[:, i]) - 0.5) / X.shape[0] for i in range(d)],
            axis=1,
        )
        lines = ["instance,feature,mean,sd,feature_value,feature_value_quantile"]
        for k in range(means.shape[0]):
            for i in range(d):
                lines.append(
                    f"{k},{names[i]},{float(means[k, i])!r},{float(sds[k, i])!r},"
                    f"{float(X[k, i])!r},{float(ranks[k, i])!r}"
                )
        _write(f"{prefix}_beeswarm.csv", "\n".join(lines) + "\n")
    click.echo(f"wrote {prefix}_global.csv, {prefix}_correlation.json, "
               f"{prefix}_graph.csv" + (f", {prefix}_beeswarm.csv" if X is not None else ""))


@main.command("selftest")
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--corrupt-projection", is_flag=True, hidden=True,
              help="Negative-control hook: perturb A before the oracle check.")
def cmd_selftest(seed, corrupt_projection):
    """Run the built-in oracle suite and report per-check deviations."""
    from .selftest import run_selftest

    report = run_selftest(seed=seed, corrupt_projection=corrupt_projection)
    ok = True
    for check in report:
        status = "PASS" if check["passed"] else "FAIL"
        ok = ok and check["passed"]
        click.echo(
            f"[{status}] {check['name']}: max deviation {check['max_deviation']:.3e} "
            f"(tolerance {check['tolerance']:.1e}, {check['seconds']:.1f}s)"
        )
    if not ok:
        sys.exit(1)


if __name__ == "__main__":
    main()
