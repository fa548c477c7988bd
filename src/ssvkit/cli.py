"""Command-line front end: fit, explain, predict-explain, analyze, selftest.

Every subcommand is deterministic under its seed; JSON outputs are
pretty-printed with stable key order so reruns are byte-identical.
Exit codes: 2 for input problems (usage errors included), 3 for numerics
failures, 1 for selftest oracle failures; ``_Main.invoke`` is the only place
that maps errors to the first two.
"""

from __future__ import annotations

import csv
import io
import json
import math
import sys
from contextlib import contextmanager

import click
import numpy as np

from . import analysis, coalition, explain, gp, kernels, numerics, shapley_prior
from .errors import SingularSystem, SsvkitError


class _Main(click.Group):
    """The one map from errors to exit codes: an input error (a ``ValueError``
    as the library's are, an ``OSError`` or a click usage error) exits 2 and any
    other ``SsvkitError`` (numerics) exits 3, each with one ``error:`` line."""

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except click.UsageError as exc:
            code, message = 2, exc.format_message()
        except (ValueError, OSError) as exc:
            code, message = 2, str(exc)
        except SsvkitError as exc:
            code, message = 3, str(exc)
        click.echo(f"error: {message}", err=True)
        sys.exit(code)


def _read_csv_matrix(path: str, target: str | None = None, text: str | None = None):
    """Read a numeric CSV with a header row (from ``text`` when given).

    Returns (header, matrix, target_vector); target_vector is None when no
    target column was requested.  A row whose cell count differs from the
    header's and a non-numeric or non-finite cell are reported with their
    row and column location.
    """
    if text is None:
        with open(path, newline="") as fh:
            text = fh.read()
    rows = list(csv.reader(io.StringIO(text, newline="")))
    if not rows:
        raise ValueError(f"{path} is empty")
    if len(rows) < 2:
        raise ValueError(f"{path} has a header but no data rows")
    header = rows[0]
    if target is not None:
        if target not in header:
            raise ValueError(f"target column {target!r} not found in {path}")
        if len(header) == 1:
            raise ValueError(f"{path} has no feature column besides the target {target!r}")
    data = []
    for r, row in enumerate(rows[1:], start=2):
        if len(row) != len(header):
            where = (f"column {header[len(row)]!r} is missing" if len(row) < len(header)
                     else f"column {len(header) + 1} has no header")
            raise ValueError(f"row {r} has {len(row)} cells, the header has {len(header)} "
                             f"({where}) in {path}")
        vals = []
        for c, cell in enumerate(row):
            try:
                v = float(cell)
            except ValueError:
                raise ValueError(f"non-numeric value {cell!r} at row {r}, "
                                 f"column {header[c]!r} in {path}") from None
            if not math.isfinite(v):
                raise ValueError(f"non-finite value {cell!r} at row {r}, "
                                 f"column {header[c]!r} in {path}")
            vals.append(v)
        data.append(vals)
    M = np.asarray(data, dtype=float)
    if target is None:
        return header, M, None
    t = header.index(target)        # y is copied: a strided y could reorder np.var's sum
    return header[:t] + header[t + 1:], np.delete(M, t, axis=1), M[:, t].copy()


def _write(path: str, text: str):
    if path == "-":
        click.echo(text, nl=False)
    else:
        with open(path, "w") as fh:
            fh.write(text)


@contextmanager
def _naming(option: str, value):
    """Prefix an input or singular-system error raised inside with ``option value: ``."""
    try:
        yield
    except (ValueError, SingularSystem) as exc:     # same type, so the same exit code
        raise type(exc)(f"{option} {value}: {exc}") from None


def _floats(ctx, param, spec: str) -> list[float]:
    """Click callback: the comma-separated numbers an option's value lists."""
    with _naming(param.opts[0], spec):
        return [float(tok) for tok in spec.split(",") if tok.strip()]


def _credible_level(ctx, param, value):
    """Click callback: a credible level must lie strictly inside (0, 1)."""
    if value is not None and not 0.0 < value < 1.0:
        raise ValueError(f"--credible must lie in (0, 1), got {value!r}")
    return value


_seed_option = click.option("--seed", type=click.IntRange(min=0), default=0, show_default=True)


def _design(d: int, coalitions: str, seed: int) -> coalition.CoalitionDesign:
    """The design a --coalitions value names: 'full' or a sampled count."""
    with _naming("--coalitions", coalitions):
        if coalitions == "full":
            return coalition.enumerate_coalitions(d)
        return coalition.sample_coalitions(d, int(coalitions), seed)


@click.group(cls=_Main)
def main():
    """Stochastic Shapley-value explanations for GP regression models."""


@main.command("fit")
@click.option("--data", "data_path", required=True, type=click.Path())
@click.option("--target", required=True, help="Name of the target column.")
@click.option("--inducing", type=click.IntRange(min=1), default=None,
              help="Number of inducing rows (omitted or at least the row count: all).")
@click.option("--strategy", type=click.Choice(["uniform", "farthest_point"]),
              default="farthest_point", show_default=True)
@click.option("--ls-multipliers", default="0.25,0.5,1,2,4", show_default=True,
              callback=_floats, help="Median-heuristic lengthscale multiples to grid over.")
@click.option("--noise-fractions", default="1e-3,1e-2,1e-1,1", show_default=True,
              callback=_floats, help="Noise grid as fractions of var(y).")
@_seed_option
@click.option("--output", "-o", default="posterior.json", show_default=True)
def cmd_fit(data_path, target, inducing, strategy, ls_multipliers, noise_fractions,
            seed, output):
    """Fit an exact GP to a CSV dataset and store its inducing-set posterior."""
    _, X, y = _read_csv_matrix(data_path, target)
    data = gp.Dataset(X=X, y=y)
    posterior, ll = gp.fit(data, inducing, strategy, seed, ls_multipliers, noise_fractions)
    _write(output, posterior.to_json() + "\n")
    lengthscales = ", ".join(f"{v:.6g}" for v in posterior.kernel.lengthscales)
    click.echo(f"n={data.n} d={data.d} n_inducing={posterior.n_inducing} "
               f"lengthscales=[{lengthscales}] noise={posterior.noise:.6g} "
               f"log_marginal_likelihood={ll:.6f}", err=output == "-")


def _load_posterior(path: str) -> gp.GPPosterior:
    with open(path) as fh:
        try:
            return gp.GPPosterior.from_json(fh.read())
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise ValueError(f"cannot load posterior from {path}: {exc}") from None


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
@_seed_option
@click.option("--format", "fmt", type=click.Choice(["json", "csv"]), default="json",
              show_default=True)
@click.option("--output", "-o", default="explanations.json", show_default=True)
def cmd_explain(posterior_path, instances_path, algo, coalitions, lam, ell0,
                sigma0_sq, credible, seed, fmt, output):
    """Explain instances with GP-SHAP, BayesGP-SHAP, or BayesSHAP."""
    posterior = _load_posterior(posterior_path)
    names, X, _ = _read_csv_matrix(instances_path)
    design = _design(posterior.d, coalitions, seed)
    config = explain.BayesConfig(ell0=ell0, sigma0_sq=sigma0_sq, seed=seed)
    if algo == "gpshap":
        batch = explain.gpshap(posterior, design, X, lam, feature_names=names)
    elif algo == "bayesgpshap":
        batch = explain.bayesgpshap(posterior, design, X, lam, config, feature_names=names)
    else:
        base = explain.gpshap(posterior, design, X, lam)
        batch = explain.bayesshap_deterministic(base.payoff_means, design, config,
                                                feature_names=names)
    _write(output, batch.to_csv(credible or 0.95) if fmt == "csv"
           else batch.to_json(credible, X=X) + "\n")
    click.echo(f"explained {X.shape[0]} instances with {algo} "
               f"({design.n_coalitions} coalitions)", err=output == "-")


def _json_array(doc: dict, key: str, path: str, shape: tuple | None = None) -> np.ndarray:
    """doc[key] as a finite float array of ``shape`` (default: a non-empty matrix)."""
    try:
        a = np.asarray(doc[key], dtype=float)
    except KeyError:
        raise ValueError(f"{path} has no {key!r} entry") from None
    except (TypeError, ValueError, OverflowError):
        raise ValueError(f"{key!r} in {path} is not a numeric array") from None
    if (a.shape != shape) if shape else (a.ndim != 2 or a.size == 0):
        want = " x ".join(map(str, shape)) if shape else "a non-empty matrix"
        raise ValueError(f"{key!r} in {path} must be {want}, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise ValueError(f"{key!r} in {path} has non-finite entries")
    return a


def _wide_csv(path: str, text: str) -> dict:
    """The inputs ("X") and means of a CSV's x_<k>/phi_<k> columns, each kind numbered
    exactly 1..d; its header is checked first."""
    header = next(csv.reader(io.StringIO(text, newline="")), [])
    cols = {"x": [], "phi": []}
    for j, name in enumerate(header):
        kind, sep, k = name.partition("_")
        if kind in cols and sep:
            if not k.isdecimal():
                raise ValueError(f"column {name!r} in {path} is not named {kind}_<integer>")
            cols[kind].append((int(k), j))
    for kind, found in cols.items():
        for want, (k, j) in enumerate(sorted(found), start=1):
            if k != want:
                what = (f"repeats {kind}_{k}" if 0 < k < want else
                        f"skips {kind}_{want}" if k > want else "is numbered 0")
                raise ValueError(f"column {header[j]!r} in {path} {what}: the {kind}_<k> "
                                 "columns must be numbered 1..d, each once")
    x_cols, p_cols = ([j for _, j in sorted(c)] for c in cols.values())
    if header and (not x_cols or len(x_cols) != len(p_cols)):
        raise ValueError(f"{path} must provide matching x_1..x_d and phi_1..phi_d columns; "
                         "explain's --format csv table is not read, so pass its JSON")
    _, M, _ = _read_csv_matrix(path, text=text)
    return {"X": M[:, x_cols], "means": M[:, p_cols]}


def _load_explanations(path: str, need: str):
    """(X, means, cov, feature_names) from explain's JSON or a wide CSV.

    ``means`` must be an n x d matrix, ``X`` n x d and ``cov`` n x d x d
    (each checked when present, required when named by ``need``) and all
    finite, with symmetric ``cov`` blocks (1e-8 relative) and no negative
    variance; ``feature_names`` must list d names.  Absent parts are None.
    """
    with open(path, newline="") as fh:
        text = fh.read()
    if path.endswith(".json") or text.lstrip()[:1] in ("{", "["):
        try:
            doc = json.loads(text)
        except ValueError as exc:
            raise ValueError(f"{path} is not valid JSON: {exc}") from None
        if not isinstance(doc, dict):
            raise ValueError(f"{path} must hold a JSON object")
    else:
        doc = _wide_csv(path, text)
    means = _json_array(doc, "means", path)
    n, d = means.shape
    X, cov = (_json_array(doc, key, path, shape) if key in doc or key == need else None
              for key, shape in (("X", (n, d)), ("cov", (n, d, d))))
    if cov is not None:
        scale = np.max(np.abs(cov), axis=(1, 2))
        asymmetric = np.max(np.abs(cov - cov.transpose(0, 2, 1)), axis=(1, 2)) > 1e-8 * scale
        negative = np.any(np.diagonal(cov, axis1=1, axis2=2) < 0, axis=1)
        bad = np.flatnonzero(asymmetric | negative)
        if bad.size:
            what = "is not symmetric" if asymmetric[bad[0]] else "has a negative variance"
            raise ValueError(f"'cov' of instance {bad[0]} in {path} {what}")
    names = doc.get("feature_names")
    if names is not None and not (isinstance(names, list) and len(names) == d
                                  and all(isinstance(s, str) for s in names)):
        raise ValueError(f"'feature_names' in {path} must list {d} names")
    return X, means, cov, names


@main.command("predict-explain")
@click.option("--explanations", "expl_path", required=True, type=click.Path())
@click.option("--instances", "instances_path", required=True, type=click.Path())
@click.option("--anchors", type=click.IntRange(min=1), default=50, show_default=True,
              help="Farthest-point anchor count for the explanation kernel.")
@click.option("--coalitions", default="full", show_default=True)
@click.option("--lam", type=float, default=None,
              help="CME regularizer (default 1e-3 * anchors).")
@click.option("--noise", type=float, default=1e-2, show_default=True)
@click.option("--credible", type=float, default=None, callback=_credible_level)
@_seed_option
@click.option("--output", "-o", default="predicted_explanations.json", show_default=True)
def cmd_predict_explain(expl_path, instances_path, anchors, coalitions, lam, noise,
                        credible, seed, output):
    """Predict explanations for new instances from previously computed ones."""
    X, Phi, _, _ = _load_explanations(expl_path, need="X")
    _, X_new, _ = _read_csv_matrix(instances_path)
    if X_new.shape[1] != X.shape[1]:
        raise ValueError(f"new instances have {X_new.shape[1]} features, "
                         f"explanations have {X.shape[1]}")
    design = _design(X.shape[1], coalitions, seed)
    data = shapley_prior.ExplanationDataset(X=X, Phi=Phi)
    anchor_pts = shapley_prior.farthest_point_anchors(X, anchors)
    params = kernels.KernelParams(variance=1.0, lengthscales=kernels.median_heuristic(X))
    model = shapley_prior.fit(data, anchor_pts, params, design, lam, noise)
    means, covs = shapley_prior.predict_batch(model, X_new)
    _write(output, explain.document(means, covs, credible) + "\n")
    click.echo(f"predicted explanations for {X_new.shape[0]} instances "
               f"from {X.shape[0]} observed ones", err=output == "-")


@main.command("analyze")
@click.option("--explanations", "expl_path", required=True, type=click.Path())
@click.option("--instance", type=int, default=0, show_default=True,
              help="Instance whose covariance feeds correlation/graph outputs.")
@click.option("--sparsity", type=float, default=0.9, show_default=True)
@click.option("--prefix", default="analysis", show_default=True,
              help="Output file prefix.")
def cmd_analyze(expl_path, instance, sparsity, prefix):
    """Emit global importance, correlation, graph edges, and beeswarm tables."""
    X, means, cov, names = _load_explanations(expl_path, need="cov")
    n, d = means.shape
    if not 0 <= instance < n:
        raise ValueError(f"--instance {instance} is out of range: {expl_path} holds "
                         f"{n} instances")
    if not numerics.is_psd(cov[instance], tol_jitter=1e-8):
        raise ValueError(f"'cov' of instance {instance} in {expl_path} is not positive "
                         "semi-definite within a jitter of 1e-8")
    names = names or explain.default_names(d)
    cells = explain.csv_names(names)
    sds = explain.marginal_sds(cov)
    imp = analysis.importance(means, sds)
    corr = analysis.correlation_matrix(cov[instance])
    with _naming("--sparsity", sparsity):
        edges = analysis.precision_graph(cov[instance], sparsity)
    lines = ["feature,mean_abs_ssv,abs_mean_ssv"]
    for name, folded, absolute in zip(cells, imp.mean_abs_ssv, imp.abs_mean_ssv):
        lines.append(f"{name},{float(folded)!r},{float(absolute)!r}")
    _write(f"{prefix}_global.csv", "\n".join(lines) + "\n")
    _write(f"{prefix}_correlation.json",
           explain.dumps({"feature_names": names, "correlation": corr}) + "\n")
    lines = ["feature_i,feature_j,partial_correlation"]
    for i, j, r in edges:
        lines.append(f"{cells[i]},{cells[j]},{float(r)!r}")
    _write(f"{prefix}_graph.csv", "\n".join(lines) + "\n")
    if X is not None:
        lines = ["instance,feature,mean,sd,feature_value,feature_value_quantile"]
        for k, i, mean, sd, value, quantile in analysis.beeswarm_export(means, sds, X):
            lines.append(f"{k},{cells[i]},{mean!r},{sd!r},{value!r},{quantile!r}")
        _write(f"{prefix}_beeswarm.csv", "\n".join(lines) + "\n")
    click.echo(f"wrote {prefix}_global.csv, {prefix}_correlation.json, "
               f"{prefix}_graph.csv" + (f", {prefix}_beeswarm.csv" if X is not None else ""))


@main.command("selftest")
@_seed_option
def cmd_selftest(seed):
    """Run the built-in oracle suite and report per-check deviations."""
    from .selftest import run_selftest

    report = run_selftest(seed=seed)
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
