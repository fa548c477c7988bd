import csv
import dataclasses
import importlib.util
import json
import re
import shutil
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from ssvkit import errors

from conftest import run_python


def run_cli(args, cwd):
    return run_python(["-m", "ssvkit.cli", *args], cwd)


@pytest.fixture
def workdir(tmp_path):
    write_inputs(tmp_path)
    return tmp_path


def write_inputs(path):
    """train.csv (40 rows of a, b, c and target) and instances.csv (5 rows)."""
    rng = np.random.default_rng(7)
    X = rng.normal(size=(40, 3))
    y = np.sin(X[:, 0]) + 0.5 * X[:, 1] + 0.1 * rng.normal(size=40)
    lines = ["a,b,c,target"]
    for row, t in zip(X, y):
        lines.append(",".join(repr(float(v)) for v in row) + f",{float(t)!r}")
    (path / "train.csv").write_text("\n".join(lines) + "\n")
    lines = ["a,b,c"]
    for row in X[:5]:
        lines.append(",".join(repr(float(v)) for v in row))
    (path / "instances.csv").write_text("\n".join(lines) + "\n")


@pytest.fixture(scope="module")
def explained(tmp_path_factory):
    """Inputs, a fitted posterior.json and its explain output expl.json."""
    path = tmp_path_factory.mktemp("explained")
    write_inputs(path)
    fitted(path)
    res = run_cli(["explain", "--posterior", "posterior.json",
                   "--instances", "instances.csv", "-o", "expl.json"], path)
    assert res.returncode == 0, res.stderr
    return path


def fitted(workdir):
    res = run_cli(
        ["fit", "--data", "train.csv", "--target", "target",
         "--inducing", "25", "-o", "posterior.json"],
        workdir,
    )
    assert res.returncode == 0, res.stderr
    return workdir / "posterior.json"


class TestFit:
    def test_writes_posterior_and_summary(self, workdir):
        path = fitted(workdir)
        doc = json.loads(path.read_text())
        assert set(doc) == {
            "inducing_points", "mean_at_inducing", "cov_at_inducing",
            "kernel", "noise",
        }
        assert len(doc["inducing_points"]) == 25
        assert set(doc["kernel"]) == {"variance", "lengthscales"}

    def test_missing_target_column_exits_2(self, workdir):
        res = run_cli(["fit", "--data", "train.csv", "--target", "nope"], workdir)
        assert res.returncode == 2
        assert "target column" in res.stderr

    def test_non_numeric_cell_is_located(self, workdir):
        (workdir / "bad.csv").write_text("a,b\n1.0,oops\n")
        res = run_cli(["fit", "--data", "bad.csv", "--target", "a"], workdir)
        assert res.returncode == 2
        assert "oops" in res.stderr and "row 2" in res.stderr and "'b'" in res.stderr

    def test_missing_file_exits_2(self, workdir):
        res = run_cli(["fit", "--data", "absent.csv", "--target", "t"], workdir)
        assert res.returncode == 2

    @staticmethod
    def fit_wide(path, d):
        """Fit a posterior on 12 rows of d features; instances.csv holds 3 of them."""
        X = np.random.default_rng(d).normal(size=(12, d))
        header = ",".join(f"x{i}" for i in range(d))
        rows = [",".join(repr(float(v)) for v in row) for row in X]
        (path / "wide.csv").write_text(
            "\n".join([header + ",t"] + [r + f",{float(x[0])!r}" for r, x in zip(rows, X)])
            + "\n")
        (path / "instances.csv").write_text("\n".join([header] + rows[:3]) + "\n")
        return run_cli(["fit", "--data", "wide.csv", "--target", "t", "--inducing", "6",
                        "-o", "posterior.json"], path)

    @pytest.mark.parametrize("d", [31, 70])
    def test_any_feature_count(self, tmp_path, d):
        # the full gram's mask (1 << d) - 1 is wider than any coalition design's
        res = self.fit_wide(tmp_path, d)
        assert res.returncode == 0, res.stderr
        doc = json.loads((tmp_path / "posterior.json").read_text())
        assert np.asarray(doc["inducing_points"]).shape == (6, d)
        assert f"d={d} " in res.stdout

    def test_every_row_when_inducing_is_omitted_or_at_least_n(self, workdir):
        fit = ["fit", "--data", "train.csv", "--target", "target"]
        for args, out in (([], "omitted.json"), (["--inducing", "40"], "n.json"),
                          (["--inducing", "41", "--strategy", "uniform"], "above.json")):
            res = run_cli([*fit, *args, "-o", out], workdir)
            assert res.returncode == 0, res.stderr
            assert "n_inducing=40 " in res.stdout
        omitted = (workdir / "omitted.json").read_bytes()
        assert (workdir / "n.json").read_bytes() == omitted
        assert (workdir / "above.json").read_bytes() == omitted
        train = np.loadtxt(workdir / "train.csv", delimiter=",", skiprows=1)[:, :3]
        np.testing.assert_array_equal(json.loads(omitted)["inducing_points"], train)

    def test_uniform_strategy_keeps_the_count(self, workdir):
        res = run_cli(["fit", "--data", "train.csv", "--target", "target", "--inducing", "10",
                       "--strategy", "uniform", "--seed", "3", "-o", "uniform.json"], workdir)
        assert res.returncode == 0, res.stderr
        doc = json.loads((workdir / "uniform.json").read_text())
        assert np.asarray(doc["inducing_points"]).shape == (10, 3)
        assert "n_inducing=10 " in res.stdout

    @pytest.mark.parametrize("inducing,strategy,seed", [
        (None, "farthest_point", 0), (25, "farthest_point", 0), (41, "farthest_point", 0),
        (10, "uniform", 3),
    ], ids=["omitted", "below-n", "above-n", "uniform"])
    def test_writes_what_the_library_fits(self, workdir, inducing, strategy, seed):
        from ssvkit import gp

        args = [] if inducing is None else ["--inducing", str(inducing)]
        res = run_cli(["fit", "--data", "train.csv", "--target", "target", *args,
                       "--strategy", strategy, "--seed", str(seed), "-o", "out.json"],
                      workdir)
        assert res.returncode == 0, res.stderr
        train = np.loadtxt(workdir / "train.csv", delimiter=",", skiprows=1)
        post, ll = gp.fit(gp.Dataset(X=train[:, :3], y=train[:, 3]), inducing, strategy, seed)
        assert (workdir / "out.json").read_text() == post.to_json() + "\n"
        assert res.stdout.endswith(f" log_marginal_likelihood={ll:.6f}\n")

    def test_sampled_design_beyond_30_features_exits_2(self, tmp_path):
        assert self.fit_wide(tmp_path, 31).returncode == 0
        res = run_cli(["explain", "--posterior", "posterior.json",
                       "--instances", "instances.csv", "--coalitions", "50"], tmp_path)
        assert_one_line_input_error(res)
        assert "--coalitions 50" in res.stderr and "30" in res.stderr


class TestExplain:
    def test_json_output_and_efficiency(self, workdir):
        fitted(workdir)
        res = run_cli(
            ["explain", "--posterior", "posterior.json",
             "--instances", "instances.csv", "-o", "expl.json"],
            workdir,
        )
        assert res.returncode == 0, res.stderr
        doc = json.loads((workdir / "expl.json").read_text())
        assert doc["feature_names"] == ["a", "b", "c"]
        means = np.asarray(doc["means"])
        assert means.shape == (5, 3)
        covs = [np.asarray(c) for c in doc["cov"]]
        assert all(c.shape == (3, 3) for c in covs)
        # each covariance is PSD up to tiny jitter
        for c in covs:
            assert np.min(np.linalg.eigvalsh(0.5 * (c + c.T))) > -1e-8

    def test_csv_output(self, workdir):
        fitted(workdir)
        res = run_cli(
            ["explain", "--posterior", "posterior.json",
             "--instances", "instances.csv", "--format", "csv",
             "-o", "expl.csv"],
            workdir,
        )
        assert res.returncode == 0, res.stderr
        lines = (workdir / "expl.csv").read_text().strip().splitlines()
        assert lines[0] == "instance,feature,mean,sd,lo,hi"
        assert len(lines) == 1 + 5 * 3

    def test_bayes_variants_share_means(self, workdir):
        fitted(workdir)
        docs = {}
        for algo in ("gpshap", "bayesgpshap", "bayesshap"):
            res = run_cli(
                ["explain", "--posterior", "posterior.json",
                 "--instances", "instances.csv", "--algo", algo,
                 "-o", f"{algo}.json"],
                workdir,
            )
            assert res.returncode == 0, res.stderr
            docs[algo] = json.loads((workdir / f"{algo}.json").read_text())
        base = np.asarray(docs["gpshap"]["means"])
        for algo in ("bayesgpshap", "bayesshap"):
            np.testing.assert_allclose(np.asarray(docs[algo]["means"]), base,
                                       atol=1e-10)
            assert "sigma2" in docs[algo]

    def test_sampled_coalitions_and_bad_count(self, workdir):
        fitted(workdir)
        res = run_cli(
            ["explain", "--posterior", "posterior.json",
             "--instances", "instances.csv", "--coalitions", "6",
             "-o", "sub.json"],
            workdir,
        )
        assert res.returncode == 0, res.stderr
        res = run_cli(
            ["explain", "--posterior", "posterior.json",
             "--instances", "instances.csv", "--coalitions", "lots"],
            workdir,
        )
        assert res.returncode == 2

    def test_under_determined_sampled_design_exits_3(self, workdir):
        # at d = 3 one interior coalition and the efficiency row fix only 2 directions
        fitted(workdir)
        res = run_cli(["explain", "--posterior", "posterior.json", "--instances",
                       "instances.csv", "--coalitions", "3", "-o", "sub.json"], workdir)
        assert res.returncode == 3, res.stderr
        lines = res.stderr.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: --coalitions 3: "), res.stderr
        assert "rank 2 < d = 3" in lines[0]
        assert not (workdir / "sub.json").exists()

    def test_feature_count_mismatch_exits_2(self, workdir):
        fitted(workdir)
        (workdir / "wrong.csv").write_text("a,b\n0.0,0.0\n")
        res = run_cli(
            ["explain", "--posterior", "posterior.json", "--instances", "wrong.csv"],
            workdir,
        )
        assert res.returncode == 2


def assert_one_line_input_error(res):
    assert res.returncode == 2, res.stderr
    assert "Traceback" not in res.stderr
    lines = res.stderr.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), res.stderr


class TestUsageErrors:
    EXPLAIN = ["explain", "--posterior", "posterior.json", "--instances", "instances.csv"]

    @pytest.mark.parametrize("args,where", [
        (EXPLAIN + ["--algo", "bogus"], "'--algo'"),
        (["fit", "--data", "train.csv", "--target", "target", "--strategy", "all",
          "--inducing", "5"], "'--strategy'"),
        (["fit", "--data", "train.csv", "--target", "target", "--inducing", "abc"],
         "'--inducing'"),
        (EXPLAIN + ["--lam", "abc"], "'--lam'"),
        (["fit", "--target", "target"], "'--data'"),
        (EXPLAIN + ["--bogus", "1"], "'--bogus'"),
    ], ids=["bad-choice", "strategy-all", "inducing-text", "lam-text", "missing-data",
            "unknown-option"])
    def test_usage_error_is_one_line(self, explained, args, where):
        res = run_cli(args, explained)
        assert_one_line_input_error(res)
        assert where in res.stderr and "Usage:" not in res.stderr

    def test_help_prints_the_usage_block(self, tmp_path):
        res = run_cli(["fit", "--help"], tmp_path)
        assert res.returncode == 0 and res.stderr == ""
        assert res.stdout.startswith("Usage: ") and "[uniform|farthest_point]" in res.stdout


class TestCredibleBounds:
    """lo and hi of a --credible JSON document are means -+ z * sqrt(diag(cov))
    of the same document, bit for bit."""

    @staticmethod
    def assert_bounds(doc, level):
        from scipy.special import ndtri

        means, cov = np.asarray(doc["means"]), np.asarray(doc["cov"])
        sds = np.sqrt(np.maximum(np.diagonal(cov, axis1=1, axis2=2), 0.0))
        z = float(ndtri(0.5 * (1.0 + level)))
        assert doc["credible_level"] == level
        np.testing.assert_array_equal(doc["lo"], means - z * sds)
        np.testing.assert_array_equal(doc["hi"], means + z * sds)

    @pytest.mark.parametrize("algo", ["gpshap", "bayesgpshap"])
    def test_explain(self, explained, tmp_path, algo):
        res = run_cli(["explain", "--posterior", "posterior.json", "--instances",
                       "instances.csv", "--algo", algo, "--credible", "0.9",
                       "-o", str(tmp_path / "cred.json")], explained)
        assert res.returncode == 0, res.stderr
        self.assert_bounds(json.loads((tmp_path / "cred.json").read_text()), 0.9)

    def test_predict_explain(self, explained, tmp_path):
        res = run_cli(["predict-explain", "--explanations", "expl.json", "--instances",
                       "instances.csv", "--credible", "0.8",
                       "-o", str(tmp_path / "cred.json")], explained)
        assert res.returncode == 0, res.stderr
        doc = json.loads((tmp_path / "cred.json").read_text())
        assert set(doc) == {"means", "cov", "credible_level", "lo", "hi"}
        self.assert_bounds(doc, 0.8)

    def test_no_bounds_without_a_level(self, explained):
        doc = json.loads((explained / "expl.json").read_text())
        assert not {"credible_level", "lo", "hi"} & set(doc)


class TestInputBoundary:
    @pytest.mark.parametrize("args", [
        ["--coalitions", "1"],
        ["--coalitions", "-3"],
        ["--credible", "1.5"],
    ])
    def test_bad_explain_option_exits_2(self, workdir, args):
        fitted(workdir)
        res = run_cli(["explain", "--posterior", "posterior.json",
                       "--instances", "instances.csv", *args], workdir)
        assert_one_line_input_error(res)

    @pytest.mark.parametrize("args", [
        ["fit", "--data", "train.csv", "--target", "target", "--inducing", "10",
         "--strategy", "uniform", "--seed", "-1", "-o", "neg.json"],
        ["explain", "--posterior", "posterior.json", "--instances", "instances.csv",
         "--algo", "bayesgpshap", "--seed", "-1", "-o", "neg.json"],
        ["predict-explain", "--explanations", "expl.json", "--instances", "instances.csv",
         "--seed", "-2", "--coalitions", "5", "-o", "neg.json"],
        ["selftest", "--seed", "-1"],
    ], ids=lambda args: args[0])
    def test_negative_seed_is_rejected_at_the_option(self, explained, args):
        res = run_cli(args, explained)
        assert_one_line_input_error(res)
        assert "--seed" in res.stderr and "--coalitions" not in res.stderr
        assert not (explained / "neg.json").exists()

    def test_bad_predict_credible_exits_2(self, workdir):
        (workdir / "wide.csv").write_text("x_1,phi_1\n0.0,0.0\n1.0,0.5\n")
        (workdir / "new.csv").write_text("x_1\n0.5\n")
        res = run_cli(["predict-explain", "--explanations", "wide.csv",
                       "--instances", "new.csv", "--credible", "1.5"], workdir)
        assert_one_line_input_error(res)

    RAGGED = "a,b,c\n0.1,0.2,0.3\n0.4,0.5\n"
    NON_FINITE = "a,b,c\n0.1,0.2,0.3\n0.4,nan,0.6\n"

    @pytest.mark.parametrize("text,where", [
        (RAGGED, "column 'c'"),
        ("a,b,c\n0.1,0.2,0.3,0.4\n", "row 2"),
        (NON_FINITE, "column 'b'"),
        ("a,b,c\n0.1,0.2,-inf\n", "column 'c'"),
        ("a,b,c\n", "no data rows"),
    ])
    def test_bad_instances_csv_exits_2(self, workdir, text, where):
        fitted(workdir)
        (workdir / "bad.csv").write_text(text)
        res = run_cli(["explain", "--posterior", "posterior.json",
                       "--instances", "bad.csv"], workdir)
        assert_one_line_input_error(res)
        assert "bad.csv" in res.stderr and where in res.stderr

    @pytest.mark.parametrize("text", [RAGGED, NON_FINITE])
    def test_bad_training_csv_exits_2(self, workdir, text):
        (workdir / "bad.csv").write_text(text)
        res = run_cli(["fit", "--data", "bad.csv", "--target", "c"], workdir)
        assert_one_line_input_error(res)
        assert "bad.csv" in res.stderr and "row 3" in res.stderr

    @pytest.mark.parametrize("text", [RAGGED, NON_FINITE])
    def test_bad_predict_instances_csv_exits_2(self, workdir, text):
        (workdir / "wide.csv").write_text(
            "x_1,x_2,x_3,phi_1,phi_2,phi_3\n0,0,0,0,0,0\n1,1,1,0.5,0.5,0.5\n")
        (workdir / "bad.csv").write_text(text)
        res = run_cli(["predict-explain", "--explanations", "wide.csv",
                       "--instances", "bad.csv"], workdir)
        assert_one_line_input_error(res)
        assert "bad.csv" in res.stderr and "row 3" in res.stderr

    def test_inconsistent_posterior_exits_2(self, workdir):
        # one inducing point with a 2-vector mean: the explainer's einsum
        # would broadcast the size-1 axis and answer with exit 0
        doc = json.loads(fitted(workdir).read_text())
        doc["inducing_points"] = doc["inducing_points"][:1]
        doc["mean_at_inducing"] = doc["mean_at_inducing"][:2]
        doc["cov_at_inducing"] = [[1.0]]
        (workdir / "bad.json").write_text(json.dumps(doc))
        res = run_cli(["explain", "--posterior", "bad.json",
                       "--instances", "instances.csv"], workdir)
        assert_one_line_input_error(res)
        assert "bad.json" in res.stderr and "mean" in res.stderr

    def test_instance_out_of_range_exits_2(self, workdir):
        fitted(workdir)
        run_cli(["explain", "--posterior", "posterior.json",
                 "--instances", "instances.csv", "-o", "expl.json"], workdir)
        res = run_cli(["analyze", "--explanations", "expl.json", "--instance", "5"],
                      workdir)
        assert_one_line_input_error(res)
        assert "--instance 5" in res.stderr

    EXPLAIN = ["explain", "--posterior", "posterior.json", "--instances", "instances.csv"]
    ANALYZE = ["analyze", "--explanations", "bad.json"]
    PREDICT = ["predict-explain", "--explanations", "bad.csv", "--instances", "new.csv"]
    THREE_ROWS = "x_1,phi_1\n0.0,0.0\n1.0,0.5\n2.0,1.0\n"
    COV_2 = [[[1.0, 0.0], [0.0, 1.0]]]

    @pytest.mark.parametrize("files,args,where", [
        ({}, ["fit", "--data", "train.csv", "--target", "target", "--inducing", "0"],
         "count must be in [1, 40]"),
        ({"bad.csv": "a,b,t\n1.0,2.0,3.0\n"}, ["fit", "--data", "bad.csv", "--target", "t"],
         "at least two points"),
        ({"y_only.csv": "y\n1.0\n2.0\n3.0\n"}, ["fit", "--data", "y_only.csv", "--target", "y"],
         "y_only.csv has no feature column besides the target 'y'"),
        ({"big.csv": "x,t\n0.0,1e200\n1.0,3e199\n2.0,1e200\n3.0,3e199\n4.0,1e200\n"},
         ["fit", "--data", "big.csv", "--target", "t"], "the target's variance overflows"),
        ({}, EXPLAIN + ["--lam", "-1"], "lambda must be positive"),
        ({}, EXPLAIN + ["--lam", "0"], "lambda must be positive"),
        ({}, EXPLAIN + ["--lam", "nan"], "lambda must be positive"),
        ({}, EXPLAIN + ["--algo", "bayesgpshap", "--ell0", "nan"], "ell0"),
        ({}, EXPLAIN + ["--algo", "bayesgpshap", "--ell0", "-1", "--sigma0-sq", "-5"], "ell0"),
        ({}, EXPLAIN + ["--algo", "bayesgpshap", "--ell0", "-20"], "ell0"),
        ({}, EXPLAIN + ["--sigma0-sq", "inf"], "sigma0_sq"),
        ({}, EXPLAIN + ["--coalitions", "9"], "cannot sample 9 distinct coalitions for d=3"),
        ({}, EXPLAIN + ["-o", "missing/expl.json"], "missing/expl.json"),
        ({}, ["analyze", "--explanations", "expl.json", "--sparsity", "1.5"], "sparsity"),
        ({}, ["analyze", "--explanations", "expl.json", "--prefix", "missing/out"],
         "missing/out_global.csv"),
        ({"posterior.json": "[1, 2]"}, EXPLAIN, "posterior.json"),
        ({"bad.json": {"means": [[1.0, 2.0]], "cov": [[[1.0]]], "X": [[0.0, 1.0]]}},
         ANALYZE, "'cov'"),
        ({"bad.json": {"means": [1.0, 2.0], "cov": COV_2}}, ANALYZE, "'means'"),
        ({"bad.json": [{"means": [[1.0, 2.0]], "cov": COV_2}]}, ANALYZE, "JSON object"),
        ({"bad.json": {"means": [[1.0, 2.0]], "cov": COV_2, "feature_names": ["a"]}},
         ANALYZE, "'feature_names'"),
        ({"bad.json": {"means": [[1.0, 2.0]], "cov": COV_2, "X": [[0.0, 1.0], [2.0, 3.0]]}},
         ANALYZE, "'X'"),
        ({"bad.json": {"means": [[1.0, 2.0]] * 2, "cov": COV_2 + [[[1.0, 0.5], [0.0, 1.0]]]}},
         ANALYZE, "'cov' of instance 1 in bad.json is not symmetric"),
        ({"bad.json": {"means": [[1.0, 2.0]], "cov": [[[1.0, 0.0], [0.0, -1e-3]]]}},
         ANALYZE, "'cov' of instance 0 in bad.json has a negative variance"),
        ({"bad.json": {"means": [[1.0, 2.0]] * 2, "cov": COV_2 + [[[1.0, 2.0], [2.0, 1.0]]]}},
         ANALYZE + ["--instance", "1"],
         "'cov' of instance 1 in bad.json is not positive semi-definite"),
        ({"bad.csv": '{"X": [[0.0], [1.0]], "means": [[0.0], [1.0]], '
                     '"cov": [[[1.0]], [[-1.0]]]}'},
         PREDICT, "'cov' of instance 1 in bad.csv has a negative variance"),
        ({"bad.csv": "x_1,phi_1\n0.0,0.0\n1.0\n"}, PREDICT, "row 3"),
        ({"bad.csv": "x_a,phi_1\n0.0,0.0\n1.0,1.0\n"}, PREDICT, "'x_a'"),
        ({"bad.csv": "x_1,phi_1,note\n0.0,0.0,first\n1.0,1.0,second\n"}, PREDICT, "'note'"),
        ({"bad.csv": '{"X": [0.0, 1.0], "means": [[0.0], [1.0]]}'}, PREDICT, "'X'"),
        ({"bad.csv": THREE_ROWS}, PREDICT + ["--anchors", "0"], "anchor count"),
        ({"bad.csv": THREE_ROWS}, PREDICT + ["--anchors", "-3"], "anchor count"),
        ({"bad.csv": THREE_ROWS}, PREDICT + ["--noise", "inf"],
         "noise must be positive and finite, got inf"),
        ({"bad.csv": THREE_ROWS}, PREDICT + ["--noise", "nan"],
         "noise must be positive and finite, got nan"),
        ({}, ["fit", "--data", "train.csv", "--target", "target", "--noise-fractions", "-1"],
         "noise_fractions must be positive and finite, got -1.0"),
        ({}, ["fit", "--data", "train.csv", "--target", "target", "--noise-fractions", "nan"],
         "noise_fractions must be positive and finite, got nan"),
        ({}, ["fit", "--data", "train.csv", "--target", "target", "--ls-multipliers", "1,0"],
         "ls_multipliers must be positive and finite, got 0.0"),
        ({}, ["fit", "--data", "train.csv", "--target", "target", "--ls-multipliers", "a"],
         "--ls-multipliers a: "),
        ({}, ["fit", "--data", "train.csv", "--target", "target",
              "--noise-fractions", "1e-2,x"], "--noise-fractions 1e-2,x: "),
        ({}, ["fit", "--data", "train.csv", "--target", "target", "--inducing", "-3"],
         "--inducing -3: count must be in [1, 40], got -3"),
    ], ids=["fit-inducing-0", "fit-one-row", "fit-no-features", "fit-target-variance-overflows",
            "lam-negative", "lam-0", "lam-nan",
            "ell0-nan", "ell0-sigma0-negative", "ell0-below-minus-ell", "sigma0-inf",
            "coalitions-above-2^d", "output-dir-missing", "sparsity-1.5", "prefix-dir-missing",
            "posterior-list", "analyze-cov-1x1", "analyze-means-1d", "analyze-list",
            "analyze-names-short", "analyze-X-rows", "analyze-cov-asymmetric",
            "analyze-cov-negative-variance", "analyze-cov-not-psd", "predict-cov-negative",
            "wide-short-row", "wide-x_a",
            "wide-text-column", "predict-X-1d", "anchors-0", "anchors-negative",
            "noise-inf", "noise-nan", "noise-fractions-negative", "noise-fractions-nan",
            "ls-multipliers-0", "fit-ls-multipliers-text", "fit-noise-fractions-text",
            "fit-inducing-negative"])
    def test_bad_input_exits_2(self, explained, tmp_path, files, args, where):
        for name in ("train.csv", "instances.csv", "posterior.json", "expl.json"):
            shutil.copy(explained / name, tmp_path)
        (tmp_path / "new.csv").write_text("x_1\n0.5\n")
        for name, content in files.items():
            text = content if isinstance(content, str) else json.dumps(content)
            (tmp_path / name).write_text(text)
        res = run_cli(args, tmp_path)
        assert_one_line_input_error(res)
        assert where in res.stderr

    def test_posterior_covariance_not_psd_exits_2(self, explained, tmp_path):
        # symmetric with a unit diagonal, but its eigenvalues include -1
        doc = json.loads((explained / "posterior.json").read_text())
        m = len(doc["cov_at_inducing"])
        doc["cov_at_inducing"] = (2.0 * np.ones((m, m)) - np.eye(m)).tolist()
        (tmp_path / "bad.json").write_text(json.dumps(doc))
        res = run_cli(["explain", "--posterior", "bad.json",
                       "--instances", str(explained / "instances.csv")], tmp_path)
        assert_one_line_input_error(res)
        assert "bad.json" in res.stderr and "positive semi-definite" in res.stderr

    def test_posterior_kernel_not_an_object_exits_2(self, explained, tmp_path):
        doc = json.loads((explained / "posterior.json").read_text())
        doc["kernel"] = [1.0]
        (tmp_path / "bad.json").write_text(json.dumps(doc))
        res = run_cli(["explain", "--posterior", "bad.json",
                       "--instances", str(explained / "instances.csv")], tmp_path)
        assert_one_line_input_error(res)
        assert "bad.json" in res.stderr


class TestErrorMap:
    def test_input_errors_are_value_errors_and_numerics_errors_are_not(self):
        for exc in (errors.CountOutOfRange, errors.TooFewPoints, errors.DimensionTooLarge,
                    errors.DimensionMismatch, errors.DesignMismatch):
            assert issubclass(exc, errors.SsvkitError) and issubclass(exc, ValueError)
        for exc in (errors.JitterExceeded, errors.SingularSystem, errors.BoundaryCoalition):
            assert not issubclass(exc, ValueError)

    @pytest.mark.parametrize("exc,code", [
        (errors.JitterExceeded("no factor"), 3),
        (errors.DesignMismatch("no match"), 2),
        (PermissionError("no access"), 2),
    ])
    def test_one_line_and_code_per_error_kind(self, explained, monkeypatch, exc, code):
        from click.testing import CliRunner

        from ssvkit import cli, explain

        def fail(*args, **kwargs):
            raise exc

        monkeypatch.setattr(explain, "gpshap", fail)
        res = CliRunner().invoke(cli.main, [
            "explain", "--posterior", str(explained / "posterior.json"),
            "--instances", str(explained / "instances.csv")])
        assert res.exit_code == code
        assert res.stderr == f"error: {exc}\n"


class TestRoundTrip:
    def test_fit_then_explain_matches_the_library(self, workdir):
        from ssvkit import coalition, explain, gp

        fitted(workdir)
        res = run_cli(["explain", "--posterior", "posterior.json",
                       "--instances", "instances.csv", "-o", "expl.json"], workdir)
        assert res.returncode == 0, res.stderr
        post = gp.GPPosterior.from_json((workdir / "posterior.json").read_text())
        doc = json.loads((workdir / "expl.json").read_text())
        batch = explain.gpshap(post, coalition.enumerate_coalitions(3), np.asarray(doc["X"]),
                               feature_names=["a", "b", "c"])
        np.testing.assert_array_equal(doc["means"], batch.means)
        np.testing.assert_array_equal(
            doc["cov"], [batch.covariance(k) for k in range(batch.n_instances)])


class TestImportFootprint:
    def test_cli_import_leaves_scipy_stats_unloaded(self, tmp_path):
        # scipy.stats alone costs about a second of every command's start-up
        res = run_python(
            ["-c", "import sys, ssvkit.cli; print('scipy.stats' in sys.modules)"], tmp_path)
        assert res.returncode == 0, res.stderr
        assert res.stdout.strip() == "False"

    def test_cli_import_leaves_scipy_special_unloaded(self, tmp_path):
        # scipy.special costs about 0.06 s; only ndtr and ndtri need it
        res = run_python(
            ["-c", "import sys, ssvkit.cli; print('scipy.special' in sys.modules)"], tmp_path)
        assert res.returncode == 0, res.stderr
        assert res.stdout.strip() == "False"


class TestExtremeMagnitudes:
    """Inputs whose scaled squared distances overflow the gram's expansion,
    or whose variance is denormal: each command answers with exit 0 and
    prints nothing on stderr (no numpy floating-point warning)."""

    TRAIN = "a,b,t\n" + "".join(f"{a!r},{b!r},{t!r}\n" for a, b, t in zip(
        *(np.array([np.linspace(-2, 2, 8), np.cos(np.arange(8.0)),
                    np.sin(np.linspace(-2, 2, 8))]).tolist())))

    @staticmethod
    def run_clean(args, cwd):
        res = run_cli(args, cwd)
        if res.returncode:
            assert_one_line_input_error(res)
        assert (res.returncode, res.stderr) == (0, ""), res.stderr
        return res

    @pytest.mark.parametrize("train", [
        # column a's median gap is 1.68e-199, so a is 1e199 lengthscales wide
        "a,b,t\n0.0,0.5,1.0\n0.0,0.1,0.0\n1.68e-199,0.7,0.3\n1.0,0.2,0.5\n0.0,0.9,0.1\n",
        TRAIN + "1e200,0.5,0.2\n",
    ], ids=["tiny-lengthscale", "far-row"])
    def test_fit(self, tmp_path, train):
        (tmp_path / "train.csv").write_text(train)
        res = self.run_clean(["fit", "--data", "train.csv", "--target", "t"], tmp_path)
        doc = json.loads((tmp_path / "posterior.json").read_text())
        # the summary line shows each lengthscale to 6 significant digits,
        # however small (8.4e-200 in tiny-lengthscale)
        printed = re.search(r"lengthscales=\[(.*?)\]", res.stdout).group(1).split(", ")
        assert printed == [f"{v:.6g}" for v in doc["kernel"]["lengthscales"]]
        assert [float(v) for v in printed] == pytest.approx(doc["kernel"]["lengthscales"],
                                                            rel=5e-6, abs=0.0)

    def test_explain_far_instances_alike(self, tmp_path):
        # k_S(x) == 0 for every coalition holding feature a, so every instance
        # this far out along a gets the same attributions
        (tmp_path / "train.csv").write_text(self.TRAIN)
        self.run_clean(["fit", "--data", "train.csv", "--target", "t"], tmp_path)
        docs = []
        for a in ("3.3e154", "1.7e308", "-1.7e308"):
            (tmp_path / "far.csv").write_text(f"a,b\n{a},0.5\n")
            self.run_clean(["explain", "--posterior", "posterior.json",
                            "--instances", "far.csv"], tmp_path)
            doc = json.loads((tmp_path / "explanations.json").read_text())
            docs.append((doc["means"], doc["cov"]))
        assert docs[0] == docs[1] == docs[2]

    def test_analyze_denormal_variance(self, tmp_path):
        (tmp_path / "expl.json").write_text(json.dumps(
            {"means": [[0.0, 1.0]], "cov": [[[4.3e-316, 0.0], [0.0, 4.3e-316]]],
             "X": [[0.5, 1e300]]}))
        self.run_clean(["analyze", "--explanations", "expl.json"], tmp_path)
        lines = (tmp_path / "analysis_global.csv").read_text().splitlines()
        assert lines[1] == f"x_1,{float(np.sqrt(4.3e-316) * np.sqrt(2 / np.pi))!r},0.0"


class TestPredictExplain:
    def test_roundtrip_from_explain_json(self, workdir):
        fitted(workdir)
        run_cli(
            ["explain", "--posterior", "posterior.json",
             "--instances", "instances.csv", "-o", "expl.json"],
            workdir,
        )
        res = run_cli(
            ["predict-explain", "--explanations", "expl.json",
             "--instances", "instances.csv", "--noise", "1e-6",
             "-o", "pred.json"],
            workdir,
        )
        assert res.returncode == 0, res.stderr
        pred = json.loads((workdir / "pred.json").read_text())
        src = json.loads((workdir / "expl.json").read_text())
        # predicting at the very same inputs roughly reproduces them (the
        # explanation kernel is low rank here: five anchors for fifteen
        # targets, so only coarse agreement is guaranteed)
        assert np.asarray(pred["means"]).shape == np.asarray(src["means"]).shape
        np.testing.assert_allclose(
            np.asarray(pred["means"]), np.asarray(src["means"]), atol=0.5
        )

    def test_wide_csv_input(self, workdir):
        lines = ["x_1,x_2,phi_1,phi_2"]
        rng = np.random.default_rng(0)
        for _ in range(6):
            x0, x1 = float(rng.normal()), float(rng.normal())
            lines.append(f"{x0!r},{x1!r},{x0 / 2!r},{x1 / 2!r}")
        (workdir / "wide.csv").write_text("\n".join(lines) + "\n")
        (workdir / "new.csv").write_text("x_1,x_2\n0.1,0.2\n")
        res = run_cli(
            ["predict-explain", "--explanations", "wide.csv",
             "--instances", "new.csv", "-o", "pred.json"],
            workdir,
        )
        assert res.returncode == 0, res.stderr
        pred = json.loads((workdir / "pred.json").read_text())
        assert np.asarray(pred["means"]).shape == (1, 2)
        assert np.asarray(pred["cov"]).shape == (1, 2, 2)

    def test_mismatched_columns_exit_2(self, workdir):
        (workdir / "wide.csv").write_text("x_1,phi_1,phi_2\n0.0,0.0,0.0\n")
        (workdir / "new.csv").write_text("x_1\n0.0\n")
        res = run_cli(
            ["predict-explain", "--explanations", "wide.csv",
             "--instances", "new.csv"],
            workdir,
        )
        assert res.returncode == 2


class TestWideCsvIndices:
    """Each of the x_<k> and phi_<k> kinds must be numbered exactly 1..d."""

    @pytest.mark.parametrize("header,column,what", [
        ("x_1,x_1,phi_1,phi_2", "'x_1'", "repeats x_1"),
        ("x_1,x_3,phi_1,phi_2", "'x_3'", "skips x_2"),
        ("x_2,x_1,phi_1,phi_1", "'phi_1'", "repeats phi_1"),
        ("x_1,x_2,phi_2,phi_3", "'phi_2'", "skips phi_1"),
        ("x_0,x_1,phi_1,phi_2", "'x_0'", "is numbered 0"),
    ], ids=["x-repeated", "x-skipped", "phi-repeated", "phi-skipped", "x-zero"])
    @pytest.mark.parametrize("command", ["predict-explain", "analyze"])
    def test_bad_index_exits_2_naming_the_column(self, workdir, header, column, what,
                                                 command):
        (workdir / "wide.csv").write_text(f"{header}\n0,1,0,0\n1,2,0.5,0.5\n2,0,1,1\n")
        (workdir / "new.csv").write_text("x_1,x_2\n0.5,0.5\n")
        args = (["predict-explain", "--explanations", "wide.csv", "--instances", "new.csv"]
                if command == "predict-explain" else ["analyze", "--explanations", "wide.csv"])
        res = run_cli(args, workdir)
        assert_one_line_input_error(res)
        assert f"column {column} in wide.csv {what}" in res.stderr


class TestJsonFormat:
    """Every JSON file a seeded session writes is exactly what the stdlib's
    indent encoder writes for the same values (floats round-trip by repr)."""

    def test_every_document_matches_the_stdlib_encoder(self, workdir):
        session = [
            ["fit", "--data", "train.csv", "--target", "target", "--inducing", "20",
             "--seed", "3", "-o", "posterior.json"],
            ["explain", "--posterior", "posterior.json", "--instances", "instances.csv",
             "--algo", "bayesgpshap", "--seed", "3", "-o", "expl.json"],
            ["explain", "--posterior", "posterior.json", "--instances", "instances.csv",
             "--credible", "0.9", "--seed", "3", "-o", "credible.json"],
            ["analyze", "--explanations", "expl.json", "--prefix", "out"],
            ["predict-explain", "--explanations", "credible.json", "--instances",
             "instances.csv", "--credible", "0.8", "--seed", "3", "-o", "predicted.json"],
        ]
        for args in session:
            res = run_cli(args, workdir)
            assert res.returncode == 0, res.stderr
        written = sorted(path.name for path in workdir.glob("*.json"))
        assert written == ["credible.json", "expl.json", "out_correlation.json",
                           "posterior.json", "predicted.json"]
        for name in written:
            text = (workdir / name).read_text()
            assert text == json.dumps(json.loads(text), indent=2, sort_keys=True) + "\n", name


class TestAnalyze:
    def test_writes_all_tables(self, workdir):
        fitted(workdir)
        run_cli(
            ["explain", "--posterior", "posterior.json",
             "--instances", "instances.csv", "-o", "expl.json"],
            workdir,
        )
        res = run_cli(
            ["analyze", "--explanations", "expl.json", "--prefix", "out"],
            workdir,
        )
        assert res.returncode == 0, res.stderr
        glob_lines = (workdir / "out_global.csv").read_text().strip().splitlines()
        assert glob_lines[0] == "feature,mean_abs_ssv,abs_mean_ssv"
        assert len(glob_lines) == 4
        # Jensen inequality holds for every reported feature
        for line in glob_lines[1:]:
            _, mean_abs, abs_mean = line.split(",")
            assert float(mean_abs) >= float(abs_mean) - 1e-12
        corr = json.loads((workdir / "out_correlation.json").read_text())
        C = np.asarray(corr["correlation"])
        np.testing.assert_allclose(np.diag(C), np.ones(3), atol=1e-12)
        graph = (workdir / "out_graph.csv").read_text().strip().splitlines()
        assert graph[0] == "feature_i,feature_j,partial_correlation"
        swarm = (workdir / "out_beeswarm.csv").read_text().strip().splitlines()
        assert len(swarm) == 1 + 5 * 3

    def test_missing_cov_exits_2(self, workdir):
        (workdir / "nocov.json").write_text(json.dumps({"means": [[1.0, 2.0]]}))
        res = run_cli(["analyze", "--explanations", "nocov.json"], workdir)
        assert res.returncode == 2


class TestExplainCsvAsInput:
    @pytest.mark.parametrize("args", [
        ["analyze", "--explanations", "expl.csv"],
        ["predict-explain", "--explanations", "expl.csv", "--instances", "instances.csv"],
    ], ids=["analyze", "predict-explain"])
    def test_long_table_is_named_before_its_cells_are_read(self, explained, tmp_path, args):
        for name in ("posterior.json", "instances.csv"):
            shutil.copy(explained / name, tmp_path)
        res = run_cli(["explain", "--posterior", "posterior.json", "--instances",
                       "instances.csv", "--format", "csv", "-o", "expl.csv"], tmp_path)
        assert res.returncode == 0, res.stderr
        res = run_cli(args, tmp_path)
        assert_one_line_input_error(res)
        assert "x_1..x_d and phi_1..phi_d" in res.stderr
        assert "--format csv" in res.stderr and "JSON" in res.stderr
        assert "non-numeric" not in res.stderr


class TestCsvNames:
    """A feature name holding a comma or a quote is written as csv.writer
    writes it, so every CSV output reads back at its header's width."""

    NAMES = ["a,b", 'c"d', "e"]

    @staticmethod
    def read(path):
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert {len(row) for row in rows} == {len(rows[0])}
        return rows

    @pytest.fixture
    def named(self, explained, tmp_path):
        shutil.copy(explained / "posterior.json", tmp_path)
        lines = (explained / "instances.csv").read_text().splitlines()
        lines[0] = '"a,b","c""d",e'
        (tmp_path / "named.csv").write_text("\n".join(lines) + "\n")
        return tmp_path

    def test_explain_csv(self, named):
        res = run_cli(["explain", "--posterior", "posterior.json", "--instances", "named.csv",
                       "--format", "csv", "-o", "expl.csv"], named)
        assert res.returncode == 0, res.stderr
        rows = self.read(named / "expl.csv")
        assert [row[1] for row in rows[1:4]] == self.NAMES

    def test_analyze_tables(self, named):
        res = run_cli(["explain", "--posterior", "posterior.json", "--instances", "named.csv",
                       "-o", "expl.json"], named)
        assert res.returncode == 0, res.stderr
        res = run_cli(["analyze", "--explanations", "expl.json", "--sparsity", "0",
                       "--prefix", "out"], named)
        assert res.returncode == 0, res.stderr
        assert [row[0] for row in self.read(named / "out_global.csv")[1:]] == self.NAMES
        assert [row[1] for row in self.read(named / "out_beeswarm.csv")[1:4]] == self.NAMES
        graph = self.read(named / "out_graph.csv")[1:]
        assert graph and {name for row in graph for name in row[:2]} <= set(self.NAMES)


class TestStdoutOutput:
    @pytest.mark.parametrize("args", [
        ["fit", "--data", "train.csv", "--target", "target", "--inducing", "25"],
        ["explain", "--posterior", "posterior.json", "--instances", "instances.csv",
         "--credible", "0.9"],
        ["explain", "--posterior", "posterior.json", "--instances", "instances.csv",
         "--algo", "bayesshap", "--format", "csv"],
        ["predict-explain", "--explanations", "expl.json", "--instances", "instances.csv",
         "--credible", "0.9"],
    ], ids=lambda args: "-".join(args[:1] + args[-2:]))
    def test_dash_writes_only_the_document_to_stdout(self, explained, tmp_path, args):
        to_file = run_cli([*args, "-o", str(tmp_path / "doc")], explained)
        to_stdout = run_cli([*args, "-o", "-"], explained)
        assert to_file.returncode == to_stdout.returncode == 0, to_stdout.stderr
        assert to_stdout.stdout.encode() == (tmp_path / "doc").read_bytes()
        # the summary line moves to stderr
        assert to_file.stderr == "" and to_stdout.stderr == to_file.stdout


class TestSelftest:
    def test_passes_and_prints_per_check_lines(self, workdir):
        res = run_cli(["selftest"], workdir)
        assert res.returncode == 0, res.stdout + res.stderr
        lines = [l for l in res.stdout.splitlines() if l.startswith("[")]
        assert len(lines) == 4
        assert all(l.startswith("[PASS]") for l in lines)

    def test_negative_control_fails(self, monkeypatch):
        from click.testing import CliRunner

        from ssvkit import cli, coalition

        enumerate_coalitions = coalition.enumerate_coalitions

        def corrupted(d):           # every full design with A[0, 0] off by 0.5
            design = enumerate_coalitions(d)
            A = design.A.copy()
            A[0, 0] += 0.5
            return dataclasses.replace(design, A=A)

        monkeypatch.setattr(coalition, "enumerate_coalitions", corrupted)
        res = CliRunner().invoke(cli.main, ["selftest"])
        assert res.exit_code == 1
        assert "[FAIL] projection-vs-brute-force-oracle" in res.stdout


class TestBenchmarkChecks:
    """The benchmark's output checks, loaded by path from perfbench/checks.py,
    pass on a small session: a name they use that the package lost would
    otherwise first show up as a failed benchmark run."""

    @staticmethod
    def load_checks():
        path = Path(__file__).resolve().parent.parent / "perfbench" / "checks.py"
        spec = importlib.util.spec_from_file_location("perfbench_checks", path)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        return module

    def test_fit_and_full_explain_pass(self, workdir):
        fitted(workdir)
        shutil.copy(workdir / "instances.csv", workdir / "explain.csv")
        res = run_cli(["explain", "--posterior", "posterior.json", "--instances", "explain.csv",
                       "--algo", "bayesgpshap", "--coalitions", "full",
                       "-o", "explanations.json"], workdir)
        assert res.returncode == 0, res.stderr
        checks = self.load_checks()
        w = SimpleNamespace(d=3, inducing=25, coalitions="full")
        assert checks.check_fit(workdir, w) == []
        assert checks.check_explain(workdir, w) == []
