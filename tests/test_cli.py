import json
import os
import subprocess
import sys

import numpy as np
import pytest

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def run_python(argv, cwd, env_extra=None):
    # the child runs in cwd, so the package path must be absolute
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    if env_extra:
        env.update(env_extra)
    return subprocess.run(
        [sys.executable, *argv],
        cwd=cwd, env=env, capture_output=True, text=True,
    )


def run_cli(args, cwd, env_extra=None):
    return run_python(["-m", "ssvkit.cli", *args], cwd, env_extra)


@pytest.fixture
def workdir(tmp_path):
    rng = np.random.default_rng(7)
    X = rng.normal(size=(40, 3))
    y = np.sin(X[:, 0]) + 0.5 * X[:, 1] + 0.1 * rng.normal(size=40)
    lines = ["a,b,c,target"]
    for row, t in zip(X, y):
        lines.append(",".join(repr(float(v)) for v in row) + f",{float(t)!r}")
    (tmp_path / "train.csv").write_text("\n".join(lines) + "\n")
    lines = ["a,b,c"]
    for row in X[:5]:
        lines.append(",".join(repr(float(v)) for v in row))
    (tmp_path / "instances.csv").write_text("\n".join(lines) + "\n")
    return tmp_path


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

    def test_feature_count_mismatch_exits_2(self, workdir):
        fitted(workdir)
        (workdir / "wrong.csv").write_text("a,b\n0.0,0.0\n")
        res = run_cli(
            ["explain", "--posterior", "posterior.json", "--instances", "wrong.csv"],
            workdir,
        )
        assert res.returncode == 2

    def test_byte_reproducible_across_thread_counts(self, workdir):
        fitted(workdir)
        outputs = []
        for threads, name in (("1", "r1.json"), ("4", "r2.json")):
            res = run_cli(
                ["explain", "--posterior", "posterior.json",
                 "--instances", "instances.csv", "--algo", "bayesgpshap",
                 "--seed", "3", "-o", name],
                workdir, env_extra={"SSVKIT_THREADS": threads},
            )
            assert res.returncode == 0, res.stderr
            outputs.append((workdir / name).read_bytes())
        assert outputs[0] == outputs[1]


def assert_one_line_input_error(res):
    assert res.returncode == 2, res.stderr
    assert "Traceback" not in res.stderr
    lines = res.stderr.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), res.stderr


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


class TestSelftest:
    def test_passes_and_prints_per_check_lines(self, workdir):
        res = run_cli(["selftest"], workdir)
        assert res.returncode == 0, res.stdout + res.stderr
        lines = [l for l in res.stdout.splitlines() if l.startswith("[")]
        assert len(lines) == 4
        assert all(l.startswith("[PASS]") for l in lines)

    def test_negative_control_fails(self, workdir):
        res = run_cli(["selftest", "--corrupt-projection"], workdir)
        assert res.returncode == 1
        assert "[FAIL] projection-vs-brute-force-oracle" in res.stdout


class TestThreads:
    def test_invalid_thread_count_exits_2(self, workdir):
        res = run_cli(["--threads", "0", "selftest"], workdir)
        assert res.returncode == 2
