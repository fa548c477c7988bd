import os
import subprocess
import sys

import numpy as np
import pytest

from ssvkit import gp, kernels, numerics

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def run_python(argv, cwd):
    """Run ``python argv`` in ``cwd`` with this checkout's package importable."""
    # the child runs in cwd, so the package path must be absolute
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *argv],
        cwd=cwd, env=env, capture_output=True, text=True,
    )


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


@pytest.fixture
def count_cholesky(monkeypatch):
    """Records the shape of every matrix passed to ``numerics.cholesky_psd``,
    and of ``numerics.cholesky_in_place``'s once for each call of the function
    it returns."""
    calls = []
    original, in_place = numerics.cholesky_psd, numerics.cholesky_in_place

    def counted(*args, **kwargs):
        calls.append(args[0].shape)
        return original(*args, **kwargs)

    def counted_in_place(m):
        factor, shape = in_place(m), m.shape

        def counted_factor(shift):
            made = factor(shift)
            calls.append(shape)
            return made

        return counted_factor

    monkeypatch.setattr(numerics, "cholesky_psd", counted)
    monkeypatch.setattr(numerics, "cholesky_in_place", counted_in_place)
    return calls


def make_regression(rng, n=50, d=4, noise=0.1):
    """Smooth synthetic regression data."""
    X = rng.normal(size=(n, d))
    y = np.sin(X[:, 0]) + 0.5 * X[:, 1] - 0.25 * X[:, 2] ** 2 + noise * rng.normal(size=n)
    return gp.Dataset(X=X, y=y)


def fit_synthetic_posterior(rng, n=50, d=4, n_inducing=30, noise=0.1):
    data = make_regression(rng, n=n, d=d)
    params = kernels.KernelParams(
        variance=1.0, lengthscales=kernels.median_heuristic(data.X)
    )
    idx = gp.select_inducing(data, n_inducing, "farthest_point", seed=0)
    return gp.fit_exact(data, params, noise, idx), data


def random_psd(rng, n, scale=1.0):
    M = rng.normal(size=(n, n))
    return scale * (M @ M.T) / n
