"""Walkthrough: fit a GP to synthetic data and explain its predictions.

Generates a nonlinear regression problem with one deliberately constant
feature, fits an exact GP at a farthest-point inducing set, and computes
stochastic Shapley-value explanations three ways:

* GP-SHAP        - the exact Gaussian law under the GP posterior,
* BayesGP-SHAP   - adds coalition-sampling estimation uncertainty,
* BayesSHAP      - estimation uncertainty only (GP term dropped).

Watch the constant feature: its attribution collapses to a near-Dirac
zero, the uncertainty-aware analogue of a null player getting nothing.

Run:  python3 demos/explain_synthetic.py
"""

import numpy as np

import ssvkit

rng = np.random.default_rng(0)

# --- data: y depends on x1, x2, x3; x4 is constant (a null player) -------
n, d = 80, 4
X = rng.normal(size=(n, d))
X[:, 3] = 1.0
y = np.sin(2 * X[:, 0]) + 0.8 * X[:, 1] - 0.4 * X[:, 2] ** 2
y += 0.05 * rng.normal(size=n)
names = ["x1", "x2", "x3", "const"]

data = ssvkit.Dataset(X=X, y=y)

# --- fit: grid-searched hyperparameters, farthest-point inducing set -----
params, noise = ssvkit.select_hyperparameters(data)
idx = ssvkit.select_inducing(data, 40, "farthest_point")
posterior = ssvkit.fit_exact(data, params, noise, idx)
print(f"fitted GP: lengthscales={np.round(params.lengthscales, 2)} "
      f"noise={noise:.4f} inducing={posterior.n_inducing}")

# --- explain the first five instances ------------------------------------
design = ssvkit.enumerate_coalitions(d)
gp_batch = ssvkit.gpshap(posterior, design, X[:5], feature_names=names)
bayes_batch = ssvkit.bayesgpshap(posterior, design, X[:5], feature_names=names)

print("\nGP-SHAP means (rows = instances):")
print(np.round(gp_batch.means, 3))

print("\nper-feature standard deviations, GP term vs GP+Bayes term:")
print(np.round(gp_batch.stds(), 3))
print(np.round(bayes_batch.stds(), 3))

lo, hi = ssvkit.credible_intervals(bayes_batch.means, bayes_batch.stds(), 0.95)
print("\n95% credible intervals for instance 0:")
for i, name in enumerate(names):
    print(f"  {name:>6}: [{lo[0, i]: .3f}, {hi[0, i]: .3f}]  "
          f"mean {bayes_batch.means[0, i]: .3f}")

print("\nefficiency check: sum of attributions vs payoff difference")
game = ssvkit.cme.game_moments(
    posterior, ssvkit.cme.embedding_batch(posterior, design, X[:1])
)[0]
print(f"  sum(phi) = {gp_batch.means[0].sum():.6f}   "
      f"nu(full) - nu(empty) = {game.payoff_mean[-1] - game.payoff_mean[0]:.6f}")

print("\nnote the 'const' column: mean and sd are both ~0 (null player).")
