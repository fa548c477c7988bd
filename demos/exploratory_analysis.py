"""Walkthrough: global summaries of a batch of stochastic explanations.

Because every attribution comes with a full covariance, summaries can be
uncertainty-aware: global importance averages folded-Gaussian means
rather than absolute point estimates, feature dependence shows up in the
attribution correlation matrix, and a partial-correlation graph exposes
which features trade attribution mass conditionally on the rest.

Run:  python3 demos/exploratory_analysis.py
"""

import numpy as np

import ssvkit
from ssvkit import analysis

rng = np.random.default_rng(2)

# --- model with an interaction so attributions correlate -----------------
n, d = 90, 4
X = rng.normal(size=(n, d))
y = X[:, 0] * X[:, 1] + 0.7 * X[:, 2] + 0.05 * rng.normal(size=n)
names = ["a", "b", "c", "noise"]
data = ssvkit.Dataset(X=X, y=y)

params = ssvkit.KernelParams(
    variance=1.0, lengthscales=ssvkit.median_heuristic(X)
)
posterior = ssvkit.fit_exact(data, params, noise=0.05,
                             inducing=ssvkit.select_inducing(data, 40, "farthest_point"))
design = ssvkit.enumerate_coalitions(d)
batch = ssvkit.gpshap(posterior, design, X[:25], feature_names=names)

# --- global importance: folded-Gaussian vs absolute means ----------------
gi = analysis.global_importance(batch)
print("global importance (uncertainty-aware vs point-estimate):")
for i, name in enumerate(names):
    print(f"  {name:>6}: E|phi| = {gi.mean_abs_ssv[i]:.3f}   "
          f"|E phi| = {gi.abs_mean_ssv[i]:.3f}")
print("(the gap between the two columns is the price of uncertainty)")

# --- attribution correlations for one instance ---------------------------
corr = analysis.correlation_matrix(batch.covariance(0))
print("\nattribution correlation matrix, instance 0:")
print(np.round(corr, 2))

# --- conditional-dependence graph ----------------------------------------
edges = analysis.precision_graph(batch.covariance(0), sparsity=0.5)
print("\npartial-correlation edges (sparsity 0.5):")
for i, j, rho in edges:
    print(f"  {names[i]} -- {names[j]}: {rho:+.3f}")

# --- beeswarm table -------------------------------------------------------
rows = analysis.beeswarm_export(batch.means, batch.stds(), X[:25])
print("\nbeeswarm rows, instance-major (first 4 of", len(rows), "):")
for k, i, mean, sd, value, quantile in rows[:4]:
    print(f"  instance {k} {names[i]:>6}: mean={mean:+.3f} sd={sd:.3f} "
          f"value={value:+.3f} value_quantile={quantile:.2f}")
