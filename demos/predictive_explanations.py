"""Walkthrough: predict explanations for unseen inputs.

Explanations are expensive: each one costs a pass over every coalition.
The explanation-prior model sidesteps that by treating the explanation
function itself as a vector-valued GP.  Fit it on a batch of previously
computed attributions and it predicts — with calibrated uncertainty — the
attribution vector of inputs it has never explained, without touching the
underlying model again.

Run:  python3 demos/predictive_explanations.py
"""

import numpy as np

import ssvkit
from ssvkit import shapley_prior

rng = np.random.default_rng(1)

# --- a GP model and exact explanations for all instances -----------------
n, d = 70, 3
X = rng.normal(size=(n, d))
y = np.tanh(X[:, 0]) + 0.6 * X[:, 1] * X[:, 2]
data = ssvkit.Dataset(X=X, y=y)

params = ssvkit.KernelParams(
    variance=1.0, lengthscales=ssvkit.median_heuristic(X)
)
posterior = ssvkit.fit_exact(data, params, noise=0.05,
                             inducing=ssvkit.select_inducing(data, 35, "farthest_point"))
design = ssvkit.enumerate_coalitions(d)
batch = ssvkit.gpshap(posterior, design, X)

# --- fit the explanation prior on the first 50 attributions --------------
# every training input doubles as an embedding anchor: the kernel's rank is
# capped by the anchor count, so skimping on anchors costs accuracy
train, test = np.arange(50), np.arange(50, n)
anchors = shapley_prior.farthest_point_anchors(X[train], 50)
model = shapley_prior.fit(
    ssvkit.ExplanationDataset(X=X[train], Phi=batch.means[train]),
    anchors, params, design, lam=None, noise=1e-4,
)

# --- predict the held-out 20 and compare ---------------------------------
preds, covs = shapley_prior.predict_batch(model, X[test])
sds = np.sqrt(np.maximum(np.diagonal(covs, axis1=1, axis2=2), 0.0))

rmse = np.sqrt(np.mean((preds - batch.means[test]) ** 2))
baseline = np.sqrt(np.mean((batch.means[train].mean(0) - batch.means[test]) ** 2))
print(f"held-out RMSE: {rmse:.4f}  (predict-the-mean baseline: {baseline:.4f})")

print("\nfirst held-out instance, predicted vs exact attribution:")
for i in range(d):
    print(f"  x{i + 1}: predicted {preds[0, i]: .3f} +- {sds[0, i]:.3f}   "
          f"exact {batch.means[test[0], i]: .3f}")

# --- the prediction is itself a projected payoff vector ------------------
v = shapley_prior.induced_payoff(model, X[test[0]])
print("\nprojection identity | A v - predicted mean |_inf =",
      f"{np.max(np.abs(design.A @ v - preds[0])):.2e}")
