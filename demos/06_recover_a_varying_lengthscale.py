"""
Recovering an input-dependent lengthscale
=========================================

Data drawn from a GP whose lengthscale shrinks with x: near the origin the
function moves slowly, far out it oscillates quickly. Training samples the
slow region sparsely. A single stationary lengthscale must choose between
bridging the sparse region (too smooth for the fast one) or tracking the
fast region (hallucinating wiggles in the gaps), so held-out points in the
slow gaps expose it. The searched polynomial lengthscale covers both.
"""

import numpy as np

from pcegp.bench import _ard_predict, _fit_ard_baseline, rmse
from pcegp.data import Dataset, apply_scaler, fit_scaler
from pcegp.gp import fit_precompute, predict_batch
from pcegp.kernels import KernelForm, kernel_nonstationary
from pcegp.optim import SearchSpace, run_search
from pcegp.poly import Basis

# --- ground truth: l(x) = 1 + x, i.e. warp w(x) = x + x^2 --------------------
rng = np.random.default_rng(0)
x_train = np.concatenate([[0.0, 0.35, 0.7], np.sort(rng.uniform(5.4, 6.0, 65))])
x_test = np.concatenate([[0.175, 0.525], np.sort(rng.uniform(5.4, 6.0, 10))])
x = np.concatenate([x_train, x_test])
w = x + x * x
d = w[:, None] - w[None, :]
k = np.exp(-0.5 * d * d) + 1e-10 * np.eye(x.size)
f = np.linalg.cholesky(k) @ rng.normal(size=x.size)
y = f + 0.01 * rng.normal(size=x.size)

n_train = x_train.size
train = Dataset(x[:n_train, None], y[:n_train], ["x"], "y")
x_query, y_query = x[n_train:, None], y[n_train:]
print(f"{n_train} training points (3 in the slow region), "
      f"{x_query.size} held out (2 in the slow gaps)")

# --- search a polynomial lengthscale over the scaled inputs -------------------
space = SearchSpace(
    kernel_forms=(KernelForm.se(),),
    bases=(Basis.legendre01(),),
    q_range=(0, 2),
    coeff_range=(-25.0, 25.0),  # min-max scaling inflates the raw warp slope
    scale_range=(1e-2, 10.0),
    noise_fixed=1e-4,
)
result = run_search(
    train, space, n_trials=50, n_initial=15, n_iterations=100, n_folds=5, seed=0
)
stack, noise = space.build_stack(result.best_theta, 1)
in_sc = fit_scaler("min_max_per_column", train.inputs)
out_sc = fit_scaler("z_normalize", train.outputs)
model = fit_precompute(stack, noise, in_sc, out_sc, train.inputs, train.outputs)
means, _ = predict_batch(model, x_query)

# --- stationary reference on the same scaled data -----------------------------
x_s = apply_scaler(in_sc, train.inputs)
y_s = (train.outputs - out_sc.loc[0]) / out_sc.scale[0]
log_params, alpha, _ = _fit_ard_baseline(x_s, y_s, 500)
mean_s = _ard_predict(log_params, x_s, alpha, apply_scaler(in_sc, x_query))
base_means = mean_s * out_sc.scale[0] + out_sc.loc[0]

print(f"\nheld-out RMSE, searched warp:   {rmse(means, y_query):.4f}")
print(f"held-out RMSE, stationary ARD:  {rmse(base_means, y_query):.4f}")
print(f"stationary lengthscale (scaled units): {np.exp(log_params[0]):.4f}")

print("\nslow-gap predictions vs truth:")
for xi, truth, ours, theirs in zip(x_query[:2, 0], y_query[:2], means[:2], base_means[:2]):
    print(f"  x={xi:.3f}: true={truth: .3f}  warp={ours: .3f}  stationary={theirs: .3f}")

# what the data identifies is the correlation CONTRAST between regions:
# points 0.3 apart stay correlated where the truth is slow and decorrelate
# where it is fast. A stationary kernel has one rho per separation, full
# stop -- here it went wiggly (tiny lengthscale), killing both
form, scale, field = stack.entries[0]
l_stat = float(np.exp(log_params[0]))
print("\ncorrelation between x and x + 0.3 (truth: l(x) = 1 + x):")
print("  region      learned   stationary   truth")
for tag, x0 in (("slow, x=0.2", 0.2), ("fast, x=5.6", 5.6)):
    a = apply_scaler(in_sc, [[x0]])[0]
    b = apply_scaler(in_sc, [[x0 + 0.3]])[0]
    rho = kernel_nonstationary(form, scale, field, a, b) / kernel_nonstationary(
        form, scale, field, a, a
    )
    rho_stat = np.exp(-0.5 * float(np.sum((a - b) ** 2)) / l_stat**2)
    w0, w1 = x0 + x0 * x0, (x0 + 0.3) + (x0 + 0.3) ** 2
    rho_true = np.exp(-0.5 * (w1 - w0) ** 2)
    print(f"  {tag}  {rho:8.4f}   {rho_stat:8.4f}   {rho_true:8.4f}")
