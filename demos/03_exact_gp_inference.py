"""
Exact GP regression with a warped kernel
========================================

Fit a toy 1-D function, look at the log marginal likelihood, and confirm
the analytic gradient against central finite differences.
"""

import numpy as np

from pcegp.data import fit_scaler
from pcegp.gp import (
    fit_precompute,
    free_parameters,
    mll,
    mll_gradient,
    predict,
    predict_batch,
    with_free_parameters,
)
from pcegp.hyper import LengthscaleField, NoiseField
from pcegp.kernels import KernelForm, KernelStack
from pcegp.poly import Basis

rng = np.random.default_rng(12)
x = np.sort(rng.uniform(0.0, 3.0, 25))[:, None]
y = np.sin(2.0 * x[:, 0]) + 0.1 * x[:, 0] ** 2 + 0.05 * rng.normal(size=25)

stack = KernelStack(
    ((KernelForm.se(), 1.0, LengthscaleField(Basis.legendre01(), [2.0, 0.5], 1)),)
)
noise = NoiseField.fixed(0.05**2)

model = fit_precompute(
    stack,
    noise,
    fit_scaler("min_max_per_column", x),
    fit_scaler("z_normalize", y),
    x,
    y,
)

grid = np.linspace(0.0, 3.0, 7)[:, None]
means, variances = predict_batch(model, grid)
print("posterior over a grid (mean +/- 2 sd):")
for g, m, v in zip(grid[:, 0], means, variances):
    print(f"  x={g:.2f}: {m: .3f} +/- {2.0 * np.sqrt(v):.3f}")

one = predict(model, [1.5])
print(f"\nsingle-point form at x=1.5: mean={one.mean:.4f} variance={one.variance:.6f}")

# --- the likelihood surface the optimizer walks -------------------------------
x_s = (x - model.input_scaler.loc) / model.input_scaler.scale
y_s = (y - model.output_scaler.loc[0]) / model.output_scaler.scale[0]
value = mll(stack, noise, x_s, y_s)
print(f"\nlog marginal likelihood at these hyperparameters: {value:.4f}")

grad = mll_gradient(stack, noise, x_s, y_s)
theta = free_parameters(stack, noise)
fd = np.empty_like(theta)
for m in range(theta.size):
    h = 1e-5 * max(1.0, abs(theta[m]))
    up, dn = theta.copy(), theta.copy()
    up[m] += h
    dn[m] -= h
    fd[m] = (
        mll(*with_free_parameters(stack, noise, up), x_s, y_s)
        - mll(*with_free_parameters(stack, noise, dn), x_s, y_s)
    ) / (2.0 * h)
rel = np.abs(grad - fd) / np.maximum(np.abs(fd), 1e-6)
print(f"analytic vs finite-difference gradient, worst relative error: {rel.max():.2e}")
print("parameter order: lengthscale coefficients, then output scale")
print("analytic:", np.array2string(grad, precision=5))
