"""Exact GP inference: marginal log likelihood, its gradient, prediction.

Everything runs off one Cholesky factorization of the noisy Gram: the
likelihood value, the target solve and, for the gradient, the explicit
inverse, which LAPACK forms from the factor (dpotri) rather than by
solving against the identity. The likelihood gradient is analytic: every
kernel entry is a function of the pairwise squared distances of warped
points, and the warp is linear in the expansion coefficients, so the
chain rule reduces to one pairwise derivative matrix per kernel, taken
from the kernel values themselves, plus a rank-structured contraction. The
public contract for the gradient is agreement with central finite
differences; the analytic path is an implementation choice for speed.

Prediction follows the scaled pipeline: scale the query, build the cross
covariances, solve against the stored factor, add the query-point noise
to the variance, then map mean and variance back to raw output units.
The training points' warps are fixed for a fitted model, so they are kept
from the Gram assembly at fit or load time and only the queries are warped
per call; being derived data, the warps are never serialized.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np
from scipy.linalg import cho_solve, solve_triangular
from scipy.linalg.lapack import dpotri

from .data import ScalerState, apply_scaler
from .hyper import (
    NoiseField,
    eval_noise_batch,
    lengthscale_coefficients,
    lengthscale_sensitivity,
    noise_sensitivity,
    with_lengthscale_coefficients,
)
from .kernels import (
    KernelStack,
    ladder_cholesky,
    noisy_gram,
    sqdist_derivative_from_values,
    warped_cross_matrix,
)

LOG_2PI = float(np.log(2.0 * np.pi))

# rows per block when sweeping an N x N matrix in place; bounds temporaries
# to _BLOCK x N
_BLOCK = 128


@dataclass(frozen=True)
class PcegpModel:
    """Fitted model state: kernel stack, fields, scalers, and solves.

    `warped` holds each stack entry's warped training points (N x n_x),
    kept from the Gram assembly at fit or load time so that prediction
    warps only the queries; it is derived data and is not serialized.
    """

    stack: KernelStack
    noise: NoiseField
    input_scaler: ScalerState
    output_scaler: ScalerState
    x_scaled: np.ndarray
    y_scaled: np.ndarray
    chol: np.ndarray
    alpha_solve: np.ndarray
    jitter_used: float
    warped: tuple
    meta: dict = field(default_factory=dict)

    @property
    def n_points(self) -> int:
        return self.x_scaled.shape[0]

    @property
    def n_inputs(self) -> int:
        return self.x_scaled.shape[1]


@dataclass(frozen=True)
class Prediction:
    """Posterior mean and predictive variance in raw output units."""

    mean: float
    variance: float


@dataclass(frozen=True)
class LikelihoodFit:
    """One factorization of the noisy Gram and what the likelihood takes from it."""

    value: float  # marginal log likelihood
    chol: np.ndarray  # lower factor of K plus `jitter_used` on the diagonal
    jitter_used: float
    alpha: np.ndarray  # K^-1 y
    a: np.ndarray | None = None  # alpha alpha^T - K^-1, when a gradient is wanted
    warped: tuple = ()  # each stack entry's warped training points, from the Gram


def _chol_inverse(chol: np.ndarray) -> np.ndarray:
    """K^-1 from the lower Cholesky factor of K, exactly symmetric.

    LAPACK dpotri fills one triangle; the other is mirrored in place, so
    no N x N temporary is made beyond the result itself.
    """
    # chol.T is the upper factor in Fortran order, so LAPACK reads it as is;
    # the upper triangle it fills is the lower triangle of the C-order view
    upper, info = dpotri(chol.T, lower=0)
    if info != 0:
        raise np.linalg.LinAlgError(f"dpotri failed with info {info}")
    inv = upper.T
    n = inv.shape[0]
    for s in range(0, n, _BLOCK):
        e = min(n, s + _BLOCK)
        inv[s:e, e:] = inv[e:, s:e].T
        block = inv[s:e, s:e]
        iu = np.triu_indices(e - s, 1)
        block[iu] = block.T[iu]
    return inv


def _likelihood_core(k: np.ndarray, y: np.ndarray, context: str, gradient=False):
    """Marginal likelihood of y under the assembled covariance K.

    Factorizes K once through the jitter ladder; with `gradient`, also
    forms A = alpha alpha^T - K^-1, so that dMLL = 0.5 tr(A dK) for any
    parameter of K (Rasmussen & Williams 2006, eq. 5.9). Every likelihood
    in the package, the stationary baseline's included, runs through here.
    """
    gram = ladder_cholesky(k, context)
    alpha = cho_solve((gram.chol, True), y)
    logdet = 2.0 * float(np.sum(np.log(np.diag(gram.chol))))
    value = float(-0.5 * y @ alpha - 0.5 * logdet - 0.5 * y.size * LOG_2PI)
    a = None
    if gradient:
        a = _chol_inverse(gram.chol)
        for s in range(0, y.size, _BLOCK):
            rows = a[s : s + _BLOCK]
            np.subtract(np.outer(alpha[s : s + _BLOCK], alpha), rows, out=rows)
    # K itself is not kept: a fit can outlive the step that made it
    return LikelihoodFit(value, gram.chol, gram.jitter_used, alpha, a)


def fit_likelihood(stack: KernelStack, noise: NoiseField, x_scaled, y_scaled):
    """Value-only likelihood fit: the MLL, the factor, the target solve and the warps."""
    y = np.asarray(y_scaled, dtype=float).ravel()
    parts, k = noisy_gram(stack, noise, x_scaled)
    warped = tuple(w for _, _, w, _, _ in parts)
    return replace(_likelihood_core(k, y, stack.describe()), warped=warped)


def mll(stack: KernelStack, noise: NoiseField, x_scaled, y_scaled) -> float:
    """Marginal log likelihood of the scaled targets under the stack."""
    return fit_likelihood(stack, noise, x_scaled, y_scaled).value


def gradient_sensitivities(stack: KernelStack, noise: NoiseField, x_scaled):
    """The coefficient sensitivities `mll_gradient` contracts against.

    They depend on the points and on each field's bases and degrees, never
    on the coefficients, so an optimizer moving only coefficients computes
    them once. Returns (one lengthscale tensor per stack entry, noise
    matrix or None).
    """
    pts = np.asarray(x_scaled, dtype=float)
    per_entry = tuple(lengthscale_sensitivity(f, pts) for _, _, f in stack.entries)
    noise_sens = noise_sensitivity(noise, pts) if noise.mode == "pce" else None
    return per_entry, noise_sens


def mll_gradient(
    stack: KernelStack, noise: NoiseField, x_scaled, y_scaled, sensitivities=None
):
    """Gradient of the marginal log likelihood over the free parameters.

    Parameter order: the lengthscale coefficients of each stack entry in
    order, then the noise coefficients when the noise is an expansion,
    then each entry's squared output scale. Matches central finite
    differences within 1e-4 relative error (the public contract).
    `sensitivities` is `gradient_sensitivities` for the same points and
    field layouts; it is computed here when not given.
    """
    pts = np.asarray(x_scaled, dtype=float)
    y = np.asarray(y_scaled, dtype=float).ravel()
    if sensitivities is None:
        sensitivities = gradient_sensitivities(stack, noise, pts)
    ls_sens, noise_sens = sensitivities
    parts, k = noisy_gram(stack, noise, pts)
    # dMLL = 0.5 tr(a dK); K itself is not needed past its factorization
    a = _likelihood_core(k, y, stack.describe(), gradient=True).a
    del k

    blocks = []
    scale_grad = []
    for (form, scale, _), (_, _, w, d2, k_part), sens in zip(
        stack.entries, parts, ls_sens
    ):
        scale_grad.append(0.5 * float(np.vdot(a, k_part)) / (scale * scale))
        t = sqdist_derivative_from_values(form, d2, k_part)
        t *= a
        r = t.sum(axis=1)[:, None] * w - t @ w
        blocks.append(2.0 * np.tensordot(sens, (r * pts).T, axes=([1, 2], [0, 1])))

    if noise.mode == "pce":
        raw = noise_sens.T @ np.concatenate([c for _, c in noise.terms])
        active = raw > noise.floor  # clamped points contribute no gradient
        diag_a = np.diag(a) * active
        blocks.append(0.5 * noise_sens @ diag_a)

    blocks.append(np.array(scale_grad))
    return np.concatenate(blocks)


def free_parameters(stack: KernelStack, noise: NoiseField) -> np.ndarray:
    """Flatten the gradient's coordinate system into one vector.

    Order: each entry's lengthscale coefficients in stack order, then the
    noise coefficients when the noise is an expansion, then each entry's
    squared output scale. `mll_gradient` returns derivatives in exactly
    this order.
    """
    blocks = [lengthscale_coefficients(f) for _, _, f in stack.entries]
    if noise.mode == "pce":
        blocks.append(np.concatenate([c for _, c in noise.terms]))
    blocks.append(np.array([s * s for _, s, _ in stack.entries]))
    return np.concatenate(blocks)


def with_free_parameters(stack: KernelStack, noise: NoiseField, flat):
    """Rebuild (stack, noise) from a flat vector in `free_parameters` order."""
    flat = np.asarray(flat, dtype=float).ravel()
    k = 0
    fields = []
    for _, _, f in stack.entries:
        fields.append(with_lengthscale_coefficients(f, flat[k : k + f.n_coefficients]))
        k += f.n_coefficients
    if noise.mode == "pce":
        terms = []
        for kind, c in noise.terms:
            terms.append((kind, flat[k : k + c.size]))
            k += c.size
        noise = NoiseField.pce(tuple(terms), floor=noise.floor)
    scales2 = flat[k : k + stack.n_entries]
    k += stack.n_entries
    if k != flat.size:
        raise ValueError(f"expected {k} parameters, got {flat.size}")
    if np.any(scales2 <= 0.0):
        raise ValueError("squared output scales must stay positive")
    entries = tuple(
        (form, float(np.sqrt(s2)), f)
        for (form, _, _), s2, f in zip(stack.entries, scales2, fields)
    )
    return KernelStack(entries), noise


def fit_precompute(
    stack: KernelStack,
    noise: NoiseField,
    input_scaler: ScalerState,
    output_scaler: ScalerState,
    x_raw,
    y_raw,
    meta: dict | None = None,
) -> PcegpModel:
    """Scale the data, factorize the Gram, and precompute the target solve."""
    x = np.asarray(x_raw, dtype=float)
    y = np.asarray(y_raw, dtype=float).ravel()
    if x.ndim != 2 or x.shape[0] != y.size:
        raise ValueError("x_raw must be N x n_x with matching y_raw length")
    if input_scaler.n_columns != x.shape[1]:
        raise ValueError(
            f"input scaler covers {input_scaler.n_columns} columns, "
            f"data has {x.shape[1]}"
        )
    if output_scaler.n_columns != 1:
        raise ValueError("output scaler must cover exactly one column")
    if stack.n_inputs != x.shape[1]:
        raise ValueError("kernel stack width does not match the data")

    x_s = apply_scaler(input_scaler, x)
    y_s = (y - output_scaler.loc[0]) / output_scaler.scale[0]
    return model_from_fit(stack, noise, input_scaler, output_scaler, x_s, y_s, meta)


def model_from_fit(
    stack: KernelStack,
    noise: NoiseField,
    input_scaler: ScalerState,
    output_scaler: ScalerState,
    x_scaled,
    y_scaled,
    meta: dict | None = None,
    fit: LikelihoodFit | None = None,
) -> PcegpModel:
    """Model over already-scaled training data.

    `fit` is a `fit_likelihood` result for exactly this stack, noise and
    data, such as the closing likelihood of an optimizer; the Gram is
    assembled and factorized here only when it is not given. Either way
    the model keeps the fit's training warps.
    """
    x_s = np.asarray(x_scaled, dtype=float)
    y_s = np.asarray(y_scaled, dtype=float).ravel()
    if fit is None:
        fit = fit_likelihood(stack, noise, x_s, y_s)
    return PcegpModel(
        stack=stack,
        noise=noise,
        input_scaler=input_scaler,
        output_scaler=output_scaler,
        x_scaled=x_s,
        y_scaled=y_s,
        chol=fit.chol,
        alpha_solve=fit.alpha,
        jitter_used=fit.jitter_used,
        warped=fit.warped,
        meta=dict(meta or {}),
    )


def predict(model: PcegpModel, x_raw) -> Prediction:
    """Posterior prediction at one raw-unit query point."""
    means, variances = predict_batch(model, np.asarray(x_raw, dtype=float)[None, :])
    return Prediction(mean=float(means[0]), variance=float(variances[0]))


def predict_batch(model: PcegpModel, x_raw):
    """Posterior predictions at M raw-unit query points.

    Returns (means, variances) in raw output units; the variance includes
    the query-point noise, clamped at zero after cancellation.
    """
    xq = np.asarray(x_raw, dtype=float)
    if xq.ndim != 2 or xq.shape[1] != model.n_inputs:
        raise ValueError(
            f"queries must be M x {model.n_inputs}, got shape {xq.shape}"
        )
    xq_s = apply_scaler(model.input_scaler, xq)
    k_cross = warped_cross_matrix(model.stack, model.warped, xq_s)  # (N, M)
    k_diag = sum(scale * scale for _, scale, _ in model.stack.entries)

    mean_s = k_cross.T @ model.alpha_solve
    v = solve_triangular(model.chol, k_cross, lower=True)
    noise_q = eval_noise_batch(model.noise, xq_s)
    var_s = np.maximum(0.0, k_diag + noise_q - np.sum(v * v, axis=0))

    scale = float(model.output_scaler.scale[0])
    means = mean_s * scale + float(model.output_scaler.loc[0])
    variances = var_s * scale * scale
    return means, variances


def log_predictive_density(model: PcegpModel, x_raw, y_raw) -> np.ndarray:
    """Per-point log density of raw targets under the predictive Gaussians."""
    y = np.asarray(y_raw, dtype=float).ravel()
    means, variances = predict_batch(model, x_raw)
    variances = np.maximum(variances, 1e-300)
    return -0.5 * (np.log(2.0 * np.pi * variances) + (y - means) ** 2 / variances)
