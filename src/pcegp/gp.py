"""Exact GP inference: marginal log likelihood, its gradient, prediction.

Everything runs off one Cholesky factorization of the noisy Gram: the
likelihood value, the target solve and, for the gradient, the explicit
inverse, which LAPACK forms from the factor (dpotri) rather than by
solving against the identity. The likelihood gradient is analytic: every
kernel entry is a function of the pairwise squared distances of warped
points, and the warp is linear in the expansion coefficients, so the
chain rule reduces to A weighted by one pairwise derivative matrix per
kernel, plus a rank-structured contraction: the weighted matrix's row sums
and its product with the warps, from one product with [w | 1]. Assembly
keeps one array per kernel, the argument of its form, and once A is
formed each kernel's values and derivative are re-formed from it in one
shared scratch, weighted by A's pairs, then unpacked into K's buffer for
that product
(`kernels.gradient_weights`, `kernels.weighted_derivative`). How those
arrays are laid out is `kernels`' business; each is half an N x N array.
This one contraction (`contract_entry`) serves both methods:
`mll_gradient` chains it through the fields' coefficients, the ARD
baseline (`bench`) through its log lengthscales. The public contract for
the gradient is agreement with central finite differences; the analytic
path is an implementation choice for speed.

The gradient's coordinates are the free parameters: each field's
coefficients, one vector per field since a field is one expansion in one
basis family, then the squared scales. `free_parameters` and
`with_free_parameters` are the one map between them and a (stack, noise),
and a search vector holds them in the same order.

The factor is LAPACK's, in the lower triangle of a C-order buffer that
LAPACK reads uncopied through its Fortran-order transpose (see `kernels`).
The LAPACK routines come from `pcegp._native`, without importing
`scipy.linalg`; the solves get the arrays that scipy's `cho_solve` and
`solve_triangular` would pass, so they give those wrappers' bits and raise
their errors. The Gram, its factor and A = alpha alpha^T - K^-1 share one
buffer of the caller's workspace, each overwriting the one before (see
`kernels.Workspace` for what borrows that buffer and what owns a copy).

The chaos-basis values at the training points do not change while the
coefficients move. Every function here that takes `x_scaled` also takes a
`hyper.PointBasis` in its place and then reuses its values; given plain
points it makes one that lives for the call. `optim.fine_tune` makes one
per training split, shared by every Adam step and the closing fit, and
dropped when it returns. The gradient reads its coefficient sensitivities
from that same `PointBasis`, since they are the basis values themselves.

Prediction follows the scaled pipeline: scale the query, build the cross
covariances, solve against the stored factor, add the query-point noise
to the variance, then map mean and variance back to raw output units.
The training points' warps are kept from the Gram assembly at fit or load
time (derived data, never serialized), so only the queries are warped per
call, in blocks of `PREDICT_BLOCK_ROWS` that each hold one N x B array
(`predict_batch`).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from ._native import dpotri, dpotrs, dtrtrs
from .data import ScalerState, apply_scaler
from .hyper import NoiseField, PointBasis, as_point_basis, eval_noise_batch
from .kernels import (
    TRIANGLE_BLOCK_ROWS,
    KernelStack,
    Workspace,
    gradient_weights,
    ladder_cholesky,
    mirror_lower,
    noisy_gram,
    warp_stack,
    warped_cross_matrix,
    weighted_derivative,
    zero_upper,
)

LOG_2PI = float(np.log(2.0 * np.pi))

# queries per block in prediction, in the manner of SQDIST_BLOCK_ROWS: bounds
# the N x M cross covariances and their solve. Up to one block the bits are
# those of one wide solve; past it, BLAS may round a few columns of a later
# block an ulp or so differently
PREDICT_BLOCK_ROWS = 256


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
    # lower triangle: the factor of K plus `jitter_used` on the diagonal;
    # None when a gradient is wanted, since A overwrites it
    chol: np.ndarray | None
    jitter_used: float
    alpha: np.ndarray  # K^-1 y
    a: np.ndarray | None = None  # alpha alpha^T - K^-1, when a gradient is wanted
    warped: tuple = ()  # each stack entry's warped training points, from the Gram


def _chol_inverse(chol: np.ndarray) -> np.ndarray:
    """K^-1 from the lower Cholesky factor of K, in place and exactly symmetric.

    LAPACK dpotri overwrites the factor's lower triangle with that of the
    inverse, and the upper triangle, whatever it held, is then mirrored
    from it: no N x N temporary is made. Returns the same buffer.
    """
    # chol.T is the upper factor in Fortran order, so LAPACK works on it in
    # place; the upper triangle it fills is the lower triangle of `chol`
    upper, info = dpotri(chol.T, lower=0, overwrite_c=1)
    if info != 0:
        raise np.linalg.LinAlgError(f"dpotri failed with info {info}")
    return mirror_lower(upper.T)


def _likelihood_core(k: np.ndarray, y: np.ndarray, context: str, gradient=False):
    """Marginal likelihood of y under the assembled covariance K.

    Factorizes K once through the jitter ladder, in place: K's buffer
    becomes the factor. With `gradient` it then becomes A = alpha alpha^T -
    K^-1, so that dMLL = 0.5 tr(A dK) for any parameter of K (Rasmussen &
    Williams 2006, eq. 5.9), and the fit keeps no factor. Every likelihood
    in the package, the stationary baseline's included, runs through here.
    """
    n = y.size
    gram = ladder_cholesky(k, context)
    # chol.T is the upper factor in Fortran order: LAPACK reads it uncopied
    alpha = dpotrs(gram.chol.T, y, lower=0)
    logdet = 2.0 * float(np.sum(np.log(np.diag(gram.chol))))
    value = float(-0.5 * y @ alpha - 0.5 * logdet - 0.5 * n * LOG_2PI)
    if not gradient:
        return LikelihoodFit(value, gram.chol, gram.jitter_used, alpha)
    a = _chol_inverse(gram.chol)
    for s in range(0, n, TRIANGLE_BLOCK_ROWS):
        e = min(n, s + TRIANGLE_BLOCK_ROWS)
        np.subtract(np.multiply.outer(alpha[s:e], alpha), a[s:e], out=a[s:e])
    return LikelihoodFit(value, None, gram.jitter_used, alpha, a)


def fit_likelihood(
    stack: KernelStack, noise: NoiseField, x_scaled, y_scaled, workspace=None
):
    """Value-only likelihood fit: the MLL, the factor, the target solve and the warps.

    `x_scaled` may be a `PointBasis`. The Gram is assembled without its
    per-entry parts and factorized in `workspace` when one is given, and
    the returned factor borrows K's buffer there until the next evaluation
    (see `kernels.Workspace`); without one, the factor is the only user of
    a fresh buffer.
    """
    y = np.asarray(y_scaled, dtype=float).ravel()
    warped, k, _ = noisy_gram(stack, noise, x_scaled, workspace)
    return replace(_likelihood_core(k, y, stack.describe()), warped=warped)


def mll(stack: KernelStack, noise: NoiseField, x_scaled, y_scaled) -> float:
    """Marginal log likelihood of the scaled targets under the stack."""
    return fit_likelihood(stack, noise, x_scaled, y_scaled).value


def contract_entry(a, part):
    """A kernel entry's share of the gradient: (r, dMLL/d(scale^2)).

    `a` is A as `kernels.gradient_weights` gives it, and `part` is (form,
    scale, warped, argument, scratch) as `kernels.gram_parts` keeps it.
    dMLL/dw = 2 r by the entry's N x n_x warps w, where
    r = rowsum(M) w - M w for M = A o dk/d(d2), both from one product with
    [w | 1]. The argument and K's buffer may be overwritten; A's diagonal,
    and its condensed pairs when a stack of several entries has them, are
    left alone. A lone entry's A is read from K's buffer, and that is the
    only contraction that reads it.
    """
    form, scale, w, argument, scratch = part
    t, factor, value_sum = weighted_derivative(form, scale, argument, a, scratch)
    tw = t @ np.column_stack((w, np.ones(len(w))))
    r = factor * (tw[:, -1:] * w - tw[:, :-1])
    return r, 0.5 * value_sum


def mll_gradient(
    stack: KernelStack, noise: NoiseField, x_scaled, y_scaled, workspace=None
):
    """Gradient of the marginal log likelihood over the free parameters.

    Parameter order is `free_parameters` order. Matches central finite
    differences within 1e-4 relative error (the public contract).
    `x_scaled` may be a `PointBasis`. The fields are linear in their
    coefficients, so the sensitivity of a lengthscale or of the log noise
    variance to a coefficient is the basis's own value, read from the
    `PointBasis` each call. The large arrays of the evaluation are the
    buffers of `workspace` (a fresh one when none is given) that
    `kernels.Workspace` describes: K (which becomes A), and each entry's
    argument, A's pairs when there are two or more entries, and one
    scratch when an entry is not squared exponential, each of those half
    as large: 1.5 N x N arrays for one squared-exponential entry. Each
    entry is contracted from its argument and A alone (`contract_entry`),
    and may overwrite the argument; the returned gradient is a new array.
    """
    basis = as_point_basis(x_scaled, stack.expansions(noise))
    pts = basis.points
    y = np.asarray(y_scaled, dtype=float).ravel()
    ws = workspace if workspace is not None else Workspace()
    _, k, parts = noisy_gram(stack, noise, basis, ws, gradient=True)
    # dMLL = 0.5 tr(a dK)
    fit = _likelihood_core(k, y, stack.describe(), gradient=True)
    a = gradient_weights(fit.a, ws, stack.n_entries)

    def sensitivities(field):  # phi_m at every coordinate, (m, N, n_x)
        c = field.coefficients
        return basis.values(field.basis, c.size - 1).reshape(c.size, *pts.shape)

    blocks = []
    scale_grad = []
    for field, part in zip(stack.fields, parts):
        r, ds2 = contract_entry(a, part)
        scale_grad.append(ds2)
        # sens[m, d, i] = phi_m(x_id) = d l_d(x_i) / d c_m
        sens = sensitivities(field).transpose(0, 2, 1)
        blocks.append(2.0 * np.tensordot(sens, (r * pts).T, axes=([1, 2], [0, 1])))

    if noise.mode == "pce":
        # sens[m, i]: phi_m averaged over the coordinates of point i, the
        # sensitivity of log sigma^2(x_i); the log link scales it by sigma^2
        sens = sensitivities(noise).mean(axis=2)
        blocks.append(0.5 * sens @ (eval_noise_batch(noise, basis) * a.diagonal))

    blocks.append(np.array(scale_grad))
    return np.concatenate(blocks)


def free_parameters(stack: KernelStack, noise: NoiseField) -> np.ndarray:
    """Flatten the gradient's coordinate system into one vector.

    Order: each entry's lengthscale coefficients in stack order, then the
    noise coefficients when the noise is an expansion, then each entry's
    squared output scale. `mll_gradient` returns derivatives in exactly
    this order.
    """
    blocks = [f.coefficients for f in stack.expansions(noise)]
    blocks.append(np.array([s * s for _, s, _ in stack.entries]))
    return np.concatenate(blocks)


def with_free_parameters(stack: KernelStack, noise: NoiseField, flat):
    """Rebuild (stack, noise) from a flat vector in `free_parameters` order."""
    flat = np.asarray(flat, dtype=float).ravel()
    fields = stack.expansions(noise)
    sizes = [f.coefficients.size for f in fields]
    n_expected = sum(sizes) + stack.n_entries
    if flat.size != n_expected:
        raise ValueError(f"expected {n_expected} parameters, got {flat.size}")
    *coefficients, scales2 = np.split(flat, np.cumsum(sizes))
    if np.any(scales2 <= 0.0):
        raise ValueError("squared output scales must stay positive")
    fields = [replace(f, coefficients=c) for f, c in zip(fields, coefficients)]
    if noise.mode == "pce":
        noise = fields.pop()
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
    """Scale the data, factorize the Gram, and precompute the target solve.

    The model keeps the lower-triangular factor in a buffer of its own.
    """
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
    data, such as the closing likelihood of an optimizer; the model then
    borrows its factor, which may be a workspace buffer (see
    `kernels.Workspace`). Without `fit` the Gram is assembled and
    factorized here, in a workspace of its own, and the model keeps that
    buffer with its strict upper triangle, which held K, zeroed in place
    (`kernels.zero_upper`). Either way the model keeps the fit's training
    warps.
    """
    x_s = np.asarray(x_scaled, dtype=float)
    y_s = np.asarray(y_scaled, dtype=float).ravel()
    if fit is None:
        fit = fit_likelihood(stack, noise, x_s, y_s)
        zero_upper(fit.chol)
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


def _scaled_queries(model: PcegpModel, x_raw) -> np.ndarray:
    """M raw-unit query rows, checked and mapped by the model's input scaler."""
    xq = np.asarray(x_raw, dtype=float)
    if xq.ndim != 2 or xq.shape[1] != model.n_inputs:
        raise ValueError(
            f"queries must be M x {model.n_inputs}, got shape {xq.shape}"
        )
    return apply_scaler(model.input_scaler, xq)


def _query_block(model: PcegpModel, xq_block):
    """(raw-unit means, scaled query noise, B x N cross covariances) for a block.

    `xq_block` holds at most `PREDICT_BLOCK_ROWS` scaled queries. They get a
    `PointBasis` of their own, which the warps and the query noise read; it
    is dropped before the cross covariances are built.
    """
    basis = PointBasis(xq_block, model.stack.expansions(model.noise))
    warped_q = warp_stack(model.stack, basis)
    noise_q = eval_noise_batch(model.noise, basis)
    del basis
    k_cross = warped_cross_matrix(model.stack.forms, model.warped, warped_q)  # (B, N)
    mean_s = k_cross @ model.alpha_solve
    means = mean_s * float(model.output_scaler.scale[0]) + float(
        model.output_scaler.loc[0]
    )
    return means, noise_q, k_cross


def predict_means(model: PcegpModel, x_raw) -> np.ndarray:
    """Posterior means at M raw-unit query points, without the variances.

    The same means as `predict_batch`, bit for bit, without its N x M
    triangular solve.
    """
    xq_s = _scaled_queries(model, x_raw)
    means = np.empty(xq_s.shape[0])
    for s in range(0, xq_s.shape[0], PREDICT_BLOCK_ROWS):
        rows = slice(s, s + PREDICT_BLOCK_ROWS)
        # the block's cross covariances are unnamed, so they are freed here
        means[rows] = _query_block(model, xq_s[rows])[0]
    return means


def predict_batch(model: PcegpModel, x_raw):
    """Posterior predictions at M raw-unit query points.

    Returns (means, variances) in raw output units; the variance includes
    the query-point noise, clamped at zero after cancellation. Each block
    of `PREDICT_BLOCK_ROWS` queries holds one N x B array: its cross
    covariances, which the triangular solve overwrites with its result and
    which is freed before the next block's are built.
    """
    xq_s = _scaled_queries(model, x_raw)
    means, variances = np.empty(xq_s.shape[0]), np.empty(xq_s.shape[0])
    k_diag = sum(scale * scale for _, scale, _ in model.stack.entries)
    scale = float(model.output_scaler.scale[0])
    for s in range(0, xq_s.shape[0], PREDICT_BLOCK_ROWS):
        rows = slice(s, s + PREDICT_BLOCK_ROWS)
        means[rows], noise_q, k_cross = _query_block(model, xq_s[rows])
        # chol.T is the upper factor and k_cross.T the N x B right-hand
        # side, both in Fortran order: LAPACK reads the one and overwrites
        # the other, uncopied
        v = dtrtrs(model.chol.T, k_cross.T, lower=0, trans=1, overwrite_b=1)
        v *= v
        var_s = np.maximum(0.0, k_diag + noise_q - np.sum(v, axis=0))
        variances[rows] = var_s * scale * scale
        del k_cross, v
    return means, variances


def log_predictive_density(model: PcegpModel, x_raw, y_raw) -> np.ndarray:
    """Per-point log density of raw targets under the predictive Gaussians."""
    y = np.asarray(y_raw, dtype=float).ravel()
    means, variances = predict_batch(model, x_raw)
    variances = np.maximum(variances, 1e-300)
    return -0.5 * (np.log(2.0 * np.pi * variances) + (y - means) ** 2 / variances)
