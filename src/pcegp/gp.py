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

The gradient's coordinates are the free parameters; `free_parameters`
and `with_free_parameters` are the one map between them and a (stack,
noise), and a search vector holds them in the same order.

The factor is LAPACK's: dpotrf runs in place on the Fortran view of a
C-order buffer, so the C-order array is the lower factor L, and the solves
pass that same Fortran view to LAPACK uncopied. Within an Adam step the
Gram, the factor and A = alpha alpha^T - K^-1 are buffers of the caller's
workspace (see `kernels.Workspace`), overwritten by the next step.
Anything that outlives the step owns its arrays: a value-only fit, the
closing fit of a refinement and a fitted model each keep a factor of
their own.

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
The training points' warps are fixed for a fitted model, so they are kept
from the Gram assembly at fit or load time and only the queries are warped
per call, every stack entry and the noise from one evaluation of each basis
family at the queries; being derived data, the warps are never serialized.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np
from scipy.linalg import cho_solve, solve_triangular
from scipy.linalg.lapack import dpotri

from .data import ScalerState, apply_scaler
from .hyper import (
    LengthscaleField,
    NoiseField,
    PointBasis,
    as_point_basis,
    eval_noise_batch,
)
from .kernels import (
    KernelStack,
    Workspace,
    ladder_cholesky,
    noisy_gram,
    sqdist_derivative_from_values,
    warped_cross_matrix,
)

LOG_2PI = float(np.log(2.0 * np.pi))

# rows per block when mirroring a triangle of an N x N matrix in place
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


def _chol_inverse(chol: np.ndarray, out=None) -> np.ndarray:
    """K^-1 from the lower Cholesky factor of K, exactly symmetric.

    The factor is copied to `out` (a new array when it is not given), LAPACK
    dpotri overwrites that copy with one triangle of the inverse, and the
    other triangle is mirrored in place: no N x N temporary is made.
    """
    if out is None:
        inv = chol.copy()
    else:
        inv = out
        np.copyto(inv, chol)
    # inv.T is the upper factor in Fortran order, so LAPACK works on it in
    # place; the upper triangle it fills is the lower triangle of `inv`
    upper, info = dpotri(inv.T, lower=0, overwrite_c=1)
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


def _likelihood_core(
    k: np.ndarray, y: np.ndarray, context: str, gradient=False, workspace=None
):
    """Marginal likelihood of y under the assembled covariance K.

    Factorizes K once through the jitter ladder; with `gradient`, also
    forms A = alpha alpha^T - K^-1, so that dMLL = 0.5 tr(A dK) for any
    parameter of K (Rasmussen & Williams 2006, eq. 5.9). Every likelihood
    in the package, the stationary baseline's included, runs through here.
    With a `workspace`, the factor and A are its buffers and the next
    evaluation overwrites them; without one they are new arrays. The
    factor's diagonal is finite (the ladder checks it), so the solves skip
    scipy's finiteness scan of it.
    """
    n = y.size
    gram = ladder_cholesky(
        k, context, None if workspace is None else workspace.matrix("factor", n)
    )
    # chol.T is the upper factor in Fortran order: LAPACK reads it uncopied
    alpha = cho_solve((gram.chol.T, False), y, check_finite=False)
    logdet = 2.0 * float(np.sum(np.log(np.diag(gram.chol))))
    value = float(-0.5 * y @ alpha - 0.5 * logdet - 0.5 * n * LOG_2PI)
    a = None
    if gradient:
        ws = workspace if workspace is not None else Workspace()
        a = _chol_inverse(gram.chol, ws.matrix("inverse", n))
        outer = np.multiply.outer(alpha, alpha, out=ws.matrix("scratch", n))
        np.subtract(outer, a, out=a)
    # K itself is not kept: a fit can outlive the step that made it
    return LikelihoodFit(value, gram.chol, gram.jitter_used, alpha, a)


def fit_likelihood(
    stack: KernelStack, noise: NoiseField, x_scaled, y_scaled, workspace=None
):
    """Value-only likelihood fit: the MLL, the factor, the target solve and the warps.

    `x_scaled` may be a `PointBasis`. The Gram is assembled in `workspace`
    when one is given; the factor, which the returned fit keeps, is always
    a new array.
    """
    y = np.asarray(y_scaled, dtype=float).ravel()
    parts, k = noisy_gram(stack, noise, x_scaled, workspace)
    warped = tuple(w for _, _, w, _, _ in parts)
    return replace(_likelihood_core(k, y, stack.describe()), warped=warped)


def mll(stack: KernelStack, noise: NoiseField, x_scaled, y_scaled) -> float:
    """Marginal log likelihood of the scaled targets under the stack."""
    return fit_likelihood(stack, noise, x_scaled, y_scaled).value


def _term_values(basis: PointBasis, terms) -> list:
    """Each term's basis values at the points, shaped (coefficients, N, n_x)."""
    n, d = basis.points.shape
    return [basis.values(kind, c.size - 1).reshape(c.size, n, d) for kind, c in terms]


def mll_gradient(
    stack: KernelStack, noise: NoiseField, x_scaled, y_scaled, workspace=None
):
    """Gradient of the marginal log likelihood over the free parameters.

    Parameter order is `free_parameters` order. Matches central finite
    differences within 1e-4 relative error (the public contract).
    `x_scaled` may be a `PointBasis`. The fields are linear in their
    coefficients, so the sensitivity of a lengthscale or of the unclamped
    noise to a coefficient is the basis's own value, read from the
    `PointBasis` each call. Every N x N array of the evaluation is a buffer
    of `workspace`, or of a fresh one when none is given; the returned
    gradient is a new array.
    """
    basis = as_point_basis(x_scaled, stack.fields + (noise,))
    pts = basis.points
    y = np.asarray(y_scaled, dtype=float).ravel()
    ws = workspace if workspace is not None else Workspace()
    parts, k = noisy_gram(stack, noise, basis, ws)
    # dMLL = 0.5 tr(a dK)
    a = _likelihood_core(k, y, stack.describe(), gradient=True, workspace=ws).a
    t = ws.matrix("scratch", y.size)

    blocks = []
    scale_grad = []
    for (form, scale, field), (_, _, w, d2, k_part) in zip(stack.entries, parts):
        scale_grad.append(0.5 * float(np.vdot(a, k_part)) / (scale * scale))
        sqdist_derivative_from_values(form, d2, k_part, out=t)
        t *= a
        r = t.sum(axis=1)[:, None] * w - t @ w
        # sens[m, d, i] = phi_m(x_id) = d l_d(x_i) / d c_m, in coefficient order
        sens = np.concatenate(
            [v.transpose(0, 2, 1) for v in _term_values(basis, field.terms)]
        )
        blocks.append(2.0 * np.tensordot(sens, (r * pts).T, axes=([1, 2], [0, 1])))

    if noise.mode == "pce":
        # sens[m, i]: phi_m averaged over the coordinates of point i
        sens = np.concatenate(
            [v.mean(axis=2) for v in _term_values(basis, noise.terms)]
        )
        raw = sens.T @ np.concatenate([c for _, c in noise.terms])
        active = raw > noise.floor  # clamped points contribute no gradient
        diag_a = np.diag(a) * active
        blocks.append(0.5 * sens @ diag_a)

    blocks.append(np.array(scale_grad))
    return np.concatenate(blocks)


def free_parameters(stack: KernelStack, noise: NoiseField) -> np.ndarray:
    """Flatten the gradient's coordinate system into one vector.

    Order: each entry's lengthscale coefficients in stack order (its terms
    in basis order), then the noise coefficients when the noise is an
    expansion, then each entry's squared output scale. `mll_gradient`
    returns derivatives in exactly this order.
    """
    fields = stack.fields + ((noise,) if noise.mode == "pce" else ())
    blocks = [c for f in fields for _, c in f.terms]
    blocks.append(np.array([s * s for _, s, _ in stack.entries]))
    return np.concatenate(blocks)


def with_free_parameters(stack: KernelStack, noise: NoiseField, flat):
    """Rebuild (stack, noise) from a flat vector in `free_parameters` order."""
    flat = np.asarray(flat, dtype=float).ravel()
    fields = stack.fields + ((noise,) if noise.mode == "pce" else ())
    sizes = [c.size for f in fields for _, c in f.terms]
    n_expected = sum(sizes) + stack.n_entries
    if flat.size != n_expected:
        raise ValueError(f"expected {n_expected} parameters, got {flat.size}")
    parts = iter(np.split(flat, np.cumsum(sizes)))
    terms = [tuple((kind, next(parts)) for kind, _ in f.terms) for f in fields]
    scales2 = next(parts)
    if np.any(scales2 <= 0.0):
        raise ValueError("squared output scales must stay positive")
    if noise.mode == "pce":
        noise = NoiseField.pce(terms.pop(), floor=noise.floor)
    entries = tuple(
        (form, float(np.sqrt(s2)), LengthscaleField(t, f.n_inputs))
        for (form, _, f), s2, t in zip(stack.entries, scales2, terms)
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
    workspace: Workspace | None = None,
) -> PcegpModel:
    """Scale the data, factorize the Gram, and precompute the target solve.

    The Gram is assembled in `workspace` (a fresh one when none is given);
    the model keeps a factor of its own.
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
    return model_from_fit(
        stack, noise, input_scaler, output_scaler, x_s, y_s, meta,
        workspace=workspace,
    )


def model_from_fit(
    stack: KernelStack,
    noise: NoiseField,
    input_scaler: ScalerState,
    output_scaler: ScalerState,
    x_scaled,
    y_scaled,
    meta: dict | None = None,
    fit: LikelihoodFit | None = None,
    workspace: Workspace | None = None,
) -> PcegpModel:
    """Model over already-scaled training data.

    `fit` is a `fit_likelihood` result for exactly this stack, noise and
    data, such as the closing likelihood of an optimizer; the Gram is
    assembled (in `workspace`, when one is given) and factorized here only
    when it is not given. Either way the model keeps the fit's training
    warps and a factor of its own.
    """
    x_s = np.asarray(x_scaled, dtype=float)
    y_s = np.asarray(y_scaled, dtype=float).ravel()
    if fit is None:
        fit = fit_likelihood(stack, noise, x_s, y_s, workspace)
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


def _means_and_cross(model: PcegpModel, x_raw):
    """Raw-unit posterior means, the scaled queries and the N x M cross covariances.

    The scaled queries come as a `PointBasis`, which the cross covariances
    and the query noise share.
    """
    xq = np.asarray(x_raw, dtype=float)
    if xq.ndim != 2 or xq.shape[1] != model.n_inputs:
        raise ValueError(
            f"queries must be M x {model.n_inputs}, got shape {xq.shape}"
        )
    queries = PointBasis(
        apply_scaler(model.input_scaler, xq), model.stack.fields + (model.noise,)
    )
    k_cross = warped_cross_matrix(model.stack, model.warped, queries)  # (N, M)
    mean_s = k_cross.T @ model.alpha_solve
    means = mean_s * float(model.output_scaler.scale[0]) + float(
        model.output_scaler.loc[0]
    )
    return means, queries, k_cross


def predict_means(model: PcegpModel, x_raw) -> np.ndarray:
    """Posterior means at M raw-unit query points, without the variances.

    The same means as `predict_batch`, bit for bit, without its N x M
    triangular solve.
    """
    return _means_and_cross(model, x_raw)[0]


def predict_batch(model: PcegpModel, x_raw):
    """Posterior predictions at M raw-unit query points.

    Returns (means, variances) in raw output units; the variance includes
    the query-point noise, clamped at zero after cancellation.
    """
    means, queries, k_cross = _means_and_cross(model, x_raw)
    k_diag = sum(scale * scale for _, scale, _ in model.stack.entries)
    # chol.T is the upper factor in Fortran order: LAPACK reads it uncopied
    v = solve_triangular(
        model.chol.T, k_cross, lower=False, trans="T", check_finite=False
    )
    noise_q = eval_noise_batch(model.noise, queries)
    var_s = np.maximum(0.0, k_diag + noise_q - np.sum(v * v, axis=0))
    scale = float(model.output_scaler.scale[0])
    return means, var_s * scale * scale


def log_predictive_density(model: PcegpModel, x_raw, y_raw) -> np.ndarray:
    """Per-point log density of raw targets under the predictive Gaussians."""
    y = np.asarray(y_raw, dtype=float).ravel()
    means, variances = predict_batch(model, x_raw)
    variances = np.maximum(variances, 1e-300)
    return -0.5 * (np.log(2.0 * np.pi * variances) + (y - means) ** 2 / variances)
