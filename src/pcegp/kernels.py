"""Stationary kernels, their warped non-stationary forms, and Gram assembly.

The non-stationary construction warps each point by its own lengthscale
vector, w(x) = l(x) * x element-wise, and evaluates a fixed-scale
stationary form on the warped distance. A deterministic warp keeps every
form positive semidefinite regardless of the sign of l(x); a constant
field l(x) = c reproduces the stationary kernel with lengthscale 1/c.

All four forms are functions of the squared distance only, which lets
Gram assembly and the likelihood gradient share one pairwise-distance
computation per stack entry. The training-side warps that assembly makes
are kept, so that prediction from a fitted model warps only its queries.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.spatial.distance import cdist, pdist, squareform

from .hyper import LengthscaleField, NoiseField, eval_lengthscale_batch, eval_noise_batch

KERNEL_FORMS = (
    "squared_exponential",
    "absolute_exponential",
    "matern_3_2",
    "rational_quadratic",
)

JITTER_LADDER = (0.0, 1e-10, 1e-8, 1e-6, 1e-4)


@dataclass(frozen=True)
class KernelForm:
    """One stationary covariance form; `shape` applies to rational_quadratic."""

    tag: str
    shape: float = 1.0

    def __post_init__(self):
        if self.tag not in KERNEL_FORMS:
            raise ValueError(f"unknown kernel form {self.tag!r}")
        if self.tag == "rational_quadratic" and self.shape <= 0.0:
            raise ValueError(f"rational_quadratic shape must be > 0, got {self.shape}")

    @classmethod
    def se(cls) -> "KernelForm":
        return cls("squared_exponential")

    @classmethod
    def ae(cls) -> "KernelForm":
        return cls("absolute_exponential")

    @classmethod
    def matern32(cls) -> "KernelForm":
        return cls("matern_3_2")

    @classmethod
    def rq(cls, shape: float = 1.0) -> "KernelForm":
        return cls("rational_quadratic", shape=shape)


@dataclass(frozen=True)
class KernelStack:
    """Summed kernel: entries of (form, output scale, lengthscale field)."""

    entries: tuple

    def __post_init__(self):
        entries = tuple(self.entries)
        if not entries:
            raise ValueError("a kernel stack needs at least one entry")
        for form, scale, field in entries:
            if not isinstance(form, KernelForm):
                raise TypeError("stack entry must start with a KernelForm")
            if scale <= 0.0:
                raise ValueError(f"output scale must be positive, got {scale}")
            if not isinstance(field, LengthscaleField):
                raise TypeError("stack entry needs a LengthscaleField")
        widths = {field.n_inputs for _, _, field in entries}
        if len(widths) != 1:
            raise ValueError("all lengthscale fields must share n_inputs")
        object.__setattr__(self, "entries", entries)

    @property
    def n_entries(self) -> int:
        return len(self.entries)

    @property
    def n_inputs(self) -> int:
        return self.entries[0][2].n_inputs

    def describe(self) -> str:
        parts = [
            f"{form.tag}(scale={scale:g})" for form, scale, _ in self.entries
        ]
        return " + ".join(parts)


@dataclass(frozen=True)
class GramResult:
    """Training covariance with noise and whatever jitter Cholesky needed."""

    matrix: np.ndarray
    jitter_used: float
    chol: np.ndarray  # lower-triangular factor of `matrix`


# ---------------------------------------------------------------------------
# form evaluation on squared distances
# ---------------------------------------------------------------------------

def form_from_sqdist(form: KernelForm, scale: float, sqdist):
    """Evaluate a form on squared distances; scale enters as scale**2."""
    d2 = np.asarray(sqdist, dtype=float)
    # one buffer, no N x N temporaries: Gram assembly sets the peak memory
    out = np.empty_like(d2)
    s2 = scale * scale
    if form.tag == "squared_exponential":
        np.multiply(d2, -0.5, out=out)
        np.exp(out, out=out)
    elif form.tag == "absolute_exponential":
        np.sqrt(d2, out=out)
        np.negative(out, out=out)
        np.exp(out, out=out)
    elif form.tag == "matern_3_2":
        np.multiply(d2, 3.0, out=out)
        np.sqrt(out, out=out)  # d
        decay = np.exp(-out)
        out += 1.0
        out *= s2  # (s2 (1 + d)) exp(-d), the closed form's own order
        out *= decay
        return out
    else:
        np.divide(d2, 2.0 * form.shape, out=out)
        out += 1.0
        np.power(out, -form.shape, out=out)
    out *= s2
    return out


def form_sqdist_derivative(form: KernelForm, scale: float, sqdist):
    """d(form)/d(squared distance), used by the likelihood gradient.

    The absolute-exponential derivative is unbounded at zero distance; it
    is set to 0 there, which is exact wherever it matters because the
    squared distance of coincident warped points has zero sensitivity to
    the warp.
    """
    d2 = np.asarray(sqdist, dtype=float)
    s2 = scale * scale
    if form.tag == "squared_exponential":
        return -0.5 * s2 * np.exp(-0.5 * d2)
    if form.tag == "absolute_exponential":
        d = np.sqrt(d2)
        with np.errstate(divide="ignore", invalid="ignore"):
            out = -s2 * np.exp(-d) / (2.0 * d)
        return np.where(d > 0.0, out, 0.0)
    if form.tag == "matern_3_2":
        return -1.5 * s2 * np.exp(-np.sqrt(3.0 * d2))
    a = form.shape
    return -0.5 * s2 * (1.0 + d2 / (2.0 * a)) ** (-a - 1.0)


def sqdist_derivative_from_values(form: KernelForm, sqdist, values):
    """d(form)/d(squared distance) from the form's own values.

    Equal to `form_sqdist_derivative` but reuses the component matrix that
    Gram assembly already holds instead of recomputing the exp or power:
    SE -k/2, M3/2 -1.5k/(1 + sqrt(3 d2)), RQ -k/(2(1 + d2/(2a))), and AE
    -k/(2 sqrt(d2)), set to 0 at zero distance. Returns a new array.
    """
    d2 = np.asarray(sqdist, dtype=float)
    k = np.asarray(values, dtype=float)
    if form.tag == "squared_exponential":
        return -0.5 * k
    if form.tag == "absolute_exponential":
        out = np.sqrt(d2)
        out *= -2.0
        np.divide(k, out, out=out, where=out < 0.0)  # out stays 0 at d2 = 0
        return out
    if form.tag == "matern_3_2":
        out = 3.0 * d2
        np.sqrt(out, out=out)
        out += 1.0
        np.divide(k, out, out=out)
        out *= -1.5
        return out
    out = d2 / (2.0 * form.shape)
    out += 1.0
    np.divide(k, out, out=out)
    out *= -0.5
    return out


# ---------------------------------------------------------------------------
# pairwise kernels
# ---------------------------------------------------------------------------

def _pair(x, x2):
    a = np.asarray(x, dtype=float).ravel()
    b = np.asarray(x2, dtype=float).ravel()
    if a.shape != b.shape:
        raise ValueError(f"point dimensions differ: {a.shape} vs {b.shape}")
    return a, b


def kernel_stationary(
    form: KernelForm, scale: float, lengthscale: float, x, x2
) -> float:
    """Classic stationary kernel value with a single scalar lengthscale."""
    if lengthscale <= 0.0:
        raise ValueError(f"lengthscale must be positive, got {lengthscale}")
    a, b = _pair(x, x2)
    d2 = float(np.sum((a - b) ** 2)) / (lengthscale * lengthscale)
    return float(form_from_sqdist(form, scale, d2))


def warp_points(field: LengthscaleField, points) -> np.ndarray:
    """w(x) = l(x) * x element-wise for each row of an N x n_x matrix."""
    pts = np.asarray(points, dtype=float)
    if pts.ndim == 1:
        pts = pts[None, :]
    ls = eval_lengthscale_batch(field, pts)  # (n_x, N)
    return ls.T * pts


def kernel_nonstationary(
    form: KernelForm, scale: float, ls_field: LengthscaleField, x, x2
) -> float:
    """Warped kernel value: stationary form on ||w(x) - w(x')||."""
    a, b = _pair(x, x2)
    wa = warp_points(ls_field, a)[0]
    wb = warp_points(ls_field, b)[0]
    d2 = float(np.sum((wa - wb) ** 2))
    return float(form_from_sqdist(form, scale, d2))


# ---------------------------------------------------------------------------
# Gram assembly
# ---------------------------------------------------------------------------

def gram_parts(stack: KernelStack, points):
    """Per-entry warped points, squared distances, and component matrices.

    Returns a list of (form, scale, warped, sqdist, component) tuples; the
    noise-free Gram is the sum of the components. Shared by Gram assembly
    and the likelihood gradient so the geometry is computed once.
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != stack.n_inputs:
        raise ValueError(
            f"points must be N x {stack.n_inputs}, got shape {pts.shape}"
        )
    parts = []
    for form, scale, field in stack.entries:
        w = warp_points(field, pts)
        # each pair once: exactly symmetric, with an exactly zero diagonal
        d2 = squareform(pdist(w, "sqeuclidean"))
        parts.append((form, scale, w, d2, form_from_sqdist(form, scale, d2)))
    return parts


def ladder_cholesky(k: np.ndarray, context: str) -> GramResult:
    """Factorize a symmetric matrix, escalating diagonal jitter as needed.

    Jitter is added to the diagonal in the fixed ladder `JITTER_LADDER`
    until the Cholesky factorization succeeds; the returned matrix includes
    the jitter that was used.
    """
    for jitter in JITTER_LADDER:
        trial = k if jitter == 0.0 else k + jitter * np.eye(k.shape[0])
        try:
            chol = np.linalg.cholesky(trial)
        except np.linalg.LinAlgError:
            continue
        return GramResult(matrix=trial, jitter_used=jitter, chol=chol)

    raise RuntimeError(
        f"covariance matrix is not positive definite even with jitter "
        f"{JITTER_LADDER[-1]:g}; stack: {context}"
    )


def noisy_gram(stack: KernelStack, noise: NoiseField, points):
    """Gram components and the noisy training covariance K + noise diagonal.

    Returns (parts, K) with `parts` as from `gram_parts`; K is a new
    array, so the components stay untouched for the likelihood gradient.
    This is the one place the training covariance is assembled.
    """
    pts = np.asarray(points, dtype=float)
    parts = gram_parts(stack, pts)
    k = parts[0][4].copy()
    for part in parts[1:]:
        k += part[4]
    k[np.diag_indices_from(k)] += eval_noise_batch(noise, pts)
    return parts, k


def cross_matrix(stack: KernelStack, points, queries) -> np.ndarray:
    """Covariances between N training points and M query points, N x M."""
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2:
        raise ValueError(f"points must be an N x n_x matrix, got shape {pts.shape}")
    warped = tuple(warp_points(field, pts) for _, _, field in stack.entries)
    return warped_cross_matrix(stack, warped, queries)


def warped_cross_matrix(stack: KernelStack, warped, queries) -> np.ndarray:
    """Covariances between already-warped training points and M queries, N x M.

    `warped` holds one N x n_x array per stack entry, as `gram_parts`
    returns them; only the queries are warped here.
    """
    qs = np.asarray(queries, dtype=float)
    if qs.ndim == 1:
        qs = qs[None, :]
    n_points, n_inputs = warped[0].shape
    if qs.ndim != 2 or qs.shape[1] != n_inputs:
        raise ValueError(
            f"query dimension {qs.shape} does not match points {warped[0].shape}"
        )
    out = np.zeros((n_points, qs.shape[0]))
    for (form, scale, field), w in zip(stack.entries, warped):
        wq = warp_points(field, qs)
        out += form_from_sqdist(form, scale, cdist(w, wq, "sqeuclidean"))
    return out
