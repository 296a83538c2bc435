"""Stationary kernels, their warped non-stationary forms, and Gram assembly.

The non-stationary construction warps each point by its own lengthscale
vector, w(x) = l(x) * x element-wise, and evaluates a fixed-scale
stationary form on the warped distance. A deterministic warp keeps every
form positive semidefinite regardless of the sign of l(x); a constant
field l(x) = c reproduces the stationary kernel with lengthscale 1/c.

All four forms are functions of the squared distance only, which lets
Gram assembly and the likelihood gradient share one pairwise-distance
matrix per stack entry. `pairwise_sqdist` fills it computing each
unordered pair once, so it is exactly symmetric with a zero diagonal. The
entries' warps read the chaos-basis values of one `hyper.PointBasis` per
point set, so a stack whose entries share a basis family evaluates it once.
The training-side warps that assembly makes are kept, so that prediction
from a fitted model warps only its queries.

Gram assembly writes into a `Workspace`: owned N x N buffers for each
entry's squared distances and component, for K, the factor, the inverse
and one scratch array, reused by every evaluation instead of allocated
afresh. One workspace lives for one search (every trial and fold) or one
baseline fit and is freed with it; a call given none makes a fresh one.
A factor is a C-order lower-triangular array with zeros above the
diagonal. LAPACK factorizes it in place as the upper factor of its
Fortran-order transpose, and the solves read it through that transpose
without copying it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg.lapack import dpotrf
from scipy.spatial.distance import cdist

from .hyper import (
    LengthscaleField,
    NoiseField,
    as_point_basis,
    eval_lengthscale_batch,
    eval_noise_batch,
)

KERNEL_FORMS = (
    "squared_exponential",
    "absolute_exponential",
    "matern_3_2",
    "rational_quadratic",
)

JITTER_LADDER = (0.0, 1e-10, 1e-8, 1e-6, 1e-4)

# rows per cdist call in `pairwise_sqdist`: at N of a few hundred, a block of
# the upper triangle stays in cache while it is copied into both triangles
SQDIST_BLOCK_ROWS = 64


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

    @property
    def fields(self) -> tuple:
        """The entries' lengthscale fields, in stack order."""
        return tuple(field for _, _, field in self.entries)

    def describe(self) -> str:
        parts = [
            f"{form.tag}(scale={scale:g})" for form, scale, _ in self.entries
        ]
        return " + ".join(parts)


@dataclass(frozen=True)
class GramResult:
    """A factor from the jitter ladder and the jitter its diagonal needed."""

    jitter_used: float
    chol: np.ndarray  # lower factor of the matrix plus `jitter_used` on its diagonal


class Workspace:
    """Owned N x N float64 buffers, reused from one likelihood evaluation to the next.

    Each buffer is a flat array kept under a key and grown to the largest N
    it has served; a smaller N gets a C-contiguous view of its first N * N
    elements, so one workspace serves every training split of a
    cross-validation. The next evaluation overwrites every buffer, so
    nothing a caller keeps may be a view into one.
    """

    def __init__(self):
        self._buffers = {}

    def matrix(self, key, n: int) -> np.ndarray:
        """An uninitialized n x n view of the buffer under `key`."""
        buf = self._buffers.get(key)
        if buf is None or buf.size < n * n:
            buf = self._buffers[key] = np.empty(n * n)
        return buf[: n * n].reshape(n, n)


# ---------------------------------------------------------------------------
# form evaluation on squared distances
# ---------------------------------------------------------------------------

def form_from_sqdist(form: KernelForm, scale: float, sqdist, out=None, scratch=None):
    """Evaluate a form on squared distances; scale enters as scale**2.

    The values go to `out` when it is given (an array of the distances'
    shape, which may be `sqdist` itself), else to a new array. Matern-3/2
    needs one more array of that shape, `scratch`, allocated when it is
    not given.
    """
    d2 = np.asarray(sqdist, dtype=float)
    if out is None:
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
        decay = np.negative(out, out=np.empty_like(out) if scratch is None else scratch)
        np.exp(decay, out=decay)
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


def sqdist_derivative_from_values(form: KernelForm, sqdist, values, out=None):
    """d(form)/d(squared distance) from the form's own values.

    Used by the likelihood gradient, it reuses the component matrix that
    Gram assembly already holds instead of recomputing the exp or power:
    SE -k/2, M3/2 -1.5k/(1 + sqrt(3 d2)), RQ -k/(2(1 + d2/(2a))), and AE
    -k/(2 sqrt(d2)). The AE derivative is unbounded at zero distance and is
    set to 0 there, which is exact wherever it matters: the squared distance
    of coincident warped points has zero sensitivity to the warp. Writes to
    `out` when it is given, else to a new array; the inputs are left alone.
    """
    d2 = np.asarray(sqdist, dtype=float)
    k = np.asarray(values, dtype=float)
    if out is None:
        out = np.empty_like(d2)
    if form.tag == "squared_exponential":
        return np.multiply(k, -0.5, out=out)
    if form.tag == "absolute_exponential":
        np.sqrt(d2, out=out)
        out *= -2.0
        np.divide(k, out, out=out, where=out < 0.0)  # out stays 0 at d2 = 0
        return out
    if form.tag == "matern_3_2":
        np.multiply(d2, 3.0, out=out)
        np.sqrt(out, out=out)
        out += 1.0
        np.divide(k, out, out=out)
        out *= -1.5
        return out
    np.divide(d2, 2.0 * form.shape, out=out)
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
    """w(x) = l(x) * x element-wise for each row of an N x n_x matrix.

    `points` may be a `PointBasis`, whose basis values are then reused.
    """
    basis = as_point_basis(points, (field,))
    ls = eval_lengthscale_batch(field, basis)  # (n_x, N)
    return ls.T * basis.points


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

def pairwise_sqdist(points, out: np.ndarray) -> np.ndarray:
    """Squared Euclidean distances between every two rows of `points`, into `out`.

    Each unordered pair is computed once: `cdist` runs on row blocks of
    the upper triangle, and each block is copied into both triangles. The
    values are cdist's own (one sum of squared differences per pair, the
    same in either order), so `out` is exactly symmetric with an exactly
    zero diagonal. Each block is a new array, not a workspace buffer: a
    kept block buffer raised a run's peak RSS by about 1 MB (fit-wide and
    cv-tall shapes) and was no faster.
    """
    n = points.shape[0]
    for s in range(0, n, SQDIST_BLOCK_ROWS):
        e = min(n, s + SQDIST_BLOCK_ROWS)
        block = cdist(points[s:e], points[s:], "sqeuclidean")
        out[s:e, s:] = block
        out[s:, s:e] = block.T
    return out


def gram_parts(stack: KernelStack, points, workspace: Workspace | None = None):
    """Per-entry warped points, squared distances, and component matrices.

    Returns a list of (form, scale, warped, sqdist, component) tuples; the
    noise-free Gram is the sum of the components. Shared by Gram assembly
    and the likelihood gradient so the geometry is computed once. `points`
    may be a `PointBasis`; plain points get one for this call, so entries
    sharing a basis family evaluate it once. The distances and components
    are buffers of `workspace`, or of a fresh one when none is given; the
    warps are always new arrays.
    """
    basis = as_point_basis(points, stack.fields)
    pts = basis.points
    if pts.shape[1] != stack.n_inputs:
        raise ValueError(
            f"points must be N x {stack.n_inputs}, got shape {pts.shape}"
        )
    ws = workspace if workspace is not None else Workspace()
    n = pts.shape[0]
    parts = []
    for i, (form, scale, field) in enumerate(stack.entries):
        w = warp_points(field, basis)
        d2 = pairwise_sqdist(w, ws.matrix(("sqdist", i), n))
        k_part = form_from_sqdist(
            form, scale, d2, ws.matrix(("component", i), n), ws.matrix("scratch", n)
        )
        parts.append((form, scale, w, d2, k_part))
    return parts


def ladder_cholesky(k: np.ndarray, context: str, out=None) -> GramResult:
    """Factorize a symmetric matrix, escalating diagonal jitter as needed.

    Each rung of the fixed ladder `JITTER_LADDER` copies `k` into the
    factor buffer `out` (a new array when it is not given), adds the rung's
    jitter to the diagonal and runs LAPACK dpotrf there in place, until the
    factorization succeeds; `k` itself is left alone. A factor whose
    diagonal is not finite counts as a failure, since LAPACK does not flag
    a NaN pivot; a non-finite entry of `k`'s lower triangle always reaches
    a later diagonal entry of the factor.
    """
    n = k.shape[0]
    factor = out if out is not None else np.empty_like(k)
    for jitter in JITTER_LADDER:
        np.copyto(factor, k)
        factor.flat[:: n + 1] += jitter
        # factor.T is Fortran-ordered, so LAPACK works on it in place; its
        # upper factor, with the rest zeroed, is the C-order lower factor
        upper, info = dpotrf(factor.T, lower=0, overwrite_a=1, clean=1)
        chol = upper.T
        if info == 0 and np.all(np.isfinite(np.diagonal(chol))):
            return GramResult(jitter_used=jitter, chol=chol)

    raise RuntimeError(
        f"covariance matrix is not positive definite even with jitter "
        f"{JITTER_LADDER[-1]:g}; stack: {context}"
    )


def noisy_gram(
    stack: KernelStack, noise: NoiseField, points, workspace: Workspace | None = None
):
    """Gram components and the noisy training covariance K + noise diagonal.

    Returns (parts, K) with `parts` as from `gram_parts`; K is a buffer of
    its own, so the components stay untouched for the likelihood gradient.
    Both live in `workspace`, or in a fresh one when none is given. The
    warps and the noise read one `PointBasis` (`points`, or one made over
    them for this call). This is the one place the training covariance is
    assembled.
    """
    basis = as_point_basis(points, stack.fields + (noise,))
    ws = workspace if workspace is not None else Workspace()
    parts = gram_parts(stack, basis, ws)
    k = ws.matrix("k", basis.points.shape[0])
    np.copyto(k, parts[0][4])
    for part in parts[1:]:
        k += part[4]
    k.flat[:: k.shape[0] + 1] += eval_noise_batch(noise, basis)
    return parts, k


def warped_cross_matrix(stack: KernelStack, warped, queries) -> np.ndarray:
    """Covariances between already-warped training points and M queries, N x M.

    `warped` holds one N x n_x array per stack entry, as `gram_parts`
    returns them; only the queries are warped here, all from one
    `PointBasis` (`queries`, or one made over them for this call).
    """
    basis = as_point_basis(queries, stack.fields)
    qs = basis.points
    n_inputs = warped[0].shape[1]
    if qs.shape[1] != n_inputs:
        raise ValueError(
            f"query dimension {qs.shape} does not match points {warped[0].shape}"
        )
    out = None
    for (form, scale, field), w in zip(stack.entries, warped):
        wq = warp_points(field, basis)
        d2 = cdist(w, wq, "sqeuclidean")
        # each form overwrites its distances; the first one becomes the sum
        k_part = form_from_sqdist(form, scale, d2, out=d2)
        if out is None:
            out = k_part
        else:
            out += k_part
    return out
