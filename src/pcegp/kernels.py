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
distances come from scipy's compiled squared-Euclidean `cdist` kernel and
the factorization from LAPACK dpotrf, both through `pcegp._native`, which
loads them without the `scipy.spatial` and `scipy.linalg` packages. The
entries' warps read the chaos-basis values of one `hyper.PointBasis` per
point set, so a stack whose entries share a basis family evaluates it once.
The training-side warps that assembly makes are kept, so that prediction
from a fitted model warps only its queries.

Gram assembly writes into a `Workspace`: owned N x N buffers, reused by
every evaluation instead of allocated afresh. What it holds depends on the
consumer. The likelihood gradient keeps each entry's squared distances and
component (one buffer for a squared-exponential entry, whose values
overwrite its distances) and K. A value-only fit adds each component into
K as soon as it is formed, so it holds K, one distance buffer and, for a
Matern-3/2 entry, one scratch. One workspace lives for one search (every
trial and fold), one benchmark's refits or one baseline fit and is freed
with it; a call given none makes a fresh one. K's buffer also holds its
factor and, for the likelihood gradient, A = alpha alpha^T - K^-1:
`ladder_cholesky` factorizes K in place. A factor is the lower triangle of
a C-order array. LAPACK factorizes it in place as the upper factor of its
Fortran-order transpose, and the solves read it through that transpose
without copying it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._native import cdist_sqeuclidean, dpotrf
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

# rows per block when one triangle of an N x N matrix is mirrored in place
TRIANGLE_BLOCK_ROWS = 128

# where a diagonal block of `mirror_lower` takes its transpose's values
_STRICT_UPPER = np.triu(np.ones((TRIANGLE_BLOCK_ROWS,) * 2, dtype=bool), 1)


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
    # lower triangle: the factor of the matrix plus `jitter_used` on its
    # diagonal; the strict upper triangle is zero, or the matrix's own when
    # the factorization ran in a given buffer
    chol: np.ndarray


class Workspace:
    """Owned N x N float64 buffers, reused from one likelihood evaluation to the next.

    Each buffer is a flat array kept under a key and grown to the largest N
    it has served; a smaller N gets a C-contiguous view of its first N * N
    elements, so one workspace serves every training split of a
    cross-validation. A gradient evaluation of an E-entry stack holds
    E + (non-squared-exponential entries) + 1 of them: each entry's
    distances, each entry's component except where a squared-exponential
    entry's values overwrite its distances, and K, which becomes the
    factor and then A. A value-only fit holds at most 3: K, which becomes
    the factor, one distance buffer, and a scratch when the stack has a
    Matern-3/2 entry; all three are among a gradient's buffers for the same
    stack, so after one it allocates nothing (see `noisy_gram`).

    What an evaluation returns from a workspace borrows its buffers until
    the next evaluation there, which overwrites them: a value-only fit's
    factor is K's buffer. So whatever reads a fit made in a workspace does
    so before the next evaluation there: `optim` scores each search fold,
    and `bench.run_benchmark` each outer fold's refit, from that buffer.
    Anything that outlives an evaluation owns what it keeps: a model that
    `gp.model_from_fit` factorizes (a loaded model, the closing fit of
    `pcegp fit`) holds the factor in the buffer of a workspace of its own,
    its strict upper triangle zeroed in place (`zero_upper`).
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
        block = cdist_sqeuclidean(points[s:e], points[s:])
        out[s:e, s:] = block
        out[s:, s:e] = block.T
        del block  # so that only one block is alive at the next call
    return out


def warp_stack(stack: KernelStack, points) -> tuple:
    """Each stack entry's warped points, N x n_x, all from one `PointBasis`.

    `points` may be a `PointBasis`; plain points get one for this call,
    freed when it returns.
    """
    basis = as_point_basis(points, stack.fields)
    if basis.points.shape[1] != stack.n_inputs:
        raise ValueError(
            f"points must be N x {stack.n_inputs}, got shape {basis.points.shape}"
        )
    return tuple(warp_points(field, basis) for field in stack.fields)


def gram_parts(stack: KernelStack, points, workspace: Workspace | None = None):
    """Per-entry warped points, squared distances, and component matrices.

    Returns a list of (form, scale, warped, sqdist, component) tuples; the
    noise-free Gram is the sum of the components. This is the assembly the
    likelihood gradient reads, so the geometry is computed once. `points`
    may be a `PointBasis`, or the tuple of warps that `warp_stack` makes;
    plain points get a basis for this call, so entries sharing a basis
    family evaluate it once, and it is freed before the N x N arrays are
    filled. The distances and components are buffers of `workspace`, or of
    a fresh one when none is given. A squared-exponential entry's values
    overwrite its distances, since its derivative reads only the values:
    its sqdist and component are one array. Matern-3/2 takes K's buffer as
    its scratch, which `noisy_gram` fills only after the parts.
    """
    warped = points if isinstance(points, tuple) else warp_stack(stack, points)
    ws = workspace if workspace is not None else Workspace()
    n = warped[0].shape[0]
    parts = []
    for i, ((form, scale, _), w) in enumerate(zip(stack.entries, warped)):
        d2 = pairwise_sqdist(w, ws.matrix(("sqdist", i), n))
        se = form.tag == "squared_exponential"
        out = d2 if se else ws.matrix(("component", i), n)
        k_part = form_from_sqdist(form, scale, d2, out, ws.matrix("k", n))
        parts.append((form, scale, w, d2, k_part))
    return parts


def mirror_lower(a: np.ndarray) -> np.ndarray:
    """Copy the lower triangle of a square array over its upper one, in place.

    Works in blocks of `TRIANGLE_BLOCK_ROWS` rows, so no N x N temporary is
    made; `mirror_lower(a.T)` copies the upper triangle over the lower one.
    """
    n = a.shape[0]
    for s in range(0, n, TRIANGLE_BLOCK_ROWS):
        e = min(n, s + TRIANGLE_BLOCK_ROWS)
        a[s:e, e:] = a[e:, s:e].T
        block = a[s:e, s:e]
        np.copyto(block, block.T, where=_STRICT_UPPER[: e - s, : e - s])
    return a


def zero_upper(a: np.ndarray) -> np.ndarray:
    """Zero the strict upper triangle of a square array in place, row by row:
    `np.tril` without its N x N copy and mask, and no temporary at all."""
    for i in range(a.shape[0] - 1):
        a[i, i + 1 :] = 0.0
    return a


def ladder_cholesky(k: np.ndarray, context: str, out=None) -> GramResult:
    """Factorize a symmetric matrix, escalating diagonal jitter as needed.

    The factorization runs in place in `out`, which may be `k` itself, as
    in the likelihood; `k` is copied there first otherwise. Without `out` it
    runs in a new array, whose strict upper triangle is zeroed on success,
    and `k` is left alone. Each rung of the fixed ladder `JITTER_LADDER`
    adds its jitter to the diagonal and runs LAPACK dpotrf, which reads and
    writes only the lower triangle, until the factorization succeeds. The
    strict upper triangle keeps K, so before a later rung the lower
    triangle is restored from it and the diagonal from a saved copy: the
    factor has the bits of one made in a fresh copy of K. A factor whose
    diagonal is not finite counts as a failure, since LAPACK does not flag
    a NaN pivot; a non-finite entry of a symmetric K always reaches a later
    diagonal entry of the factor, at every rung.
    """
    n = k.shape[0]
    factor = np.empty((n, n)) if out is None else out
    if factor is not k:
        np.copyto(factor, k)
    diagonal = np.diagonal(factor).copy()
    for rung, jitter in enumerate(JITTER_LADDER):
        if rung:
            mirror_lower(factor.T)
        factor.flat[:: n + 1] = diagonal + jitter
        # factor.T is Fortran-ordered, so LAPACK works on it in place; its
        # upper factor is the C-order lower factor
        upper, info = dpotrf(factor.T, lower=0, overwrite_a=1, clean=0)
        chol = upper.T
        if info == 0 and np.all(np.isfinite(np.diagonal(chol))):
            return GramResult(jitter, zero_upper(chol) if out is None else chol)

    raise RuntimeError(
        f"covariance matrix is not positive definite even with jitter "
        f"{JITTER_LADDER[-1]:g}; stack: {context}"
    )


def noisy_gram(
    stack: KernelStack,
    noise: NoiseField,
    points,
    workspace: Workspace | None = None,
    gradient: bool = False,
):
    """The noisy training covariance K + noise diagonal, with what made it.

    Returns (warped, K, parts): each entry's warped training points, K,
    and, with `gradient`, the parts as `gram_parts` makes them, else None.
    This is the one place the training covariance is assembled, for two
    consumers. The gradient keeps every entry's distances and component,
    so K is their sum in a buffer of its own. A value-only fit reads only
    K, so each component is added into K as soon as it is formed, through
    one distance buffer: the first entry's values go straight to K, each
    later entry's overwrite its distances and are then added. Either way K
    is the same sum in stack order, then the noise diagonal, so it has the
    same bits. A Matern-3/2 entry of a value-only fit takes as scratch the
    component buffer of the stack's first Matern-3/2 entry, which a
    gradient of the same stack holds too. The buffers are those of
    `workspace`, or of a fresh one when none is given. The warps and the
    noise read one `PointBasis` (`points`, or one made over them for this
    call and freed before the N x N arrays are filled).
    """
    basis = as_point_basis(points, stack.fields + (noise,))
    warped = warp_stack(stack, basis)
    noise_diagonal = eval_noise_batch(noise, basis)
    del basis
    ws = workspace if workspace is not None else Workspace()
    n = warped[0].shape[0]
    k = ws.matrix("k", n)
    parts = None
    if gradient:
        parts = gram_parts(stack, warped, ws)
        np.copyto(k, parts[0][4])
        for part in parts[1:]:
            k += part[4]
    else:
        d2 = ws.matrix(("sqdist", 0), n)
        m32 = [i for i, (form, _, _) in enumerate(stack.entries)
               if form.tag == "matern_3_2"]
        scratch = ws.matrix(("component", m32[0]), n) if m32 else None
        for i, ((form, scale, _), w) in enumerate(zip(stack.entries, warped)):
            pairwise_sqdist(w, d2)
            if i == 0:
                form_from_sqdist(form, scale, d2, out=k, scratch=scratch)
            else:
                k += form_from_sqdist(form, scale, d2, out=d2, scratch=scratch)
    k.flat[:: n + 1] += noise_diagonal
    return warped, k, parts


def warped_cross_matrix(stack: KernelStack, warped, warped_queries) -> np.ndarray:
    """Covariances between N training points and M queries, both already warped.

    `warped` and `warped_queries` hold one array per stack entry, N x n_x
    and M x n_x, as `warp_stack` makes them. Returns the N x M matrix; the
    entries after the first share one more N x M array for their distances.
    """
    out = d2 = None
    for (form, scale, _), w, wq in zip(stack.entries, warped, warped_queries):
        d2 = cdist_sqeuclidean(w, wq, out=d2)
        # each form overwrites its distances; the first one becomes the sum
        if out is None:
            out, d2 = form_from_sqdist(form, scale, d2, out=d2), None
        else:
            out += form_from_sqdist(form, scale, d2, out=d2)
    return out
