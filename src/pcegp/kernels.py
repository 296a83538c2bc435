"""Stationary kernels, their warped non-stationary forms, and Gram assembly.

The non-stationary construction warps each point by its own lengthscale
vector, w(x) = l(x) * x element-wise, and evaluates a fixed-scale
stationary form on the warped distance. A deterministic warp keeps every
form positive semidefinite regardless of the sign of l(x); a constant
field l(x) = c reproduces the stationary kernel with lengthscale 1/c.

All four forms are functions of the squared distance only, which lets
Gram assembly and the likelihood gradient share one array per stack
entry: the form's argument (`form_argument`), which is the values
themselves for squared exponential and d, sqrt(3) d or 1 + d^2 / (2a) for
the others. Every such training-side array is symmetric with a known
diagonal (d = 0, where every form is scale^2), so it is held condensed:
one float per pair of points, the strict upper triangle in `pdist` row
order, N (N - 1) / 2 floats. The distances come from scipy's compiled
`pdist`, which gives `cdist`'s bits, and all elementwise form work runs on
these vectors. K alone is square: the entries' summed values are unpacked
into it once per evaluation, for the factorization. This module is the
only one that knows the layout: `gram_parts` makes the condensed
arguments, `gradient_weights` copies out the diagonal of
A = alpha alpha^T - K^-1 and, for a stack of several entries, gathers its
pairs to a condensed vector, and `weighted_derivative` unpacks each
entry's weighted matrix into K's buffer, free by then, for the gradient's
one full-matrix product (`gp.contract_entry`). One entry is the only
reader of A's pairs, so it reads them where they lie, in K's buffer, and
no condensed copy is made.

`add_form_values` is the one evaluation of the forms: Gram assembly adds
each entry's values through it, for a value-only fit and for a gradient
alike, and prediction its cross covariances. The gradient re-forms each
entry's values and derivative from the argument (`weighted_derivative`)
instead of keeping the values. Assembly (`gram_parts`) and the cross
covariances (`warped_cross_matrix`) take each entry's (form, scale) and
its warps, so they serve both methods: a stack warped by `warp_stack`,
and the ARD baseline (`bench`), one squared-exponential entry on x / l.
The program assembles K in one place, `gp.evaluate_likelihood`, which
adds the noise diagonal, and forms cross covariances only in `gp`'s
prediction. The cross covariances stay M x N and come from `cdist`. The
distance kernels, the condensed copies and the factorization (LAPACK dpotrf) are scipy's
compiled ones, through `pcegp._native`, which loads them without the
`scipy.spatial` and `scipy.linalg` packages. The entries' warps read the
chaos-basis values of one `hyper.PointBasis` per point set, which
evaluates the stack's one basis family once.
The training-side warps that assembly makes are kept, so that prediction
from a fitted model warps only its queries.

Gram assembly writes into a `Workspace`: owned buffers, reused by every
evaluation instead of allocated afresh. What it holds depends on the
consumer. The likelihood gradient keeps K, each entry's condensed
argument, the condensed sum of the values, which later holds A's pairs,
and one condensed scratch, shared by the entries that are not squared
exponential: 4 N x N arrays' worth for the four-entry benchmark stack.
A stack of one entry keeps no sum and no copy of A's pairs: K and its
argument, 1.5 N x N arrays for squared exponential (whose argument is its
values), and the scratch besides for the other forms, 2 N x N arrays.
A value-only fit sums the values in K's own last N (N - 1) / 2 floats,
unpacks them in place, and holds K, one argument buffer and, for a
Matern-3/2 entry, the scratch. One workspace serves one command and is
freed with it: a benchmark's searches and refits share one, a search alone
has its own, and so do a baseline run's folds, under the same keys as a
one-entry stack; a call given none makes a fresh one. It is sized at the
largest training split it serves, so each buffer is allocated once,
however the fold sizes differ. K's buffer also holds its factor and, for
the likelihood gradient, A, then each entry's weighted matrix:
`ladder_cholesky` factorizes K in place, and only in place. A factor is
the lower triangle of a C-order array. LAPACK factorizes it in place as
the upper factor of its Fortran-order transpose, and the solves read it
through that transpose without copying it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._native import (
    cdist_sqeuclidean,
    dpotrf,
    gather_condensed,
    pdist_sqeuclidean,
    unpack_condensed,
)
from .hyper import (
    LengthscaleField,
    NoiseField,
    as_point_basis,
    eval_lengthscale_batch,
)

KERNEL_FORMS = (
    "squared_exponential",
    "absolute_exponential",
    "matern_3_2",
    "rational_quadratic",
)

JITTER_LADDER = (0.0, 1e-10, 1e-8, 1e-6, 1e-4)

# query rows per cdist call in `warped_cross_matrix`: bounds its one
# block-sized array per extra entry
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
        if self.tag == "rational_quadratic" and not 0.0 < self.shape < np.inf:
            raise ValueError(
                f"rational_quadratic shape must be finite and > 0, got {self.shape}"
            )

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

    @property
    def forms(self) -> tuple:
        """The entries' (form, output scale) pairs, in stack order."""
        return tuple((form, scale) for form, scale, _ in self.entries)

    def expansions(self, noise: NoiseField) -> tuple:
        """The fields with free coefficients: the stack's, then a pce `noise`."""
        return self.fields + ((noise,) if noise.mode == "pce" else ())

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
    # diagonal; the strict upper triangle is the matrix's own
    chol: np.ndarray


class Workspace:
    """Owned float64 buffers, reused from one likelihood evaluation to the next.

    Each buffer is a flat array kept under a key, made on first use for the
    rows given to `reserve` (or the N asked for, if larger). A buffer is
    either square, N x N (`matrix`), or condensed, one float per pair of
    the N points, N (N - 1) / 2 (`pairs`); a smaller N gets a C-contiguous
    view of its first elements. A cross-validation reserves its workspace
    at the largest training split it will serve, so the splits of unequal
    size share one allocation per buffer. A request past a buffer's size
    drops the buffer before the larger one is made, so the two are never
    held together; views of the old one must be dead by then, as the rule
    below has them.

    An evaluation is one call of `gp.evaluate_likelihood`, whether for a
    searched stack or for the ARD baseline, whose one squared-exponential
    entry holds the buffers of a one-entry stack.
    A gradient evaluation of an E-entry stack holds K (key "k"), square,
    which becomes the factor, then A, then each entry's weighted matrix;
    and, condensed, each entry's argument (key ("argument", i)), the sum
    of the entries' values, which later holds A's pairs (key "a"), and a
    scratch ("scratch") when any entry is not squared exponential. In
    N x N arrays that is 1 + (E + 1) / 2, plus 1 / 2 for the scratch: 4
    for the four-entry benchmark stack. One entry holds no "a": its values
    are its argument (squared exponential) or are summed in K's buffer,
    and its one contraction reads A's pairs in K's buffer. That is 1.5
    N x N arrays for one squared-exponential entry and 2 for one of
    another form. A value-only fit holds at most 2: K, in whose last
    N (N - 1) / 2 floats the values are summed, one argument buffer
    (("argument", 0)) unless the stack is one entry that is not
    Matern-3/2, and the scratch when the stack has a Matern-3/2 entry.
    These three buffers are among a gradient's for the same stack, so
    after one it allocates nothing (see `gram_parts`).

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
        self._rows = 0

    def reserve(self, rows: int) -> None:
        """Make the buffers first used or grown from now on for `rows` rows.

        Buffers already made are kept as they are: a search in a benchmark's
        workspace sizes the buffers its gradients use at its own splits, and
        a refit afterwards grows only the few a value-only fit reads.
        """
        self._rows = rows

    def _view(self, key, size: int, reserved: int) -> np.ndarray:
        buf = self._buffers.get(key)
        if buf is None or buf.size < size:
            # drop the old buffer first, so that it and its successor are
            # never both held
            del buf
            self._buffers.pop(key, None)
            buf = self._buffers[key] = np.empty(max(size, reserved))
        return buf[:size]

    def matrix(self, key, n: int) -> np.ndarray:
        """An uninitialized n x n view of the square buffer under `key`."""
        return self._view(key, n * n, self._rows * self._rows).reshape(n, n)

    def pairs(self, key, n: int) -> np.ndarray:
        """An uninitialized view of the condensed buffer under `key`: one
        float per pair of n points, in `pdist` order."""
        return self._view(key, _n_pairs(n), _n_pairs(self._rows))


# ---------------------------------------------------------------------------
# form evaluation: the argument, the values, and the derivative
# ---------------------------------------------------------------------------

def form_argument(form: KernelForm, scale: float, sqdist: np.ndarray) -> np.ndarray:
    """Overwrite squared distances d2 with the form's argument, in place.

    The argument is what Gram assembly keeps of an entry for the likelihood
    gradient: the values k themselves for squared exponential (scale
    included), d = sqrt(d2) for absolute exponential, d = sqrt(3 d2) for
    Matern-3/2 and b = 1 + d2 / (2a) for rational quadratic. Returns the
    same array.
    """
    d2 = sqdist
    if form.tag == "squared_exponential":
        d2 *= -0.5
        np.exp(d2, out=d2)
        d2 *= scale * scale
    elif form.tag == "absolute_exponential":
        np.sqrt(d2, out=d2)
    elif form.tag == "matern_3_2":
        d2 *= 3.0
        np.sqrt(d2, out=d2)
    else:
        d2 /= 2.0 * form.shape
        d2 += 1.0
    return d2


def _accumulate(k, values, first):
    if not first:
        k += values
    elif values is not k:
        np.copyto(k, values)
    return k


def add_form_values(form, scale, argument, k, scratch, first=False):
    """Add the form's values at `argument` into `k`; with `first`, write them.

    The values are s2 exp(-d) for absolute exponential, s2 b^-a for
    rational quadratic, and s2 exp(-d) + (s2 exp(-d)) d, added as those two
    terms in turn, for Matern-3/2; a squared-exponential argument is its
    values. They are formed in `scratch`, which may be `argument` itself
    (overwriting it) for every form but Matern-3/2, whose second term reads
    both; with `first`, both may also be `k`. This is the one evaluation of
    the forms: Gram assembly, for a value-only fit and for a gradient, and
    prediction's cross covariances all add their entries through it, so K
    has the same bits whichever assembly made it.
    """
    if form.tag == "squared_exponential":
        return _accumulate(k, argument, first)
    if form.tag == "rational_quadratic":
        np.power(argument, -form.shape, out=scratch)
    else:
        np.negative(argument, out=scratch)
        np.exp(scratch, out=scratch)
    scratch *= scale * scale
    _accumulate(k, scratch, first)
    if form.tag == "matern_3_2":
        scratch *= argument
        k += scratch
    return k


def form_from_sqdist(form: KernelForm, scale: float, sqdist) -> np.ndarray:
    """The form's values on squared distances, in a new array.

    The scale enters as scale**2.
    """
    argument = form_argument(form, scale, np.array(sqdist, dtype=float))
    scratch = np.empty_like(argument) if form.tag == "matern_3_2" else argument
    return add_form_values(form, scale, argument, np.empty_like(argument), scratch,
                           first=True)


@dataclass(frozen=True)
class GradientWeights:
    """A = alpha alpha^T - K^-1 as the gradient's contraction reads it.

    `diagonal` holds A's diagonal and `square` is K's buffer, which holds
    A. For a stack of two or more entries A's pairs are condensed in a
    workspace buffer (`pairs`), and K's buffer is free for each entry's
    weighted matrix (`weighted_derivative`). For one entry `pairs` is
    None: the one contraction reads A's pairs from the upper triangle of
    `square` before its weighted matrix overwrites it.
    """

    pairs: np.ndarray | None
    diagonal: np.ndarray
    square: np.ndarray


def gradient_weights(
    a: np.ndarray, workspace: Workspace, n_entries: int
) -> GradientWeights:
    """A, formed in K's buffer, with its diagonal copied out and, for a stack
    of `n_entries` > 1, its pairs gathered into the buffer that summed the
    entries' values (key "a").

    After this K's buffer holds nothing the gradient reads but, for one
    entry, A's upper triangle.
    """
    pairs = None
    if n_entries > 1:
        pairs = gather_condensed(a, workspace.pairs("a", a.shape[0]))
    return GradientWeights(pairs, np.diagonal(a).copy(), a)


def _multiply_by_upper(condensed, square):
    """Multiply the condensed vector by the strict upper triangle of `square`,
    in place, row by row: the triangle is read where it lies, and no
    condensed copy of it is made."""
    n = square.shape[0]
    start = 0
    for i in range(n - 1):
        stop = start + n - 1 - i
        segment = condensed[start:stop]
        np.multiply(segment, square[i, i + 1 :], out=segment)
        start = stop


def weighted_derivative(form: KernelForm, scale: float, argument, a, scratch):
    """A weighted by the form's squared-distance derivative, from its argument.

    `argument` is the entry's condensed argument and `a` the
    `GradientWeights`. Returns (t, factor, value_sum): t is the N x N
    matrix, in `a`'s square buffer, with factor * t = A o dk/d(d2) off
    the diagonal and 0 on it, where the contraction's
    rowsum(t) w - t w cancels exactly; value_sum = sum(A o k) / scale^2
    over the whole matrix, the sum the output-scale derivative needs, with
    A's diagonal entering once, since k = scale^2 there for every form.
    The derivatives are -k/2 (squared exponential), -s2 exp(-d) / (2d)
    (absolute exponential), -1.5 s2 exp(-d) (Matern-3/2) and -k / (2b)
    (rational quadratic), with the constant left in `factor`. Each is the
    product of A's pairs and a form factor, formed on the condensed pairs:
    the values for squared exponential, in the buffer of `argument`, and
    exp(-d) or b^-a for the others, in the buffer of `scratch`; each of
    those may be overwritten, and `scratch` is unused, and may be None,
    for squared exponential. The factor is multiplied by A's condensed
    pairs or, for one entry, which has none, by A's upper triangle in the
    square buffer, row by row; either way the products, their sums and t
    have the same bits. The absolute-exponential derivative is unbounded
    at zero distance and is exactly 0 there, which is exact wherever it
    matters: the squared distance of coincident warped points has zero
    sensitivity to the warp. A's diagonal, and its condensed pairs when
    there are any, are left alone.
    """
    s2 = scale * scale
    if form.tag == "squared_exponential":
        weighted = argument
    elif form.tag == "rational_quadratic":
        weighted = np.power(argument, -form.shape, out=scratch)
    else:
        weighted = np.negative(argument, out=scratch)
        np.exp(weighted, out=weighted)
    if a.pairs is None:
        _multiply_by_upper(weighted, a.square)
    else:
        weighted *= a.pairs
    pair_sum = float(weighted.sum())
    if form.tag == "squared_exponential":
        t, factor, pair_sum = weighted, -0.5, pair_sum / s2
    elif form.tag == "matern_3_2":
        # k / s2 = exp(-d) (1 + d)
        t, factor = weighted, -1.5 * s2
        pair_sum += float(np.vdot(weighted, argument))
    elif form.tag == "rational_quadratic":
        t, factor = np.divide(weighted, argument, out=weighted), -0.5 * s2
    else:
        # where d = 0 the quotient keeps the argument's own 0
        t = np.divide(weighted, argument, out=argument, where=argument > 0.0)
        factor = -0.5 * s2
    square = _unpack(t, 0.0, a.square)
    return square, factor, 2.0 * pair_sum + float(a.diagonal.sum())


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


def _n_pairs(n: int) -> int:
    return n * (n - 1) // 2


def _diagonal_value(forms) -> float:
    """K's noise-free diagonal: every form is scale^2 at d = 0, so this is the
    sum of the squared scales, added in entry order as K sums its entries."""
    total = 0.0
    for _, scale in forms:
        total += scale * scale
    return total


def _unpack(condensed, diagonal, square):
    """`square` with both triangles from the condensed vector and `diagonal`
    on the diagonal."""
    unpack_condensed(condensed, square)
    square.flat[:: square.shape[0] + 1] = diagonal
    return square


def _unpack_tail(square, diagonal):
    """`_unpack` of the condensed vector held in the last n (n - 1) / 2
    floats of `square` itself, with no second buffer.

    The strict upper triangle is filled row by row, top row first, then
    mirrored over the lower one. Row i ends in the buffer no later than its
    own condensed values begin, so nothing is overwritten before it is read.
    """
    n = square.shape[0]
    flat = square.reshape(-1)
    start = n * n - _n_pairs(n)
    for i in range(n - 1):
        stop = start + n - 1 - i
        square[i, i + 1 :] = flat[start:stop]
        start = stop
    mirror_lower(square.T)
    square.flat[:: n + 1] = diagonal
    return square


def gram_parts(forms, warped, workspace: Workspace | None = None, keep: bool = True):
    """The noise-free Gram K and, with `keep`, each entry's argument.

    `forms` holds each entry's (form, output scale), as `KernelStack.forms`
    gives them, and `warped` its N x n_x warped points, as `warp_stack`
    makes them. Returns (K, parts), parts a list of (form, scale, warped,
    argument, scratch) in entry order, or None without `keep`; an entry's
    scratch is the shared one, or None for squared exponential, whose
    contraction needs none (see `weighted_derivative`). This is the one
    Gram assembly: every likelihood reaches it through
    `gp.evaluate_likelihood`, which adds the noise diagonal to the K it
    returns. The elementwise work is done on condensed vectors, one
    float per pair of points in `pdist` order: each entry's squared
    distances (scipy's `pdist`, which has `cdist`'s bits) are overwritten
    with its argument (`form_argument`), whose values `add_form_values`
    adds into one condensed sum, the first entry's written, so K is the
    sum in entry order. That sum is unpacked once into K's square buffer,
    whose diagonal is the sum of the squared scales, the value of every
    form at d = 0. With `keep`, which the likelihood gradient needs, every
    entry's argument is a buffer of its own, the sum of two or more
    entries is formed in the buffer that later holds A's pairs
    (`gradient_weights`), and the values are formed in one shared scratch
    when any entry is not squared exponential. One entry's sum is its
    values: K is unpacked straight from a squared-exponential argument,
    and another form's values are written into K's own last N (N - 1) / 2
    floats and unpacked in place, as a value-only fit does. A value-only
    fit reads only K, so without `keep` the sum is formed in K's own last
    N (N - 1) / 2 floats and unpacked in place:
    the first entry is formed there (unless it is Matern-3/2) and every
    later one goes through one argument buffer, in which its values are
    then formed; the scratch is held only for a Matern-3/2 entry. Either
    way K has the same bits. The buffers are those of `workspace`, or of a
    fresh one when none is given.
    """
    ws = workspace if workspace is not None else Workspace()
    n = warped[0].shape[0]
    tags = [form.tag for form, _ in forms]
    if keep:
        needs_scratch = tags.count("squared_exponential") < len(tags)
    else:
        needs_scratch = "matern_3_2" in tags
    scratch = ws.pairs("scratch", n) if needs_scratch else None
    k = ws.matrix("k", n)
    tail = k.reshape(-1)[n * n - _n_pairs(n) :]
    if keep and len(forms) > 1:
        values = ws.pairs("a", n)
    elif keep and tags == ["squared_exponential"]:
        values = ws.pairs(("argument", 0), n)  # the argument is the values
    else:
        values = tail
    parts = [] if keep else None
    for i, ((form, scale), w) in enumerate(zip(forms, warped, strict=True)):
        se, m32 = form.tag == "squared_exponential", form.tag == "matern_3_2"
        if keep:
            argument = ws.pairs(("argument", i), n)
        else:
            argument = values if i == 0 and not m32 else ws.pairs(("argument", 0), n)
        pdist_sqeuclidean(w, out=argument)
        form_argument(form, scale, argument)
        add_form_values(form, scale, argument, values,
                        scratch if keep or m32 else argument, first=i == 0)
        if keep:
            parts.append((form, scale, w, argument, None if se else scratch))
    if values is tail:
        _unpack_tail(k, _diagonal_value(forms))
    else:
        _unpack(values, _diagonal_value(forms), k)
    return k, parts


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


def ladder_cholesky(k: np.ndarray, context: str) -> GramResult:
    """Factorize a symmetric matrix in place, escalating diagonal jitter as needed.

    `k`'s buffer becomes the factor; a caller that needs K afterwards
    passes a copy. Each rung of the fixed ladder `JITTER_LADDER` adds its
    jitter to the diagonal and runs LAPACK dpotrf, which reads and writes
    only the lower triangle, until the factorization succeeds. The strict
    upper triangle keeps K, so before a later rung the lower triangle is
    restored from it and the diagonal from a saved copy: the factor has the
    bits of one made in a fresh copy of K. A factor whose diagonal is not
    finite counts as a failure, since LAPACK does not flag a NaN pivot; a
    non-finite entry of a symmetric K always reaches a later diagonal entry
    of the factor, at every rung.
    """
    n = k.shape[0]
    diagonal = np.diagonal(k).copy()
    for rung, jitter in enumerate(JITTER_LADDER):
        if rung:
            mirror_lower(k.T)
        k.flat[:: n + 1] = diagonal + jitter
        # k.T is Fortran-ordered, so LAPACK works on it in place; its upper
        # factor is the C-order lower factor
        upper, info = dpotrf(k.T, lower=0, overwrite_a=1, clean=0)
        chol = upper.T
        if info == 0 and np.all(np.isfinite(np.diagonal(chol))):
            return GramResult(jitter, chol)

    raise RuntimeError(
        f"covariance matrix is not positive definite even with jitter "
        f"{JITTER_LADDER[-1]:g}; stack: {context}"
    )


def warped_cross_matrix(forms, warped, warped_queries) -> np.ndarray:
    """Covariances between M queries and N training points, both already warped.

    `forms` holds each entry's (form, output scale), as for `gram_parts`,
    and `warped` and `warped_queries` its warped points, N x n_x and
    M x n_x, in the same order. Returns the M x N C-order matrix, whose
    transpose is the N x M Fortran-order right-hand side that LAPACK solves
    in place (`gp.predict_batch`). It is the only M x N array made: the
    queries go through in blocks of `SQDIST_BLOCK_ROWS` rows. The first
    entry is formed in the block's rows of the result, and each later one's
    distances and argument in one block-sized array, its values then added
    in entry order (a Matern-3/2 entry's through a second such array), as
    Gram assembly adds them.
    """
    m, n = warped_queries[0].shape[0], warped[0].shape[0]
    out = np.empty((m, n))
    shape = (min(m, SQDIST_BLOCK_ROWS), n)
    tags = [form.tag for form, _ in forms]
    block = np.empty(shape) if len(forms) > 1 or tags[0] == "matern_3_2" else None
    scratch = np.empty(shape) if "matern_3_2" in tags else None
    for s in range(0, m, SQDIST_BLOCK_ROWS):
        e = min(m, s + SQDIST_BLOCK_ROWS)
        rows = out[s:e]
        for i, ((form, scale), w, wq) in enumerate(
            zip(forms, warped, warped_queries, strict=True)
        ):
            m32 = form.tag == "matern_3_2"
            argument = rows if i == 0 and not m32 else block[: e - s]
            cdist_sqeuclidean(wq[s:e], w, out=argument)
            form_argument(form, scale, argument)
            values = scratch[: e - s] if m32 else argument
            add_form_values(form, scale, argument, rows, values, first=i == 0)
    return out
