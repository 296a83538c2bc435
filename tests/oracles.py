"""Reference implementations the tests check the package against.

Each one is the direct, unoptimized formula for something the package
computes another way: the tests compare the two.
"""

import numpy as np
from scipy.linalg.lapack import dpotrf
from scipy.spatial.distance import squareform

from pcegp.hyper import NoiseField, PointBasis, eval_noise_batch
from pcegp.kernels import (
    JITTER_LADDER,
    KernelForm,
    KernelStack,
    add_form_values,
    gram_parts,
    warp_points,
    warp_stack,
    warped_cross_matrix,
)


def cross_matrix(stack: KernelStack, points, queries) -> np.ndarray:
    """Covariances between N training points and M queries, N x M.

    The training points are warped afresh, where a fitted model reuses the
    warps kept from its Gram assembly. The array is the transpose of the
    package's M x N one: Fortran-ordered, so its own transpose reads the
    memory the package's prediction reads.
    """
    warped = tuple(warp_points(field, points) for field in stack.fields)
    queries = np.atleast_2d(np.asarray(queries, dtype=float))
    warped_q = tuple(warp_points(field, queries) for field in stack.fields)
    return warped_cross_matrix(stack.forms, warped, warped_q).T


def form_sqdist_derivative(form: KernelForm, scale: float, sqdist):
    """d(form)/d(squared distance) from the closed forms, not from values.

    The absolute-exponential derivative is unbounded at zero distance; it
    is set to 0 there, as the package does.
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


def ladder_by_copies(k):
    """(jitter, factor) from the jitter ladder run on a fresh copy of K per rung.

    The factor has zeros above the diagonal; (None, None) when every rung
    fails.
    """
    n = k.shape[0]
    for jitter in JITTER_LADDER:
        factor = k.copy()
        factor.flat[:: n + 1] += jitter
        upper, info = dpotrf(factor.T, lower=0, overwrite_a=1, clean=1)
        if info == 0 and np.all(np.isfinite(np.diagonal(upper))):
            return jitter, upper.T
    return None, None


def gram_by_parts(stack: KernelStack, noise: NoiseField, points):
    """K + noise diagonal as the likelihood gradient's assembly makes it.

    Every entry's argument is kept, condensed, in a buffer of its own, and
    its values are added into the sum through the scratch. Each kept
    argument must still give K's bits afterwards, re-formed in stack order
    into a fresh condensed array, unpacked by scipy's `squareform` and
    given every form's value at zero distance, the squared scale, on the
    diagonal: the gradient's contraction reads the arguments once K is gone.
    """
    basis = PointBasis(points, stack.expansions(noise))
    k, parts = gram_parts(stack.forms, warp_stack(stack, basis))
    again = np.empty_like(parts[0][3])
    diagonal = 0.0
    for i, (form, scale, _, argument, _) in enumerate(parts):
        add_form_values(form, scale, argument.copy(), again, np.empty_like(again),
                        first=i == 0)
        diagonal += scale * scale
    again = squareform(again)
    np.fill_diagonal(again, diagonal)
    assert again.tobytes() == k.tobytes()
    k.flat[:: k.shape[0] + 1] += eval_noise_batch(noise, basis)
    return k
