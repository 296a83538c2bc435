"""Reference implementations the tests check the package against.

Each one is the direct, unoptimized formula for something the package
computes another way: the tests compare the two.
"""

import numpy as np

from pcegp.kernels import KernelForm, KernelStack, warp_points, warped_cross_matrix


def cross_matrix(stack: KernelStack, points, queries) -> np.ndarray:
    """Covariances between N training points and M queries, N x M.

    The training points are warped afresh, where a fitted model reuses the
    warps kept from its Gram assembly.
    """
    warped = tuple(warp_points(field, points) for field in stack.fields)
    return warped_cross_matrix(stack, warped, queries)


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
