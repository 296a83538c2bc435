"""Tests for kernel forms, warped kernels, and Gram assembly."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial.distance import cdist

from pcegp.hyper import LengthscaleField, NoiseField
from pcegp.kernels import (
    KernelForm,
    KernelStack,
    cross_matrix,
    form_from_sqdist,
    form_sqdist_derivative,
    gram_parts,
    kernel_nonstationary,
    kernel_stationary,
    ladder_cholesky,
    noisy_gram,
    warp_points,
)
from pcegp.poly import Basis

ALL_FORMS = [
    KernelForm.se(),
    KernelForm.ae(),
    KernelForm.matern32(),
    KernelForm.rq(1.0),
]


def const_field(c, n_inputs):
    return LengthscaleField(((Basis.legendre01(), [c]),), n_inputs)


def random_field(rng, n_inputs, degree=3, scale=1.0):
    coeffs = rng.normal(size=degree + 1) * scale
    return LengthscaleField(((Basis.legendre01(), coeffs),), n_inputs)


def pointwise_sum(stack, x, x2):
    """Brute-force summed kernel: one point-wise evaluation per stack entry."""
    return sum(
        kernel_nonstationary(form, scale, field, x, x2)
        for form, scale, field in stack.entries
    )


def factored_gram(stack, noise, points):
    """Noisy training covariance through the jitter ladder, as the GP builds it."""
    return ladder_cholesky(noisy_gram(stack, noise, points)[1], stack.describe())


# ---------------------------------------------------------------------------
# stationary forms
# ---------------------------------------------------------------------------

def test_zero_distance_gives_scale_squared():
    x = np.array([0.4, -1.2])
    for form in ALL_FORMS:
        assert kernel_stationary(form, 1.0, 1.0, x, x) == pytest.approx(1.0)
        assert kernel_stationary(form, 2.5, 0.7, x, x) == pytest.approx(6.25)


def test_squared_exponential_value():
    got = kernel_stationary(KernelForm.se(), 1.0, 1.0, [0.0], [1.0])
    assert got == pytest.approx(np.exp(-0.5), abs=1e-12)


def test_absolute_exponential_value():
    got = kernel_stationary(KernelForm.ae(), 1.0, 2.0, [0.0], [1.0])
    assert got == pytest.approx(np.exp(-0.5), abs=1e-12)


def test_matern_value():
    got = kernel_stationary(KernelForm.matern32(), 1.0, 1.0, [0.0], [1.0])
    expected = (1.0 + np.sqrt(3.0)) * np.exp(-np.sqrt(3.0))
    assert got == pytest.approx(expected, abs=1e-12)
    assert got == pytest.approx(0.48335, abs=1e-4)


def test_rational_quadratic_limits_to_squared_exponential():
    for d in (0.3, 1.0, 2.2):
        rq = kernel_stationary(KernelForm.rq(1e4), 1.0, 1.0, [0.0], [d])
        se = kernel_stationary(KernelForm.se(), 1.0, 1.0, [0.0], [d])
        assert abs(rq - se) < 1e-3


def test_stationary_validation():
    with pytest.raises(ValueError):
        kernel_stationary(KernelForm.se(), 1.0, 0.0, [0.0], [1.0])
    with pytest.raises(ValueError):
        kernel_stationary(KernelForm.se(), 1.0, 1.0, [0.0], [1.0, 2.0])
    with pytest.raises(ValueError):
        KernelForm.rq(0.0)
    with pytest.raises(ValueError):
        KernelForm("periodic")


# ---------------------------------------------------------------------------
# warped (non-stationary) forms
# ---------------------------------------------------------------------------

def test_identical_points_give_scale_squared():
    rng = np.random.default_rng(0)
    field = random_field(rng, 2)
    x = rng.uniform(size=2)
    for form in ALL_FORMS:
        assert kernel_nonstationary(form, 1.3, field, x, x) == pytest.approx(1.69)


def test_constant_field_squared_exponential_hand_value():
    field = const_field(2.0, 1)
    got = kernel_nonstationary(KernelForm.se(), 1.0, field, [0.0], [1.0])
    assert got == pytest.approx(np.exp(-2.0), abs=1e-12)


def test_zero_field_collapses_to_constant_kernel():
    field = const_field(0.0, 2)
    rng = np.random.default_rng(1)
    for form in ALL_FORMS:
        for _ in range(3):
            x, x2 = rng.uniform(size=2), rng.uniform(size=2)
            assert kernel_nonstationary(form, 1.5, field, x, x2) == pytest.approx(2.25)


def test_reduction_law_constant_field_matches_inverse_lengthscale():
    rng = np.random.default_rng(2)
    for c in (0.5, 1.0, 2.0):
        field = const_field(c, 3)
        for form in ALL_FORMS:
            for _ in range(5):
                x, x2 = rng.uniform(size=3), rng.uniform(size=3)
                ns = kernel_nonstationary(form, 1.1, field, x, x2)
                st = kernel_stationary(form, 1.1, 1.0 / c, x, x2)
                assert abs(ns - st) < 1e-12


def test_warped_kernel_symmetry():
    rng = np.random.default_rng(3)
    field = random_field(rng, 2)
    for form in ALL_FORMS:
        x, x2 = rng.uniform(size=2), rng.uniform(size=2)
        a = kernel_nonstationary(form, 0.9, field, x, x2)
        b = kernel_nonstationary(form, 0.9, field, x2, x)
        assert a == pytest.approx(b, abs=1e-15)


def test_warp_points_is_hadamard_product():
    field = LengthscaleField(((Basis.legendre01(), [0.0, 1.0]),), 2)
    pts = np.array([[0.25, 0.75]])
    # l(x) = 2x - 1 per coordinate -> w = (2x-1) * x
    np.testing.assert_allclose(warp_points(field, pts), [[-0.125, 0.375]], atol=1e-14)
    # two copies of one point warp to the same bits wherever they sit
    pts = np.linspace(0.0, 1.0, 9)[:, None]
    pts[[0, 8]] = 0.09015444400489915
    field = LengthscaleField(((Basis.legendre01(), [1.0, 0.0, -2.75]),), 1)
    w = warp_points(field, pts)
    assert w[0, 0] == w[8, 0]


# ---------------------------------------------------------------------------
# summed kernel
# ---------------------------------------------------------------------------

def test_stack_entries_add():
    rng = np.random.default_rng(4)
    field = random_field(rng, 2)
    entry = (KernelForm.se(), 1.2, field)
    x, x2 = rng.uniform(size=(1, 2)), rng.uniform(size=(1, 2))
    single = cross_matrix(KernelStack((entry,)), x, x2)[0, 0]
    assert single == pytest.approx(kernel_nonstationary(*entry, x, x2))
    double = cross_matrix(KernelStack((entry, entry)), x, x2)[0, 0]
    assert double == pytest.approx(2.0 * single)


def test_four_kernel_stack_diagonal_is_four():
    rng = np.random.default_rng(5)
    entries = tuple(
        (form, 1.0, random_field(rng, 2)) for form in ALL_FORMS
    )
    x = rng.uniform(size=(1, 2))
    assert cross_matrix(KernelStack(entries), x, x)[0, 0] == pytest.approx(4.0)


def test_stack_validation():
    field = const_field(1.0, 2)
    with pytest.raises(ValueError):
        KernelStack(())
    with pytest.raises(ValueError):
        KernelStack(((KernelForm.se(), 0.0, field),))
    with pytest.raises(ValueError):
        KernelStack(
            ((KernelForm.se(), 1.0, field), (KernelForm.se(), 1.0, const_field(1.0, 3)))
        )


# ---------------------------------------------------------------------------
# Gram assembly
# ---------------------------------------------------------------------------

def test_gram_single_point():
    field = const_field(1.0, 1)
    stack = KernelStack(((KernelForm.se(), 1.0, field),))
    res = factored_gram(stack, NoiseField.fixed(1e-4), np.array([[0.5]]))
    assert res.matrix.shape == (1, 1)
    assert res.matrix[0, 0] == pytest.approx(1.0 + 1e-4 + res.jitter_used)


def test_gram_symmetry_and_cholesky():
    rng = np.random.default_rng(6)
    stack = KernelStack(
        tuple((form, 1.0 + 0.1 * i, random_field(rng, 3)) for i, form in enumerate(ALL_FORMS))
    )
    pts = rng.uniform(size=(20, 3))
    res = factored_gram(stack, NoiseField.fixed(1e-4), pts)
    assert np.max(np.abs(res.matrix - res.matrix.T)) <= 1e-12
    np.testing.assert_allclose(res.chol @ res.chol.T, res.matrix, atol=1e-10)


def test_gram_matches_pointwise_kernels():
    rng = np.random.default_rng(7)
    stack = KernelStack(
        ((KernelForm.matern32(), 0.8, random_field(rng, 2)),)
    )
    pts = rng.uniform(size=(6, 2))
    noise = NoiseField.fixed(1e-3)
    res = factored_gram(stack, noise, pts)
    for i in range(6):
        for j in range(6):
            expected = pointwise_sum(stack, pts[i], pts[j])
            if i == j:
                expected += 1e-3 + res.jitter_used
            assert res.matrix[i, j] == pytest.approx(expected, abs=1e-12)


def test_gram_duplicate_rows_need_jitter():
    # noise below float eps leaves the duplicate block exactly singular
    field = const_field(1.0, 1)
    stack = KernelStack(((KernelForm.se(), 1.0, field),))
    pts = np.array([[0.5], [0.5], [0.5]])
    res = factored_gram(stack, NoiseField.fixed(1e-16), pts)
    assert res.jitter_used > 0.0
    np.testing.assert_allclose(res.chol @ res.chol.T, res.matrix, atol=1e-12)


def test_gram_failure_reports_stack():
    field = const_field(1.0, 1)
    stack = KernelStack(((KernelForm.se(), 1e12, field),))
    pts = np.full((3, 1), 0.5)
    with pytest.raises(RuntimeError, match="squared_exponential"):
        factored_gram(stack, NoiseField.fixed(1e-15), pts)


def test_noise_free_gram_is_psd():
    rng = np.random.default_rng(8)
    for form in ALL_FORMS:
        n = int(rng.integers(8, 64))
        d = int(rng.integers(1, 5))
        stack = KernelStack(((form, 1.0, random_field(rng, d, scale=1.5)),))
        pts = rng.uniform(size=(n, d))
        k = sum(p[4] for p in gram_parts(stack, pts))
        eig = np.linalg.eigvalsh(k)
        assert eig.min() >= -1e-8 * eig.max(), form.tag


@settings(max_examples=60, deadline=None, database=None, derandomize=True)
@given(
    n_x=st.integers(1, 4),
    rows=st.lists(st.integers(0, 5), min_size=1, max_size=12),
    data=st.data(),
)
def test_gram_sqdist_matches_cdist_with_duplicate_rows(n_x, rows, data):
    # rows index a pool of six points, so repeated indices duplicate points
    unit = st.floats(0.0, 1.0, allow_nan=False)
    pool = np.array(data.draw(st.lists(
        st.lists(unit, min_size=n_x, max_size=n_x), min_size=6, max_size=6
    )))
    coeffs = data.draw(st.lists(st.floats(-3.0, 3.0), min_size=1, max_size=4))
    field = LengthscaleField(((Basis.legendre01(), coeffs),), n_x)
    stack = KernelStack(((KernelForm.ae(), 1.0, field),))
    [(_, _, w, d2, _)] = gram_parts(stack, pool[rows])
    assert np.array_equal(d2, cdist(w, w, "sqeuclidean"))
    assert np.array_equal(d2, d2.T)
    assert np.all(np.diag(d2) == 0.0)
    assert np.all(d2[np.equal.outer(rows, rows)] == 0.0)


# ---------------------------------------------------------------------------
# cross covariances
# ---------------------------------------------------------------------------

def test_cross_matrix_matches_brute_force():
    rng = np.random.default_rng(9)
    stack = KernelStack(
        (
            (KernelForm.se(), 1.0, random_field(rng, 2)),
            (KernelForm.rq(2.0), 0.7, random_field(rng, 2)),
        )
    )
    pts = rng.uniform(size=(8, 2))
    stars = rng.uniform(size=(3, 2))
    got = cross_matrix(stack, pts, stars)
    brute = np.array([[pointwise_sum(stack, p, s) for s in stars] for p in pts])
    np.testing.assert_allclose(got, brute, atol=1e-14)


def test_cross_matrix_at_training_row():
    rng = np.random.default_rng(10)
    stack = KernelStack(((KernelForm.ae(), 1.0, random_field(rng, 2)),))
    pts = rng.uniform(size=(5, 2))
    got = cross_matrix(stack, pts, pts[3])[:, 0]
    assert got[3] == pytest.approx(1.0)  # scale^2 at zero warped distance


def test_cross_matrix_dimension_mismatch():
    stack = KernelStack(((KernelForm.se(), 1.0, const_field(1.0, 2)),))
    with pytest.raises(ValueError):
        cross_matrix(stack, np.zeros((4, 2)), [0.1, 0.2, 0.3])


# ---------------------------------------------------------------------------
# squared-distance derivatives (oracle for the likelihood gradient)
# ---------------------------------------------------------------------------

def test_form_sqdist_derivative_matches_finite_difference():
    d2 = np.array([0.05, 0.4, 1.3, 4.0])
    h = 1e-7
    for form in ALL_FORMS:
        analytic = form_sqdist_derivative(form, 1.2, d2)
        fd = (
            form_from_sqdist(form, 1.2, d2 + h) - form_from_sqdist(form, 1.2, d2 - h)
        ) / (2.0 * h)
        np.testing.assert_allclose(analytic, fd, rtol=1e-6, atol=1e-9,
                                   err_msg=form.tag)


def test_absolute_exponential_derivative_is_zero_at_origin():
    got = form_sqdist_derivative(KernelForm.ae(), 1.0, np.array([0.0, 1.0]))
    assert got[0] == 0.0
    assert np.isfinite(got).all()
