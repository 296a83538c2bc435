"""Tests for kernel forms, warped kernels, and Gram assembly."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial.distance import cdist, squareform

import pcegp.kernels as kernels_mod
from pcegp.bench import _ard_entry
from pcegp.hyper import LengthscaleField, NoiseField
from pcegp.kernels import (
    SQDIST_BLOCK_ROWS,
    TRIANGLE_BLOCK_ROWS,
    KernelForm,
    KernelStack,
    Workspace,
    add_form_values,
    form_argument,
    form_from_sqdist,
    gradient_weights,
    gram_parts,
    kernel_nonstationary,
    kernel_stationary,
    ladder_cholesky,
    mirror_lower,
    noisy_gram,
    warp_points,
    warp_stack,
    warped_cross_matrix,
    weighted_derivative,
)
from pcegp.poly import Basis

from oracles import cross_matrix, form_sqdist_derivative, ladder_by_copies

ALL_FORMS = [
    KernelForm.se(),
    KernelForm.ae(),
    KernelForm.matern32(),
    KernelForm.rq(1.0),
]


def const_field(c, n_inputs):
    return LengthscaleField(Basis.legendre01(), [c], n_inputs)


def random_field(rng, n_inputs, degree=3, scale=1.0):
    coeffs = rng.normal(size=degree + 1) * scale
    return LengthscaleField(Basis.legendre01(), coeffs, n_inputs)


def pointwise_sum(stack, x, x2):
    """Brute-force summed kernel: one point-wise evaluation per stack entry."""
    return sum(
        kernel_nonstationary(form, scale, field, x, x2)
        for form, scale, field in stack.entries
    )


def factored_gram(stack, noise, points):
    """(K + jitter I, ladder result): the noisy covariance the GP factorizes."""
    k = noisy_gram(stack, noise, points)[1]
    res = ladder_cholesky(k.copy(), stack.describe())
    return k + res.jitter_used * np.eye(k.shape[0]), res


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


@pytest.mark.parametrize("shape", [np.nan, np.inf])
def test_rational_quadratic_shape_must_be_finite_and_positive(shape):
    with pytest.raises(ValueError, match="shape"):
        KernelForm.rq(shape)


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
    field = LengthscaleField(Basis.legendre01(), [0.0, 1.0], 2)
    pts = np.array([[0.25, 0.75]])
    # l(x) = 2x - 1 per coordinate -> w = (2x-1) * x
    np.testing.assert_allclose(warp_points(field, pts), [[-0.125, 0.375]], atol=1e-14)
    # two copies of one point warp to the same bits wherever they sit
    pts = np.linspace(0.0, 1.0, 9)[:, None]
    pts[[0, 8]] = 0.09015444400489915
    field = LengthscaleField(Basis.legendre01(), [1.0, 0.0, -2.75], 1)
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
    k, res = factored_gram(stack, NoiseField.fixed(1e-4), np.array([[0.5]]))
    assert k.shape == (1, 1)
    assert k[0, 0] == pytest.approx(1.0 + 1e-4 + res.jitter_used)


def test_gram_symmetry_and_cholesky():
    rng = np.random.default_rng(6)
    stack = KernelStack(
        tuple((form, 1.0 + 0.1 * i, random_field(rng, 3)) for i, form in enumerate(ALL_FORMS))
    )
    pts = rng.uniform(size=(20, 3))
    k, res = factored_gram(stack, NoiseField.fixed(1e-4), pts)
    assert np.max(np.abs(k - k.T)) <= 1e-12
    chol = np.tril(res.chol)  # the strict upper triangle keeps K
    np.testing.assert_allclose(chol @ chol.T, k, atol=1e-10)


def test_gram_matches_pointwise_kernels():
    rng = np.random.default_rng(7)
    stack = KernelStack(
        ((KernelForm.matern32(), 0.8, random_field(rng, 2)),)
    )
    pts = rng.uniform(size=(6, 2))
    noise = NoiseField.fixed(1e-3)
    k, res = factored_gram(stack, noise, pts)
    for i in range(6):
        for j in range(6):
            expected = pointwise_sum(stack, pts[i], pts[j])
            if i == j:
                expected += 1e-3 + res.jitter_used
            assert k[i, j] == pytest.approx(expected, abs=1e-12)


def test_gram_duplicate_rows_need_jitter():
    # noise below float eps leaves the duplicate block exactly singular
    field = const_field(1.0, 1)
    stack = KernelStack(((KernelForm.se(), 1.0, field),))
    pts = np.array([[0.5], [0.5], [0.5]])
    k, res = factored_gram(stack, NoiseField.fixed(1e-16), pts)
    assert res.jitter_used > 0.0
    chol = np.tril(res.chol)  # the strict upper triangle keeps K
    np.testing.assert_allclose(chol @ chol.T, k, atol=1e-12)


def test_gram_failure_reports_stack():
    field = const_field(1.0, 1)
    stack = KernelStack(((KernelForm.se(), 1e12, field),))
    pts = np.full((3, 1), 0.5)
    with pytest.raises(RuntimeError, match="squared_exponential"):
        factored_gram(stack, NoiseField.fixed(1e-15), pts)


@pytest.mark.parametrize("i, j, value", [(2, 3, np.nan), (1, 1, np.inf)])
def test_ladder_rejects_a_non_finite_factor(i, j, value):
    # LAPACK factorizes a NaN pivot without an error code; the ladder checks
    # the factor's diagonal, so every rung fails and the stack is named
    k = np.eye(5)
    k[i, j] = k[j, i] = value
    with pytest.raises(RuntimeError, match="stack: the test stack"):
        ladder_cholesky(k, "the test stack")


@pytest.mark.parametrize("n", [7, 130, 300, 700])
def test_ladder_in_place_gives_the_bits_of_a_copy_per_rung(n):
    # duplicated rows make K exactly singular, so rung 0 fails and the
    # in-place ladder restores K's lower triangle from its upper one
    rng = np.random.default_rng(n)
    x = rng.uniform(size=(n, 2))
    x[n // 2:] = x[: n - n // 2]
    stack = KernelStack(((KernelForm.se(), 1.0, const_field(1.5, 2)),))
    k = noisy_gram(stack, NoiseField.fixed(1e-16), x)[1]
    jitter, reference = ladder_by_copies(k)
    assert jitter is not None and jitter > 0.0

    buffer = k.copy()
    in_place = ladder_cholesky(buffer, "test")
    assert in_place.jitter_used == jitter
    assert np.shares_memory(in_place.chol, buffer)
    np.testing.assert_array_equal(np.tril(in_place.chol), reference)
    # the strict upper triangle still holds K
    iu = np.triu_indices(n, 1)
    np.testing.assert_array_equal(in_place.chol[iu], k[iu])


def test_ladder_in_place_fails_every_rung_on_a_nan(monkeypatch):
    calls = []
    dpotrf = kernels_mod.dpotrf

    def counting(a, **kwargs):
        calls.append(a.shape[0])
        return dpotrf(a, **kwargs)

    monkeypatch.setattr(kernels_mod, "dpotrf", counting)
    rng = np.random.default_rng(3)
    x = rng.uniform(size=(40, 2))
    stack = KernelStack(((KernelForm.se(), 1.0, const_field(1.0, 2)),))
    k = noisy_gram(stack, NoiseField.fixed(1e-6), x)[1]
    k[30, 4] = k[4, 30] = np.nan  # a non-finite Gram entry, in both triangles
    with pytest.raises(RuntimeError, match="stack: nan"):
        ladder_cholesky(k, "nan")
    assert calls == [40] * 5


@pytest.mark.parametrize(
    "n",
    [1, TRIANGLE_BLOCK_ROWS - 1, TRIANGLE_BLOCK_ROWS, TRIANGLE_BLOCK_ROWS + 1,
     2 * TRIANGLE_BLOCK_ROWS + 3],
)
def test_mirror_lower_copies_the_lower_triangle_over_the_upper(n):
    rng = np.random.default_rng(n)
    a = rng.normal(size=(n, n))
    want = np.tril(a) + np.tril(a, -1).T
    assert mirror_lower(a.copy()).tobytes() == want.tobytes()
    # the transposed view of a C-order buffer that `ladder_cholesky` passes
    buffer = a.T.copy()
    mirror_lower(buffer.T)
    assert buffer.T.tobytes() == want.tobytes()


def test_noise_free_gram_is_psd():
    rng = np.random.default_rng(8)
    for form in ALL_FORMS:
        n = int(rng.integers(8, 64))
        d = int(rng.integers(1, 5))
        stack = KernelStack(((form, 1.0, random_field(rng, d, scale=1.5)),))
        pts = rng.uniform(size=(n, d))
        k, _ = gram_parts(stack.forms, warp_stack(stack, pts))
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
    field = LengthscaleField(Basis.legendre01(), coeffs, n_x)
    stack = KernelStack(((KernelForm.ae(), 1.0, field),))
    check_condensed_assembly(stack, pool[rows], rows)


def check_condensed_assembly(stack, x, rows):
    """An absolute-exponential entry of scale 1 keeps d = sqrt(d2) as its
    argument, one float per pair of rows: cdist's upper triangle in row
    order, 0 for repeated rows. K, from either assembly, is exp(-d) unpacked
    by scipy's `squareform` with 1 on the diagonal."""
    k, [(_, _, w, d, _)] = gram_parts(stack.forms, warp_stack(stack, x))
    upper = np.triu_indices(len(rows), 1)
    assert np.array_equal(d, np.sqrt(cdist(w, w, "sqeuclidean")[upper]))
    assert np.all(d[np.asarray(rows)[upper[0]] == np.asarray(rows)[upper[1]]] == 0.0)
    want = squareform(np.exp(-d))
    np.fill_diagonal(want, 1.0)
    assert k.tobytes() == want.tobytes()
    assert gram_parts(stack.forms, warp_stack(stack, x), keep=False)[0].tobytes() == (
        want.tobytes()
    )


@pytest.mark.parametrize(
    "n_rows",
    [SQDIST_BLOCK_ROWS - 1, SQDIST_BLOCK_ROWS, SQDIST_BLOCK_ROWS + 1,
     2 * SQDIST_BLOCK_ROWS + 1],
)
def test_sqdist_matches_cdist_across_row_blocks(n_rows):
    # the training distances are one pdist call, the cross covariances go
    # through the queries in blocks of SQDIST_BLOCK_ROWS rows; rows drawn
    # from a small pool repeat, within a block and across block edges
    rng = np.random.default_rng(n_rows)
    rows = rng.integers(0, 9, size=n_rows)
    x = rng.uniform(size=(9, 3))[rows]
    check_condensed_assembly(
        KernelStack(((KernelForm.ae(), 1.0, random_field(rng, 3)),)), x, rows
    )

    # the baseline's K0, assembled from its one entry on x / l, against the
    # cross covariances of the same warps, computed in query blocks
    log_params = np.r_[rng.uniform(-2.0, 1.0, 3), 0.3, -4.0]
    forms, lengthscales = _ard_entry(log_params, 3)
    warped = (x / lengthscales,)
    for keep in (True, False):
        k0, _ = gram_parts(forms, warped, keep=keep)
        assert np.array_equal(k0, warped_cross_matrix(forms, warped, warped))
        assert np.array_equal(k0, k0.T)


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


def test_cross_matrix_in_query_blocks_has_the_bits_of_whole_entries():
    # the entries go through the queries in blocks of SQDIST_BLOCK_ROWS rows;
    # each value is one pair's distance and form either way, and the values
    # are added in stack order (a Matern-3/2 entry's as its two terms), so
    # the bits are those of each entry formed whole and added alike
    rng = np.random.default_rng(12)
    forms = [KernelForm.matern32(), KernelForm.se(), KernelForm.rq(1.5),
             KernelForm.ae(), KernelForm.matern32()]
    stack = KernelStack(tuple(
        (form, float(rng.uniform(0.5, 1.5)), random_field(rng, 3)) for form in forms
    ))
    pts = rng.uniform(size=(40, 3))
    for m in (1, SQDIST_BLOCK_ROWS, 2 * SQDIST_BLOCK_ROWS + 5):
        queries = rng.uniform(-0.2, 1.2, size=(m, 3))
        warped, warped_q = warp_stack(stack, pts), warp_stack(stack, queries)
        want = np.empty((m, 40))
        for i, ((form, scale, _), w, wq) in enumerate(
            zip(stack.entries, warped, warped_q)
        ):
            argument = form_argument(form, scale, cdist(wq, w, "sqeuclidean"))
            add_form_values(form, scale, argument, want, np.empty_like(argument),
                            first=i == 0)
        got = warped_cross_matrix(stack.forms, warped, warped_q)
        assert got.flags.c_contiguous and got.shape == (m, 40)
        assert got.tobytes() == want.tobytes()


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
    # three points, the first two coincident: pairs (0, 1), (0, 2), (1, 2)
    d2 = np.array([0.0, 1.0, 1.0])
    ae = KernelForm.ae()
    argument = form_argument(ae, 1.0, d2.copy())
    want = form_sqdist_derivative(ae, 1.0, d2)[1]
    # with A's pairs condensed (several entries) and in place (one entry)
    for n_entries in (2, 1):
        weights = gradient_weights(np.ones((3, 3)), Workspace(), n_entries)
        t, factor, _ = weighted_derivative(ae, 1.0, argument.copy(), weights,
                                           np.empty(3))
        got = factor * t
        assert got[0, 1] == got[1, 0] == 0.0
        assert np.all(np.diagonal(got) == 0.0)
        assert np.isfinite(got).all()
        assert got[0, 2] == got[2, 0] == pytest.approx(want, rel=1e-14)
