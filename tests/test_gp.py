"""Tests for exact GP inference: likelihood, gradient, prediction."""

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pcegp.data import Dataset, ScalerState, fit_scaler
from pcegp.gp import (
    _likelihood_core,
    fit_precompute,
    free_parameters,
    log_predictive_density,
    mll,
    mll_gradient,
    predict,
    predict_batch,
    with_free_parameters,
)
from pcegp.hyper import LengthscaleField, NoiseField
from pcegp.kernels import (
    KernelForm,
    KernelStack,
    ladder_cholesky,
    noisy_gram,
    warp_stack,
)
from pcegp.optim import NOISE_LOG_RANGE, SearchSpace, random_suggest, run_search
from pcegp.poly import Basis, eval_basis

IDENTITY_IN = ScalerState("min_max_per_column", [0.0], [1.0])
IDENTITY_OUT = ScalerState("z_normalize", [0.0], [1.0])


def factored_gram(stack, noise, points):
    """(K + jitter I, ladder result): the noisy covariance the GP factorizes."""
    k = noisy_gram(stack, noise, points)[1]
    gram = ladder_cholesky(k.copy(), stack.describe())
    return k + gram.jitter_used * np.eye(k.shape[0]), gram


def const_field(c, n_inputs):
    return LengthscaleField(Basis.legendre01(), [c], n_inputs)


def random_stack(rng, n_inputs, forms=None, degree=2, kind=Basis.legendre01()):
    forms = forms or [KernelForm.se(), KernelForm.matern32()]
    entries = []
    for form in forms:
        coeffs = rng.normal(size=degree + 1)
        field = LengthscaleField(kind, coeffs, n_inputs)
        entries.append((form, float(rng.uniform(0.5, 1.5)), field))
    return KernelStack(tuple(entries))


def se_unit_stack(n_inputs=1, c=1.0, scale=1.0):
    return KernelStack(((KernelForm.se(), scale, const_field(c, n_inputs)),))


# ---------------------------------------------------------------------------
# marginal log likelihood
# ---------------------------------------------------------------------------

def test_mll_single_point_zero_target():
    # noise 1e-16 is absorbed into the unit diagonal, so K = [1]
    got = mll(se_unit_stack(), NoiseField.fixed(1e-16), [[0.5]], [0.0])
    assert got == pytest.approx(-0.5 * np.log(2.0 * np.pi), abs=1e-12)
    assert got == pytest.approx(-0.91894, abs=1e-5)


def test_mll_single_point_unit_target():
    got = mll(se_unit_stack(), NoiseField.fixed(1e-16), [[0.5]], [1.0])
    assert got == pytest.approx(-0.5 - 0.5 * np.log(2.0 * np.pi), abs=1e-12)
    assert got == pytest.approx(-1.41894, abs=1e-5)


def test_mll_zero_targets_leave_only_volume_terms():
    rng = np.random.default_rng(0)
    stack = random_stack(rng, 2)
    noise = NoiseField.fixed(1e-2)
    pts = rng.uniform(size=(7, 2))
    got = mll(stack, noise, pts, np.zeros(7))
    k, _ = factored_gram(stack, noise, pts)
    _, logdet = np.linalg.slogdet(k)
    assert got == pytest.approx(-0.5 * logdet - 3.5 * np.log(2.0 * np.pi), rel=1e-10)


def test_mll_matches_dense_formula():
    rng = np.random.default_rng(1)
    stack = random_stack(rng, 3)
    noise = NoiseField.fixed(1e-3)
    pts = rng.uniform(size=(9, 3))
    y = rng.normal(size=9)
    k, _ = factored_gram(stack, noise, pts)
    expected = (
        -0.5 * y @ np.linalg.solve(k, y)
        - 0.5 * np.linalg.slogdet(k)[1]
        - 4.5 * np.log(2.0 * np.pi)
    )
    assert mll(stack, noise, pts, y) == pytest.approx(expected, rel=1e-10)


# ---------------------------------------------------------------------------
# gradient vs central finite differences (the public contract)
# ---------------------------------------------------------------------------

def _fd_gradient(stack, noise, pts, y, h_rel=1e-5):
    theta = free_parameters(stack, noise)
    out = np.empty_like(theta)
    for m in range(theta.size):
        h = h_rel * max(1.0, abs(theta[m]))
        up, dn = theta.copy(), theta.copy()
        up[m] += h
        dn[m] -= h
        s_up, n_up = with_free_parameters(stack, noise, up)
        s_dn, n_dn = with_free_parameters(stack, noise, dn)
        out[m] = (mll(s_up, n_up, pts, y) - mll(s_dn, n_dn, pts, y)) / (2.0 * h)
    return out


def _fd4_gradient(stack, noise, pts, y, h_rel=1e-4):
    """Central differences on five points, with error O(h^4).

    A step large enough to keep rounding in the likelihood small where K is
    nearly singular then keeps the truncation error small too.
    """
    theta = free_parameters(stack, noise)
    out = np.empty_like(theta)
    for m in range(theta.size):
        h = h_rel * max(1.0, abs(theta[m]))
        values = []
        for step in (-2.0, -1.0, 1.0, 2.0):
            moved = theta.copy()
            moved[m] += step * h
            values.append(mll(*with_free_parameters(stack, noise, moved), pts, y))
        low2, low1, high1, high2 = values
        out[m] = (low2 - 8.0 * low1 + 8.0 * high1 - high2) / (12.0 * h)
    return out


def log_noise_coefficients(rng):
    """A log-noise constant from -7 to 1, sigma^2 from 1e-3 to 2.7 before a
    linear term of up to +-0.5."""
    return [rng.uniform(-7.0, 1.0), rng.uniform(-0.5, 0.5)]


def test_gradient_matches_finite_differences_many_seeds():
    cases = []
    for seed in range(20):
        rng = np.random.default_rng(100 + seed)
        forms = [
            [KernelForm.se()],
            [KernelForm.matern32(), KernelForm.rq(1.5)],
            [KernelForm.ae(), KernelForm.se()],
        ][seed % 3]
        stack = random_stack(rng, 3, forms=forms)
        if seed % 4:
            noise = NoiseField.pce(Basis.legendre01(), log_noise_coefficients(rng))
        else:
            noise = NoiseField.fixed(1e-2)
        pts = rng.uniform(size=(8, 3))
        if seed % 4 == 2:
            # duplicate points, whose warps here agree to the bit: exactly
            # zero warped distances
            pts[5] = pts[2]
        cases.append((stack, noise, pts, rng.normal(size=8)))
    # two copies of one point at the ends of the set: a coefficient sum that
    # rounds by position warps them one ulp apart, and the AE derivative at
    # that tiny distance puts an order-one error into the gradient
    pts = np.linspace(0.0, 1.0, 17)[:, None]
    pts[[0, 16]] = 0.09015444400489915
    field = LengthscaleField(Basis.legendre01(), [1.0, 0.0, -2.75], 1)
    stack = KernelStack(((KernelForm.ae(), 1.0, field),))
    cases.append((stack, NoiseField.fixed(1e-2), pts, pts[:, 0]))
    # entries of unequal degrees in a Jacobi family, and a noise expansion
    # of a third degree in it: each coefficient's gradient must pair with
    # the basis values of its own field, in field order
    rng = np.random.default_rng(140)
    jacobi = Basis.jacobi(1.0, 0.5)
    stack = KernelStack((
        (KernelForm.se(), float(rng.uniform(0.5, 1.5)), LengthscaleField(
            jacobi, np.r_[1.5, 0.4 * rng.normal(size=3)], 3)),
        (KernelForm.matern32(), float(rng.uniform(0.5, 1.5)), LengthscaleField(
            jacobi, np.r_[1.2, 0.3 * rng.normal(size=1)], 3)),
    ))
    noise = NoiseField.pce(jacobi, [0.4, 0.05, 0.02])
    cases.append((stack, noise, rng.uniform(size=(8, 3)), rng.normal(size=8)))
    # a squared-exponential entry first, last and alone, on duplicated rows:
    # its argument is its values, and its derivative-weighted A overwrites
    # that buffer, so its scale term must be taken before. A row three times
    # over with a variance near 1e-3 makes K nearly singular (|MLL| near
    # 800), where a 1e-5 step's differences carry 4e-4 of rounding: these
    # cases take a 1e-4 step, whose truncation error stays near 3e-5
    for seed in range(6):
        rng = np.random.default_rng(150 + seed)
        forms = [
            [KernelForm.se(), KernelForm.ae(), KernelForm.matern32()],
            [KernelForm.rq(1.5), KernelForm.matern32(), KernelForm.se()],
            [KernelForm.se()],
        ][seed % 3]
        stack = random_stack(rng, 3, forms=forms)
        if seed < 3:
            noise = NoiseField.fixed(1e-2)
        else:
            noise = NoiseField.pce(Basis.legendre01(), log_noise_coefficients(rng))
        pts = rng.uniform(size=(9, 3))
        pts[[6, 7, 8]] = pts[[1, 4, 1]]  # row 1 three times, row 4 twice
        cases.append((stack, noise, pts, rng.normal(size=9), 1e-4))
    # a Matern-3/2 and a rational-quadratic entry alone: a lone entry reads
    # A's pairs from A's own buffer, and weights them in its scratch when it
    # is not squared exponential. The second has a duplicated row
    for seed, form in ((160, KernelForm.matern32()), (161, KernelForm.rq(0.7))):
        rng = np.random.default_rng(seed)
        stack = random_stack(rng, 3, forms=[form])
        noise = NoiseField.pce(Basis.legendre01(), log_noise_coefficients(rng))
        pts = rng.uniform(size=(8, 3))
        if form.tag == "rational_quadratic":
            pts[5] = pts[2]
        cases.append((stack, noise, pts, rng.normal(size=8)))

    worst = 0.0
    for case, (stack, noise, pts, y, *h_rel) in enumerate(cases):
        analytic = mll_gradient(stack, noise, pts, y)
        assert np.all(np.isfinite(analytic)), case
        fd = _fd_gradient(stack, noise, pts, y, *h_rel)
        rel = np.abs(analytic - fd) / np.maximum(np.abs(fd), 1e-6)
        worst = max(worst, rel.max())
    assert worst <= 1e-4, worst


# every basis family, Jacobi with drawn shape parameters
ANY_BASIS = st.one_of(
    st.sampled_from([Basis.hermite(), Basis.legendre(), Basis.legendre01(),
                     Basis.laguerre()]),
    st.builds(Basis.jacobi, st.floats(-0.9, 3.0), st.floats(-0.9, 3.0)),
)


def bounded_field(rng, kind, degree, n_inputs):
    """A field of `kind` up to `degree`, its degree-k coefficient scaled by
    1 / ((1 + k) max |phi_k|) over [0, 1]: the field stays O(1) there for
    every family, where unscaled degree-10 terms reach thousands."""
    peak = np.abs(eval_basis(kind, degree, np.linspace(0.0, 1.0, 65))).max(axis=1)
    coeffs = rng.normal(size=degree + 1) / (peak * (1.0 + np.arange(degree + 1)))
    return LengthscaleField(kind, coeffs, n_inputs)


@settings(max_examples=60, deadline=None, database=None, derandomize=True)
@given(
    n_x=st.integers(1, 3),
    family=ANY_BASIS,
    degrees=st.lists(st.integers(0, 10), min_size=4, max_size=4),
    rows=st.lists(st.integers(0, 5), min_size=7, max_size=12),
    shape=st.sampled_from([0.35, 1.0, 4.0]),
    noise_pce=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_four_form_gradient_on_duplicated_rows_matches_finite_differences(
    n_x, family, degrees, rows, shape, noise_pce, seed
):
    # every form's contraction from its argument, in one stack of a drawn
    # basis family (Jacobi with alpha, beta > -1) whose entries each draw a
    # degree up to 10, with seven or more rows drawn from a pool of six
    # points, so that at least one repeats and its warped distances are
    # exactly zero (where the absolute-exponential derivative is 0). The
    # noise is fixed, or an expansion of the log variance in the same family
    # whose constant term puts sigma^2 between 1e-3 and 2.7
    # (`log_noise_coefficients`), at the repeated rows too.
    # Repeated rows make K nearly singular, and distinct rows whose
    # warps nearly meet put the absolute-exponential kink within a step, so
    # no one step suits every draw: the best of three five-point differences
    # is the reference, and its denominators are floored at 1e-3 of its
    # largest entry, where rounding in the differences reached 5e-8 of it
    rng = np.random.default_rng(seed)
    forms = [KernelForm.se(), KernelForm.ae(), KernelForm.matern32(),
             KernelForm.rq(shape)]
    stack = KernelStack(tuple(
        (form, float(rng.uniform(0.5, 1.5)), bounded_field(rng, family, degree, n_x))
        for form, degree in zip(forms, degrees)
    ))
    if noise_pce:
        noise = NoiseField.pce(family, log_noise_coefficients(rng))
    else:
        noise = NoiseField.fixed(float(10.0 ** rng.uniform(-2.0, -1.0)))
    pts = rng.uniform(size=(6, n_x))[rows]
    y = rng.normal(size=len(rows))
    analytic = mll_gradient(stack, noise, pts, y)
    assert np.all(np.isfinite(analytic))
    worst = []
    for h_rel in (1e-3, 1e-4, 1e-5):
        fd = _fd4_gradient(stack, noise, pts, y, h_rel)
        floor = max(1e-6, 1e-3 * np.abs(fd).max())
        worst.append((np.abs(analytic - fd) / np.maximum(np.abs(fd), floor)).max())
    assert min(worst) <= 1e-4, worst


def test_gradient_scale_term_at_zero_targets():
    rng = np.random.default_rng(2)
    stack = random_stack(rng, 2, forms=[KernelForm.se()])
    noise = NoiseField.fixed(1e-2)
    pts = rng.uniform(size=(6, 2))
    grad = mll_gradient(stack, noise, pts, np.zeros(6))
    # with y = 0 the data-fit term vanishes: d/ds2 = -0.5 tr(K^-1 K_k) / s2
    k, gram = factored_gram(stack, noise, pts)
    k_noise_free = k.copy()
    k_noise_free[np.diag_indices_from(k_noise_free)] -= 1e-2 + gram.jitter_used
    s2 = stack.entries[0][1] ** 2
    expected = -0.5 * np.trace(np.linalg.solve(k, k_noise_free)) / s2
    assert grad[-1] == pytest.approx(expected, rel=1e-8)
    assert grad[-1] < 0.0


def test_gradient_zero_for_constant_kernel():
    # all-zero coefficients collapse the warp; K no longer depends on them
    stack = se_unit_stack(n_inputs=2, c=0.0)
    noise = NoiseField.fixed(1e-1)
    rng = np.random.default_rng(3)
    pts = rng.uniform(size=(5, 2))
    grad = mll_gradient(stack, noise, pts, np.zeros(5))
    np.testing.assert_allclose(grad[:-1], 0.0, atol=1e-12)  # all but the scale


NOISE_BASES = (Basis.legendre01(), Basis.legendre(), Basis.hermite(),
               Basis.jacobi(1.0, 0.5))


@settings(max_examples=60, deadline=None, database=None, derandomize=True)
@given(
    family=st.sampled_from(NOISE_BASES),
    degree=st.integers(1, 4),
    n_x=st.integers(1, 3),
    n=st.integers(4, 30),
    log_noise=st.floats(-30.0, 2.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_noise_gradient_is_variance_weighted_diagonal_of_a(
    family, degree, n_x, n, log_noise, seed
):
    # d sigma^2(x_i) / d c_m = sigma^2(x_i) phi_m(x_i), phi averaged over
    # the coordinates, so the noise block is 0.5 sum_i sigma^2(x_i) A_ii
    # phi_m(x_i): at every point, however small its variance (a log
    # variance of -30 is far below where finite differences resolve it)
    rng = np.random.default_rng(seed)
    x, y = rng.uniform(size=(n, n_x)), rng.normal(size=n)
    coeffs = rng.uniform(-0.5, 0.5, size=degree + 1)
    coeffs[0] += log_noise
    noise = NoiseField.pce(family, coeffs)
    stack = random_stack(rng, n_x, forms=[KernelForm.se(), KernelForm.rq(1.5)],
                         kind=family)
    # sens[m, i]: phi_m averaged over the coordinates of point i
    sens = eval_basis(family, degree, x).reshape(degree + 1, n, n_x).mean(axis=2)
    variances = np.exp(sens.T @ coeffs)

    grad = mll_gradient(stack, noise, x, y)
    n_ls = sum(f.coefficients.size for f in stack.fields)
    got = grad[n_ls : n_ls + degree + 1]
    a = _likelihood_core(noisy_gram(stack, noise, x)[1], y, "oracle", gradient=True).a
    want = 0.5 * sens @ (variances * np.diag(a))
    scale = 0.5 * np.abs(sens) @ np.abs(variances * np.diag(a))
    np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-12 * scale.max())


def test_parameter_round_trip():
    rng = np.random.default_rng(5)
    jacobi = Basis.jacobi(1.0, 0.5)
    stack = random_stack(rng, 2, kind=jacobi)
    # a first entry of another degree than the second, and a noise of a
    # third: each keeps the stack's family, and the coefficients flatten in
    # field order
    form, scale, _ = stack.entries[0]
    first = LengthscaleField(jacobi, rng.normal(size=5), 2)
    stack = KernelStack(((form, scale, first),) + stack.entries[1:])
    noise = NoiseField.pce(jacobi, [0.5, 0.1])
    theta = free_parameters(stack, noise)
    assert theta.size == 5 + 3 + 2 + 2
    s2, n2 = with_free_parameters(stack, noise, theta)
    np.testing.assert_allclose(free_parameters(s2, n2), theta, atol=1e-15)

    moved = theta.copy()
    moved[:-2] += 1.0  # every coefficient, not the squared scales
    s3, n3 = with_free_parameters(stack, noise, moved)
    np.testing.assert_array_equal(s3.entries[0][2].coefficients, theta[:5] + 1.0)
    assert [f.basis for f in s3.fields] == [jacobi, jacobi]
    np.testing.assert_array_equal(n3.coefficients, [1.5, 1.1])
    assert n3.basis == jacobi
    np.testing.assert_allclose(free_parameters(s3, n3), moved, atol=1e-15)
    np.testing.assert_array_equal(free_parameters(stack, noise), theta)  # untouched
    for wrong in (theta[:-1], np.append(theta, 1.0)):
        with pytest.raises(ValueError):
            with_free_parameters(stack, noise, wrong)


# ---------------------------------------------------------------------------
# fit_precompute
# ---------------------------------------------------------------------------

def _fitted_model(rng, n=12, n_inputs=2, noise_value=1e-4):
    x = rng.uniform(-1.0, 3.0, size=(n, n_inputs))
    y = np.sin(x.sum(axis=1)) + rng.normal(scale=0.01, size=n)
    in_sc = fit_scaler("min_max_per_column", x)
    out_sc = fit_scaler("z_normalize", y)
    stack = random_stack(rng, n_inputs)
    return (
        fit_precompute(stack, NoiseField.fixed(noise_value), in_sc, out_sc, x, y),
        x,
        y,
    )


def test_fit_precompute_invariants():
    rng = np.random.default_rng(6)
    model, _, _ = _fitted_model(rng)
    k, _ = factored_gram(model.stack, model.noise, model.x_scaled)
    np.testing.assert_allclose(
        model.chol @ model.chol.T, k, rtol=1e-8, atol=1e-12
    )
    np.testing.assert_allclose(
        k @ model.alpha_solve, model.y_scaled, rtol=1e-8, atol=1e-10
    )


def test_fit_precompute_deterministic():
    rng1 = np.random.default_rng(7)
    rng2 = np.random.default_rng(7)
    m1, _, _ = _fitted_model(rng1)
    m2, _, _ = _fitted_model(rng2)
    assert np.array_equal(m1.chol, m2.chol)
    assert np.array_equal(m1.alpha_solve, m2.alpha_solve)


def test_fit_precompute_duplicate_points_with_noise():
    x = np.array([[0.3, 0.3], [0.3, 0.3]])
    y = np.array([1.0, 1.1])
    in_sc = ScalerState("min_max_per_column", [0.0, 0.0], [1.0, 1.0])
    out_sc = fit_scaler("z_normalize", y)
    model = fit_precompute(
        se_unit_stack(2), NoiseField.fixed(1e-4), in_sc, out_sc, x, y
    )
    assert model.n_points == 2


MIXED_FAMILIES = {
    "stack": (
        KernelStack((
            (KernelForm.se(), 1.0, LengthscaleField(Basis.legendre01(), [1.0], 2)),
            (KernelForm.ae(), 1.0, LengthscaleField(Basis.hermite(), [1.0, 0.5], 2)),
        )),
        NoiseField.fixed(1e-4),
    ),
    "noise": (
        KernelStack(((KernelForm.se(), 1.0,
                      LengthscaleField(Basis.jacobi(0.5, 1.5), [1.0, 0.5], 2)),)),
        NoiseField.pce(Basis.hermite(), [-4.0]),
    ),
}
MIXED_LABELS = {
    "stack": "hermite_probabilists and legendre_shifted_01",
    "noise": "hermite_probabilists and jacobi(0.5,1.5)",
}


@pytest.mark.parametrize("mixed", ["stack", "noise"])
def test_a_model_of_two_basis_families_is_refused(mixed):
    # a stack whose entries differ in family, or a noise expansion in
    # another family than the stack's, could express nothing that one
    # family cannot: each is refused, naming both families
    stack, noise = MIXED_FAMILIES[mixed]
    rng = np.random.default_rng(9)
    x, y = rng.uniform(size=(5, 2)), rng.normal(size=5)
    in_sc, out_sc = fit_scaler("min_max_per_column", x), fit_scaler("z_normalize", y)
    calls = [
        lambda: mll(stack, noise, x, y),
        lambda: fit_precompute(stack, noise, in_sc, out_sc, x, y),
    ]
    if mixed == "stack":
        calls.append(lambda: warp_stack(stack, x))
    for call in calls:
        with pytest.raises(ValueError, match=re.escape(MIXED_LABELS[mixed])):
            call()


def test_fit_precompute_scaler_mismatch():
    rng = np.random.default_rng(8)
    x = rng.uniform(size=(5, 2))
    y = rng.normal(size=5)
    in_sc = fit_scaler("min_max_per_column", x)
    out_sc = fit_scaler("z_normalize", y)
    with pytest.raises(ValueError):
        fit_precompute(se_unit_stack(3), NoiseField.fixed(1e-4), in_sc, out_sc, x, y)
    bad_in = fit_scaler("min_max_per_column", rng.uniform(size=(5, 3)))
    with pytest.raises(ValueError):
        fit_precompute(se_unit_stack(2), NoiseField.fixed(1e-4), bad_in, out_sc, x, y)


# ---------------------------------------------------------------------------
# prediction
# ---------------------------------------------------------------------------

def test_predict_single_point_algebra():
    model = fit_precompute(
        se_unit_stack(), NoiseField.fixed(1e-16), IDENTITY_IN, IDENTITY_OUT,
        [[0.5]], [2.0],
    )
    pred = predict(model, [0.5])
    assert pred.mean == pytest.approx(2.0, abs=1e-12)
    assert pred.variance == pytest.approx(0.0, abs=1e-12)


def test_predict_interpolates_training_points():
    rng = np.random.default_rng(9)
    model, x, y = _fitted_model(rng, n=10, noise_value=1e-12)
    tol = 1e-5 * np.std(y)
    for i in range(x.shape[0]):
        assert abs(predict(model, x[i]).mean - y[i]) <= tol


def test_predict_far_from_data_reverts_to_prior():
    rng = np.random.default_rng(10)
    x = rng.uniform(size=(8, 1))
    y = rng.normal(loc=5.0, size=8)
    out_sc = fit_scaler("z_normalize", y)
    stack = se_unit_stack(1, c=1.0, scale=1.0)
    model = fit_precompute(
        stack, NoiseField.fixed(1e-4), IDENTITY_IN, out_sc, x, y
    )
    pred = predict(model, [1e3])
    assert pred.mean == pytest.approx(np.mean(y), rel=1e-6)
    raw_var = (1.0 + 1e-4) * float(out_sc.scale[0]) ** 2
    assert pred.variance == pytest.approx(raw_var, rel=1e-6)


def test_predict_variance_bounded_by_prior():
    rng = np.random.default_rng(11)
    model, _, _ = _fitted_model(rng, n=15)
    k_diag = sum(s * s for _, s, _ in model.stack.entries)
    out_scale2 = float(model.output_scaler.scale[0]) ** 2
    queries = rng.uniform(-2.0, 4.0, size=(30, 2))
    _, variances = predict_batch(model, queries)
    for v in variances:
        latent_s = v / out_scale2 - 1e-4  # subtract the fixed noise
        assert -1e-8 <= latent_s <= k_diag + 1e-8


def test_predict_permutation_invariant():
    rng = np.random.default_rng(12)
    x = rng.uniform(size=(14, 2))
    y = rng.normal(size=14)
    in_sc = fit_scaler("min_max_per_column", x)
    out_sc = fit_scaler("z_normalize", y)
    stack = random_stack(rng, 2)
    noise = NoiseField.fixed(1e-3)
    m1 = fit_precompute(stack, noise, in_sc, out_sc, x, y)
    perm = rng.permutation(14)
    m2 = fit_precompute(stack, noise, in_sc, out_sc, x[perm], y[perm])
    queries = rng.uniform(size=(5, 2))
    p1 = predict_batch(m1, queries)
    p2 = predict_batch(m2, queries)
    np.testing.assert_allclose(p1[0], p2[0], atol=1e-10)
    np.testing.assert_allclose(p1[1], p2[1], atol=1e-10)


def test_predict_batch_matches_single():
    rng = np.random.default_rng(13)
    model, _, _ = _fitted_model(rng)
    queries = rng.uniform(size=(6, 2))
    means, variances = predict_batch(model, queries)
    for i in range(6):
        p = predict(model, queries[i])
        assert p.mean == pytest.approx(means[i], rel=1e-12, abs=1e-12)
        assert p.variance == pytest.approx(variances[i], rel=1e-12, abs=1e-12)


@pytest.mark.parametrize("seed", range(6))
def test_degree_10_benchmark_stack_extrapolates_to_finite_predictions(seed):
    # a degree-10 shifted-Legendre field is very large half a box width past
    # the training data, so only finiteness and the variance's sign are
    # checked, not the values
    space = SearchSpace()
    rng = np.random.default_rng(seed)
    theta = random_suggest(space, rng)
    theta[0] = 10
    x = rng.uniform(-3.0, 5.0, size=(40, 3))
    y = np.sin(x).sum(axis=1) + 0.1 * rng.normal(size=40)
    stack, noise = space.build_stack(theta, n_inputs=3)
    model = fit_precompute(
        stack, noise, fit_scaler("min_max_per_column", x),
        fit_scaler("z_normalize", y), x, y,
    )
    lo, hi = x.min(axis=0), x.max(axis=0)
    u = rng.uniform(-0.5, 1.5, size=(200, 3))
    u[:8] = [[-0.5, -0.5, -0.5], [1.5, 1.5, 1.5], [-0.5, 1.5, 0.5], [1.5, -0.5, 0.5],
             [0.5, 0.5, -0.5], [0.5, 0.5, 1.5], [-0.5, 0.5, 1.5], [1.5, 0.5, -0.5]]
    queries = lo + u * (hi - lo)  # up to half a box width outside every side
    means, variances = predict_batch(model, queries)
    assert np.all(np.isfinite(means))
    assert np.all(np.isfinite(variances)) and np.all(variances >= 0.0)
    single = predict(model, queries[1])
    assert math.isfinite(single.mean) and math.isfinite(single.variance)
    assert single.variance >= 0.0


def test_degree_5_log_noise_gives_finite_variances_just_outside_the_box():
    # the query noise is exp of a degree-5 expansion, which grows fast past
    # the box, so every query up to 15% of each input's range outside it
    # must still get a finite mean and a finite, non-negative variance:
    # searched models and draws from the prior, the log-noise constant at
    # the top of its range
    space = SearchSpace(
        kernel_forms=(KernelForm.se(), KernelForm.matern32()),
        basis=Basis.legendre01(), q_range=(0, 2), r_range=(5, 5),
        noise_fixed=None,
    )
    rng = np.random.default_rng(22)
    x = rng.uniform(-3.0, 5.0, size=(40, 3))
    y = np.sin(x).sum(axis=1) + (0.05 + 0.1 * x[:, 0] ** 2) * rng.normal(size=40)
    ds = Dataset(x, y, ["a", "b", "c"], "y")
    thetas = [run_search(ds, space, 3, 2, 10, 2, seed).best_theta for seed in range(2)]
    for _ in range(12):
        theta = random_suggest(space, rng)
        theta[space._noise_start] = NOISE_LOG_RANGE[1]
        thetas.append(theta)
    lo, hi = x.min(axis=0), x.max(axis=0)
    u = rng.uniform(-0.15, 1.15, size=(300, 3))
    u[:8] = np.array(np.meshgrid(*[[-0.15, 1.15]] * 3)).reshape(3, 8).T  # corners
    queries = lo + u * (hi - lo)
    for theta in thetas:
        model = fit_precompute(
            *space.build_stack(theta, n_inputs=3), fit_scaler("min_max_per_column", x),
            fit_scaler("z_normalize", y), x, y,
        )
        means, variances = predict_batch(model, queries)
        assert np.all(np.isfinite(means))
        assert np.all(np.isfinite(variances)) and np.all(variances >= 0.0)


def test_predict_dimension_mismatch():
    rng = np.random.default_rng(14)
    model, _, _ = _fitted_model(rng)
    with pytest.raises(ValueError):
        predict(model, [0.1, 0.2, 0.3])


def test_log_predictive_density_gaussian_formula():
    rng = np.random.default_rng(15)
    model, x, y = _fitted_model(rng)
    queries = x[:3]
    targets = y[:3] + 0.1
    means, variances = predict_batch(model, queries)
    expected = -0.5 * (
        np.log(2.0 * np.pi * variances) + (targets - means) ** 2 / variances
    )
    np.testing.assert_allclose(
        log_predictive_density(model, queries, targets), expected, atol=1e-12
    )
