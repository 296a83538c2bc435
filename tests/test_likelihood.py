"""Tests for the shared likelihood core and the work it saves.

The core factorizes once per evaluation, forms K^-1 with LAPACK from the
factor, and derives each kernel form's distance derivative from the form's
values; the search reuses the closing factorization for the fold model and
evaluates the chaos basis on its training points once per refinement. A
fitted model keeps its training warps, so prediction warps only the queries.
"""

import tracemalloc

import numpy as np
import pytest
from scipy.linalg import solve_triangular
from scipy.stats import norm

import pcegp.gp as gp_mod
import pcegp.hyper as hyper_mod
from pcegp.bench import _ard_neg_mll_and_grad, benchmark_space
from pcegp.data import Dataset, apply_scaler, fit_scaler, make_folds
from pcegp.gp import (
    _chol_inverse,
    _likelihood_core,
    fit_likelihood,
    fit_precompute,
    mll_gradient,
    model_from_fit,
    predict,
    predict_batch,
    predict_means,
)
from pcegp.hyper import LengthscaleField, NoiseField, eval_noise_batch
from pcegp.kernels import (
    KernelForm,
    KernelStack,
    form_from_sqdist,
    Workspace,
    ladder_cholesky,
    noisy_gram,
    sqdist_derivative_from_values,
)
from pcegp.optim import SearchSpace, _ContDim, fine_tune, random_suggest, run_search
from pcegp.poly import Basis, eval_basis
from pcegp.serialize import load_model, save_model

from oracles import cross_matrix, form_sqdist_derivative


def _stack(rng, n_inputs, forms):
    entries = []
    for form in forms:
        coeffs = np.r_[2.0, 0.5 * rng.normal(size=2)]
        field = LengthscaleField(((Basis.legendre01(), coeffs),), n_inputs)
        entries.append((form, float(rng.uniform(0.5, 1.5)), field))
    return KernelStack(tuple(entries))


def _space():
    return SearchSpace(
        kernel_forms=(KernelForm.se(), KernelForm.matern32()),
        bases=(Basis.legendre01(),),
        q_range=(1, 2),
        coeff_range=(-1.0, 1.0),
        scale_range=(0.5, 2.0),
        noise_fixed=1e-2,
    )


def _dataset(rng, n=24):
    x = rng.uniform(size=(n, 2))
    y = np.sin(3.0 * x[:, 0]) + x[:, 1] + 0.05 * rng.normal(size=n)
    return Dataset(x, y, ("a", "b"), "y")


def _assert_inverse(inv, matrix):
    ref = np.linalg.inv(matrix)
    assert np.max(np.abs(inv - ref)) <= 1e-10 * np.max(np.abs(ref))
    np.testing.assert_array_equal(inv, inv.T)


# ---------------------------------------------------------------------------
# K^-1 and A from the core
# ---------------------------------------------------------------------------

def test_chol_inverse_matches_dense_inverse_on_a_gram():
    rng = np.random.default_rng(0)
    pts = rng.uniform(size=(300, 3))  # more rows than one symmetrization block
    stack = _stack(rng, 3, [KernelForm.se(), KernelForm.rq(2.5)])
    k = noisy_gram(stack, NoiseField.fixed(1e-2), pts)[1]
    gram = ladder_cholesky(k, "test")
    assert gram.jitter_used == 0.0
    _assert_inverse(_chol_inverse(gram.chol), k)


def test_chol_inverse_with_a_nonzero_jitter_rung():
    # one eigenvalue of -5e-5: rungs 0 through 1e-6 fail, 1e-4 succeeds
    rng = np.random.default_rng(1)
    q, _ = np.linalg.qr(rng.normal(size=(7, 7)))
    k = (q * np.array([1.0, 0.8, 0.6, 0.4, 0.2, 0.1, -5e-5])) @ q.T
    k = 0.5 * (k + k.T)
    gram = ladder_cholesky(k, "test matrix")
    assert gram.jitter_used == 1e-4
    _assert_inverse(_chol_inverse(gram.chol), k + 1e-4 * np.eye(7))


def test_core_weights_are_alpha_outer_minus_inverse():
    rng = np.random.default_rng(2)
    pts = rng.uniform(size=(150, 2))
    y = rng.normal(size=150)
    stack = _stack(rng, 2, [KernelForm.matern32()])
    _, k = noisy_gram(stack, NoiseField.fixed(1e-3), pts)
    fit = _likelihood_core(k, y, "test", gradient=True)
    expected = np.outer(fit.alpha, fit.alpha) - _chol_inverse(fit.chol)
    np.testing.assert_array_equal(fit.a, expected)

    value_only = _likelihood_core(k, y, "test")
    assert value_only.a is None
    assert value_only.value == fit.value
    np.testing.assert_array_equal(value_only.alpha, fit.alpha)


# ---------------------------------------------------------------------------
# distance derivatives from kernel values
# ---------------------------------------------------------------------------

@pytest.mark.parametrize(
    "form",
    [
        KernelForm.se(),
        KernelForm.ae(),
        KernelForm.matern32(),
        KernelForm.rq(1.0),
        KernelForm.rq(0.35),
        KernelForm.rq(4.0),
    ],
    ids=lambda f: f"{f.tag}-{f.shape:g}",
)
def test_derivative_from_values_matches_direct_form(form):
    d2 = np.array([[0.0, 1e-12, 0.03], [0.5, 2.0, 30.0]])
    scale = 1.7
    values = form_from_sqdist(form, scale, d2)
    got = sqdist_derivative_from_values(form, d2, values)
    expected = form_sqdist_derivative(form, scale, d2)
    np.testing.assert_allclose(got, expected, rtol=1e-12, atol=0.0)
    if form.tag == "absolute_exponential":
        assert got[0, 0] == 0.0


def test_derivative_from_values_leaves_its_inputs_alone():
    d2 = np.array([0.0, 0.4, 1.5])
    for form in (KernelForm.ae(), KernelForm.matern32(), KernelForm.rq(2.0)):
        values = form_from_sqdist(form, 1.0, d2)
        d2_before, values_before = d2.copy(), values.copy()
        sqdist_derivative_from_values(form, d2, values)
        np.testing.assert_array_equal(d2, d2_before)
        np.testing.assert_array_equal(values, values_before)


# ---------------------------------------------------------------------------
# basis and factorization counts, and the reused closing fit
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("n_iterations", [0, 1, 5])
@pytest.mark.parametrize("noise_fixed", [True, False])
def test_fine_tune_evaluates_the_basis_on_its_training_points_once(
    monkeypatch, n_iterations, noise_fixed
):
    # four kernel entries sharing one basis; a searched noise expansion on
    # the same family may need a higher degree than the lengthscales
    space = benchmark_space()
    if not noise_fixed:
        space = SearchSpace(
            kernel_forms=space.kernel_forms, bases=space.bases, q_range=(2, 3),
            r_range=(5, 5), noise_fixed=None,
        )
    rng = np.random.default_rng(16)
    theta = random_suggest(space, rng)
    x_s = rng.uniform(size=(30, 3))
    y_s = rng.normal(size=30)
    sizes = []

    def counting(kind, max_degree, points):
        sizes.append(np.size(points))
        return eval_basis(kind, max_degree, points)

    monkeypatch.setattr(hyper_mod, "eval_basis", counting)
    tuned = fine_tune(theta, space, (x_s, y_s), n_iterations)
    assert np.isfinite(tuned.loss)
    assert sizes == [x_s.size]


def test_each_inner_fold_factorizes_n_iterations_plus_one_times(monkeypatch):
    calls = []

    def counting(k, context, out=None):
        calls.append(k.shape[0])
        return ladder_cholesky(k, context, out)

    monkeypatch.setattr(gp_mod, "ladder_cholesky", counting)
    rng = np.random.default_rng(5)
    ds = _dataset(rng)
    n_iterations, n_folds = 4, 3
    result = run_search(ds, _space(), n_trials=1, n_initial=1,
                        n_iterations=n_iterations, n_folds=n_folds, seed=2)
    assert not result.history[0].failed
    plan = make_folds(ds.n_points, n_folds, seed=2)
    expected = []
    for f in range(n_folds):
        expected += [plan.train_indices(f).size] * (n_iterations + 1)
    assert calls == expected


def test_fold_model_from_closing_fit_matches_a_refit():
    rng = np.random.default_rng(6)
    ds = _dataset(rng)
    space = _space()
    theta = random_suggest(space, rng)
    in_sc = fit_scaler("min_max_per_column", ds.inputs)
    out_sc = fit_scaler("z_normalize", ds.outputs)
    x_s = apply_scaler(in_sc, ds.inputs)
    y_s = (ds.outputs - out_sc.loc[0]) / out_sc.scale[0]

    tuned = fine_tune(theta, space, (x_s, y_s), 5)
    reused = model_from_fit(tuned.stack, tuned.noise, in_sc, out_sc, x_s, y_s,
                            fit=tuned.fit)
    stack, noise = space.build_stack(tuned.theta, ds.n_inputs)
    refit = fit_precompute(stack, noise, in_sc, out_sc, ds.inputs, ds.outputs)

    xq = rng.uniform(size=(10, 2))
    for got, want in zip(predict_batch(reused, xq), predict_batch(refit, xq)):
        np.testing.assert_allclose(got, want, rtol=1e-9, atol=1e-12)


# ---------------------------------------------------------------------------
# the likelihood workspace
# ---------------------------------------------------------------------------

def test_gradient_through_a_workspace_allocates_no_n_by_n_array():
    n = 300
    rng = np.random.default_rng(13)
    space = benchmark_space()
    theta = random_suggest(space, rng)
    theta[0] = 7.0
    pts = rng.uniform(size=(n, 8))
    y = rng.normal(size=n)
    stack, noise = space.build_stack(theta, 8)
    workspace = Workspace()
    first = mll_gradient(stack, noise, pts, y, workspace=workspace)  # sizes the buffers
    tracemalloc.start()
    try:
        second = mll_gradient(stack, noise, pts, y, workspace=workspace)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    np.testing.assert_array_equal(second, first)
    assert peak < n * n * 8, f"peak {peak / (n * n * 8):.2f} N x N arrays"


def test_a_reused_workspace_gives_the_bits_of_a_fresh_one():
    rng = np.random.default_rng(14)
    noise = NoiseField.pce(((Basis.legendre01(), [0.05, 0.01]),), floor=1e-6)
    workspace = Workspace()
    # first a larger N and a longer stack, then a smaller split
    big = _stack(rng, 2, [KernelForm.se(), KernelForm.ae(), KernelForm.matern32(),
                          KernelForm.rq(1.0)])
    x_big, y_big = rng.uniform(size=(60, 2)), rng.normal(size=60)
    mll_gradient(big, noise, x_big, y_big, workspace=workspace)
    fit_likelihood(big, noise, x_big, y_big, workspace)

    stack = _stack(rng, 2, [KernelForm.matern32(), KernelForm.ae()])
    x, y = rng.uniform(size=(45, 2)), rng.normal(size=45)
    np.testing.assert_array_equal(
        mll_gradient(stack, noise, x, y, workspace=workspace),
        mll_gradient(stack, noise, x, y, workspace=Workspace()),
    )
    reused = fit_likelihood(stack, noise, x, y, workspace)
    fresh = fit_likelihood(stack, noise, x, y)
    assert reused.value == fresh.value
    np.testing.assert_array_equal(reused.chol, fresh.chol)
    np.testing.assert_array_equal(reused.alpha, fresh.alpha)


def test_fold_model_survives_the_next_fold_in_its_workspace():
    rng = np.random.default_rng(15)
    space = _space()
    theta = random_suggest(space, rng)
    workspace = Workspace()
    splits = [(rng.uniform(size=(n, 2)), rng.normal(size=n)) for n in (21, 20)]
    in_sc = fit_scaler("min_max_per_column", splits[0][0])
    out_sc = fit_scaler("z_normalize", splits[0][1])

    tuned = fine_tune(theta, space, splits[0], 3, workspace)
    models = (
        model_from_fit(tuned.stack, tuned.noise, in_sc, out_sc, *splits[0],
                       fit=tuned.fit),
        # a refit, as the outer folds of run_benchmark make in their workspace
        fit_precompute(tuned.stack, tuned.noise, in_sc, out_sc, *splits[0],
                       workspace=workspace),
    )
    xq = rng.uniform(size=(9, 2))
    before = [predict_batch(model, xq) for model in models]
    fine_tune(theta, space, splits[1], 3, workspace)  # the next fold
    fit_precompute(tuned.stack, tuned.noise, in_sc, out_sc, *splits[1],
                   workspace=workspace)  # and its refit
    for model, want in zip(models, before):
        for got, expected in zip(predict_batch(model, xq), want):
            np.testing.assert_array_equal(got, expected)


# ---------------------------------------------------------------------------
# prediction from the stored training warps
# ---------------------------------------------------------------------------

def test_single_row_predict_warps_only_the_query(monkeypatch, tmp_path):
    rng = np.random.default_rng(9)
    ds = _dataset(rng)
    stack = _stack(rng, ds.n_inputs, [KernelForm.se(), KernelForm.matern32()])
    model = fit_precompute(
        stack, NoiseField.fixed(1e-2),
        fit_scaler("min_max_per_column", ds.inputs),
        fit_scaler("z_normalize", ds.outputs),
        ds.inputs, ds.outputs,
    )
    save_model(model, tmp_path / "model.txt")
    loaded = load_model(tmp_path / "model.txt")
    sizes = []

    def counting(kind, max_degree, points):
        sizes.append(np.size(points))
        return eval_basis(kind, max_degree, points)

    monkeypatch.setattr(hyper_mod, "eval_basis", counting)
    predict(loaded, ds.inputs[0])
    # both entries use one basis family: one evaluation on the query's n_x
    # coordinates serves them
    assert sizes == [ds.n_inputs]


def test_stored_warps_predict_like_a_fresh_cross_matrix(tmp_path):
    rng = np.random.default_rng(10)
    ds = _dataset(rng)
    space = _space()
    in_sc = fit_scaler("min_max_per_column", ds.inputs)
    out_sc = fit_scaler("z_normalize", ds.outputs)
    x_s = apply_scaler(in_sc, ds.inputs)
    y_s = (ds.outputs - out_sc.loc[0]) / out_sc.scale[0]
    tuned = fine_tune(random_suggest(space, rng), space, (x_s, y_s), 3)
    refit = fit_precompute(tuned.stack, tuned.noise, in_sc, out_sc, ds.inputs, ds.outputs)
    save_model(refit, tmp_path / "model.txt")
    models = (
        refit,
        load_model(tmp_path / "model.txt"),
        model_from_fit(tuned.stack, tuned.noise, in_sc, out_sc, x_s, y_s, fit=tuned.fit),
    )
    xq = rng.uniform(-0.2, 1.2, size=(7, ds.n_inputs))
    for model in models:
        # the prediction formula with the training set warped afresh
        xq_s = apply_scaler(model.input_scaler, xq)
        k_cross = cross_matrix(model.stack, model.x_scaled, xq_s)
        v = solve_triangular(model.chol, k_cross, lower=True)
        k_diag = sum(scale * scale for _, scale, _ in model.stack.entries)
        noise_q = eval_noise_batch(model.noise, xq_s)
        var_s = np.maximum(0.0, k_diag + noise_q - np.sum(v * v, axis=0))
        scale = float(model.output_scaler.scale[0])
        means, variances = predict_batch(model, xq)
        expected = (k_cross.T @ model.alpha_solve) * scale + float(model.output_scaler.loc[0])
        assert np.array_equal(means, expected)
        assert np.array_equal(variances, var_s * scale * scale)
        assert np.array_equal(predict_means(model, xq), means)


# ---------------------------------------------------------------------------
# the ARD baseline likelihood
# ---------------------------------------------------------------------------

def test_ard_gradient_matches_finite_differences():
    rng = np.random.default_rng(7)
    x = rng.uniform(size=(30, 3))
    y = np.sin(4.0 * x[:, 0]) + 0.1 * rng.normal(size=30)
    log_params = np.array([-0.5, 0.2, 0.7, 0.1, np.log(0.05)])
    neg, grad, alpha = _ard_neg_mll_and_grad(log_params, x, y)
    h = 1e-5
    for m in range(log_params.size):
        up, dn = log_params.copy(), log_params.copy()
        up[m] += h
        dn[m] -= h
        fd = (_ard_neg_mll_and_grad(up, x, y, gradient=False)[0]
              - _ard_neg_mll_and_grad(dn, x, y, gradient=False)[0]) / (2 * h)
        assert grad[m] == pytest.approx(fd, rel=1e-5, abs=1e-6)

    neg2, none, alpha2 = _ard_neg_mll_and_grad(log_params, x, y, gradient=False)
    assert none is None
    assert neg2 == neg
    np.testing.assert_array_equal(alpha2, alpha)


def _ard_tensor_oracle(log_params, x, y):
    """The baseline likelihood through its (d, N, N) tensor of squared differences."""
    n, d = x.shape
    sq_diffs = (x.T[:, :, None] - x.T[:, None, :]) ** 2
    inv_l2 = np.exp(-2.0 * log_params[:d])
    sn2 = np.exp(log_params[d + 1])
    k0 = np.exp(log_params[d]) * np.exp(-0.5 * np.tensordot(inv_l2, sq_diffs, axes=1))
    fit = _likelihood_core(k0 + sn2 * np.eye(n), y, "oracle", gradient=True)
    ak0 = fit.a * k0
    grad = np.empty(d + 2)
    grad[:d] = 0.5 * np.tensordot(sq_diffs, ak0, axes=2) * inv_l2
    grad[d] = 0.5 * np.sum(ak0)
    grad[d + 1] = 0.5 * sn2 * np.trace(fit.a)
    return -fit.value, -grad


def test_ard_gradient_matches_the_tensor_formula():
    rng = np.random.default_rng(12)
    workspace = Workspace()
    for _ in range(100):
        n, d = int(rng.integers(2, 40)), int(rng.integers(1, 9))
        x = rng.uniform(size=(n, d))
        y = rng.normal(size=n)
        log_params = np.r_[rng.uniform(-3.0, 1.0, d), rng.uniform(-1.0, 1.0),
                           rng.uniform(-6.0, -1.0)]
        neg, grad, _ = _ard_neg_mll_and_grad(log_params, x, y, workspace=workspace)
        neg_ref, grad_ref = _ard_tensor_oracle(log_params, x, y)
        assert neg == pytest.approx(neg_ref, rel=1e-10, abs=1e-10)
        assert np.linalg.norm(grad - grad_ref) <= 1e-8 * np.linalg.norm(grad_ref)


# ---------------------------------------------------------------------------
# TPE mixture density
# ---------------------------------------------------------------------------

def test_tpe_density_matches_scipy_bit_for_bit():
    rng = np.random.default_rng(8)
    dim = _ContDim(-2.0, 2.0, rng.uniform(-2, 2, 5), rng.uniform(-2, 2, 9))
    xs = rng.uniform(-2.5, 2.5, 50)
    for mu, sd in ((dim.good_mu, dim.good_sd), (dim.bad_mu, dim.bad_sd)):
        # every candidate at once, each bit for bit as scipy scores it alone
        got = dim._log_density(xs, mu, sd)
        expected = [
            float(np.log(np.mean(norm.pdf(x, loc=mu, scale=sd)) + 1e-300))
            for x in xs
        ]
        assert got.tolist() == expected
