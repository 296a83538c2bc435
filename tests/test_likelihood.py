"""Tests for the shared likelihood core and the work it saves.

The core factorizes once per evaluation, forms K^-1 with LAPACK from the
factor, and derives each kernel form's distance derivative from the form's
values; the search reuses the closing factorization for the fold model and
computes the coefficient sensitivities once per refinement.
"""

import numpy as np
import pytest
from scipy.stats import norm

import pcegp.gp as gp_mod
from pcegp.bench import _ard_neg_mll_and_grad
from pcegp.data import Dataset, apply_scaler, fit_scaler, make_folds
from pcegp.gp import (
    _chol_inverse,
    _likelihood_core,
    fit_precompute,
    gradient_sensitivities,
    mll_gradient,
    model_from_fit,
    predict_batch,
)
from pcegp.hyper import LengthscaleField, NoiseField
from pcegp.kernels import (
    KernelForm,
    KernelStack,
    form_from_sqdist,
    form_sqdist_derivative,
    ladder_cholesky,
    noisy_gram,
    sqdist_derivative_from_values,
)
from pcegp.optim import SearchSpace, _ContDim, fine_tune, random_suggest, run_search
from pcegp.poly import Basis


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
    gram = ladder_cholesky(noisy_gram(stack, NoiseField.fixed(1e-2), pts)[1], "test")
    assert gram.jitter_used == 0.0
    _assert_inverse(_chol_inverse(gram.chol), gram.matrix)


def test_chol_inverse_with_a_nonzero_jitter_rung():
    # one eigenvalue of -5e-5: rungs 0 through 1e-6 fail, 1e-4 succeeds
    rng = np.random.default_rng(1)
    q, _ = np.linalg.qr(rng.normal(size=(7, 7)))
    k = (q * np.array([1.0, 0.8, 0.6, 0.4, 0.2, 0.1, -5e-5])) @ q.T
    k = 0.5 * (k + k.T)
    gram = ladder_cholesky(k, "test matrix")
    assert gram.jitter_used == 1e-4
    _assert_inverse(_chol_inverse(gram.chol), gram.matrix)


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
# sensitivities, factorization counts, and the reused closing fit
# ---------------------------------------------------------------------------

def test_cached_sensitivities_give_the_same_gradient():
    rng = np.random.default_rng(3)
    pts = rng.uniform(size=(20, 2))
    y = rng.normal(size=20)
    stack = _stack(rng, 2, [KernelForm.se(), KernelForm.ae()])
    noise = NoiseField.pce(((Basis.legendre01(), [0.05, 0.01]),), floor=1e-6)
    sens = gradient_sensitivities(stack, noise, pts)
    np.testing.assert_array_equal(
        mll_gradient(stack, noise, pts, y, sens), mll_gradient(stack, noise, pts, y)
    )


def test_fine_tune_computes_sensitivities_once(monkeypatch):
    calls = []
    orig = gp_mod.lengthscale_sensitivity

    def counting(field, points):
        calls.append(1)
        return orig(field, points)

    monkeypatch.setattr(gp_mod, "lengthscale_sensitivity", counting)
    rng = np.random.default_rng(4)
    space = _space()
    theta = random_suggest(space, rng)
    x_s = rng.uniform(size=(15, 2))
    y_s = rng.normal(size=15)
    _, loss = fine_tune(theta, space, (x_s, y_s), 6)
    assert np.isfinite(loss)
    assert len(calls) == 2  # once per kernel, not once per step (six steps)


def test_each_inner_fold_factorizes_n_iterations_plus_one_times(monkeypatch):
    calls = []

    def counting(k, context):
        calls.append(k.shape[0])
        return ladder_cholesky(k, context)

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
# the ARD baseline likelihood
# ---------------------------------------------------------------------------

def test_ard_gradient_matches_finite_differences():
    rng = np.random.default_rng(7)
    x = rng.uniform(size=(30, 3))
    y = np.sin(4.0 * x[:, 0]) + 0.1 * rng.normal(size=30)
    sq_diffs = (x.T[:, :, None] - x.T[:, None, :]) ** 2
    log_params = np.array([-0.5, 0.2, 0.7, 0.1, np.log(0.05)])
    neg, grad, alpha = _ard_neg_mll_and_grad(log_params, sq_diffs, y)
    h = 1e-5
    for m in range(log_params.size):
        up, dn = log_params.copy(), log_params.copy()
        up[m] += h
        dn[m] -= h
        fd = (_ard_neg_mll_and_grad(up, sq_diffs, y, gradient=False)[0]
              - _ard_neg_mll_and_grad(dn, sq_diffs, y, gradient=False)[0]) / (2 * h)
        assert grad[m] == pytest.approx(fd, rel=1e-5, abs=1e-6)

    neg2, none, alpha2 = _ard_neg_mll_and_grad(log_params, sq_diffs, y,
                                               gradient=False)
    assert none is None
    assert neg2 == neg
    np.testing.assert_array_equal(alpha2, alpha)


# ---------------------------------------------------------------------------
# TPE mixture density
# ---------------------------------------------------------------------------

def test_tpe_density_matches_scipy_bit_for_bit():
    rng = np.random.default_rng(8)
    dim = _ContDim(-2.0, 2.0, rng.uniform(-2, 2, 5), rng.uniform(-2, 2, 9))
    for x in rng.uniform(-2.5, 2.5, 50):
        for mu, sd in ((dim.good_mu, dim.good_sd), (dim.bad_mu, dim.bad_sd)):
            expected = float(np.log(np.mean(norm.pdf(x, loc=mu, scale=sd)) + 1e-300))
            assert dim._log_density(x, mu, sd) == expected
