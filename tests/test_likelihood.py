"""Tests for the shared likelihood core and the work it saves.

The core factorizes once per evaluation, forms K^-1 with LAPACK from the
factor, and derives each kernel form's distance derivative from the form's
values; the search reuses the closing factorization for the fold model and
evaluates the chaos basis on its training points once per refinement. A
fitted model keeps its training warps, so prediction warps only the queries.
"""

import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import solve_triangular
from scipy.spatial.distance import squareform
from scipy.stats import norm

import pcegp.bench as bench_mod
import pcegp.gp as gp_mod
import pcegp.hyper as hyper_mod
from pcegp.bench import (
    BenchmarkConfig,
    _ard_neg_mll_and_grad,
    _ard_predict,
    run_benchmark,
)
from pcegp.data import Dataset, apply_scaler, fit_scaler, make_folds
from pcegp.gp import (
    _chol_inverse,
    _likelihood_core,
    fit_likelihood,
    fit_precompute,
    log_predictive_density,
    mll_gradient,
    model_from_fit,
    predict,
    predict_batch,
    predict_means,
)
from pcegp.hyper import LengthscaleField, NoiseField, eval_noise_batch
from pcegp.kernels import (
    SQDIST_BLOCK_ROWS,
    KernelForm,
    KernelStack,
    Workspace,
    add_form_values,
    form_argument,
    form_from_sqdist,
    gradient_weights,
    ladder_cholesky,
    noisy_gram,
    weighted_derivative,
)
from pcegp.optim import (
    SearchSpace,
    _ContDim,
    _evaluate_trial,
    fine_tune,
    random_suggest,
    run_search,
)
from pcegp.poly import Basis, eval_basis
from pcegp.serialize import load_model, save_model

from oracles import cross_matrix, form_sqdist_derivative, gram_by_parts


def _stack(rng, n_inputs, forms):
    entries = []
    for form in forms:
        coeffs = np.r_[2.0, 0.5 * rng.normal(size=2)]
        field = LengthscaleField(Basis.legendre01(), coeffs, n_inputs)
        entries.append((form, float(rng.uniform(0.5, 1.5)), field))
    return KernelStack(tuple(entries))


def _space():
    return SearchSpace(
        kernel_forms=(KernelForm.se(), KernelForm.matern32()),
        basis=Basis.legendre01(),
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
    gram = ladder_cholesky(k.copy(), "test")
    assert gram.jitter_used == 0.0
    _assert_inverse(_chol_inverse(gram.chol), k)


def test_chol_inverse_with_a_nonzero_jitter_rung():
    # one eigenvalue of -5e-5: rungs 0 through 1e-6 fail, 1e-4 succeeds
    rng = np.random.default_rng(1)
    q, _ = np.linalg.qr(rng.normal(size=(7, 7)))
    k = (q * np.array([1.0, 0.8, 0.6, 0.4, 0.2, 0.1, -5e-5])) @ q.T
    k = 0.5 * (k + k.T)
    gram = ladder_cholesky(k.copy(), "test matrix")
    assert gram.jitter_used == 1e-4
    _assert_inverse(_chol_inverse(gram.chol), k + 1e-4 * np.eye(7))


def test_core_weights_are_alpha_outer_minus_inverse():
    rng = np.random.default_rng(2)
    pts = rng.uniform(size=(150, 2))
    y = rng.normal(size=150)
    stack = _stack(rng, 2, [KernelForm.matern32()])
    k = noisy_gram(stack, NoiseField.fixed(1e-3), pts)[1]
    # the core factorizes K in place, and A then overwrites the factor
    value_only = _likelihood_core(k.copy(), y, "test")
    k_buffer = k.copy()
    fit = _likelihood_core(k_buffer, y, "test", gradient=True)
    assert np.shares_memory(fit.a, k_buffer) and fit.chol is None
    expected = np.outer(fit.alpha, fit.alpha) - _chol_inverse(value_only.chol)
    np.testing.assert_array_equal(fit.a, expected)

    assert value_only.a is None
    assert value_only.value == fit.value
    np.testing.assert_array_equal(value_only.alpha, fit.alpha)


# ---------------------------------------------------------------------------
# distance derivatives from kernel values, re-formed from each argument
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
    # the gradient re-forms each entry's values from its argument and weights
    # A by the derivative; against the closed-form derivative, under a
    # symmetric A with entries of both signs. The six squared distances are
    # the pairs of four points, in condensed order
    d2 = np.array([0.0, 1e-12, 0.03, 0.5, 2.0, 30.0])
    scale = 1.7
    a = np.random.default_rng(30).normal(size=(4, 4))
    a += a.T
    argument = form_argument(form, scale, d2.copy())
    t, factor, value_sum = weighted_derivative(
        form, scale, argument, gradient_weights(a.copy(), Workspace()), np.empty_like(d2)
    )
    # the contraction cancels the diagonal exactly, so it is left at 0
    expected = squareform(form_sqdist_derivative(form, scale, d2)) * a
    np.testing.assert_allclose(factor * t, expected, rtol=1e-12, atol=0.0)
    assert np.all(np.diagonal(t) == 0.0)
    values = squareform(form_from_sqdist(form, scale, d2))
    np.fill_diagonal(values, scale**2)
    assert value_sum == pytest.approx(np.sum(values * a) / scale**2, rel=1e-12)
    if form.tag == "absolute_exponential":
        assert t[0, 1] == 0.0


def test_derivative_from_values_leaves_its_inputs_alone():
    # every entry's contraction reads the one A, and the assembly keeps each
    # argument intact for it while forming the values in a scratch. The
    # three squared distances are the pairs of three points
    d2 = np.array([0.0, 0.4, 1.5])
    a = np.array([[2.0, 0.3, -1.2], [0.3, -0.5, 0.7], [-1.2, 0.7, 1.1]])
    for form in FORMS:
        argument = form_argument(form, 1.3, d2.copy())
        kept = argument.copy()
        k = np.ones(3)
        add_form_values(form, 1.3, argument, k, np.empty(3))
        np.testing.assert_array_equal(argument, kept)
        np.testing.assert_allclose(k, 1.0 + form_from_sqdist(form, 1.3, d2),
                                   rtol=1e-15)
        weights = gradient_weights(a.copy(), Workspace())
        pairs, diagonal = weights.pairs.copy(), weights.diagonal.copy()
        weighted_derivative(form, 1.3, argument, weights, np.empty(3))
        np.testing.assert_array_equal(weights.pairs, pairs)
        np.testing.assert_array_equal(weights.diagonal, diagonal)
        np.testing.assert_array_equal(pairs, [0.3, -1.2, 0.7])
        np.testing.assert_array_equal(diagonal, [2.0, -0.5, 1.1])


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
    space = SearchSpace()
    if not noise_fixed:
        space = SearchSpace(
            kernel_forms=space.kernel_forms, basis=space.basis, q_range=(2, 3),
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
    assert np.isfinite(tuned.fit.value)
    assert sizes == [x_s.size]


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
# the likelihood workspace
# ---------------------------------------------------------------------------

def test_gradient_through_a_workspace_allocates_no_n_by_n_array():
    n = 300
    rng = np.random.default_rng(13)
    space = SearchSpace()
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
    noise = NoiseField.pce(Basis.legendre01(), [-3.0, 0.2])
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


def test_models_that_outlive_an_evaluation_own_their_factor():
    rng = np.random.default_rng(15)
    space = _space()
    theta = random_suggest(space, rng)
    workspace = Workspace()
    splits = [(rng.uniform(size=(n, 2)), rng.normal(size=n)) for n in (21, 20)]
    in_sc = fit_scaler("min_max_per_column", splits[0][0])
    out_sc = fit_scaler("z_normalize", splits[0][1])
    xq = rng.uniform(size=(9, 2))

    tuned = fine_tune(theta, space, splits[0], 3, workspace)
    fold_model = model_from_fit(tuned.stack, tuned.noise, in_sc, out_sc,
                                *splits[0], fit=tuned.fit)
    # the fold model borrows K's buffer, and is scored before the next fold
    assert np.shares_memory(fold_model.chol, workspace.matrix("k", 21))
    scored = predict_batch(fold_model, xq)
    models = (
        # a fold model kept past its fold takes the lower triangle
        replace(fold_model, chol=np.tril(fold_model.chol)),
        # a refit made outside the workspace, as `pcegp fit` makes its model
        fit_precompute(tuned.stack, tuned.noise, in_sc, out_sc, *splits[0]),
    )
    before = [predict_batch(model, xq) for model in models]
    for got, expected in zip(before[0], scored):
        np.testing.assert_array_equal(got, expected)
    np.testing.assert_array_equal(models[1].chol, np.tril(models[1].chol))

    fine_tune(theta, space, splits[1], 3, workspace)  # the next fold
    # and its refit in the workspace, as run_benchmark's outer folds make it:
    # the model borrows K's buffer, and is dropped before the next fold
    x_s, y_s = splits[1]
    refit = model_from_fit(tuned.stack, tuned.noise, in_sc, out_sc, x_s, y_s,
                           fit=fit_likelihood(tuned.stack, tuned.noise, x_s, y_s,
                                              workspace))
    assert np.shares_memory(refit.chol, workspace.matrix("k", 20))
    for model, want in zip(models, before):
        for got, expected in zip(predict_batch(model, xq), want):
            np.testing.assert_array_equal(got, expected)


FORMS = (KernelForm.se(), KernelForm.ae(), KernelForm.matern32(), KernelForm.rq(1.5))
FAMILIES = (Basis.legendre01(), Basis.jacobi(1.0, 0.5))


@settings(max_examples=80, deadline=None, database=None, derandomize=True)
@given(
    forms=st.lists(st.sampled_from(FORMS), min_size=1, max_size=4),
    q_max=st.integers(0, 4),
    noise_degree=st.one_of(st.none(), st.integers(0, 4)),
    n_x=st.integers(1, 3),
    rows=st.lists(st.integers(0, 7), min_size=2, max_size=40),
    seed=st.integers(0, 2**32 - 1),
)
def test_value_only_fit_gives_the_bits_of_the_summed_parts(
    forms, q_max, noise_degree, n_x, rows, seed
):
    # the value-only path adds each entry into K as it is formed; the
    # gradient's assembly keeps every component and sums them. Rows index a
    # pool of eight points, so they repeat. The model draws its one family
    rng = np.random.default_rng(seed)
    kind = FAMILIES[int(rng.integers(len(FAMILIES)))]

    def expansion(degree, low, high):
        return kind, rng.uniform(low, high, size=int(rng.integers(0, degree + 1)) + 1)

    stack = KernelStack(tuple(
        (form, float(rng.uniform(0.3, 2.0)),
         LengthscaleField(*expansion(q_max, -3.0, 3.0), n_x))
        for form in forms
    ))
    if noise_degree is None:
        noise = NoiseField.fixed(float(10.0 ** rng.uniform(-14, -1)))
    else:
        noise = NoiseField.pce(*expansion(noise_degree, -4.0, 0.5))
    x = rng.uniform(size=(8, n_x))[rows]
    y = rng.normal(size=len(rows))

    k = gram_by_parts(stack, noise, x)
    assert noisy_gram(stack, noise, x)[1].tobytes() == k.tobytes()
    try:
        expected = _likelihood_core(k, y, "oracle")
    except RuntimeError:
        with pytest.raises(RuntimeError):
            fit_likelihood(stack, noise, x, y)
        return
    got = fit_likelihood(stack, noise, x, y)
    assert np.float64(got.value).tobytes() == np.float64(expected.value).tobytes()
    assert got.jitter_used == expected.jitter_used
    assert got.alpha.tobytes() == expected.alpha.tobytes()
    assert got.chol.tobytes() == expected.chol.tobytes()


def _buffer_floats(workspace):
    return sum(buffer.size for buffer in workspace._buffers.values())


def test_a_gradient_holds_one_buffer_per_entry_k_and_a_scratch():
    # K, square, and, condensed (one float per pair of rows): each entry's
    # argument, the sum of the values that later holds A's pairs, and one
    # scratch shared by the entries that are not squared exponential. For
    # the benchmark stack that is 4 N x N arrays, where square arguments held
    # 6 and each entry's distances and values 8
    rng = np.random.default_rng(17)
    space = SearchSpace()
    n = 50
    pairs = n * (n - 1) // 2
    x, y = rng.uniform(size=(n, 3)), rng.normal(size=n)
    stack, noise = space.build_stack(random_suggest(space, rng), 3)
    tags = [form.tag for form, _, _ in stack.entries]
    assert tags.count("squared_exponential") == 1 and "matern_3_2" in tags
    held = n * n + (stack.n_entries + 1 + 1) * pairs
    assert held == 4 * n * n - 3 * n
    workspace = Workspace()
    mll_gradient(stack, noise, x, y, workspace=workspace)
    assert _buffer_floats(workspace) == held
    keys = set(workspace._buffers)
    assert keys == {"k", "a", "scratch"} | {("argument", i) for i in range(4)}
    # the value-only fit needs no buffer the gradient did not
    fit_likelihood(stack, noise, x, y, workspace)
    mll_gradient(stack, noise, x, y, workspace=workspace)
    assert _buffer_floats(workspace) == held
    # and a cold one takes its Matern-3/2 scratch under the gradient's key
    cold = Workspace()
    fit_likelihood(stack, noise, x, y, cold)
    assert "scratch" in cold._buffers and set(cold._buffers) <= keys

    # a cold value-only fit: K, in whose tail the values are summed and a
    # first entry that is not Matern-3/2 is formed, one condensed argument
    # buffer for the later entries, and a condensed scratch only when there
    # is a Matern-3/2 entry, however many there are
    se, ae, m32, rq = (KernelForm.se(), KernelForm.ae(), KernelForm.matern32(),
                       KernelForm.rq(1.5))
    for forms, expected in (
        ([se, ae, m32, rq], 2), ([m32, se, m32], 2), ([rq, ae, se], 1), ([se], 0),
        ([ae], 0), ([m32], 2),
    ):
        cold = Workspace()
        fit_likelihood(_stack(rng, 3, forms), noise, x, y, cold)
        assert _buffer_floats(cold) == n * n + expected * pairs, forms

    # a gradient of entries that are all squared exponential needs no scratch
    both = Workspace()
    mll_gradient(_stack(rng, 3, [se, se]), noise, x, y, workspace=both)
    assert _buffer_floats(both) == n * n + 3 * pairs

    # one squared-exponential entry, as in a stationary search: K, its
    # values and A's pairs, 2 N x N arrays as with a square argument
    alone = Workspace()
    mll_gradient(_stack(rng, 3, [se]), noise, x, y, workspace=alone)
    assert _buffer_floats(alone) == n * n + 2 * pairs

    # the ARD baseline is one squared-exponential entry through the same
    # assembly: its values, A's pairs and K, under the same keys
    baseline = Workspace()
    log_params = np.array([-0.5, 0.2, 0.7, 0.1, np.log(0.05)])
    _ard_neg_mll_and_grad(log_params, x, y, workspace=baseline)
    _ard_neg_mll_and_grad(log_params, x, y, gradient=False, workspace=baseline)
    assert _buffer_floats(baseline) == n * n + 2 * pairs
    assert set(baseline._buffers) == {"k", "a", ("argument", 0)}
    # a cold value-only baseline fit makes K0 in K's buffer: one array
    cold = Workspace()
    _ard_neg_mll_and_grad(log_params, x, y, gradient=False, workspace=cold)
    assert _buffer_floats(cold) == n * n
    assert set(cold._buffers) == {"k"}


def test_a_cold_refit_peaks_near_three_n_by_n_arrays():
    # fit_precompute, as `pcegp fit` and a model load make it, on the
    # benchmark stack at degree 10: the N x N arrays are K and, half as
    # large, one condensed argument buffer and the Matern-3/2 scratch; the
    # rest is O(N) (the warps). Square buffers held 3 N x N arrays
    n, d = 506, 13
    rng = np.random.default_rng(21)
    space = SearchSpace()
    theta = random_suggest(space, rng)
    theta[0] = 10.0
    x, y = rng.uniform(size=(n, d)), rng.normal(size=n)
    stack, noise = space.build_stack(theta, d)
    in_sc, out_sc = fit_scaler("min_max_per_column", x), fit_scaler("z_normalize", y)
    tracemalloc.start()
    try:
        model = fit_precompute(stack, noise, in_sc, out_sc, x, y)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert model.jitter_used == 0.0
    bound = 8 * (3 * n * n + 4 * SQDIST_BLOCK_ROWS * n + stack.n_entries * n * d)
    assert peak < bound, f"peak {peak / (n * n * 8):.2f} N x N arrays"


def test_a_cold_refit_of_one_se_entry_keeps_k_as_its_factor(monkeypatch):
    # one squared-exponential entry at the cv-tall training size: the
    # assembly forms the entry's condensed distances and values in K's own
    # last N (N - 1) / 2 floats and unpacks them in place, so it holds K
    # alone (a condensed buffer beside K would add half an N x N array, and
    # a square distance buffer traced 2.1 N x N arrays); after it the model keeps
    # K's buffer as its factor, upper triangle zeroed in place, so building
    # the model adds no N x N array (an `np.tril` copy with its mask would
    # add 1.125 N x N floats)
    n, d = 687, 8
    rng = np.random.default_rng(22)
    space = SearchSpace(
        kernel_forms=(KernelForm.se(),), basis=Basis.legendre01(), q_range=(5, 10)
    )
    stack, noise = space.build_stack(random_suggest(space, rng), d)
    x, y = rng.uniform(size=(n, d)), rng.normal(size=n)
    in_sc, out_sc = fit_scaler("min_max_per_column", x), fit_scaler("z_normalize", y)
    peaks = []

    def fit_then_reset_peak(*args, **kwargs):
        fit = fit_likelihood(*args, **kwargs)
        peaks.append(tracemalloc.get_traced_memory()[1])
        tracemalloc.reset_peak()
        return fit

    monkeypatch.setattr(gp_mod, "fit_likelihood", fit_then_reset_peak)
    tracemalloc.start()
    try:
        model = fit_precompute(stack, noise, in_sc, out_sc, x, y)
        peaks.append(tracemalloc.get_traced_memory()[1])
    finally:
        tracemalloc.stop()
    assembly, after = peaks
    small = 4 * n * d  # the scaled inputs, the warp and O(N) vectors
    assert model.jitter_used == 0.0
    assert assembly < 8 * (n * n + SQDIST_BLOCK_ROWS * n + small), (
        f"assembly peak {assembly / (n * n * 8):.3f} N x N arrays"
    )
    assert after < 8 * (n * n + small), f"peak {after / (n * n * 8):.3f} N x N arrays"
    assert model.chol.tobytes() == np.tril(model.chol).tobytes()


def test_warm_fold_refinement_and_scoring_allocate_no_n_by_n_array():
    rng = np.random.default_rng(18)
    space = SearchSpace()
    theta = random_suggest(space, rng)
    theta[0] = 7.0
    ds = Dataset(rng.uniform(size=(500, 8)), rng.normal(size=500),
                 tuple("abcdefgh"), "y")
    plan = make_folds(ds.n_points, 5, seed=4)
    n = plan.train_indices(0).size
    assert all(plan.train_indices(f).size == n for f in range(5))
    workspace = Workspace()
    first = _evaluate_trial(theta, space, ds, plan, 2, workspace, ())  # warms it
    tracemalloc.start()
    try:
        second = _evaluate_trial(theta, space, ds, plan, 2, workspace, ())
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert np.isfinite(first[0]) and second[:2] == first[:2]
    assert peak < n * n * 8, f"peak {peak / (n * n * 8):.2f} N x N arrays"


def _recording_buffers(monkeypatch):
    """Every buffer object each workspace key has held, in order of use,
    square and condensed alike."""
    held = {}
    view = Workspace._view

    def recording(self, key, size, reserved):
        got = view(self, key, size, reserved)
        seen = held.setdefault(key, [])
        if not any(buf is self._buffers[key] for buf in seen):
            seen.append(self._buffers[key])
        return got

    monkeypatch.setattr(Workspace, "_view", recording)
    return held


def test_a_benchmark_allocates_each_buffer_once(monkeypatch):
    # 31 rows in 3 folds: the first training split has 20 rows and the
    # others 21, in the search's inner folds and in the outer ones alike.
    # The search and the refits share one workspace, sized at 21 rows, so no
    # buffer is made twice
    rng = np.random.default_rng(24)
    ds = _dataset(rng, n=31)
    held = _recording_buffers(monkeypatch)
    config = BenchmarkConfig("unused.csv", "y", n_folds=3, n_trials=2, n_initial=1,
                             n_iterations=2, inner_n_folds=3, nested=False,
                             space=_space())
    run_benchmark(config, ds)
    assert sorted(map(str, held)) == sorted(map(str, [
        "k", "a", ("argument", 0), ("argument", 1), "scratch"
    ]))
    for key, buffers in held.items():
        # K is square, the rest one float per pair of rows
        assert [b.size for b in buffers] == [21 * 21 if key == "k" else 21 * 20 // 2], key


def test_a_cv_tall_search_holds_k_and_one_distance_buffer():
    # the cv-tall search: one squared-exponential entry, 1030 x 8 rows in 3
    # folds, so training splits of 686 and 687 rows. The gradient needs K
    # and, condensed, the entry's values and A's pairs: 2 N x N arrays, as
    # K and one square distance buffer were; the rest
    # is a prediction block of held-out rows and O(N) vectors. Buffers
    # regrown per fold, a fold's results held into the next, or a Fortran
    # copy of each block's cross covariances each added about one N x N
    # array or more (4.1 N x N in all)
    n, d = 1030, 8
    rng = np.random.default_rng(25)
    ds = Dataset(rng.uniform(size=(n, d)), rng.normal(size=n), tuple("abcdefgh"), "y")
    space = SearchSpace(kernel_forms=(KernelForm.se(),), basis=Basis.legendre01(),
                        q_range=(1, 3), noise_fixed=1e-4)
    big = make_folds(n, 3, seed=0).largest_train_size
    assert big == 687
    tracemalloc.start()
    try:
        run_search(ds, space, n_trials=1, n_initial=1, n_iterations=1, n_folds=3,
                   seed=0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2.5 * big * big * 8, f"peak {peak / (big * big * 8):.2f} N x N arrays"


def test_a_fit_wide_search_holds_six_buffers():
    # the fit-wide search: the benchmark stack (one squared-exponential
    # entry of four), 506 x 13 rows in 5 folds, so 405-row training splits.
    # The gradient holds K and, condensed, each entry's argument, A's pairs
    # and one scratch: 4 N x N arrays; the rest is a prediction block of
    # held-out rows and O(N) arrays. Six square buffers (each entry's
    # argument, K and a scratch) traced 7.43, and keeping each entry's
    # distances and values as well 9.46
    n, d = 506, 13
    rng = np.random.default_rng(27)
    ds = Dataset(rng.uniform(size=(n, d)), rng.normal(size=n),
                 tuple("abcdefghijklm"), "y")
    big = make_folds(n, 5, seed=0).largest_train_size
    assert big == 405
    tracemalloc.start()
    try:
        result = run_search(ds, SearchSpace(), n_trials=1, n_initial=1,
                            n_iterations=2, n_folds=5, seed=0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert not result.history[0].failed
    assert peak < 6 * big * big * 8, f"peak {peak / (big * big * 8):.2f} N x N arrays"


def test_a_nested_benchmark_grows_only_the_refit_buffers():
    # the benchmark stack, nested: each outer fold searches its 687 training
    # rows in 3 inner folds (458-row splits), then refits on all 687. The
    # search's gradient buffers are sized at its inner split; the refit
    # grows only the 3 a value-only fit reads (K and, condensed, one
    # argument buffer and the Matern-3/2 scratch), so the 4 other condensed
    # ones stay small: 1 + 2 / 2 + (4 / 2) (458/687)^2 = 2.9 N x N arrays,
    # 3.6 with a prediction block and the O(N) arrays. Six square gradient
    # buffers, 3 of them grown, traced 5.0. With 8 gradient buffers (each
    # entry's distances and values), sizing all at the outer split traced
    # 9.2 N x N arrays, separate workspaces that regrew per split 7.34, and
    # this shared one 5.9
    n, d = 1030, 8
    rng = np.random.default_rng(3)
    ds = Dataset(rng.uniform(size=(n, d)), rng.normal(size=n), tuple("abcdefgh"), "y")
    config = BenchmarkConfig("unused.csv", "y", n_folds=3, n_trials=1, n_initial=1,
                             n_iterations=1, inner_n_folds=3, nested=True, seed=5)
    big = make_folds(n, 3, seed=5).largest_train_size
    tracemalloc.start()
    try:
        report = run_benchmark(config, ds)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert np.isfinite(report.mean_rmse)
    assert peak < 6.5 * big * big * 8, f"peak {peak / (big * big * 8):.2f} N x N arrays"


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


@pytest.mark.parametrize("noise", [
    NoiseField.fixed(1e-2),
    NoiseField.pce(Basis.legendre01(), [-3.0, 0.4, -0.2]),
])
def test_blocked_prediction_matches_one_block(monkeypatch, noise):
    # up to one block the calls are those of a one-shot prediction, so the
    # bits are too; past it, BLAS may round a column of a later block
    # differently from the same column of one wide solve, by an ulp or so
    rng = np.random.default_rng(19)
    ds = _dataset(rng, n=150)
    stack = _stack(rng, ds.n_inputs, [KernelForm.ae(), KernelForm.matern32()])
    model = fit_precompute(
        stack, noise,
        fit_scaler("min_max_per_column", ds.inputs),
        fit_scaler("z_normalize", ds.outputs),
        ds.inputs, ds.outputs,
    )
    b = gp_mod.PREDICT_BLOCK_ROWS
    for m in (1, b - 1, b, b + 1, 3 * b + 7):
        xq = rng.uniform(-0.2, 1.2, size=(m, ds.n_inputs))
        yq = rng.normal(size=m)
        blocked = (*predict_batch(model, xq), predict_means(model, xq),
                   log_predictive_density(model, xq, yq))
        monkeypatch.setattr(gp_mod, "PREDICT_BLOCK_ROWS", 10**9)
        one_shot = (*predict_batch(model, xq), predict_means(model, xq),
                    log_predictive_density(model, xq, yq))
        monkeypatch.undo()
        for got, want in zip(blocked, one_shot):
            assert got.shape == (m,)
            if m <= b:
                np.testing.assert_array_equal(got, want)
            else:
                np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-15)


def test_prediction_holds_one_n_by_b_array_per_block():
    # M = 3B + 7 queries of the four-entry benchmark stack: each block's
    # cross covariances are the one N x B array, solved in place and freed
    # before the next block's are built. The entries go through it in blocks
    # of SQDIST_BLOCK_ROWS queries, with one block of distances for the
    # entries after the first and one Matern-3/2 scratch; the rest is
    # O(M n_x). A Fortran copy for the solve, a second N x B distance array
    # or the previous block kept alive would each add an N x B array
    n, d = 600, 3
    rng = np.random.default_rng(23)
    space = SearchSpace()
    theta = random_suggest(space, rng)
    theta[0] = 5.0
    x, y = rng.uniform(size=(n, d)), rng.normal(size=n)
    stack, noise = space.build_stack(theta, d)
    model = fit_precompute(stack, noise, fit_scaler("min_max_per_column", x),
                           fit_scaler("z_normalize", y), x, y)
    b = gp_mod.PREDICT_BLOCK_ROWS
    m = 3 * b + 7
    xq = rng.uniform(-0.1, 1.1, size=(m, d))
    expected = predict_batch(model, xq)
    tracemalloc.start()
    try:
        got = predict_batch(model, xq)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    for g, e in zip(got, expected):
        assert g.tobytes() == e.tobytes()
    bound = 8 * (n * b + 2 * SQDIST_BLOCK_ROWS * n + 16 * m * d)
    assert peak < bound, f"peak {peak / (8 * n * b):.2f} N x B arrays"


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


@pytest.mark.parametrize("c", [0.4, 1.5, 6.0])
def test_ard_baseline_at_equal_lengthscales_is_a_one_entry_stack(c):
    # with every l_d = 1/c the baseline's warp x / l is the constant field's
    # c x, so its value and gradient are those of mll / mll_gradient on one
    # squared-exponential entry with fixed noise sn2. Scaling every l_d by
    # e^t moves c by e^-t, so sum_d dMLL/dlog l_d = -c dMLL/dc, and
    # dMLL/dlog s2 = s2 dMLL/ds2
    rng = np.random.default_rng(28)
    n, d = 35, 3
    x = rng.uniform(size=(n, d))
    y = np.sin(3.0 * x[:, 0]) + x[:, 2] + 0.1 * rng.normal(size=n)
    s2, sn2 = 1.7, 0.02
    log_params = np.r_[np.full(d, -np.log(c)), np.log(s2), np.log(sn2)]
    neg, grad, _ = _ard_neg_mll_and_grad(log_params, x, y)

    field = LengthscaleField(Basis.legendre01(), [c], d)
    stack = KernelStack(((KernelForm.se(), float(np.sqrt(s2)), field),))
    noise = NoiseField.fixed(sn2)
    d_c, d_s2 = mll_gradient(stack, noise, x, y)
    assert -neg == pytest.approx(gp_mod.mll(stack, noise, x, y), rel=1e-10)
    # the baseline returns the gradient of the negative MLL
    assert -grad[:d].sum() == pytest.approx(-c * d_c, rel=1e-10)
    assert -grad[d] == pytest.approx(s2 * d_s2, rel=1e-10)


def test_ard_prediction_in_blocks_has_the_bits_of_one_block(monkeypatch):
    # each block's N x B cross covariances are those columns of the one-shot
    # N x M matrix, and the product rounds each row alike
    rng = np.random.default_rng(26)
    x, y = rng.uniform(size=(120, 4)), rng.normal(size=120)
    log_params = np.array([-0.5, 0.2, 0.7, 0.1, 0.3, np.log(0.05)])
    alpha = _ard_neg_mll_and_grad(log_params, x, y, gradient=False)[2]
    b = gp_mod.PREDICT_BLOCK_ROWS
    for m in (1, b, 3 * b + 7):
        xq = rng.uniform(-0.2, 1.2, size=(m, 4))
        blocked = _ard_predict(log_params, x, alpha, xq)
        monkeypatch.setattr(bench_mod, "PREDICT_BLOCK_ROWS", 10**9)
        one_shot = _ard_predict(log_params, x, alpha, xq)
        monkeypatch.undo()
        assert blocked.shape == (m,)
        assert blocked.tobytes() == one_shot.tobytes()


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
