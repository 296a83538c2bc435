"""Tests for the two-stage search: TPE, Adam, fine-tuning, full loop."""

import math
import os
import statistics
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pcegp.data import Dataset, make_folds
from pcegp.gp import free_parameters, mll, with_free_parameters
from pcegp.kernels import KernelForm
from pcegp.optim import (
    NOISE_LOG_RANGE,
    SearchResult,
    SearchSpace,
    TrialRecord,
    _ContDim,
    _IntDim,
    _split_history,
    adam_descent,
    adam_step,
    fine_tune,
    history_to_text,
    random_suggest,
    run_search,
    tpe_suggest,
)
from pcegp.poly import Basis


def small_space(**kwargs):
    defaults = dict(
        kernel_forms=(KernelForm.se(),),
        basis=Basis.legendre01(),
        q_range=(1, 1),
        coeff_range=(-2.0, 2.0),
        scale_range=(1e-2, 10.0),
        noise_fixed=1e-2,
    )
    defaults.update(kwargs)
    return SearchSpace(**defaults)


def synthetic_dataset(rng, n=60):
    x = np.sort(rng.uniform(0.0, 1.0, size=n))[:, None]
    noise_sd = 0.02 + 0.2 * x[:, 0]  # heteroscedastic
    y = np.sin(6.0 * x[:, 0]) + rng.normal(scale=noise_sd)
    return Dataset(x, y, ["x"], "y")


# ---------------------------------------------------------------------------
# search space layout
# ---------------------------------------------------------------------------

def test_space_parameter_count():
    space = SearchSpace(
        kernel_forms=(KernelForm.se(), KernelForm.matern32()),
        basis=Basis.legendre01(),
        q_range=(5, 10),
        noise_fixed=1e-4,
    )
    # 1 degree + 2 kernels * 1 basis * 11 slots + 2 scales
    assert space.n_parameters == 1 + 2 * 11 + 2

    searched = SearchSpace(
        kernel_forms=(KernelForm.se(),),
        basis=Basis.hermite(),
        q_range=(0, 3),
        r_range=(0, 2),
        noise_fixed=None,
    )
    # q + r + 1 kernel * 4 slots + 3 noise slots + 1 scale
    assert searched.n_parameters == 2 + 4 + 3 + 1


def test_space_validation():
    with pytest.raises(ValueError):
        small_space(q_range=(0, 20))
    with pytest.raises(ValueError):
        small_space(coeff_range=(1.0, 1.0))
    with pytest.raises(ValueError):
        small_space(scale_range=(0.0, 1.0))
    with pytest.raises(ValueError):
        small_space(noise_fixed=None)  # neither noise config
    with pytest.raises(ValueError):
        small_space(r_range=(0, 2))  # both noise configs


@pytest.mark.parametrize(
    "settings, message",
    [
        ({"noise_fixed": math.nan}, "fixed noise"),
        ({"noise_fixed": math.inf}, "fixed noise"),
        ({"coeff_range": (math.nan, 2.0)}, "coeff_range"),
        ({"coeff_range": (-2.0, math.inf)}, "coeff_range"),
        ({"scale_range": (1e-3, math.inf)}, "scale_range"),
    ],
)
def test_space_rejects_non_finite_values(settings, message):
    # NaN passes every comparison's negation, inf every upper bound: both
    # used to reach the search and fail there
    with pytest.raises(ValueError, match=message):
        small_space(**settings)


def test_space_build_uses_active_slots_only():
    space = small_space(q_range=(0, 3))
    theta = np.zeros(space.n_parameters)
    theta[0] = 2  # degree 2 of max 3
    theta[1:5] = [0.5, -0.3, 0.8, 99.0]  # last slot inactive
    theta[-1] = 4.0
    stack, noise = space.build_stack(theta, n_inputs=2)
    (form, scale, field) = stack.entries[0]
    assert form.tag == "squared_exponential"
    assert scale == pytest.approx(2.0)  # sqrt of the squared scale
    assert field.basis == Basis.legendre01()
    np.testing.assert_allclose(field.coefficients, [0.5, -0.3, 0.8])
    assert noise.mode == "fixed" and noise.value == 1e-2

    mask = space.active_mask(theta)
    assert mask[4] == False  # noqa: E712 - the inactive slot
    assert mask.sum() == 1 + 3 + 1


FORMS = (KernelForm.se(), KernelForm.ae(), KernelForm.matern32(), KernelForm.rq(1.5))
FAMILIES = (Basis.legendre01(), Basis.jacobi(1.0, 0.5))


def assert_same_model(got, want):
    """Two (stack, noise) pairs agree bit for bit, field by field."""
    (stack_g, noise_g), (stack_w, noise_w) = got, want
    assert len(stack_g.entries) == len(stack_w.entries)
    pairs = [(noise_g, noise_w)]
    for (form_g, scale_g, field_g), (form_w, scale_w, field_w) in zip(
        stack_g.entries, stack_w.entries
    ):
        assert (form_g, field_g.n_inputs) == (form_w, field_w.n_inputs)
        assert np.float64(scale_g).tobytes() == np.float64(scale_w).tobytes()
        pairs.append((field_g, field_w))
    assert (noise_g.mode, noise_g.value) == (noise_w.mode, noise_w.value)
    for field_g, field_w in pairs:
        assert field_g.basis == field_w.basis
        if field_g.coefficients is not None or field_w.coefficients is not None:
            assert field_g.coefficients.tobytes() == field_w.coefficients.tobytes()


@settings(max_examples=60, deadline=None, database=None, derandomize=True)
@given(
    n_forms=st.integers(1, 4),
    family=st.sampled_from(FAMILIES),
    q_max=st.integers(0, 4),
    r_max=st.one_of(st.none(), st.integers(0, 4)),
    seed=st.integers(0, 2**32 - 1),
)
def test_live_entries_are_the_free_parameters_in_order(
    n_forms, family, q_max, r_max, seed
):
    # the live entries of theta after its degrees are free_parameters of the
    # model it builds, so a refinement is stored back by index alone
    noise = {} if r_max is None else {"noise_fixed": None, "r_range": (0, r_max)}
    space = small_space(
        kernel_forms=FORMS[:n_forms], basis=family, q_range=(0, q_max),
        **noise,
    )
    rng = np.random.default_rng(seed)
    theta = random_suggest(space, rng)
    model = space.build_stack(theta, n_inputs=2)
    positions = space._free_positions(theta)
    flat = free_parameters(*model)
    n_k = space.n_kernels
    assert positions.size == flat.size
    assert theta[positions][:-n_k].tobytes() == flat[:-n_k].tobytes()
    np.testing.assert_allclose(flat[-n_k:], theta[positions][-n_k:], rtol=1e-15)

    # the map back rebuilds the model from theta's live entries alone
    other = random_suggest(space, rng)
    other[: space._coeff_start] = theta[: space._coeff_start]  # same degrees
    template = space.build_stack(other, n_inputs=2)
    assert_same_model(with_free_parameters(*template, theta[positions]), model)

    # a refinement written through the positions builds the refined model
    moved = flat + rng.normal(scale=0.1, size=flat.size)
    moved[-n_k:] = flat[-n_k:] * np.exp(rng.normal(size=n_k))
    refined_model = with_free_parameters(*model, moved)
    refined = theta.copy()
    refined[positions] = free_parameters(*refined_model)
    assert_same_model(space.build_stack(refined, n_inputs=2), refined_model)
    inactive = ~space.active_mask(theta)
    assert refined[inactive].tobytes() == theta[inactive].tobytes()


def test_space_pce_noise_build():
    space = small_space(q_range=(1, 2), r_range=(0, 1), noise_fixed=None)
    rng = np.random.default_rng(1)
    theta = random_suggest(space, rng)
    stack, noise = space.build_stack(theta, n_inputs=2)
    assert noise.mode == "pce"
    q, r = space.degrees(theta)
    assert noise.coefficients.size == r + 1
    assert stack.entries[0][2].coefficients.size == q + 1
    assert noise.basis == stack.entries[0][2].basis == space.basis


# ---------------------------------------------------------------------------
# random suggestions
# ---------------------------------------------------------------------------

def test_random_suggest_bounds_and_coverage():
    space = small_space(q_range=(2, 5), scale_range=(1e-3, 10.0))
    rng = np.random.default_rng(2)
    degrees = set()
    for _ in range(1000):
        theta = random_suggest(space, rng)
        q, _ = space.degrees(theta)
        assert 2 <= q <= 5
        degrees.add(q)
        coeffs = theta[space._coeff_start : space._scale_start]
        assert np.all(coeffs >= -2.0) and np.all(coeffs <= 2.0)
        scales = theta[space._scale_start :]
        assert np.all(scales >= 1e-3) and np.all(scales <= 10.0)
    assert degrees == {2, 3, 4, 5}


def test_the_log_noise_constant_has_its_own_prior_range():
    # the constant term of a searched noise is log sigma^2: random and TPE
    # suggestions draw it within NOISE_LOG_RANGE, every other coefficient
    # within coeff_range, from one uniform draw per slot
    space = small_space(q_range=(0, 2), r_range=(0, 3), noise_fixed=None,
                        coeff_range=(5.0, 6.0))
    rng = np.random.default_rng(4)
    history = [_record(random_suggest(space, rng), float(i % 5), i) for i in range(300)]
    history += [_record(tpe_suggest(history, space, rng=rng), 0.0, 300 + i)
                for i in range(20)]
    coeffs = np.vstack([t.theta for t in history])[:, space._coeff_start : space._scale_start]
    constant = space._noise_start - space._coeff_start
    lo, hi = NOISE_LOG_RANGE
    assert np.all((coeffs[:, constant] >= lo) & (coeffs[:, constant] <= hi))
    assert coeffs[:300, constant].min() < lo + 1.0 and coeffs[:300, constant].max() > hi - 1.0
    others = np.delete(coeffs, constant, axis=1)
    assert np.all((others >= 5.0) & (others <= 6.0))
    # a fixed-noise space draws its coefficients as one uniform over coeff_range
    fixed = small_space(q_range=(0, 2))
    stream = np.random.default_rng(5)
    stream.integers(0, 3)
    want = stream.uniform(-2.0, 2.0, size=3)
    assert random_suggest(fixed, np.random.default_rng(5))[1:4].tobytes() == want.tobytes()


def test_random_suggest_reproducible():
    space = small_space()
    a = random_suggest(space, np.random.default_rng(42))
    b = random_suggest(space, np.random.default_rng(42))
    np.testing.assert_array_equal(a, b)


def test_random_suggest_scales_log_uniform():
    # median of a log-uniform on [1e-3, 10] is sqrt(1e-3 * 10) ~ 0.1
    space = small_space(scale_range=(1e-3, 10.0))
    rng = np.random.default_rng(3)
    scales = [random_suggest(space, rng)[-1] for _ in range(4000)]
    med = np.median(scales)
    assert 0.05 < med < 0.2


# ---------------------------------------------------------------------------
# TPE suggestions
# ---------------------------------------------------------------------------

def _record(theta, loss, idx, stage="random"):
    return TrialRecord(
        theta=np.asarray(theta, dtype=float), loss=loss, trial_index=idx, stage=stage
    )


def test_tpe_concentrates_near_the_better_trial():
    space = small_space(q_range=(1, 1))
    good = np.array([1.0, 1.5, 1.5, 1.0])  # [q, c0, c1, scale]
    bad = np.array([1.0, -1.5, -1.5, 1.0])
    history = [_record(good, 0.1, 0), _record(bad, 5.0, 1)]
    rng = np.random.default_rng(4)
    d_good, d_bad = [], []
    for _ in range(200):
        theta = tpe_suggest(history, space, gamma=0.5, n_candidates=8, rng=rng)
        d_good.append(np.linalg.norm(theta[1:3] - good[1:3]))
        d_bad.append(np.linalg.norm(theta[1:3] - bad[1:3]))
    assert np.mean(d_good) < np.mean(d_bad)


def test_tpe_respects_bounds_with_identical_losses():
    space = small_space(q_range=(1, 3))
    rng = np.random.default_rng(5)
    history = [
        _record(random_suggest(space, rng), 1.0, i) for i in range(6)
    ]
    for _ in range(50):
        theta = tpe_suggest(history, space, rng=rng)
        q, _ = space.degrees(theta)
        assert 1 <= q <= 3
        coeffs = theta[space._coeff_start : space._scale_start]
        assert np.all(coeffs >= -2.0) and np.all(coeffs <= 2.0)
        assert np.all(theta[space._scale_start :] >= 1e-2)
        assert np.all(theta[space._scale_start :] <= 10.0)


def test_tpe_deterministic_for_seed():
    space = small_space()
    rng = np.random.default_rng(6)
    history = [_record(random_suggest(space, rng), float(i), i) for i in range(5)]
    a = tpe_suggest(history, space, rng=np.random.default_rng(7))
    b = tpe_suggest(history, space, rng=np.random.default_rng(7))
    np.testing.assert_array_equal(a, b)


def test_tpe_needs_two_completed_trials():
    space = small_space()
    with pytest.raises(ValueError):
        tpe_suggest([_record(np.zeros(4), 1.0, 0)], space, rng=np.random.default_rng(0))
    failed = [
        _record(np.zeros(4), math.inf, 0),
        _record(np.zeros(4), math.inf, 1),
    ]
    with pytest.raises(ValueError):
        tpe_suggest(failed, space, rng=np.random.default_rng(0))


def test_tpe_ignores_failed_trials():
    space = small_space(q_range=(1, 1))
    history = [
        _record([1.0, 1.0, 1.0, 1.0], 0.5, 0),
        _record([1.0, -1.0, -1.0, 1.0], 2.0, 1),
        _record([1.0, 0.0, 0.0, 1.0], math.inf, 2),
    ]
    theta = tpe_suggest(history, space, rng=np.random.default_rng(8))
    assert np.all(np.isfinite(theta))


def _scalar_log_ratio(dim, x):
    """One candidate's log density ratio in one dimension, scored alone."""
    if isinstance(dim, _IntDim):
        i = int(np.searchsorted(dim.values, int(round(x))))
        return float(np.log(dim.p_good[i]) - np.log(dim.p_bad[i]))
    if dim.log_scale:
        x = np.log(x)

    def log_density(mu, sd):
        z = (x - mu) / sd
        pdf = np.exp(-z**2 / 2.0) / float(np.sqrt(2.0 * np.pi)) / sd
        return float(np.log(np.mean(pdf) + 1e-300))

    return log_density(dim.good_mu, dim.good_sd) - log_density(dim.bad_mu, dim.bad_sd)


def _scalar_tpe_suggest(history, space, rng, gamma=0.25, n_candidates=24):
    """TPE as a loop over candidates: draw one, score it, keep the first best."""
    good, bad = _split_history(history, gamma)
    dims = {0: _IntDim(*space.q_range, good[:, 0], bad[:, 0])}
    if space.searches_noise:
        dims[1] = _IntDim(*space.r_range, good[:, 1], bad[:, 1])
    for m in range(space._coeff_start, space._scale_start):
        # a searched noise's constant term, log sigma^2, has its own prior
        bounds = NOISE_LOG_RANGE if m == space._noise_start else space.coeff_range
        dims[m] = _ContDim(*bounds, good[:, m], bad[:, m])
    for m in range(space._scale_start, space.n_parameters):
        dims[m] = _ContDim(*space.scale_range, good[:, m], bad[:, m], log_scale=True)
    best_theta, best_score = None, -np.inf
    for _ in range(n_candidates):
        theta = np.empty(space.n_parameters)
        theta[0] = dims[0].sample(rng)
        if space.searches_noise:
            theta[1] = dims[1].sample(rng)
        mask = space.active_mask(theta)
        for m in range(space._coeff_start, space.n_parameters):
            theta[m] = dims[m].sample(rng) if mask[m] else dims[m].sample_prior(rng)
        score = sum(
            _scalar_log_ratio(dims[m], theta[m])
            for m in range(space.n_parameters) if mask[m]
        )
        if score > best_score:
            best_theta, best_score = theta, score
    return best_theta


@pytest.mark.parametrize("searched_noise", [False, True])
def test_tpe_scores_like_one_candidate_at_a_time(searched_noise):
    kwargs = dict(
        kernel_forms=(KernelForm.se(), KernelForm.ae()),
        basis=Basis.hermite(),
        q_range=(0, 9),
    )
    if searched_noise:
        kwargs.update(r_range=(0, 3), noise_fixed=None)
    space = small_space(**kwargs)
    rng = np.random.default_rng(11)
    for case in range(40):
        history = []
        for i in range(int(rng.integers(2, 30))):
            # ties and failed trials included
            loss = math.inf if rng.uniform() < 0.1 else float(rng.integers(0, 6))
            history.append(_record(random_suggest(space, rng), loss, i))
        if sum(not t.failed for t in history) < 2:
            continue
        gamma = float(rng.choice([0.1, 0.25, 0.5]))
        n_candidates = int(rng.integers(1, 30))
        got = tpe_suggest(history, space, gamma, n_candidates,
                          rng=np.random.default_rng(case))
        want = _scalar_tpe_suggest(history, space, np.random.default_rng(case),
                                   gamma, n_candidates)
        assert got.tobytes() == want.tobytes()


# ---------------------------------------------------------------------------
# Adam
# ---------------------------------------------------------------------------

def test_adam_zero_gradient_is_identity():
    params = np.array([1.0, -2.0, 0.5])
    zeros = np.zeros(3)
    new_params, m, v = adam_step(params, zeros, zeros, zeros, 1, 0.01)
    np.testing.assert_array_equal(new_params, params)
    np.testing.assert_array_equal(m, zeros)
    np.testing.assert_array_equal(v, zeros)
    np.testing.assert_array_equal(
        adam_descent(lambda p: np.zeros(3), params, 4, 0.01), params
    )


def test_adam_first_step_is_signed_step_size():
    g = np.array([3.0, -0.5, 1e-3])
    new_params = adam_descent(lambda p: g, np.zeros(3), 1, 0.01)
    np.testing.assert_allclose(new_params, -0.01 * np.sign(g), atol=1e-4)


def test_adam_descends_a_quadratic():
    # the loss 0.5 theta^2 has the gradient theta
    losses = [0.5 * adam_descent(lambda p: p.copy(), [1.0], n, 0.05)[0] ** 2
              for n in range(3)]
    assert losses[0] > losses[1] > losses[2]
    # three steps are the bits of Kingma and Ba's update written out
    theta, m, v = 1.0, 0.0, 0.0
    for t in (1, 2, 3):
        m = 0.9 * m + (1.0 - 0.9) * theta
        v = 0.999 * v + (1.0 - 0.999) * theta * theta
        m_hat, v_hat = m / (1.0 - 0.9**t), v / (1.0 - 0.999**t)
        theta = theta - 0.05 * m_hat / (math.sqrt(v_hat) + 1e-8)
    assert adam_descent(lambda p: p.copy(), [1.0], 3, 0.05)[0] == theta


def test_adam_validation():
    with pytest.raises(ValueError):
        adam_descent(lambda p: p, np.zeros(2), 1, 0.0)
    zeros = np.zeros(2)
    with pytest.raises(ValueError):
        adam_step(np.zeros(3), np.zeros(3), zeros, zeros, 1, 0.01)
    # the loop stops at the first gradient that is not finite
    calls = []

    def nan_at_step_2(p):
        calls.append(p.copy())
        return np.full(2, np.nan) if len(calls) == 2 else np.ones(2)

    assert adam_descent(nan_at_step_2, zeros, 5, 0.01) is None
    assert len(calls) == 2


# ---------------------------------------------------------------------------
# fine-tuning
# ---------------------------------------------------------------------------

def _scaled_split(rng, n=30):
    x_s = rng.uniform(size=(n, 1))
    y_s = np.sin(4.0 * x_s[:, 0]) + rng.normal(scale=0.05, size=n)
    y_s = (y_s - y_s.mean()) / y_s.std()
    return x_s, y_s


def test_fine_tune_zero_iterations_is_identity():
    space = small_space(q_range=(1, 2))
    rng = np.random.default_rng(9)
    theta = random_suggest(space, rng)
    tuned = fine_tune(theta, space, _scaled_split(rng), 0)
    np.testing.assert_array_equal(tuned.theta, theta)
    assert math.isfinite(tuned.fit.value)


def test_fine_tune_descends_negative_mll():
    space = small_space(q_range=(2, 2))
    rng = np.random.default_rng(10)
    split = _scaled_split(rng)
    theta = random_suggest(space, rng)
    stack0, noise0 = space.build_stack(theta, 1)
    initial = -mll(stack0, noise0, *split)
    final = -fine_tune(theta, space, split, 50).fit.value
    assert final <= initial + 1e-6
    assert final < initial  # 50 steps should make real progress here


def test_refinement_moves_a_log_noise_constant_of_minus_six():
    # ROADMAP item 2's heteroscedastic probe, small: y = sin 6x with noise
    # sd 0.02 + 0.3x. A log-noise constant of -6, sigma^2 = 2.5e-3, is too
    # little here: refinement must raise it, and its slope, as the noise
    # grows with x
    rng = np.random.default_rng(7)
    x = rng.uniform(size=(60, 1))
    y = np.sin(6.0 * x[:, 0]) + (0.02 + 0.3 * x[:, 0]) * rng.normal(size=60)
    split = (x, (y - y.mean()) / y.std())
    space = small_space(r_range=(0, 1), noise_fixed=None)
    # q, r, lengthscale c0 c1, log noise c0 c1, squared scale
    theta = np.array([1.0, 1.0, 3.0, 0.0, -6.0, 0.0, 1.0])
    initial = -mll(*space.build_stack(theta, 1), *split)
    tuned = fine_tune(theta, space, split, 30)
    noise = tuned.theta[space._noise_start : space._scale_start]
    assert noise[0] > -6.0 + 0.1  # more noise than the start
    assert noise[1] > 0.0  # and more of it at large x
    assert -tuned.fit.value < initial


def test_fine_tune_freezes_degrees():
    space = small_space(q_range=(1, 3), r_range=(0, 2), noise_fixed=None)
    rng = np.random.default_rng(11)
    theta = random_suggest(space, rng)
    refined = fine_tune(theta, space, _scaled_split(rng), 5).theta
    assert space.degrees(refined) == space.degrees(theta)


def test_fine_tune_updates_only_active_slots():
    space = small_space(q_range=(0, 3))
    rng = np.random.default_rng(12)
    theta = random_suggest(space, rng)
    theta[0] = 1  # degree 1: slots for degrees 2, 3 inactive
    refined = fine_tune(theta, space, _scaled_split(rng), 10).theta
    inactive = ~space.active_mask(theta)
    np.testing.assert_array_equal(refined[inactive], theta[inactive])
    active = space.active_mask(theta).copy()
    active[0] = False
    assert np.any(refined[active] != theta[active])


def test_fine_tune_factorization_failure_returns_sentinel():
    space = small_space(noise_fixed=1e-16, scale_range=(1e20, 1e24))
    rng = np.random.default_rng(13)
    theta = random_suggest(space, rng)
    theta[1:3] = 0.0  # zero warp: all points coincide, Gram is a huge ones matrix
    x_s = np.full((6, 1), 0.5)
    y_s = rng.normal(size=6)
    assert fine_tune(theta, space, (x_s, y_s), 3) is None


def test_fine_tune_returns_none_on_a_gradient_that_is_not_finite(monkeypatch):
    import pcegp.optim as optim_mod

    space = small_space()
    rng = np.random.default_rng(13)
    theta = random_suggest(space, rng)
    split = _scaled_split(rng)
    calls = []
    real = optim_mod.mll_gradient

    def nan_at_step_2(*args):
        calls.append(None)
        grad = real(*args)
        return np.full_like(grad, np.nan) if len(calls) == 2 else grad

    monkeypatch.setattr(optim_mod, "mll_gradient", nan_at_step_2)
    assert fine_tune(theta, space, split, 5) is None
    assert len(calls) == 2


# ---------------------------------------------------------------------------
# the full search loop
# ---------------------------------------------------------------------------

def test_run_search_single_random_trial():
    rng = np.random.default_rng(14)
    ds = synthetic_dataset(rng, n=24)
    space = small_space()
    result = run_search(ds, space, n_trials=1, n_initial=1, n_iterations=2,
                        n_folds=3, seed=0)
    assert len(result.history) == 1
    assert result.history[0].stage == "random"
    assert math.isfinite(result.best_loss)
    assert result.best_loss == result.history[0].loss


def test_run_search_history_bookkeeping():
    rng = np.random.default_rng(15)
    ds = synthetic_dataset(rng, n=24)
    space = small_space()
    result = run_search(ds, space, n_trials=6, n_initial=3, n_iterations=2,
                        n_folds=3, seed=1)
    assert len(result.history) == 6
    assert [t.trial_index for t in result.history] == list(range(6))
    assert [t.stage for t in result.history] == ["random"] * 3 + ["tpe"] * 3
    # a pruned trial's partial mean may be lower, but it is never the best
    completed = [t.loss for t in result.history if t.completed]
    assert result.best_loss == min(completed)
    for t in result.history:
        assert len(t.fold_losses) == (t.pruned_after or 3)


def test_the_random_warm_up_is_never_pruned():
    # trial 2's first fold (7.69) is far above the median of trials 0 and 1
    ds = synthetic_dataset(np.random.default_rng(15), n=24)
    result = run_search(ds, small_space(), n_trials=6, n_initial=3,
                        n_iterations=2, n_folds=3, seed=1)
    warm_up = [t for t in result.history if t.stage == "random"]
    assert len(warm_up) == 3 and all(t.completed for t in warm_up)
    assert warm_up[2].fold_losses[0] > max(t.fold_losses[0] for t in warm_up[:2])
    # the TPE trials are pruned against all three
    assert [t.pruned_after for t in result.history[3:]] == [1, None, None]


def test_run_search_deterministic():
    rng = np.random.default_rng(16)
    ds = synthetic_dataset(rng, n=24)
    space = small_space()
    kwargs = dict(n_trials=4, n_initial=2, n_iterations=2, n_folds=3, seed=7)
    r1 = run_search(ds, space, **kwargs)
    r2 = run_search(ds, space, **kwargs)
    assert np.array_equal(r1.best_theta, r2.best_theta)
    assert r1.best_loss == r2.best_loss
    for t1, t2 in zip(r1.history, r2.history):
        assert np.array_equal(t1.theta, t2.theta)
        assert t1.loss == t2.loss and t1.stage == t2.stage


def test_run_search_prefix_monotone_and_improves():
    rng = np.random.default_rng(17)
    ds = synthetic_dataset(rng, n=60)
    space = small_space(q_range=(1, 3))
    result = run_search(ds, space, n_trials=30, n_initial=8, n_iterations=10,
                        n_folds=3, seed=3)
    losses = [t.loss for t in result.history]
    running = np.minimum.accumulate(losses)
    assert np.all(np.diff(running) <= 0.0)
    assert min(losses[:30]) < min(losses[:5])


def test_run_search_fold_hygiene(monkeypatch):
    import pcegp.optim as optim_mod

    rng = np.random.default_rng(18)
    ds = synthetic_dataset(rng, n=20)
    seen = []
    orig = optim_mod.scale_split

    def spy(x, y):  # every fold's scalers are fitted here
        split = orig(x, y)
        assert (split[0].kind, split[1].kind) == ("min_max_per_column", "z_normalize")
        seen.append(np.array(x, dtype=float))
        return split

    monkeypatch.setattr(optim_mod, "scale_split", spy)
    run_search(ds, small_space(), n_trials=1, n_initial=1, n_iterations=1,
               n_folds=4, seed=9)

    plan = make_folds(20, 4, seed=9)
    assert len(seen) == 4
    for f, got in enumerate(seen):
        expected = ds.inputs[plan.train_indices(f)]
        np.testing.assert_array_equal(got, expected)
        # no validation row may appear in the fitting split
        for row in ds.inputs[plan.test_indices(f)]:
            assert not np.any(np.all(got == row, axis=1))


def test_run_search_all_failures_raise(monkeypatch):
    import pcegp.optim as optim_mod

    rng = np.random.default_rng(20)
    ds = synthetic_dataset(rng, n=16)

    def always_fail(theta, space, split, n_iterations, workspace=None):
        return None

    monkeypatch.setattr(optim_mod, "fine_tune", always_fail)
    with pytest.raises(RuntimeError, match="trial 0"):
        run_search(ds, small_space(), n_trials=2, n_initial=2, n_iterations=1,
                   n_folds=3, seed=11)


def test_tpe_runs_once_two_trials_have_finished_and_its_errors_propagate(
    monkeypatch,
):
    # the fallback to a random draw is by count, the rule of _split_history;
    # an error of TPE itself is not turned into a random trial
    import pcegp.optim as optim_mod

    rng = np.random.default_rng(23)
    ds = synthetic_dataset(rng, n=16)
    finished = []

    def broken(history, space, *args, **kwargs):
        finished.append(sum(not t.failed for t in history))
        raise ValueError("broken suggestion")

    monkeypatch.setattr(optim_mod, "tpe_suggest", broken)
    with pytest.raises(ValueError, match="broken suggestion"):
        run_search(ds, small_space(), n_trials=4, n_initial=0, n_iterations=1,
                   n_folds=3, seed=12)
    assert finished == [2]


def test_run_search_validation():
    rng = np.random.default_rng(21)
    ds = synthetic_dataset(rng, n=16)
    with pytest.raises(ValueError):
        run_search(ds, small_space(), n_trials=2, n_initial=3, n_iterations=1,
                   n_folds=3, seed=0)


def test_history_text_format():
    rng = np.random.default_rng(22)
    ds = synthetic_dataset(rng, n=20)
    result = run_search(ds, small_space(), n_trials=2, n_initial=2,
                        n_iterations=1, n_folds=3, seed=12)
    text = history_to_text(result)
    assert "format = pcegp-search-1" in text
    assert "trial_0.stage = random" in text
    assert "trial_1.fold_losses = " in text
    assert "best_theta = " in text


# ---------------------------------------------------------------------------
# the median pruner
# ---------------------------------------------------------------------------

def _pruning_search(monkeypatch):
    """The search on a table where TPE's last trial loses at fold 1, and
    the number of fine_tune calls it made."""
    import pcegp.optim as optim_mod

    calls = []
    real = optim_mod.fine_tune

    def counted(*args, **kwargs):
        calls.append(None)
        return real(*args, **kwargs)

    monkeypatch.setattr(optim_mod, "fine_tune", counted)
    ds = synthetic_dataset(np.random.default_rng(25), n=24)
    result = run_search(ds, small_space(), n_trials=4, n_initial=2,
                        n_iterations=2, n_folds=3, seed=0)
    return result, len(calls)


def test_a_trial_losing_at_its_first_fold_is_pruned_there(monkeypatch):
    result, _ = _pruning_search(monkeypatch)
    *completed, late = result.history
    assert all(t.completed and len(t.fold_losses) == 3 for t in completed)
    assert late.stage == "tpe" and late.pruned_after == 1
    assert late.fold_losses == (late.loss,)
    assert math.isfinite(late.loss) and not late.failed and not late.completed
    # the rule: its first fold loss exceeds the completed trials' median
    assert late.loss > statistics.median(t.fold_losses[0] for t in completed)


def test_pruning_keeps_the_best_bits_and_saves_fine_tunes(monkeypatch):
    import pcegp.optim as optim_mod

    pruned, pruned_calls = _pruning_search(monkeypatch)
    monkeypatch.setattr(optim_mod, "_prune_threshold", lambda *args: math.inf)
    whole, whole_calls = _pruning_search(monkeypatch)
    assert whole.best_theta.tobytes() == pruned.best_theta.tobytes()
    assert whole.best_loss == pruned.best_loss
    assert all(t.pruned_after is None for t in whole.history)
    assert whole.history[3].fold_losses[:1] == pruned.history[3].fold_losses
    assert (pruned_calls, whole_calls) == (10, 12)


def test_split_history_puts_a_pruned_trial_in_the_bad_set():
    thetas = [np.full(4, float(i)) for i in range(4)]
    history = [_record(thetas[i], float(i + 1), i) for i in range(3)]
    # the lowest loss of the history, from one fold
    history.append(TrialRecord(theta=thetas[3], loss=0.5, trial_index=3,
                               stage="tpe", fold_losses=(0.5,), pruned_after=1))
    good, bad = _split_history(history, gamma=0.25)
    np.testing.assert_array_equal(good, [thetas[0]])
    np.testing.assert_array_equal(bad, [thetas[1], thetas[2], thetas[3]])


def test_history_text_marks_only_pruned_trials():
    def trial(k, loss, folds, pruned_after=None):
        return TrialRecord(theta=np.array([1.0, 0.25]), loss=loss, trial_index=k,
                           stage="random", fold_losses=folds, wall_time=0.5,
                           pruned_after=pruned_after)

    history = [trial(0, 1.5, (1.0, 2.0)), trial(1, 0.75, (0.5, 1.0))]
    result = SearchResult(np.array([1.0, 0.5]), 0.75, history, 2, 3)
    # nothing pruned: the text of a search without the pruner
    assert history_to_text(result) == (
        "format = pcegp-search-1\nseed = 3\nn_folds = 2\nn_trials = 2\n"
        "best_loss = 0.75\nbest_theta = 1.0 0.5\n"
        "trial_0.stage = random\ntrial_0.loss = 1.5\n"
        "trial_0.fold_losses = 1.0 2.0\ntrial_0.theta = 1.0 0.25\n"
        "trial_0.wall_time = 0.500000\n"
        "trial_1.stage = random\ntrial_1.loss = 0.75\n"
        "trial_1.fold_losses = 0.5 1.0\ntrial_1.theta = 1.0 0.25\n"
        "trial_1.wall_time = 0.500000\n"
    )
    history.append(trial(2, 4.0, (4.0,), pruned_after=1))
    lines = history_to_text(SearchResult(result.best_theta, 0.75, history, 2, 3))
    lines = lines.splitlines()
    assert [line for line in lines if "pruned_after" in line] == [
        "trial_2.pruned_after = 1"
    ]
    i = lines.index("trial_2.fold_losses = 4.0")
    assert lines[i + 1] == "trial_2.pruned_after = 1"
    assert lines[0] == "format = pcegp-search-1"


def test_a_pruning_search_leaves_numpy_ma_unimported():
    # np.median imports numpy.ma on its first call, about 1 MB of resident
    # memory for every command that searches
    code = (
        "import sys\n"
        "import numpy as np\n"
        "import pcegp.cli\n"
        "from pcegp.data import Dataset\n"
        "from pcegp.kernels import KernelForm\n"
        "from pcegp.optim import SearchSpace, run_search\n"
        "from pcegp.poly import Basis\n"
        "rng = np.random.default_rng(25)\n"
        "x = np.sort(rng.uniform(0.0, 1.0, size=24))[:, None]\n"
        "y = np.sin(6.0 * x[:, 0]) + rng.normal(scale=0.02 + 0.2 * x[:, 0])\n"
        "space = SearchSpace(kernel_forms=(KernelForm.se(),),\n"
        "    basis=Basis.legendre01(), q_range=(1, 1), scale_range=(1e-2, 10.0),\n"
        "    noise_fixed=1e-2)\n"
        "result = run_search(Dataset(x, y, ['x'], 'y'), space, n_trials=4,\n"
        "    n_initial=2, n_iterations=2, n_folds=3, seed=0)\n"
        "pruned = [t.trial_index for t in result.history if t.pruned_after]\n"
        "ma = 'numpy.ma' in sys.modules\n"
        "sys.exit(0 if pruned == [3] and not ma else f'pruned {pruned}, numpy.ma {ma}')\n"
    )
    # the package from this checkout, with or without PYTHONPATH set
    env = dict(os.environ)
    paths = [str(Path(__file__).resolve().parent.parent / "src")]
    if env.get("PYTHONPATH"):
        paths.append(env["PYTHONPATH"])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
