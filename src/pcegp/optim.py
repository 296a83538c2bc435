"""Two-stage hyperparameter search: TPE suggestion plus Adam refinement.

The search operates on a flat trial vector theta:

    [q, (r,) coefficient blocks, (noise coefficients,) squared scales]

where q is the shared lengthscale expansion degree, r the noise expansion
degree (present only when the noise is searched), one coefficient block of
length q_max + 1 exists per kernel, in kernel order, and the squared output
scales close the vector. Every expansion is in the space's one basis
family, so slot j of a block, or of the noise block, is the coefficient of
degree j. Blocks are allocated at the maximum degree so the vector has a
fixed length; entries above the sampled degree are inactive. They are
filled from the prior when suggesting and ignored when building a model,
which keeps the Parzen estimators fixed-dimensional even though the
effective dimensionality depends on the sampled degree.
The live entries after the degrees are the built model's free parameters,
in order (see `SearchSpace`).

Each trial is scored by k-fold cross-validation: Adam refines the active
coefficients and scales on every training split by gradient ascent on the
marginal log likelihood, and the refined model's mean negative predictive
log likelihood on the held-out split, averaged over folds, is the loss of
a trial that ran every fold. Adam is `adam_descent`, which the
benchmark's ARD baseline runs too. Scalers are refit on every training
split (`data.scale_split`), so the held-out points stay out of every
fitting step.

A median pruner stops a losing TPE trial early; the random warm-up always
runs every fold, so the median starts from the whole warm-up. A TPE trial
stops after fold f (1 <= f < k) when the mean of its first f fold losses
exceeds the median of that mean over the trials that ran every fold. Its
loss is the mean of the folds it ran; it never supplies the best theta,
and TPE counts it among the bad trials. The rule reads only the history,
so a search stays reproducible from its seed.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from .data import Dataset, format_floats, make_folds, scale_split, write_text_atomic
from .gp import (
    LikelihoodFit,
    fit_likelihood,
    free_parameters,
    log_predictive_density,
    mll_gradient,
    model_from_fit,
    with_free_parameters,
)
from .hyper import LengthscaleField, NoiseField, PointBasis
from .kernels import KernelForm, KernelStack, Workspace
from .poly import Basis

FAILED_LOSS = float("inf")
# finished trials the Parzen estimators need; before then a trial is drawn
# at random
TPE_MIN_TRIALS = 2
# the share of finished trials in TPE's good set, and the candidates drawn
# from its densities per suggestion; at this share and TPE_MIN_TRIALS the
# bad set is never empty
TPE_GAMMA = 0.25
TPE_CANDIDATES = 24
_SQRT_2PI = float(np.sqrt(2.0 * np.pi))

# prior of a searched noise's constant term, log sigma^2: the targets are
# z-scored, so variances from 1e-6 to 1 serve every dataset
NOISE_LOG_RANGE = (math.log(1e-6), 0.0)


# ---------------------------------------------------------------------------
# search space and the flat trial vector
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SearchSpace:
    """Bounds and structure for the trial vector.

    The defaults are the study setup, which the CLI and `bench` read: four
    kernels, one shifted-Legendre family, q 5-10 and a fixed noise.
    `basis` is the polynomial family of every expansion the space builds:
    each kernel's lengthscale field and a searched noise. `noise_fixed`
    switches between a fixed noise variance (its value) and
    a searched expansion of the log noise variance (None, with `r_range`
    giving the degree bounds). `coeff_range` bounds every coefficient but
    that expansion's constant term, which `NOISE_LOG_RANGE` bounds
    (`coefficient_bounds`). `scale_range` bounds the squared output
    scales, sampled log-uniformly.

    `active_mask` is the one statement of the layout. Past the degree
    slots, the entries it marks are `gp.free_parameters(*build_stack(theta))`
    in order: the coefficients bit for bit, the squared scales up to the
    rounding of sqrt(s2)**2. `fine_tune` stores Adam's result through them.
    """

    kernel_forms: tuple = (
        KernelForm.se(), KernelForm.ae(), KernelForm.matern32(), KernelForm.rq()
    )
    basis: Basis = Basis.legendre01()
    q_range: tuple = (5, 10)
    coeff_range: tuple = (-2.0, 2.0)
    scale_range: tuple = (1e-3, 10.0)
    r_range: tuple | None = None
    noise_fixed: float | None = 1e-4

    def __post_init__(self):
        object.__setattr__(self, "kernel_forms", tuple(self.kernel_forms))
        if not self.kernel_forms:
            raise ValueError("at least one kernel form is required")
        for form in self.kernel_forms:
            if not isinstance(form, KernelForm):
                raise TypeError("kernel_forms must contain KernelForm values")
        if not isinstance(self.basis, Basis):
            raise TypeError(f"basis must be a Basis, got {type(self.basis).__name__}")
        q0, q1 = self.q_range
        if not (0 <= q0 <= q1 <= 16):
            raise ValueError(f"q_range must satisfy 0 <= lo <= hi <= 16, got {self.q_range}")
        # chained comparisons with the infinities: NaN fails every one
        if not -math.inf < self.coeff_range[0] < self.coeff_range[1] < math.inf:
            raise ValueError("coeff_range must be finite with lo < hi")
        if not 0.0 < self.scale_range[0] < self.scale_range[1] < math.inf:
            raise ValueError("scale_range must be finite and positive with lo < hi")
        if (self.noise_fixed is None) == (self.r_range is None):
            raise ValueError("exactly one of noise_fixed and r_range must be set")
        if self.noise_fixed is not None and not 0.0 < self.noise_fixed < math.inf:
            raise ValueError("fixed noise must be finite and positive")
        if self.r_range is not None:
            r0, r1 = self.r_range
            if not (0 <= r0 <= r1 <= 16):
                raise ValueError(f"r_range must satisfy 0 <= lo <= hi <= 16, got {self.r_range}")

    @property
    def n_kernels(self) -> int:
        return len(self.kernel_forms)

    @property
    def searches_noise(self) -> bool:
        return self.r_range is not None

    # --- flat vector layout -------------------------------------------------

    @property
    def _coeff_start(self) -> int:
        return 2 if self.searches_noise else 1

    @property
    def _block_len(self) -> int:
        return self.q_range[1] + 1

    @property
    def _noise_start(self) -> int:
        return self._coeff_start + self.n_kernels * self._block_len

    @property
    def _noise_len(self) -> int:
        return (self.r_range[1] + 1) if self.searches_noise else 0

    @property
    def _scale_start(self) -> int:
        return self._noise_start + self._noise_len

    @property
    def n_parameters(self) -> int:
        return self._scale_start + self.n_kernels

    def coefficient_bounds(self) -> tuple:
        """(lo, hi) of the uniform prior, one entry per coefficient slot."""
        n = self._scale_start - self._coeff_start
        lo, hi = np.full(n, self.coeff_range[0]), np.full(n, self.coeff_range[1])
        if self.searches_noise:
            i = self._noise_start - self._coeff_start
            lo[i], hi[i] = NOISE_LOG_RANGE
        return lo, hi

    def degrees(self, theta) -> tuple:
        """(q, r) from a trial vector; r is None when noise is fixed."""
        q = int(round(theta[0]))
        r = int(round(theta[1])) if self.searches_noise else None
        return q, r

    def active_mask(self, theta) -> np.ndarray:
        """Which entries of theta are live for its sampled degrees."""
        q, r = self.degrees(theta)
        mask = np.ones(self.n_parameters, dtype=bool)
        blocks = mask[self._coeff_start : self._noise_start]  # a view
        blocks.reshape(-1, self._block_len)[:, q + 1 :] = False
        if self.searches_noise:
            mask[self._noise_start + r + 1 : self._scale_start] = False
        return mask

    def _free_positions(self, theta) -> np.ndarray:
        """Indices of theta's live entries in `gp.free_parameters` order."""
        return np.flatnonzero(self.active_mask(theta))[self._coeff_start :]

    def build_stack(self, theta, n_inputs: int):
        """(KernelStack, NoiseField) for data with the given input width."""
        theta = np.asarray(theta, dtype=float)
        if theta.size != self.n_parameters:
            raise ValueError(
                f"theta has {theta.size} entries, space needs {self.n_parameters}"
            )
        q, r = self.degrees(theta)
        q0, q1 = self.q_range
        if not q0 <= q <= q1:
            raise ValueError(f"degree {q} outside q_range {self.q_range}")

        blocks = theta[self._coeff_start : self._noise_start].reshape(
            self.n_kernels, self._block_len
        )
        entries = []
        for form, block, scale2 in zip(
            self.kernel_forms, blocks, theta[self._scale_start :]
        ):
            if scale2 <= 0.0:
                raise ValueError(f"squared scale must be positive, got {scale2}")
            field = LengthscaleField(self.basis, block[: q + 1], n_inputs)
            entries.append((form, float(np.sqrt(scale2)), field))

        if self.searches_noise:
            r0, r1 = self.r_range
            if not r0 <= r <= r1:
                raise ValueError(f"degree {r} outside r_range {self.r_range}")
            noise = NoiseField.pce(
                self.basis, theta[self._noise_start : self._noise_start + r + 1]
            )
        else:
            noise = NoiseField.fixed(self.noise_fixed)
        return KernelStack(tuple(entries)), noise


@dataclass(frozen=True)
class TrialRecord:
    """One evaluated suggestion: the raw theta and its cross-validated loss.

    A pruned trial holds the losses of the folds it ran, their mean as its
    loss and their count as `pruned_after`; any other trial has
    `pruned_after` None. A failed trial's loss is infinite.
    """

    theta: np.ndarray
    loss: float
    trial_index: int
    stage: str  # "random" or "tpe"
    fold_losses: tuple = ()
    wall_time: float = 0.0
    pruned_after: int | None = None

    @property
    def failed(self) -> bool:
        return not math.isfinite(self.loss)

    @property
    def completed(self) -> bool:
        """Ran every fold to a finite loss."""
        return self.pruned_after is None and not self.failed


@dataclass(frozen=True)
class SearchResult:
    """Outcome of run_search: refined best trial plus the full history."""

    best_theta: np.ndarray
    best_loss: float
    history: list
    n_folds: int
    seed: int


# ---------------------------------------------------------------------------
# suggestion: random stage
# ---------------------------------------------------------------------------

def random_suggest(space: SearchSpace, rng) -> np.ndarray:
    """Uniform draw: degrees uniform, coefficients uniform, scales log-uniform."""
    theta = np.empty(space.n_parameters)
    theta[0] = rng.integers(space.q_range[0], space.q_range[1] + 1)
    if space.searches_noise:
        theta[1] = rng.integers(space.r_range[0], space.r_range[1] + 1)
    theta[space._coeff_start : space._scale_start] = rng.uniform(
        *space.coefficient_bounds()
    )
    s_lo, s_hi = space.scale_range
    theta[space._scale_start :] = np.exp(
        rng.uniform(np.log(s_lo), np.log(s_hi), size=space.n_kernels)
    )
    return theta


# ---------------------------------------------------------------------------
# suggestion: tree-structured Parzen estimator
# ---------------------------------------------------------------------------

def _split_history(history):
    """(good, bad) thetas: the `TPE_GAMMA` share of completed trials with the
    lowest losses, and the rest. Pruned trials join the bad set whatever
    their partial losses; failed trials join neither."""
    done = [t for t in history if t.completed]
    if len(done) < TPE_MIN_TRIALS:
        raise ValueError(f"TPE needs at least {TPE_MIN_TRIALS} completed trials")
    done.sort(key=lambda t: (t.loss, t.trial_index))
    n_good = max(1, math.ceil(TPE_GAMMA * len(done)))
    pruned = [t for t in history if t.pruned_after is not None]
    good = np.vstack([t.theta for t in done[:n_good]])
    bad = np.vstack([t.theta for t in done[n_good:] + pruned])
    return good, bad


class _IntDim:
    """Discrete dimension: smoothed histogram over an integer range."""

    def __init__(self, lo, hi, good_vals, bad_vals):
        self.values = np.arange(lo, hi + 1)
        self.p_good = self._probs(good_vals)
        self.p_bad = self._probs(bad_vals)

    def _probs(self, vals):
        counts = np.array(
            [np.sum(np.rint(vals) == v) for v in self.values], dtype=float
        )
        counts += 1.0  # smoothing doubles as the prior
        return counts / counts.sum()

    def sample(self, rng):
        return float(rng.choice(self.values, p=self.p_good))

    def log_ratio(self, x):
        """log p_good - log p_bad at each value of the array `x`."""
        i = np.searchsorted(self.values, np.rint(x))
        return np.log(self.p_good[i]) - np.log(self.p_bad[i])


class _ContDim:
    """Continuous dimension: Parzen mixture over observations plus a prior.

    One Gaussian per observation with a Scott's-rule bandwidth (floored at
    a fraction of the range), plus one wide prior component at mid-range
    with unit weight; `log_scale` does everything in log space for the
    log-uniformly sampled dimensions.
    """

    def __init__(self, lo, hi, good_vals, bad_vals, log_scale=False):
        self.log_scale = log_scale
        if log_scale:
            lo, hi = np.log(lo), np.log(hi)
            good_vals = np.log(good_vals)
            bad_vals = np.log(bad_vals)
        self.lo, self.hi = lo, hi
        self.good_mu, self.good_sd = self._components(good_vals)
        self.bad_mu, self.bad_sd = self._components(bad_vals)

    def _components(self, vals):
        width = self.hi - self.lo
        prior_mu, prior_sd = 0.5 * (self.lo + self.hi), width
        if vals.size == 0:
            return np.array([prior_mu]), np.array([prior_sd])
        sd = np.std(vals) * vals.size ** (-0.2)
        sd = max(sd, 1e-3 * width)
        mu = np.concatenate([vals, [prior_mu]])
        sds = np.full(mu.size, sd)
        sds[-1] = prior_sd
        return mu, sds

    def sample(self, rng):
        i = rng.integers(self.good_mu.size)  # components carry equal weight
        x = rng.normal(self.good_mu[i], self.good_sd[i])
        x = min(max(x, self.lo), self.hi)
        return float(np.exp(x)) if self.log_scale else float(x)

    def _log_density(self, x, mu, sd):
        """Log mixture density at each value of the array `x`.

        The Gaussian density written out, in the same floating-point
        operations as scipy.stats.norm.pdf, one row of components per value.
        """
        z = (np.asarray(x, dtype=float)[:, None] - mu) / sd
        pdf = np.exp(-z**2 / 2.0) / _SQRT_2PI / sd
        return np.log(np.mean(pdf, axis=1) + 1e-300)

    def log_ratio(self, x):
        """log good density - log bad density at each value of the array `x`."""
        if self.log_scale:
            x = np.log(x)
        return self._log_density(x, self.good_mu, self.good_sd) - self._log_density(
            x, self.bad_mu, self.bad_sd
        )

    def sample_prior(self, rng):
        x = rng.uniform(self.lo, self.hi)
        return float(np.exp(x)) if self.log_scale else float(x)


def tpe_suggest(history, space: SearchSpace, *, rng) -> np.ndarray:
    """Suggest the candidate maximizing the good/bad density ratio.

    Densities are per-dimension Parzen estimators fit to the `TPE_GAMMA`
    split of the history. `TPE_CANDIDATES` candidates are drawn from the
    good-set densities; coefficient entries above a candidate's sampled
    degree are drawn from the prior and excluded from its score. All
    candidates are drawn first, then scored one dimension at a time over
    every candidate; a score sums its active dimensions in index order,
    and the first best one wins.
    """
    good, bad = _split_history(history)

    dims: dict = {0: _IntDim(*space.q_range, good[:, 0], bad[:, 0])}
    if space.searches_noise:
        dims[1] = _IntDim(*space.r_range, good[:, 1], bad[:, 1])
    coeff_slots = range(space._coeff_start, space._scale_start)
    for m, lo, hi in zip(coeff_slots, *space.coefficient_bounds()):
        dims[m] = _ContDim(lo, hi, good[:, m], bad[:, m])
    s_lo, s_hi = space.scale_range
    for m in range(space._scale_start, space.n_parameters):
        dims[m] = _ContDim(s_lo, s_hi, good[:, m], bad[:, m], log_scale=True)

    thetas = np.empty((TPE_CANDIDATES, space.n_parameters))
    masks = np.empty(thetas.shape, dtype=bool)
    for theta, mask in zip(thetas, masks):
        theta[0] = dims[0].sample(rng)
        if space.searches_noise:
            theta[1] = dims[1].sample(rng)
        mask[:] = space.active_mask(theta)
        for m in range(space._coeff_start, space.n_parameters):
            theta[m] = dims[m].sample(rng) if mask[m] else dims[m].sample_prior(rng)
    scores = np.zeros(TPE_CANDIDATES)
    for m in range(space.n_parameters):
        scores += np.where(masks[:, m], dims[m].log_ratio(thetas[:, m]), 0.0)
    return thetas[int(np.argmax(scores))].copy()


# ---------------------------------------------------------------------------
# Adam
# ---------------------------------------------------------------------------

# decay rates of the moment estimates and the denominator guard
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPSILON = 1e-8
# Adam's step size in the search's refinement
STEP_SIZE = 0.01


def adam_step(params, gradient, first_moment, second_moment, t, step_size):
    """Step `t` (counting from 1) of bias-corrected Adam descent on a loss
    gradient. Returns (params, first moment, second moment) after it."""
    p = np.asarray(params, dtype=float)
    g = np.asarray(gradient, dtype=float)
    if p.shape != g.shape or p.shape != np.shape(first_moment):
        raise ValueError("params, gradient, and moments must share a shape")
    m = ADAM_BETA1 * first_moment + (1.0 - ADAM_BETA1) * g
    v = ADAM_BETA2 * second_moment + (1.0 - ADAM_BETA2) * g * g
    m_hat = m / (1.0 - ADAM_BETA1**t)
    v_hat = v / (1.0 - ADAM_BETA2**t)
    return p - step_size * m_hat / (np.sqrt(v_hat) + ADAM_EPSILON), m, v


def adam_descent(loss_gradient, params, n_iterations: int, step_size: float):
    """`n_iterations` Adam steps down `loss_gradient(params)` from `params`:
    the final parameters, or None as soon as a gradient is not finite."""
    if step_size <= 0.0:
        raise ValueError("step_size must be positive")
    params = np.asarray(params, dtype=float)
    m, v = np.zeros(params.shape), np.zeros(params.shape)
    for t in range(1, n_iterations + 1):
        gradient = loss_gradient(params)
        if not np.all(np.isfinite(gradient)):
            return None
        params, m, v = adam_step(params, gradient, m, v, t, step_size)
    return params


# ---------------------------------------------------------------------------
# fine-tuning and the search loop
# ---------------------------------------------------------------------------

def _to_adam_coords(stack, noise):
    """Free parameters with squared scales mapped to log space."""
    coords = free_parameters(stack, noise)
    coords[-stack.n_entries :] = np.log(coords[-stack.n_entries :])
    return coords


def _from_adam_coords(stack, noise, coords):
    n_k = stack.n_entries
    flat = coords.copy()
    flat[-n_k:] = np.exp(coords[-n_k:])
    return with_free_parameters(stack, noise, flat)


@dataclass(frozen=True)
class FineTuneResult:
    """Refined theta, and the stack, noise and factorization behind its
    closing likelihood, so the fold model is built without factorizing the
    same Gram a second time. The factorization borrows the refinement's
    workspace until its next evaluation.
    """

    theta: np.ndarray
    stack: KernelStack
    noise: NoiseField
    fit: LikelihoodFit


def fine_tune(
    theta,
    space: SearchSpace,
    train_split,
    n_iterations: int,
    workspace: Workspace | None = None,
) -> FineTuneResult | None:
    """Refine a trial's active parameters by Adam ascent on the MLL.

    `train_split` is (x_scaled, y_scaled). Degrees stay frozen; squared
    scales are optimized through their logarithm so they remain positive.
    Adam is `adam_descent` on the negative MLL at `STEP_SIZE`. Returns the
    refined theta with its closing fit as a `FineTuneResult`, or None when
    a factorization raises, a gradient is not finite or the closing MLL is
    not finite. Every step and the closing fit run in `workspace` (a
    fresh one when none is given), whose K buffer holds the closing fit's
    factor until the next evaluation there.
    The chaos-basis values at the training points are evaluated once, into
    a `PointBasis` that every step and the closing fit share and that is
    dropped on return; the gradient takes its coefficient sensitivities
    from it.
    """
    x_s, y_s = train_split
    x_s = np.asarray(x_s, dtype=float)
    y_s = np.asarray(y_s, dtype=float).ravel()
    if x_s.shape[0] == 0:
        raise ValueError("training split is empty")
    stack, noise = space.build_stack(theta, x_s.shape[1])
    refined = np.asarray(theta, dtype=float).copy()
    ws = workspace if workspace is not None else Workspace()
    points = PointBasis(x_s, stack.expansions(noise))
    n_k = stack.n_entries

    def loss_gradient(coords):
        step_stack, step_noise = _from_adam_coords(stack, noise, coords)
        grad = -mll_gradient(step_stack, step_noise, points, y_s, ws)
        grad[-n_k:] *= np.exp(coords[-n_k:])  # chain rule for the log scales
        return grad

    try:
        # exp(log s2) is not s2 bit for bit: without steps, the suggestion's
        # own stack is the one fitted
        if n_iterations > 0:
            coords = adam_descent(
                loss_gradient, _to_adam_coords(stack, noise), n_iterations, STEP_SIZE
            )
            if coords is None:
                return None
            stack, noise = _from_adam_coords(stack, noise, coords)
            refined[space._free_positions(theta)] = free_parameters(stack, noise)
        fit = fit_likelihood(stack, noise, points, y_s, ws)
    except RuntimeError:
        return None
    if not math.isfinite(fit.value):
        return None
    return FineTuneResult(refined, stack, noise, fit)


def _score_fold(theta, space, dataset, plan, fold, n_iterations, workspace):
    """(held-out loss, refined theta) of one fold, or (FAILED_LOSS, None).

    The fold refines in `workspace`, and its model, built on the closing
    fit's factor there, is scored before this returns: nothing of the fold
    outlives it to hold that buffer when the next fold starts.
    """
    tr, va = plan.train_indices(fold), plan.test_indices(fold)
    in_sc, out_sc, x_s, y_s = scale_split(dataset.inputs[tr], dataset.outputs[tr])
    tuned = fine_tune(theta, space, (x_s, y_s), n_iterations, workspace)
    if tuned is None:
        return FAILED_LOSS, None
    # the fold model reuses the factorization of the closing likelihood
    model = model_from_fit(
        tuned.stack, tuned.noise, in_sc, out_sc, x_s, y_s, fit=tuned.fit
    )
    lpd = log_predictive_density(model, dataset.inputs[va], dataset.outputs[va])
    return float(-np.mean(lpd)), tuned.theta


def _median(values) -> float:
    """Median by sorting.

    numpy's median imports numpy.ma on its first call, and the standard
    library's `statistics` imports `decimal` and `fractions`: about 1 MB
    and 0.26 MB of resident memory for every command that searches.
    """
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2.0


def _prune_threshold(history, n_finished: int) -> float:
    """The loss above which a trial stops after `n_finished` folds.

    The median, over the completed trials of `history` (a TPE trial has
    at least `TPE_MIN_TRIALS` of them), of the mean of their first
    `n_finished` fold losses.
    """
    done = [t.fold_losses[:n_finished] for t in history if t.completed]
    return _median([float(np.mean(losses)) for losses in done])


def _evaluate_trial(
    theta,
    space: SearchSpace,
    dataset: Dataset,
    plan,
    n_iterations: int,
    workspace: Workspace,
    prune_above,
):
    """Cross-validate one suggestion.

    Returns (loss, fold losses, best fold theta, pruned_after). Every fold
    refines and is scored in `workspace` (`_score_fold`). After fold f
    (counting from 1), the trial stops when the mean of its fold losses so
    far exceeds `prune_above[f - 1]`: the result is then (that mean, the f
    fold losses, None, f). An empty `prune_above` never stops. A trial
    that fails is (FAILED_LOSS, its fold losses, None, None); one that
    runs every fold has the mean of its fold losses and pruned_after None.
    """
    fold_losses = []
    fold_thetas = []
    for f in range(plan.n_folds):
        loss, refined = _score_fold(
            theta, space, dataset, plan, f, n_iterations, workspace
        )
        fold_losses.append(loss)
        if refined is None:
            return FAILED_LOSS, fold_losses, None, None
        fold_thetas.append(refined)
        # a non-finite fold loss fails the trial below, and is never pruned
        so_far = float(np.mean(fold_losses))
        if f < len(prune_above) and math.isfinite(so_far) and so_far > prune_above[f]:
            return so_far, fold_losses, None, f + 1

    mean_loss = float(np.mean(fold_losses))
    if not math.isfinite(mean_loss):
        return FAILED_LOSS, fold_losses, None, None
    best_fold = int(np.argmin(fold_losses))
    return mean_loss, fold_losses, fold_thetas[best_fold], None


def check_search_settings(
    n_trials: int, n_initial: int, n_iterations: int, n_folds: int, seed: int
) -> None:
    """Raise a ValueError for settings `run_search` cannot run.

    `n_initial` may be 0: the trials are then random draws until
    `TPE_MIN_TRIALS` of them have finished. The seed seeds numpy's
    generators, which take no negative integer.
    """
    if n_trials < 1:
        raise ValueError("need at least one trial")
    if not 0 <= n_initial <= n_trials:
        raise ValueError(
            f"n_initial ({n_initial}) must be in [0, n_trials ({n_trials})]"
        )
    if n_iterations < 0:
        raise ValueError("n_iterations cannot be negative")
    if n_folds < 2:
        raise ValueError("need at least 2 inner folds")
    if seed < 0:
        raise ValueError(f"seed must be a non-negative integer, got {seed}")


def run_search(
    dataset: Dataset,
    space: SearchSpace,
    n_trials: int,
    n_initial: int,
    n_iterations: int,
    n_folds: int,
    seed: int,
    checkpoint_path=None,
    workspace: Workspace | None = None,
) -> SearchResult:
    """Full two-stage search: random warmup, then TPE, each trial cross-validated.

    Every fold fits its scalers on its own training split (`_score_fold`).
    The retained best is the refined theta from the best-validating fold of
    the lowest-loss trial that ran every fold; the history stores the raw
    suggestions so the TPE densities stay in suggestion space. A TPE
    trial whose mean fold loss after fold f (f < n_folds) exceeds
    `_prune_threshold(history, f)` stops there and is recorded as pruned
    (see the module docstring); a random trial runs every fold, so the
    pruner never acts before the warm-up is done. The pruner is always on.

    One likelihood workspace serves every trial and fold of the call:
    `workspace` when given (a benchmark passes the one its refits use),
    else a fresh one freed when the call returns. It is reserved at the
    largest training split, so each buffer is allocated once.
    `checkpoint_path`, when given, receives `history_to_text` of the
    finished trials after every trial (`data.write_text_atomic`), so an
    interrupted or wholly failed search leaves the history of its trials.
    """
    check_search_settings(n_trials, n_initial, n_iterations, n_folds, seed)
    rng = np.random.default_rng(seed)
    plan = make_folds(dataset.n_points, n_folds, seed)
    if workspace is None:
        workspace = Workspace()
    workspace.reserve(plan.largest_train_size)
    history: list = []
    best_theta, best_loss = None, FAILED_LOSS
    for trial in range(n_trials):
        t0 = time.perf_counter()
        completed = sum(t.completed for t in history)
        if trial < n_initial or completed < TPE_MIN_TRIALS:
            # the random warm-up runs every fold
            stage, theta, prune_above = "random", random_suggest(space, rng), ()
        else:
            stage, theta = "tpe", tpe_suggest(history, space, rng=rng)
            prune_above = [_prune_threshold(history, f) for f in range(1, n_folds)]
        mean_loss, fold_losses, refined, pruned_after = _evaluate_trial(
            theta, space, dataset, plan, n_iterations, workspace, prune_above,
        )
        history.append(
            TrialRecord(
                theta=theta,
                loss=mean_loss,
                trial_index=trial,
                stage=stage,
                fold_losses=tuple(fold_losses),
                wall_time=time.perf_counter() - t0,
                pruned_after=pruned_after,
            )
        )
        if refined is not None and mean_loss < best_loss:
            best_theta, best_loss = refined, mean_loss
        result = SearchResult(best_theta, best_loss, history, n_folds, seed)
        if checkpoint_path is not None:
            write_text_atomic(checkpoint_path, history_to_text(result))

    if best_theta is None:
        failures = ", ".join(f"trial {t.trial_index} ({t.stage})" for t in history)
        raise RuntimeError(f"every trial failed: {failures}")
    return result


def history_to_text(result: SearchResult) -> str:
    """Persist the search history as flat structured text, one record per trial.

    A result with ``best_theta is None`` (a search whose trials so far all
    failed) omits the best lines but keeps every trial record. Float
    vectors are `data.format_floats` strings. A pruned trial's record
    holds the fold losses it ran, their mean as its loss, and one more
    line, ``trial_<k>.pruned_after = <f>``; no other record has that line.
    """
    lines = [
        "format = pcegp-search-1",
        f"seed = {result.seed}",
        f"n_folds = {result.n_folds}",
        f"n_trials = {len(result.history)}",
    ]
    if result.best_theta is not None:
        lines.append(f"best_loss = {result.best_loss!r}")
        lines.append(f"best_theta = {format_floats(result.best_theta)}")
    for t in result.history:
        p = f"trial_{t.trial_index}"
        lines.append(f"{p}.stage = {t.stage}")
        lines.append(f"{p}.loss = {t.loss!r}")
        lines.append(f"{p}.fold_losses = {format_floats(t.fold_losses)}")
        if t.pruned_after is not None:
            lines.append(f"{p}.pruned_after = {t.pruned_after}")
        lines.append(f"{p}.theta = {format_floats(t.theta)}")
        lines.append(f"{p}.wall_time = {t.wall_time:.6f}")
    return "\n".join(lines) + "\n"
