"""Benchmark harness: outer k-fold RMSE for the searched model and a baseline.

The protocol is shuffled 10-fold cross-validation with all error reported
in raw output units. Two tuning modes exist: nested (the search runs
inside every outer fold on that fold's training portion, so held-out
points never influence tuning) and non-nested (one search on the full
data, then per-fold refits), the latter costing roughly one k-th as much.
Both methods run through one fold loop, which rewrites the output file
atomically after every fold as the report of the folds finished so far.

The baseline is a single stationary squared-exponential kernel with one
lengthscale per input dimension (ARD), plus a learned noise variance,
optimized by the search's Adam loop, `optim.adam_descent`, on the
marginal log likelihood. No search stage, no expansions. It is the squared-exponential form on the linear warp
w = x / l, a warp w(x) = l(x) x whose field does not vary with x, and runs
through the searched model's code: `kernels.gram_parts` assembles its K,
`gp.contract_entry` contracts its gradient, which it chains through
dw/d(log l) = -w, and `kernels.warped_cross_matrix` gives its cross
covariances. So no per-dimension N x N tensor is formed, and its arrays
live in one workspace per fit: a gradient step holds 2 N x N arrays'
worth (K, and the entry's values and A's pairs at half that each), and a
value-only fit K alone.
"""

from __future__ import annotations

import hashlib
import os
import time
from dataclasses import dataclass, field

import numpy as np

from .data import (
    Dataset,
    apply_scaler,
    format_floats,
    load_csv,
    make_folds,
    read_csv,
    scale_split,
    write_text_atomic,
)
from .gp import (
    PREDICT_BLOCK_ROWS,
    _likelihood_core,
    contract_entry,
    fit_likelihood,
    model_from_fit,
    predict_means,
)
from .kernels import (
    KernelForm,
    Workspace,
    gradient_weights,
    gram_parts,
    warped_cross_matrix,
)
from .optim import SearchSpace, adam_descent, check_search_settings, run_search

# Adam's step size in the baseline's refinement
BASELINE_STEP_SIZE = 0.05


@dataclass(frozen=True)
class BenchmarkConfig:
    """Everything one benchmark run needs; defaults follow the study setup."""

    dataset_path: str
    target_column: str
    n_folds: int = 10
    n_trials: int = 100
    n_initial: int = 20
    n_iterations: int = 100
    seed: int = 0
    nested: bool = True
    inner_n_folds: int = 5
    space: SearchSpace = field(default_factory=SearchSpace)

    def __post_init__(self):
        if self.n_folds < 2:
            raise ValueError("need at least 2 outer folds")
        check_search_settings(self.n_trials, self.n_initial, self.n_iterations,
                              self.inner_n_folds, self.seed)

    def echo(self) -> dict:
        """The report's `config.<key>` values; `basis` labels the one family
        of every expansion the searched models hold. The shape parameters
        of a rational quadratic and of a Jacobi basis are written exactly,
        by `repr`, as `Basis.label` writes them."""
        space = self.space
        return {
            "dataset_path": str(self.dataset_path),
            "target_column": self.target_column,
            "n_folds": self.n_folds,
            "n_trials": self.n_trials,
            "n_initial": self.n_initial,
            "n_iterations": self.n_iterations,
            "seed": self.seed,
            "nested": self.nested,
            "inner_n_folds": self.inner_n_folds,
            "kernels": " ".join(
                f"{f.tag}({f.shape!r})" if f.tag == "rational_quadratic"
                else f.tag
                for f in space.kernel_forms
            ),
            "basis": space.basis.label(),
            "q_range": f"{space.q_range[0]} {space.q_range[1]}",
            "r_range": (
                "fixed" if space.r_range is None
                else f"{space.r_range[0]} {space.r_range[1]}"
            ),
            "noise": (
                repr(float(space.noise_fixed))
                if space.noise_fixed is not None
                else "searched"
            ),
            "coeff_range": f"{space.coeff_range[0]!r} {space.coeff_range[1]!r}",
            "scale_range": f"{space.scale_range[0]!r} {space.scale_range[1]!r}",
        }


@dataclass(frozen=True)
class BenchmarkReport:
    """Per-fold and aggregate RMSE plus the configuration that produced it."""

    method: str
    per_fold_rmse: tuple
    mean_rmse: float
    std_rmse: float
    wall_time: float
    config_echo: dict
    best_thetas: tuple

    def __post_init__(self):
        if abs(self.mean_rmse - float(np.mean(self.per_fold_rmse))) > 1e-12:
            raise ValueError("mean_rmse must equal the mean of per_fold_rmse")


def rmse(predictions, truths) -> float:
    """Root mean squared error; inputs must be equal-length and non-empty."""
    p = np.asarray(predictions, dtype=float).ravel()
    t = np.asarray(truths, dtype=float).ravel()
    if p.size == 0:
        raise ValueError("rmse of empty vectors is undefined")
    if p.size != t.size:
        raise ValueError(f"length mismatch: {p.size} predictions, {t.size} truths")
    return float(np.sqrt(np.mean((p - t) ** 2)))


# ---------------------------------------------------------------------------
# benchmark driver
# ---------------------------------------------------------------------------

def _load_target(config: BenchmarkConfig) -> Dataset:
    (ds,) = load_csv(config.dataset_path, [config.target_column])
    return ds


def _fold_seeds(seed: int, n: int):
    return [int(s) for s in np.random.SeedSequence(seed).generate_state(n)]


def _cross_validate(method, config, ds, plan, output_path, fit_predict, t0):
    """The outer k-fold protocol that both methods share, over the folds of `plan`.

    Each fold calls `fit_predict(fold, train, split, x_test)`, with `split`
    the `data.scale_split` of its own training rows, which returns the test
    means in raw output units and the fold's parameter vector. After every
    fold the report of the folds finished so far replaces `output_path`
    atomically
    (`data.write_text_atomic`), so the last write is the final report and an
    interrupted run leaves a valid report of its finished folds.
    """
    fold_rmses: list = []
    thetas: list = []
    for f in range(config.n_folds):
        tr, te = plan.train_indices(f), plan.test_indices(f)
        train = Dataset(
            ds.inputs[tr], ds.outputs[tr], ds.column_names, ds.target_name
        )
        split = scale_split(train.inputs, train.outputs)
        means, theta = fit_predict(f, train, split, ds.inputs[te])
        fold_rmses.append(rmse(means, ds.outputs[te]))
        thetas.append(tuple(float(v) for v in theta))
        report = BenchmarkReport(
            method=method,
            per_fold_rmse=tuple(fold_rmses),
            mean_rmse=float(np.mean(fold_rmses)),
            std_rmse=float(np.std(fold_rmses)),
            wall_time=time.perf_counter() - t0,
            config_echo=config.echo(),
            best_thetas=tuple(thetas),
        )
        if output_path is not None:
            write_text_atomic(output_path, report_text(report))
    return report


def run_benchmark(
    config: BenchmarkConfig,
    dataset: Dataset | None = None,
    checkpoint_path=None,
) -> BenchmarkReport:
    """Cross-validated RMSE of the searched model under the given config.

    Nested mode reruns the hyperparameter search inside every outer fold;
    non-nested mode searches once on the full data and refits the winner
    per fold. `checkpoint_path`, when given, receives the report of the
    finished folds after every fold (see `_cross_validate`).
    """
    t0 = time.perf_counter()
    ds = dataset if dataset is not None else _load_target(config)
    plan = make_folds(ds.n_points, config.n_folds, config.seed)
    # one workspace for the command: the searches reserve it at their own
    # training splits, and each refit at the largest outer one
    workspace = Workspace()

    def search(data, seed):
        return run_search(
            data,
            config.space,
            n_trials=config.n_trials,
            n_initial=config.n_initial,
            n_iterations=config.n_iterations,
            n_folds=config.inner_n_folds,
            seed=seed,
            workspace=workspace,
        ).best_theta

    seeds = _fold_seeds(config.seed, config.n_folds)
    # non-nested: one search, run at the first fold
    shared_best = None

    def fit_predict(fold, train, split, x_test):
        nonlocal shared_best
        if config.nested:
            best = search(train, seeds[fold])
        else:
            if shared_best is None:
                shared_best = search(ds, config.seed)
            best = shared_best
        stack, noise = config.space.build_stack(best, ds.n_inputs)
        _, _, x_s, y_s = split
        # only the buffers a value-only fit reads grow to the outer split; in
        # nested mode the search's others stay at its inner splits. The model
        # borrows the workspace's factor and is dropped before the next
        # fold's search or refit overwrites it
        workspace.reserve(plan.largest_train_size)
        fit = fit_likelihood(stack, noise, x_s, y_s, workspace)
        model = model_from_fit(stack, noise, *split, fit=fit)
        return predict_means(model, x_test), best

    return _cross_validate("pcegp", config, ds, plan, checkpoint_path, fit_predict, t0)


# ---------------------------------------------------------------------------
# stationary baseline
# ---------------------------------------------------------------------------

def _ard_entry(log_params, d):
    """((squared exponential, s),) and the lengthscales l, which warp x to x / l."""
    forms = ((KernelForm.se(), float(np.exp(0.5 * log_params[d]))),)
    return forms, np.exp(log_params[:d])


def _ard_neg_mll_and_grad(log_params, x, y, gradient=True, workspace=None):
    """Negative MLL and gradient for the per-dimension stationary kernel.

    `log_params` is [log l_1..log l_d, log s2, log sn2] and `x` the N x d
    scaled inputs. Returns (negative MLL, its gradient, K^-1 y); with
    `gradient=False` the gradient is None and K^-1 is never formed. K is
    `kernels.gram_parts` of one squared-exponential entry on w = x / l, plus
    sn2 on the diagonal, in `workspace` (a fresh one when none is given):
    with the gradient K, the entry's values and A's pairs, without it only
    K. The gradient chains `gp.contract_entry` through dw/d(log l) = -w.
    """
    n, d = x.shape
    forms, lengthscales = _ard_entry(log_params, d)
    w = x / lengthscales
    ws = workspace if workspace is not None else Workspace()
    k, parts = gram_parts(forms, (w,), ws, keep=gradient)
    sn2 = np.exp(log_params[d + 1])
    k.flat[:: n + 1] += sn2
    fit = _likelihood_core(k, y, "ard squared_exponential baseline", gradient)
    if not gradient:
        return -fit.value, None, fit.alpha

    a = gradient_weights(fit.a, ws)
    r, ds2 = contract_entry(a, parts[0])
    scale = forms[0][1]
    grad = np.empty(d + 2)
    grad[:d] = -2.0 * np.einsum("id,id->d", r, w)
    grad[d] = scale * scale * ds2
    grad[d + 1] = 0.5 * sn2 * float(a.diagonal.sum())
    return -fit.value, -grad, fit.alpha  # gradient of the NEGATIVE mll


def _fit_ard_baseline(x_s, y_s, n_iterations, workspace=None):
    """Adam from lengthscales 1, 0.1 and 0.01; keeps the best final likelihood.

    The marginal likelihood of a stationary kernel is multi-modal (a
    smooth-plus-noise mode competes with a wiggly low-noise mode), so a
    single start is an initialization lottery; the restarts make the
    baseline an honest stationary reference. A gradient that is not finite
    raises a RuntimeError naming the restart. Every step of the three
    restarts runs in `workspace`, or in a fresh one freed on return.
    """
    x_s = np.asarray(x_s, dtype=float)
    d = x_s.shape[1]
    if workspace is None:
        workspace = Workspace()
    best = None
    for l0 in (1.0, 0.1, 0.01):
        start = np.concatenate([np.full(d, np.log(l0)), [0.0, np.log(0.1)]])
        log_params = adam_descent(
            lambda p: _ard_neg_mll_and_grad(p, x_s, y_s, workspace=workspace)[1],
            start, n_iterations, BASELINE_STEP_SIZE,
        )
        if log_params is None:
            raise RuntimeError(
                f"ARD baseline: the gradient of the restart from lengthscale "
                f"{l0!r} is not finite"
            )
        neg, _, alpha = _ard_neg_mll_and_grad(
            log_params, x_s, y_s, gradient=False, workspace=workspace
        )
        if best is None or neg < best[2]:
            best = (log_params, alpha, neg)
    return best


def _ard_predict(log_params, x_train_s, alpha, x_query_s):
    """Posterior means at the scaled queries, in blocks of `PREDICT_BLOCK_ROWS`.

    The cross covariances are `kernels.warped_cross_matrix` of the
    baseline's entry on the warps x / l; each block's B x N array is freed
    before the next block's is built.
    """
    forms, lengthscales = _ard_entry(log_params, x_train_s.shape[1])
    warped = (x_train_s / lengthscales,)
    means = np.empty(x_query_s.shape[0])
    for s in range(0, x_query_s.shape[0], PREDICT_BLOCK_ROWS):
        rows = slice(s, s + PREDICT_BLOCK_ROWS)
        queries = (x_query_s[rows] / lengthscales,)
        means[rows] = warped_cross_matrix(forms, warped, queries) @ alpha
    return means


def run_baseline(
    config: BenchmarkConfig,
    dataset: Dataset | None = None,
    checkpoint_path=None,
) -> BenchmarkReport:
    """Cross-validated RMSE of the stationary per-dimension baseline.

    Same folds, scalers and per-fold report file as `run_benchmark`; the
    per-fold vector is the baseline's log parameters. One workspace,
    reserved at the largest training split, serves every fold and is freed
    on return.
    """
    t0 = time.perf_counter()
    ds = dataset if dataset is not None else _load_target(config)
    plan = make_folds(ds.n_points, config.n_folds, config.seed)
    workspace = Workspace()
    workspace.reserve(plan.largest_train_size)

    def fit_predict(fold, train, split, x_test):
        in_sc, out_sc, x_s, y_s = split
        log_params, alpha, _ = _fit_ard_baseline(
            x_s, y_s, config.n_iterations, workspace
        )
        mean_s = _ard_predict(log_params, x_s, alpha, apply_scaler(in_sc, x_test))
        return mean_s * out_sc.scale[0] + out_sc.loc[0], log_params

    return _cross_validate(
        "baseline", config, ds, plan, checkpoint_path, fit_predict, t0
    )


# ---------------------------------------------------------------------------
# report rendering
# ---------------------------------------------------------------------------

def report_text(report: BenchmarkReport) -> str:
    """Machine-readable report. Deterministic: no timing information."""
    lines = [
        "format = pcegp-report-1",
        f"method = {report.method}",
    ]
    for k, v in report.config_echo.items():
        lines.append(f"config.{k} = {v}")
    for i, r in enumerate(report.per_fold_rmse):
        lines.append(f"fold_{i}.rmse = {r!r}")
    lines.append(f"mean_rmse = {report.mean_rmse!r}")
    lines.append(f"std_rmse = {report.std_rmse!r}")
    for i, theta in enumerate(report.best_thetas):
        lines.append(f"fold_{i}.theta = {format_floats(theta)}")
    return "\n".join(lines) + "\n"


def report_table(report: BenchmarkReport) -> str:
    """Human-readable summary table (includes wall time)."""
    rows = [
        f"method          {report.method}",
        f"dataset         {report.config_echo['dataset_path']} "
        f"(target {report.config_echo['target_column']})",
        f"folds           {report.config_echo['n_folds']}",
        f"seed            {report.config_echo['seed']}",
        "fold  rmse",
    ]
    for i, r in enumerate(report.per_fold_rmse):
        rows.append(f"{i:4d}  {r:.6g}")
    rows.append(f"mean  {report.mean_rmse:.6g}")
    rows.append(f"std   {report.std_rmse:.6g}")
    rows.append(f"wall  {report.wall_time:.2f} s")
    return "\n".join(rows) + "\n"


# ---------------------------------------------------------------------------
# dataset manifests
# ---------------------------------------------------------------------------

# expected shapes of the reference benchmark tables (rows exclude the header)
EXPECTED_DATASETS = {
    "boston_housing.csv": {"n_rows": 506, "n_columns": 14},
    "energy_efficiency.csv": {"n_rows": 768, "n_columns": 10},
    "concrete_compressive.csv": {"n_rows": 1030, "n_columns": 9},
}


def dataset_manifest(path) -> dict:
    """File name, sha256, and the table shape that `data.read_csv` reads;
    a file it refuses, such as one with a ragged row, raises its ValueError."""
    with open(path, "rb") as fh:
        sha256 = hashlib.sha256(fh.read()).hexdigest()
    header, table = read_csv(path, lambda header: [])
    return {
        "file": os.path.basename(str(path)),
        "sha256": sha256,
        "n_rows": table.shape[0],
        "n_columns": len(header),
    }


def manifest_text(manifests) -> str:
    lines = ["format = pcegp-manifest-1"]
    for m in manifests:
        p = m["file"]
        lines.append(f"{p}.sha256 = {m['sha256']}")
        lines.append(f"{p}.n_rows = {m['n_rows']}")
        lines.append(f"{p}.n_columns = {m['n_columns']}")
    return "\n".join(lines) + "\n"


def verify_dataset(path, expected: dict) -> dict:
    """Check a dataset file against expected shape (and hash when given)."""
    got = dataset_manifest(path)
    for key in ("n_rows", "n_columns"):
        if key in expected and expected[key] != got[key]:
            raise ValueError(
                f"{path}: {key} is {got[key]}, expected {expected[key]}"
            )
    if "sha256" in expected and expected["sha256"] != got["sha256"]:
        raise ValueError(f"{path}: sha256 mismatch")
    return got
