"""Benchmark harness: outer k-fold RMSE for the searched model and a baseline.

The protocol is shuffled 10-fold cross-validation with all error reported
in raw output units. Two tuning modes exist: nested (the search runs
inside every outer fold on that fold's training portion, so held-out
points never influence tuning) and non-nested (one search on the full
data, then per-fold refits), the latter costing roughly one k-th as much.
Both methods run through one fold loop, which rewrites the output file
atomically after every fold as the report of the folds finished so far.

The baseline is a single stationary squared-exponential kernel with one
lengthscale per input dimension, plus a learned noise variance, optimized
by Adam on the marginal log likelihood. No search stage, no expansions.
Its covariances come from one distance computation on the inputs divided
by the lengthscales (`kernels.pairwise_sqdist`, each pair once, for the
training Gram), and its lengthscale gradient from a contraction with the
inputs, so no per-dimension N x N tensor is formed; its N x N arrays live
in one workspace per fit.
"""

from __future__ import annotations

import hashlib
import os
import time
from dataclasses import dataclass, field

import numpy as np

from ._native import cdist_sqeuclidean
from .data import (
    Dataset,
    _sniff_delimiter,
    apply_scaler,
    fit_scaler,
    format_floats,
    load_csv,
    make_folds,
    write_text_atomic,
)
from .gp import _likelihood_core, fit_likelihood, model_from_fit, predict_means
from .kernels import KernelForm, Workspace, pairwise_sqdist
from .optim import AdamState, SearchSpace, adam_step, check_search_settings, run_search
from .poly import Basis


def benchmark_space() -> SearchSpace:
    """The fixed four-kernel, shifted-Legendre setup used for the benchmarks."""
    return SearchSpace(
        kernel_forms=(
            KernelForm.se(),
            KernelForm.ae(),
            KernelForm.matern32(),
            KernelForm.rq(1.0),
        ),
        bases=(Basis.legendre01(),),
        q_range=(5, 10),
        coeff_range=(-2.0, 2.0),
        scale_range=(1e-3, 10.0),
        noise_fixed=1e-4,
    )


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
    global_scaling: bool = False
    space: SearchSpace = field(default_factory=benchmark_space)

    def __post_init__(self):
        if self.n_folds < 2:
            raise ValueError("need at least 2 outer folds")
        check_search_settings(
            self.n_trials, self.n_initial, self.n_iterations, self.inner_n_folds
        )

    def echo(self) -> dict:
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
            "global_scaling": self.global_scaling,
            "kernels": " ".join(f.tag for f in space.kernel_forms),
            "bases": " ".join(b.label() for b in space.bases),
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


def _cross_validate(method, config, ds, output_path, fit_predict, t0):
    """The outer k-fold protocol that both methods share.

    Each fold fits the min-max input and z-score output scalers on its own
    training rows and calls `fit_predict(fold, train, in_sc, out_sc,
    x_test)`, which returns the test means in raw output units and the
    fold's parameter vector. After every fold the report of the folds
    finished so far replaces `output_path` atomically
    (`data.write_text_atomic`), so the last write is the final report and an
    interrupted run leaves a valid report of its finished folds.
    """
    plan = make_folds(ds.n_points, config.n_folds, config.seed)
    fold_rmses: list = []
    thetas: list = []
    for f in range(config.n_folds):
        tr, te = plan.train_indices(f), plan.test_indices(f)
        train = Dataset(
            ds.inputs[tr], ds.outputs[tr], ds.column_names, ds.target_name
        )
        in_sc = fit_scaler("min_max_per_column", train.inputs)
        out_sc = fit_scaler("z_normalize", train.outputs)
        means, theta = fit_predict(f, train, in_sc, out_sc, ds.inputs[te])
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

    def search(data, seed):
        return run_search(
            data,
            config.space,
            n_trials=config.n_trials,
            n_initial=config.n_initial,
            n_iterations=config.n_iterations,
            n_folds=config.inner_n_folds,
            seed=seed,
            global_scaling=config.global_scaling,
        ).best_theta

    seeds = _fold_seeds(config.seed, config.n_folds)
    workspace = Workspace()  # every fold's refit assembles its Gram here
    # non-nested: one search, run at the first fold, so that make_folds has
    # rejected a bad fold count before the search time is spent
    shared_best = None

    def fit_predict(fold, train, in_sc, out_sc, x_test):
        nonlocal shared_best
        if config.nested:
            best = search(train, seeds[fold])
        else:
            if shared_best is None:
                shared_best = search(ds, config.seed)
            best = shared_best
        stack, noise = config.space.build_stack(best, ds.n_inputs)
        x_s = apply_scaler(in_sc, train.inputs)
        y_s = (train.outputs - out_sc.loc[0]) / out_sc.scale[0]
        # the model borrows the workspace's factor and is dropped before the
        # next fold's refit overwrites it
        fit = fit_likelihood(stack, noise, x_s, y_s, workspace)
        model = model_from_fit(stack, noise, in_sc, out_sc, x_s, y_s, fit=fit)
        return predict_means(model, x_test), best

    return _cross_validate("pcegp", config, ds, checkpoint_path, fit_predict, t0)


# ---------------------------------------------------------------------------
# stationary baseline
# ---------------------------------------------------------------------------

def _ard_kernel(log_params, a, b=None, out=None):
    """s2 exp(-sum_d (a_d - b_d)^2 / (2 l_d^2)) for every pair of rows of a and b.

    The squared distances of the lengthscale-divided rows come from one
    call of scipy's `cdist` kernel. With `b` None they are those of a with
    itself, each pair computed once by `pairwise_sqdist` into `out`.
    """
    d = a.shape[1]
    lengthscales = np.exp(log_params[:d])
    if b is None:
        k = pairwise_sqdist(a / lengthscales, out)
    else:
        k = cdist_sqeuclidean(a / lengthscales, b / lengthscales)
    k *= -0.5
    np.exp(k, out=k)
    k *= np.exp(log_params[d])
    return k


def _ard_neg_mll_and_grad(log_params, x, y, gradient=True, workspace=None):
    """Negative MLL and gradient for the per-dimension stationary kernel.

    `log_params` is [log l_1..log l_d, log s2, log sn2] and `x` the N x d
    scaled inputs. Returns (negative MLL, its gradient, K^-1 y); with
    `gradient=False` the gradient is None and K^-1 is never formed. The
    two N x N arrays, K0 and K (which becomes the factor and then A), are
    buffers of `workspace`, or of a fresh one when none is given; no
    per-dimension N x N tensor is formed.
    """
    n, d = x.shape
    sn2 = np.exp(log_params[d + 1])
    ws = workspace if workspace is not None else Workspace()
    k0 = _ard_kernel(log_params, x, out=ws.matrix(("component", 0), n))
    k = ws.matrix("k", n)
    np.copyto(k, k0)
    k.flat[:: n + 1] += sn2
    fit = _likelihood_core(k, y, "ard squared_exponential baseline", gradient)
    if not gradient:
        return -fit.value, None, fit.alpha

    m = fit.a
    trace_a = float(np.trace(m))
    m *= k0  # M = A o K0, symmetric
    m_rows = m.sum(axis=1)
    # dK/dlog l_d = K0 o (x_d - x_d^T)^2 / l_d^2, and for symmetric M
    # 0.5 sum_ij M_ij (x_id - x_jd)^2 = x_d^2 . M1 - x_d . (M x)_d
    contraction = (x * x).T @ m_rows - np.einsum("id,id->d", x, m @ x)
    grad = np.empty(d + 2)
    grad[:d] = contraction * np.exp(-2.0 * log_params[:d])
    grad[d] = 0.5 * float(m_rows.sum())
    grad[d + 1] = 0.5 * sn2 * trace_a
    return -fit.value, -grad, fit.alpha  # gradient of the NEGATIVE mll


def _fit_ard_baseline(x_s, y_s, n_iterations, workspace=None):
    """Adam from lengthscales 1, 0.1 and 0.01; keeps the best final likelihood.

    The marginal likelihood of a stationary kernel is multi-modal (a
    smooth-plus-noise mode competes with a wiggly low-noise mode), so a
    single start is an initialization lottery; the restarts make the
    baseline an honest stationary reference. Every step of the three
    restarts runs in `workspace`, or in a fresh one freed on return.
    """
    x_s = np.asarray(x_s, dtype=float)
    d = x_s.shape[1]
    if workspace is None:
        workspace = Workspace()
    best = None
    for l0 in (1.0, 0.1, 0.01):
        log_params = np.concatenate([np.full(d, np.log(l0)), [0.0, np.log(0.1)]])
        state = AdamState.initial(d + 2, step_size=0.05)
        for _ in range(n_iterations):
            _, g, _ = _ard_neg_mll_and_grad(log_params, x_s, y_s, workspace=workspace)
            state, log_params = adam_step(state, log_params, g)
        neg, _, alpha = _ard_neg_mll_and_grad(
            log_params, x_s, y_s, gradient=False, workspace=workspace
        )
        if best is None or neg < best[2]:
            best = (log_params, alpha, neg)
    return best


def _ard_predict(log_params, x_train_s, alpha, x_query_s):
    return _ard_kernel(log_params, x_train_s, x_query_s).T @ alpha


def run_baseline(
    config: BenchmarkConfig,
    dataset: Dataset | None = None,
    checkpoint_path=None,
) -> BenchmarkReport:
    """Cross-validated RMSE of the stationary per-dimension baseline.

    Same folds, scalers and per-fold report file as `run_benchmark`; the
    per-fold vector is the baseline's log parameters. One workspace serves
    every fold and is freed on return.
    """
    t0 = time.perf_counter()
    ds = dataset if dataset is not None else _load_target(config)
    workspace = Workspace()

    def fit_predict(fold, train, in_sc, out_sc, x_test):
        x_s = apply_scaler(in_sc, train.inputs)
        y_s = (train.outputs - out_sc.loc[0]) / out_sc.scale[0]
        log_params, alpha, _ = _fit_ard_baseline(
            x_s, y_s, config.n_iterations, workspace
        )
        mean_s = _ard_predict(log_params, x_s, alpha, apply_scaler(in_sc, x_test))
        return mean_s * out_sc.scale[0] + out_sc.loc[0], log_params

    return _cross_validate("baseline", config, ds, checkpoint_path, fit_predict, t0)


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
    """File name, sha256, and table shape for a delimited dataset file."""
    h = hashlib.sha256()
    n_rows = 0
    n_columns = None
    with open(path, "rb") as fh:
        for raw in fh:
            h.update(raw)
            line = raw.decode("utf-8").strip()
            if not line:
                continue
            if n_columns is None:
                n_columns = len(line.split(_sniff_delimiter(line)))
            else:
                n_rows += 1
    return {
        "file": os.path.basename(str(path)),
        "sha256": h.hexdigest(),
        "n_rows": n_rows,
        "n_columns": n_columns or 0,
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
