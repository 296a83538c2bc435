"""Gaussian process regression with polynomial-chaos hyperparameter fields.

Exact GP inference whose kernel lengthscales (and optionally the noise
variance) vary over the input space as truncated polynomial expansions,
plus the two-stage hyperparameter search, benchmarking harness, and CLI
built around it. The usual entry points:

    load_csv / Dataset          tabular data in
    SearchSpace / run_search    find hyperparameter expansions
    KernelForm / Basis          the kernel forms and polynomial families
    fit_scaler / fit_precompute  exact inference with the result
    predict / predict_batch     posterior means and variances
    BenchmarkConfig / run_benchmark / run_baseline  k-fold RMSE protocols
    save_model / load_model     flat-text persistence

Everything else lives in the submodules (`pcegp.kernels`, `pcegp.gp`, ...).
"""

from .bench import BenchmarkConfig, run_baseline, run_benchmark
from .data import Dataset, fit_scaler, load_csv
from .gp import fit_precompute, predict, predict_batch
from .kernels import KernelForm
from .optim import SearchSpace, run_search
from .poly import Basis
from .serialize import load_model, save_model

__version__ = "0.1.0"

__all__ = [
    "Basis",
    "BenchmarkConfig",
    "Dataset",
    "KernelForm",
    "SearchSpace",
    "fit_precompute",
    "fit_scaler",
    "load_csv",
    "load_model",
    "predict",
    "predict_batch",
    "run_baseline",
    "run_benchmark",
    "run_search",
    "save_model",
]
