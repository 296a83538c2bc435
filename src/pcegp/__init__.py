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
The names above load their submodule on first use (PEP 562), so importing
the package alone imports no numeric code: the `pcegp` script can still
size the BLAS thread pools before numpy loads.
"""

import importlib

__version__ = "0.1.0"

_HOMES = {
    "BenchmarkConfig": "bench",
    "run_baseline": "bench",
    "run_benchmark": "bench",
    "Dataset": "data",
    "fit_scaler": "data",
    "load_csv": "data",
    "fit_precompute": "gp",
    "predict": "gp",
    "predict_batch": "gp",
    "KernelForm": "kernels",
    "SearchSpace": "optim",
    "run_search": "optim",
    "Basis": "poly",
    "load_model": "serialize",
    "save_model": "serialize",
}

__all__ = sorted(_HOMES)


def __getattr__(name):
    home = _HOMES.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{home}", __name__), name)
    globals()[name] = value
    return value
