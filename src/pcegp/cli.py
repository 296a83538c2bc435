"""Command-line entry point: fit, predict, benchmark, baseline, inspect.

A config file of flat `key = value` lines is the source of truth for each
run; `--set key=value` and the dedicated flags override it, so a committed
config plus a recorded command line reproduces any result. Exit codes:
0 success, 1 runtime failure, 2 usage or configuration error. Config and
CSV files are read by `data.read_kv` and `data.read_csv`.

No subcommand writes anywhere except under the configured output path's
stem: `fit` writes the search history at `<output>.history` after every
trial and then the model, `predict` its predictions, and `benchmark` and
`baseline` the report after each fold. Each file is written to
`<path>.tmp` and renamed over `<path>`, so only the outputs remain and a
failed write leaves the previous file whole.
"""

from __future__ import annotations

import argparse
import os
import sys

from .bench import (
    BenchmarkConfig,
    report_table,
    run_baseline,
    run_benchmark,
)
from .data import fit_scaler, load_csv, read_csv, read_kv, write_text_atomic
from .gp import fit_precompute, predict_batch
from .kernels import KernelForm
from .launch import THREADS_ENV_VAR, set_thread_vars
from .optim import SearchSpace, check_search_settings, run_search
from .poly import Basis
from .serialize import describe_model, load_model, save_model


class UsageError(Exception):
    """Configuration or invocation problem; maps to exit code 2."""


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------

_COMMON_KEYS = {"seed", "output"}
_SPACE_KEYS = {
    "kernels", "rq_shape", "basis", "jacobi_alpha", "jacobi_beta",
    "q_min", "q_max", "coeff_min", "coeff_max", "scale_min", "scale_max",
    "noise", "r_min", "r_max",
}
_SEARCH_KEYS = {
    "n_trials", "n_initial", "n_iterations", "inner_n_folds", "global_scaling",
}
ALLOWED_KEYS = {
    "fit": {"dataset", "target"} | _SEARCH_KEYS | _SPACE_KEYS | _COMMON_KEYS,
    "benchmark": (
        {"dataset", "target", "n_folds", "nested"}
        | _SEARCH_KEYS | _SPACE_KEYS | _COMMON_KEYS
    ),
    "baseline": (
        {"dataset", "target", "n_folds", "nested"}
        | _SEARCH_KEYS | _SPACE_KEYS | _COMMON_KEYS
    ),
    "predict": {"model", "inputs", "output"},
    "inspect": {"model"},
}


def _read_config_file(path: str) -> dict:
    if not os.path.exists(path):
        raise UsageError(f"config file not found: {path}")
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    try:
        return {key: value.strip() for key, value in read_kv(text, path).items()}
    except ValueError as err:
        raise UsageError(str(err))


def build_config(subcommand: str, args) -> dict:
    """Merge config file, --set overrides, and dedicated flags, validating keys."""
    cfg = _read_config_file(args.config) if args.config else {}
    for item in args.overrides:
        if "=" not in item:
            raise UsageError(f"--set expects key=value, got {item!r}")
        key, value = item.split("=", 1)
        cfg[key.strip()] = value.strip()
    if args.seed is not None:
        cfg["seed"] = str(args.seed)
    if args.output is not None:
        cfg["output"] = args.output

    allowed = ALLOWED_KEYS[subcommand]
    for key in cfg:
        if key not in allowed:
            raise UsageError(f"unknown config key '{key}' for {subcommand}")
    return cfg


def _require(cfg: dict, key: str) -> str:
    if key not in cfg:
        raise UsageError(f"missing required config key '{key}'")
    return cfg[key]


def _get_int(cfg, key, default):
    if key not in cfg:
        return default
    try:
        return int(cfg[key])
    except ValueError:
        raise UsageError(f"config key '{key}' must be an integer, got {cfg[key]!r}")


def _get_float(cfg, key, default):
    if key not in cfg:
        return default
    try:
        return float(cfg[key])
    except ValueError:
        raise UsageError(f"config key '{key}' must be a number, got {cfg[key]!r}")


def _get_bool(cfg, key, default):
    if key not in cfg:
        return default
    value = cfg[key].lower()
    if value not in ("true", "false"):
        raise UsageError(f"config key '{key}' must be true or false, got {cfg[key]!r}")
    return value == "true"


_FORMS = {
    "se": KernelForm.se, "squared_exponential": KernelForm.se,
    "ae": KernelForm.ae, "absolute_exponential": KernelForm.ae,
    "m32": KernelForm.matern32, "matern_3_2": KernelForm.matern32,
}
_BASES = {
    "legendre_shifted_01": Basis.legendre01, "legendre": Basis.legendre,
    "hermite": Basis.hermite, "laguerre": Basis.laguerre,
}


def build_space(cfg: dict) -> SearchSpace:
    """Search space from config keys; defaults follow the benchmark setup.

    A value the kernel forms, the basis or the space reject raises a
    ValueError, which the subcommands report as a configuration error.
    """
    forms = []
    for name in cfg.get("kernels", "se ae m32 rq").split():
        if name.lower() in ("rq", "rational_quadratic"):
            forms.append(KernelForm.rq(_get_float(cfg, "rq_shape", 1.0)))
        elif name.lower() in _FORMS:
            forms.append(_FORMS[name.lower()]())
        else:
            raise UsageError(f"unknown kernel '{name}' in config key 'kernels'")

    basis_name = cfg.get("basis", "legendre_shifted_01")
    if basis_name == "jacobi":
        basis = Basis.jacobi(
            _get_float(cfg, "jacobi_alpha", 0.0), _get_float(cfg, "jacobi_beta", 0.0)
        )
    elif basis_name in _BASES:
        basis = _BASES[basis_name]()
    else:
        raise UsageError(f"unknown basis '{basis_name}'")

    noise_raw = cfg.get("noise", "0.0001")
    if noise_raw == "search":
        noise_fixed = None
        r_range = (_get_int(cfg, "r_min", 0), _get_int(cfg, "r_max", 5))
    else:
        try:
            noise_fixed = float(noise_raw)
        except ValueError:
            raise UsageError(
                f"config key 'noise' must be a number or 'search', got {noise_raw!r}"
            )
        r_range = None

    return SearchSpace(
        kernel_forms=tuple(forms),
        basis=basis,
        q_range=(_get_int(cfg, "q_min", 5), _get_int(cfg, "q_max", 10)),
        coeff_range=(
            _get_float(cfg, "coeff_min", -2.0), _get_float(cfg, "coeff_max", 2.0)
        ),
        scale_range=(
            _get_float(cfg, "scale_min", 1e-3), _get_float(cfg, "scale_max", 10.0)
        ),
        r_range=r_range,
        noise_fixed=noise_fixed,
    )


def _apply_thread_limit(n: int | None) -> None:
    """Check a thread count and set the BLAS and OpenMP thread variables to it.

    numpy is loaded by now, so this sizes only pools created later: the
    `pcegp` script (`pcegp.launch`) sets the same variables before numpy is
    imported, which is what caps the pools numpy starts.
    """
    if n is None:
        return
    if n < 1:
        raise UsageError(f"thread count must be >= 1, got {n}")
    set_thread_vars(n)


def _load_dataset(cfg: dict):
    (ds,) = load_csv(_require(cfg, "dataset"), [_require(cfg, "target")])
    return ds


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_fit(cfg: dict) -> int:
    """Search hyperparameters, fit on the full file, write model + history."""
    output = _require(cfg, "output")
    n_trials = _get_int(cfg, "n_trials", 30)
    n_initial = _get_int(cfg, "n_initial", 10)
    n_iterations = _get_int(cfg, "n_iterations", 50)
    n_folds = _get_int(cfg, "inner_n_folds", 5)
    seed = _get_int(cfg, "seed", 0)
    try:
        check_search_settings(n_trials, n_initial, n_iterations, n_folds, seed)
        space = build_space(cfg)
    except ValueError as err:
        raise UsageError(str(err))
    ds = _load_dataset(cfg)
    for name in ds.column_names:  # the model lists them on one comma-joined line
        if not name or "," in name:
            raise ValueError(f"{cfg['dataset']}: input column {name!r} is empty or "
                             "holds a comma, so a model file cannot list it")
    result = run_search(
        ds,
        space,
        n_trials=n_trials,
        n_initial=n_initial,
        n_iterations=n_iterations,
        n_folds=n_folds,
        seed=seed,
        global_scaling=_get_bool(cfg, "global_scaling", False),
        checkpoint_path=output + ".history",
    )
    stack, noise = space.build_stack(result.best_theta, ds.n_inputs)
    in_sc = fit_scaler("min_max_per_column", ds.inputs)
    out_sc = fit_scaler("z_normalize", ds.outputs)
    meta = {
        "dataset": cfg["dataset"],
        "target": ds.target_name,
        "columns": ",".join(ds.column_names),
        "seed": str(seed),
    }
    model = fit_precompute(stack, noise, in_sc, out_sc, ds.inputs, ds.outputs, meta)
    save_model(model, output)
    trials = result.history
    n_pruned = sum(t.pruned_after is not None for t in trials)
    n_failed = sum(t.failed for t in trials)
    print(
        f"fit: {ds.n_points} points, {ds.n_inputs} inputs; "
        f"{len(trials)} trials ({n_pruned} pruned, {n_failed} failed); "
        f"best validation loss {result.best_loss:.6g}; model -> {output}"
    )
    return 0


def cmd_predict(cfg: dict) -> int:
    """Predict mean and variance for every row of an input CSV, raw units."""
    model = load_model(_require(cfg, "model"))
    output = _require(cfg, "output")
    columns = model.meta.get("columns", "").split(",")
    if columns == [""]:
        raise ValueError("model file lacks the training column list")
    target = model.meta.get("target", "")

    def training_columns(header):  # in training order; the target may be present
        for name in columns:
            if name not in header:
                raise ValueError(f"input file is missing column '{name}'")
        for name in header:
            if name not in columns and name != target:
                raise ValueError(f"input file has unexpected column '{name}'")
        return [header.index(name) for name in columns]

    _, queries = read_csv(_require(cfg, "inputs"), training_columns)
    lines = ["mean,variance"]
    if len(queries):
        means, variances = predict_batch(model, queries)
        lines.extend(
            f"{float(m)!r},{float(v)!r}" for m, v in zip(means, variances)
        )
    write_text_atomic(output, "\n".join(lines) + "\n")
    print(f"predict: {len(queries)} rows -> {output}")
    return 0


def _benchmark_config(cfg: dict) -> BenchmarkConfig:
    try:
        return BenchmarkConfig(
            dataset_path=_require(cfg, "dataset"),
            target_column=_require(cfg, "target"),
            n_folds=_get_int(cfg, "n_folds", 10),
            n_trials=_get_int(cfg, "n_trials", 100),
            n_initial=_get_int(cfg, "n_initial", 20),
            n_iterations=_get_int(cfg, "n_iterations", 100),
            seed=_get_int(cfg, "seed", 0),
            nested=_get_bool(cfg, "nested", True),
            inner_n_folds=_get_int(cfg, "inner_n_folds", 5),
            global_scaling=_get_bool(cfg, "global_scaling", False),
            space=build_space(cfg),
        )
    except ValueError as err:
        raise UsageError(str(err))


def cmd_benchmark(cfg: dict, baseline: bool = False) -> int:
    """Cross-validated RMSE; the output file holds the report of the folds done."""
    output = _require(cfg, "output")
    bconfig = _benchmark_config(cfg)
    runner = run_baseline if baseline else run_benchmark
    report = runner(bconfig, checkpoint_path=output)
    sys.stdout.write(report_table(report))
    return 0


def cmd_inspect(cfg: dict) -> int:
    """Print the fitted hyperparameters as explicit polynomials."""
    model = load_model(_require(cfg, "model"))
    sys.stdout.write(describe_model(model))
    return 0


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def _make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pcegp",
        description=(
            "Gaussian process regression with input-dependent lengthscale "
            "and noise expansions"
        ),
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name, text in (
        ("fit", "tune and fit a model on a CSV dataset, write a model file"),
        ("predict", "evaluate a saved model on new inputs, write predictions"),
        ("benchmark", "cross-validated RMSE of the full pipeline"),
        ("baseline", "cross-validated RMSE of a stationary reference GP"),
        ("inspect", "print a saved model's hyperparameter polynomials"),
    ):
        p = sub.add_parser(name, help=text)
        p.add_argument("--config", metavar="PATH", help="flat key = value file")
        p.add_argument("--seed", type=int, metavar="N", help="override seed")
        p.add_argument(
            "--threads", type=int, metavar="N",
            help=f"cap math thread pools (default ${THREADS_ENV_VAR})",
        )
        p.add_argument("--output", metavar="PATH", help="override output path")
        p.add_argument(
            "--set", action="append", dest="overrides", default=[],
            metavar="KEY=VALUE", help="override a config value (repeatable)",
        )
    return parser


_DISPATCH = {
    "fit": cmd_fit,
    "predict": cmd_predict,
    "benchmark": cmd_benchmark,
    "baseline": lambda cfg: cmd_benchmark(cfg, baseline=True),
    "inspect": cmd_inspect,
}


def main(argv=None) -> int:
    args = _make_parser().parse_args(argv)
    try:
        threads = args.threads
        if threads is None and os.environ.get(THREADS_ENV_VAR):
            try:
                threads = int(os.environ[THREADS_ENV_VAR])
            except ValueError:
                raise UsageError(
                    f"{THREADS_ENV_VAR} must be an integer, "
                    f"got {os.environ[THREADS_ENV_VAR]!r}"
                )
        _apply_thread_limit(threads)
        cfg = build_config(args.subcommand, args)
        return _DISPATCH[args.subcommand](cfg)
    except UsageError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except KeyboardInterrupt:
        print("interrupted; partial results flushed where applicable", file=sys.stderr)
        return 1
    except Exception as err:  # runtime failures: diagnostics, exit 1
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
