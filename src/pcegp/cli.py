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
from dataclasses import replace

from .bench import (
    BenchmarkConfig,
    report_table,
    run_baseline,
    run_benchmark,
)
from .data import (apply_scaler, load_csv, read_csv, read_kv, scale_split,
                   write_text_atomic)
from .gp import model_from_fit, predict_batch
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
    "n_trials", "n_initial", "n_iterations", "inner_n_folds",
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


def _get_int(cfg, key, default=None):
    if key not in cfg:
        return default
    try:
        return int(cfg[key])
    except ValueError:
        raise UsageError(f"config key '{key}' must be an integer, got {cfg[key]!r}")


def _get_float(cfg, key, default=None):
    if key not in cfg:
        return default
    try:
        return float(cfg[key])
    except ValueError:
        raise UsageError(f"config key '{key}' must be a number, got {cfg[key]!r}")


def _get_bool(cfg, key):
    value = cfg[key].lower()
    if value not in ("true", "false"):
        raise UsageError(f"config key '{key}' must be true or false, got {cfg[key]!r}")
    return value == "true"


def _needs(cfg, keys, met, requirement):
    """Refuse any of `keys` that `cfg` sets unless `met`: it would do nothing."""
    for key in keys:
        if key in cfg and not met:
            raise UsageError(f"config key '{key}' needs {requirement}")


def _pair(cfg, prefix, default, get):
    """(`<prefix>_min`, `<prefix>_max`), each from `default` unless set."""
    return get(cfg, f"{prefix}_min", default[0]), get(cfg, f"{prefix}_max", default[1])


_FORMS = {
    "se": KernelForm.se, "squared_exponential": KernelForm.se,
    "ae": KernelForm.ae, "absolute_exponential": KernelForm.ae,
    "m32": KernelForm.matern32, "matern_3_2": KernelForm.matern32,
    "rq": KernelForm.rq, "rational_quadratic": KernelForm.rq,
}
_BASES = {
    "legendre_shifted_01": Basis.legendre01, "legendre": Basis.legendre,
    "hermite": Basis.hermite, "laguerre": Basis.laguerre, "jacobi": Basis.jacobi,
}


def build_space(cfg: dict) -> SearchSpace:
    """Search space from config keys; a key the config leaves out keeps
    `SearchSpace`'s default, which is the benchmark setup.

    A key that would have no effect is a UsageError. A value the kernel
    forms, the basis or the space reject raises a ValueError, which the
    subcommands report as a configuration error.
    """
    default = SearchSpace()
    forms = default.kernel_forms
    if "kernels" in cfg:
        forms = []
        for name in cfg["kernels"].split():
            if name.lower() not in _FORMS:
                raise UsageError(f"unknown kernel '{name}' in config key 'kernels'")
            forms.append(_FORMS[name.lower()]())
    rq = "rational_quadratic"
    has_rq = any(f.tag == rq for f in forms)
    _needs(cfg, ["rq_shape"], has_rq, "an rq kernel in 'kernels'")
    if "rq_shape" in cfg:
        shape = _get_float(cfg, "rq_shape")
        forms = [replace(f, shape=shape) if f.tag == rq else f for f in forms]

    name = cfg.get("basis")
    _needs(cfg, ["jacobi_alpha", "jacobi_beta"], name == "jacobi", "basis = jacobi")
    if name is not None and name not in _BASES:
        raise UsageError(f"unknown basis '{name}'")
    jacobi = {k: _get_float(cfg, f"jacobi_{k}") for k in ("alpha", "beta")
              if f"jacobi_{k}" in cfg}

    noise = cfg.get("noise")
    _needs(cfg, ["r_min", "r_max"], noise == "search", "noise = search")
    fields = {}
    if noise == "search":  # of degree 0 to 5 unless the config says otherwise
        fields = {"noise_fixed": None, "r_range": _pair(cfg, "r", (0, 5), _get_int)}
    elif noise is not None:
        try:
            fields = {"noise_fixed": float(noise)}
        except ValueError:
            raise UsageError(
                f"config key 'noise' must be a number or 'search', got {noise!r}"
            )

    return replace(
        default,
        kernel_forms=forms,
        basis=default.basis if name is None else _BASES[name](**jacobi),
        q_range=_pair(cfg, "q", default.q_range, _get_int),
        coeff_range=_pair(cfg, "coeff", default.coeff_range, _get_float),
        scale_range=_pair(cfg, "scale", default.scale_range, _get_float),
        **fields,
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
        checkpoint_path=output + ".history",
    )
    stack, noise = space.build_stack(result.best_theta, ds.n_inputs)
    meta = {
        "dataset": cfg["dataset"],
        "target": ds.target_name,
        "columns": ",".join(ds.column_names),
        "seed": str(seed),
    }
    model = model_from_fit(stack, noise, *scale_split(ds.inputs, ds.outputs), meta)
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
    n_outside = 0
    if len(queries):
        means, variances = predict_batch(model, queries)
        lines.extend(
            f"{float(m)!r},{float(v)!r}" for m, v in zip(means, variances)
        )
        # a row extrapolates when any scaled coordinate leaves [0, 1]
        scaled = apply_scaler(model.input_scaler, queries)
        n_outside = int(((scaled < 0.0) | (scaled > 1.0)).any(axis=1).sum())
    write_text_atomic(output, "\n".join(lines) + "\n")
    print(f"predict: {len(queries)} rows, {n_outside} outside the training "
          f"min-max box -> {output}")
    return 0


_BENCHMARK_KEYS = {
    "n_folds": _get_int, "n_trials": _get_int, "n_initial": _get_int,
    "n_iterations": _get_int, "seed": _get_int, "nested": _get_bool,
    "inner_n_folds": _get_int,
}


def _benchmark_config(cfg: dict) -> BenchmarkConfig:
    """A key the config leaves out keeps `BenchmarkConfig`'s default."""
    settings = {key: get(cfg, key) for key, get in _BENCHMARK_KEYS.items() if key in cfg}
    try:
        return BenchmarkConfig(
            dataset_path=_require(cfg, "dataset"),
            target_column=_require(cfg, "target"),
            space=build_space(cfg),
            **settings,
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
