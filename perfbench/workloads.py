"""The two workloads: seeded synthetic inputs, one timed pass, and checks.

Every workload drives the program the way a user does: it writes a CSV and
a config file, then calls `pcegp.cli.main` (and, for single-row serving,
`pcegp.gp.predict`). Functions are looked up on their modules at call
time so that the traced run's wrappers are reached.

The synthetic tables share one generator with a known non-stationary
lengthscale field per input, l(u) = 1 + u on the unit-scaled coordinate u,
so the warp is w(u) = u + u^2 (the field of acceptance criterion 10):

    y = 20 + 5 * (sum_d sin(3 w(u_d)) / (1 + d) + 0.1 * noise)

Raw columns are u_d mapped to [10 d, 10 d + 1 + 2 d], so min-max scaling
has work to do. The seed draws the rows, the noise and, for the query
table, which rows lie outside the training box.
"""

from __future__ import annotations

import hashlib
import io
import math
import os
import sys
import time
from contextlib import redirect_stdout
from dataclasses import dataclass, field

import numpy as np

OMEGA = 2.0
NOISE = 0.1


def _lengthscale(u):
    return 1.0 + u


def _signal(u):
    w = _lengthscale(u) * u
    weights = 1.0 / (1.0 + np.arange(u.shape[1]))
    return np.sin(OMEGA * w) @ weights


def synthetic_table(n_rows, n_inputs, rng, extrapolate_frac=0.0):
    """(x raw, y) with the known lengthscale field; some rows may extrapolate.

    An extrapolating row has one coordinate moved to 0-15% beyond the unit
    interval, so it lies outside the min-max box of any in-box table.
    """
    u = rng.uniform(size=(n_rows, n_inputs))
    n_out = int(round(extrapolate_frac * n_rows))
    if n_out:
        rows = rng.choice(n_rows, size=n_out, replace=False)
        cols = rng.integers(0, n_inputs, size=n_out)
        beyond = rng.uniform(0.0, 0.15, size=n_out)
        side = rng.integers(0, 2, size=n_out)
        u[rows, cols] = np.where(side == 1, 1.0 + beyond, -beyond)
    y = 20.0 + 5.0 * (_signal(u) + NOISE * rng.normal(size=n_rows))
    lo = 10.0 * np.arange(n_inputs)
    span = 1.0 + 2.0 * np.arange(n_inputs)
    return lo + u * span, y


def write_csv(path, x, y=None):
    names = [f"x{i + 1}" for i in range(x.shape[1])]
    lines = [",".join(names + ([] if y is None else ["y"]))]
    for i, row in enumerate(x):
        cells = [repr(float(v)) for v in row]
        if y is not None:
            cells.append(repr(float(y[i])))
        lines.append(",".join(cells))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def write_config(path, cfg):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("".join(f"{k} = {v}\n" for k, v in cfg.items()))


def file_digest(path, drop_suffix=None):
    """sha256 of a file; lines whose key ends with `drop_suffix` are skipped."""
    with open(path, "rb") as fh:
        data = fh.read()
    if drop_suffix is not None:
        data = b"".join(
            line for line in data.splitlines(keepends=True)
            if not line.split(b" = ", 1)[0].endswith(drop_suffix)
        )
    return hashlib.sha256(data).hexdigest()


def cli(args):
    """Run one `pcegp` command in-process; returns (exit code, seconds)."""
    main = sys.modules["pcegp.cli"].main
    captured = io.StringIO()
    start = time.perf_counter()
    with redirect_stdout(captured):
        code = main(list(args))
    return code, time.perf_counter() - start


def read_kv(path):
    out = {}
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            if " = " in line:
                key, value = line.rstrip("\n").split(" = ", 1)
                out[key] = value
    return out


def _rel_rmse(pred, truth):
    return float(np.sqrt(np.mean((pred - truth) ** 2)) / np.std(truth))


def _median_part(passes, key):
    return float(np.median([p.parts[key] for p in passes]))


@dataclass
class PassResult:
    seconds: float
    parts: dict                     # named sub-timings in seconds
    attempted: int
    failed: int
    digests: dict                   # output file -> sha256
    latencies: list = field(default_factory=list)


def _remove(*paths):
    for p in paths:
        if os.path.exists(p):
            os.remove(p)


# ---------------------------------------------------------------------------
# fit-wide
# ---------------------------------------------------------------------------

class FitWide:
    """`pcegp fit` on a 506 x 13 table, then serve the fitted model.

    The read path runs on the model the fit wrote: `pcegp predict` on 1 000
    hold-out rows, about a tenth of them outside the training box, then
    single-row `gp.predict` calls on the model as loaded from disk.
    """

    name = "fit-wide"
    n_holdout = 1000
    n_single = 200
    config = {
        "dataset": "fit.csv",
        "target": "y",
        "kernels": "se ae m32 rq",
        "basis": "legendre_shifted_01",
        "q_min": "5",
        "q_max": "10",
        "noise": "0.0001",
        "n_trials": "4",
        "n_initial": "2",
        "n_iterations": "2",
        "inner_n_folds": "5",
        "seed": "0",
    }

    def setup(self, seed):
        rng = np.random.default_rng([seed, 506, 13])
        x, y = synthetic_table(506, 13, rng)
        self.holdout = synthetic_table(self.n_holdout, 13, rng, extrapolate_frac=0.1)
        write_csv("fit.csv", x, y)
        write_csv("holdout.csv", self.holdout[0])
        write_config("fit.conf", self.config)
        return ["fit.csv", "holdout.csv"]

    def run_pass(self, tracer):
        _remove("fit.model", "fit.model.history", "fit.pred")
        code, fit_s = cli(
            ["fit", "--config", "fit.conf", "--threads", "1", "--output", "fit.model"]
        )
        attempted, failed = 1, int(code != 0)
        digests = {}
        if os.path.exists("fit.model.history"):
            # trial wall times are timings, the only bytes allowed to differ
            digests["fit.model.history"] = file_digest(
                "fit.model.history", drop_suffix=b".wall_time"
            )
            hist = read_kv("fit.model.history")
            for key, value in hist.items():
                if key.endswith(".loss"):
                    attempted += 1
                    failed += not np.isfinite(float(value))
                elif key.endswith(".fold_losses"):
                    losses = [float(v) for v in value.split()]
                    attempted += len(losses)
                    failed += sum(not np.isfinite(v) for v in losses)
        if code != 0:
            return PassResult(
                fit_s, {"fit_s": fit_s}, attempted + 1, failed + 1, digests
            )
        digests["fit.model"] = file_digest("fit.model")

        code, predict_s = cli(
            ["predict", "--set", "model=fit.model", "--set", "inputs=holdout.csv",
             "--threads", "1", "--output", "fit.pred"]
        )
        attempted += 1 + self.n_holdout
        failed += int(code != 0)
        if code == 0:
            digests["fit.pred"] = file_digest("fit.pred")
            means, variances = read_predictions("fit.pred")
            failed += self.n_holdout - means.size
            failed += int(np.sum(~_valid(means, variances)))
        else:
            failed += self.n_holdout

        start = time.perf_counter()
        served = sys.modules["pcegp.serialize"].load_model("fit.model")
        lines, latencies, single_failed = serve_rows(
            served, self.holdout[0][: self.n_single]
        )
        serve_s = time.perf_counter() - start
        attempted += self.n_single
        failed += single_failed
        digests["single_row"] = hashlib.sha256("\n".join(lines).encode()).hexdigest()
        parts = {"fit_s": fit_s, "predict_cli_s": predict_s}
        return PassResult(
            fit_s + predict_s + serve_s, parts, attempted, failed, digests, latencies
        )

    def check(self, errors):
        """Quality, the save/load round trip and the gradient oracle."""
        if not os.path.exists("fit.model"):
            errors.append("fit-wide: no model file to check")
            return {}
        hist = read_kv("fit.model.history")
        best_loss = float(hist["best_loss"])
        if not np.isfinite(best_loss):
            errors.append("fit-wide: best validation loss is not finite")
        theta = np.array([float(v) for v in hist["best_theta"].split()])

        # the model as `pcegp fit` builds it in memory, before saving
        gp = sys.modules["pcegp.gp"]
        data = sys.modules["pcegp.data"]
        ds, stack, noise = fitted_stack(self.config, theta)
        in_memory = gp.fit_precompute(
            stack, noise,
            data.fit_scaler("min_max_per_column", ds.inputs),
            data.fit_scaler("z_normalize", ds.outputs),
            ds.inputs, ds.outputs,
        )
        loaded = sys.modules["pcegp.serialize"].load_model("fit.model")
        x_hold, y_hold = self.holdout
        mem = gp.predict_batch(in_memory, x_hold)
        disk = gp.predict_batch(loaded, x_hold)
        if not all(a.tobytes() == b.tobytes() for a, b in zip(mem, disk)):
            errors.append(
                "fit-wide: predictions after save and load differ from the "
                "in-memory model"
            )

        worst = gradient_oracle(self.config, theta)
        if not worst <= 1e-4:
            errors.append(
                f"fit-wide: analytic gradient differs from central differences "
                f"by relative error {worst:.3g} > 1e-4"
            )
        sc = loaded.input_scaler
        scaled = (x_hold - sc.loc) / sc.scale
        outside = np.any((scaled < 0.0) | (scaled > 1.0), axis=1)
        out = {
            "fit_cv_nlpd": best_loss,
            "gradient_rel_err": worst,
            "extrapolated_rows": int(outside.sum()),
        }
        if not os.path.exists("fit.pred"):
            errors.append("fit-wide: no prediction file to check")
            return out
        means, variances = read_predictions("fit.pred")
        if means.size != self.n_holdout:
            errors.append(
                f"fit-wide: {means.size} predictions, expected {self.n_holdout}"
            )
            return out
        bad = ~_valid(means, variances)
        if bad.any():
            errors.append(
                f"fit-wide: {int(bad.sum())} rows with a non-finite mean or "
                f"a negative or non-finite variance"
            )
        inside = ~outside & ~bad
        out["rel_rmse"] = _rel_rmse(means[inside], y_hold[inside])
        return out

    def figures(self, passes, checked):
        ms = [1e3 * t for p in passes for t in p.latencies]
        return [
            ("fit_s", _median_part(passes, "fit_s"), "s"),
            ("fit_cv_nlpd", checked.get("fit_cv_nlpd"), "nats"),
            ("gradient_rel_err", checked.get("gradient_rel_err"), "ratio"),
            ("predict_rows_per_s",
             self.n_holdout / _median_part(passes, "predict_cli_s"), "1/s"),
            (f"predict_one_p50_ms (n={len(ms)})", float(np.percentile(ms, 50)), "ms"),
            (f"predict_one_p99_ms (n={len(ms)})", float(np.percentile(ms, 99)), "ms"),
            ("extrapolated_rows", checked.get("extrapolated_rows"), "count"),
        ]


def read_predictions(path):
    """(means, variances) from a `pcegp predict` output file."""
    with open(path, "r", encoding="utf-8") as fh:
        rows = [line.split(",") for line in fh.read().splitlines()[1:]]
    table = np.array(rows, dtype=float).reshape(-1, 2)
    return table[:, 0], table[:, 1]


def serve_rows(model, rows):
    """One `gp.predict` call per row: (result lines, latencies, failures)."""
    predict = sys.modules["pcegp.gp"].predict
    clock = time.perf_counter
    lines, latencies, failed = [], [], 0
    for row in rows:
        t0 = clock()
        try:
            p = predict(model, row)
        except Exception:
            latencies.append(clock() - t0)
            lines.append("error")
            failed += 1
            continue
        latencies.append(clock() - t0)
        lines.append(f"{p.mean!r},{p.variance!r}")
        ok = math.isfinite(p.mean) and math.isfinite(p.variance)
        failed += not (ok and p.variance >= 0.0)
    return lines, latencies, failed


def fitted_stack(cfg, theta):
    """(dataset, stack, noise) that `pcegp fit` builds from its best theta."""
    space = sys.modules["pcegp.cli"].build_space(cfg)
    (ds,) = sys.modules["pcegp.data"].load_csv(cfg["dataset"], [cfg["target"]])
    stack, noise = space.build_stack(theta, ds.n_inputs)
    return ds, stack, noise


def gradient_oracle(cfg, theta, n_rows=40, h_rel=1e-4):
    """Worst relative error of mll_gradient against central differences.

    The oracle of acceptance criterion 5 (relative error, denominators
    floored at 1e-6), on the fitted stack at the first `n_rows` rows of the
    scaled training table. The step is 1e-4 rather than criterion 5's 1e-5
    because the likelihood here is about 70 in magnitude: at 1e-5 the
    rounding error of the differences (about 1e-10) exceeds the tolerance
    on gradient entries near 1e-7, while at 1e-4 the two gradients agree
    to about 1e-5 on every entry.
    """
    gp = sys.modules["pcegp.gp"]
    data = sys.modules["pcegp.data"]
    ds, stack, noise = fitted_stack(cfg, theta)
    x = data.apply_scaler(data.fit_scaler("min_max_per_column", ds.inputs), ds.inputs)
    y = (ds.outputs - ds.outputs.mean()) / ds.outputs.std()
    x, y = x[:n_rows], y[:n_rows]

    analytic = gp.mll_gradient(stack, noise, x, y)
    flat = gp.free_parameters(stack, noise)
    fd = np.empty_like(flat)
    for m in range(flat.size):
        h = h_rel * max(1.0, abs(flat[m]))
        up, dn = flat.copy(), flat.copy()
        up[m] += h
        dn[m] -= h
        s_up, n_up = gp.with_free_parameters(stack, noise, up)
        s_dn, n_dn = gp.with_free_parameters(stack, noise, dn)
        fd[m] = (gp.mll(s_up, n_up, x, y) - gp.mll(s_dn, n_dn, x, y)) / (2.0 * h)
    rel = np.abs(analytic - fd) / np.maximum(np.abs(fd), 1e-6)
    return float(rel.max())


# ---------------------------------------------------------------------------
# cv-tall
# ---------------------------------------------------------------------------

class CvTall:
    """`pcegp benchmark` then `pcegp baseline` on a 1030 x 8 table."""

    name = "cv-tall"
    config = {
        "dataset": "cv.csv",
        "target": "y",
        "kernels": "se",
        "basis": "legendre_shifted_01",
        "q_min": "1",
        "q_max": "3",
        "noise": "0.0001",
        "n_trials": "3",
        "n_initial": "3",
        "n_iterations": "1",
        "n_folds": "3",
        "nested": "false",
        "inner_n_folds": "3",
        "seed": "0",
    }

    def setup(self, seed):
        rng = np.random.default_rng([seed, 1030, 8])
        x, y = synthetic_table(1030, 8, rng)
        self.y_std = float(np.std(y))
        write_csv("cv.csv", x, y)
        write_config("cv.conf", self.config)
        return ["cv.csv"]

    def run_pass(self, tracer):
        _remove("cv.report", "cv.baseline")
        n_folds = int(self.config["n_folds"])
        attempted, failed, parts, digests = 0, 0, {}, {}
        for command, output in (
            ("benchmark", "cv.report"), ("baseline", "cv.baseline")
        ):
            code, seconds = cli(
                [command, "--config", "cv.conf", "--threads", "1", "--output", output]
            )
            parts[f"{command}_s"] = seconds
            attempted += 1 + n_folds
            failed += int(code != 0)
            folds = 0
            if code == 0:
                digests[output] = file_digest(output)
                folds = sum(1 for k in read_kv(output) if k.endswith(".rmse"))
            failed += n_folds - folds
        # the search runs inside `benchmark`; its trials are seen at run_search
        for key in ("trials", "folds"):
            attempted += int(tracer.counts[(tracer.pass_id, key)])
            failed += int(tracer.counts[(tracer.pass_id, key + "_failed")])
        return PassResult(sum(parts.values()), parts, attempted, failed, digests)

    def check(self, errors):
        out = {}
        for name, path in (("cv_rmse", "cv.report"), ("baseline_rmse", "cv.baseline")):
            if not os.path.exists(path):
                errors.append(f"cv-tall: no {path} to check")
                continue
            report = read_kv(path)
            values = [float(v) for k, v in report.items() if k.endswith(".rmse")]
            values.append(float(report["mean_rmse"]))
            if not all(np.isfinite(v) for v in values):
                errors.append(f"cv-tall: non-finite RMSE in {path}")
            out[name] = float(report["mean_rmse"])
        if "cv_rmse" in out:
            out["rel_rmse"] = out["cv_rmse"] / self.y_std
        return out

    def figures(self, passes, checked):
        return [
            ("benchmark_s", _median_part(passes, "benchmark_s"), "s"),
            ("baseline_s", _median_part(passes, "baseline_s"), "s"),
            ("cv_rmse", checked.get("cv_rmse"), "raw"),
            ("baseline_rmse", checked.get("baseline_rmse"), "raw"),
        ]


def _valid(means, variances):
    return np.isfinite(means) & np.isfinite(variances) & (variances >= 0.0)


WORKLOADS = {w.name: w for w in (FitWide, CvTall)}
