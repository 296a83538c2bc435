"""End-to-end command-line behavior: artifacts, exit codes, determinism."""

import errno
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import pcegp.data as data_mod
import pcegp.optim as optim_mod
from pcegp.bench import BenchmarkConfig
from pcegp.cli import _benchmark_config, build_space, main
from pcegp.optim import FAILED_LOSS, SearchSpace
from pcegp.serialize import load_model, model_to_text, parse_description, save_model


def write_csv(path, x, y):
    lines = ["x,y"] + [f"{float(a)!r},{float(b)!r}" for a, b in zip(x, y)]
    path.write_text("\n".join(lines) + "\n")


@pytest.fixture()
def train_file(tmp_path):
    rng = np.random.default_rng(0)
    x = np.sort(rng.uniform(0.0, 1.0, 20))
    y = np.sin(3.0 * x) + 0.5 * x
    path = tmp_path / "train.csv"
    write_csv(path, x, y)
    return path


FAST_FIT = [
    "--set", "n_trials=3", "--set", "n_initial=2", "--set", "n_iterations=5",
    "--set", "inner_n_folds=2", "--set", "q_min=0", "--set", "q_max=1",
    "--set", "kernels=se",
]


def run_fit(train_file, model_path, extra=()):
    return main(
        [
            "fit",
            "--set", f"dataset={train_file}",
            "--set", "target=y",
            "--output", str(model_path),
            "--seed", "4",
            *FAST_FIT,
            *extra,
        ]
    )


# --- fit ---------------------------------------------------------------------

def test_fit_writes_model_and_history(tmp_path, train_file):
    model_path = tmp_path / "model.txt"
    assert run_fit(train_file, model_path) == 0
    assert model_path.exists()
    history = (tmp_path / "model.txt.history").read_text()
    assert history.startswith("format = pcegp-search-1\n")
    assert "trial_2.loss = " in history

    model = load_model(model_path)
    assert model.n_points == 20
    assert model.meta["target"] == "y"


def test_fit_counts_its_pruned_and_failed_trials(tmp_path, train_file, capsys):
    model_path = tmp_path / "model.txt"
    assert run_fit(train_file, model_path,
                   extra=["--seed", "1", "--set", "n_trials=4"]) == 0
    out = capsys.readouterr().out
    assert "; 4 trials (1 pruned, 0 failed); best validation loss " in out
    history = (tmp_path / "model.txt.history").read_text()
    assert history.count(".pruned_after = ") == 1


def test_fit_same_seed_is_byte_identical(tmp_path, train_file):
    a, b = tmp_path / "a.txt", tmp_path / "b.txt"
    assert run_fit(train_file, a) == 0
    assert run_fit(train_file, b) == 0
    assert a.read_bytes() == b.read_bytes()


def test_unknown_config_key_is_usage_error(capsys, train_file, tmp_path):
    for key in ("bogus_key", "global_scaling"):
        rc = main(["fit", "--set", f"{key}=true"])
        assert rc == 2
        assert f"'{key}'" in capsys.readouterr().err


def test_an_empty_config_builds_the_dataclass_defaults():
    # the CLI writes no default of its own for the space or the benchmark
    assert build_space({}) == SearchSpace()
    assert _benchmark_config({"dataset": "d.csv", "target": "y"}) == (
        BenchmarkConfig("d.csv", "y")
    )


def test_missing_required_key_is_usage_error(capsys, tmp_path):
    rc = main(["fit", "--set", f"output={tmp_path / 'm.txt'}", "--set", "target=y"])
    assert rc == 2
    assert "'dataset'" in capsys.readouterr().err


def test_missing_dataset_file_is_runtime_error(capsys, tmp_path):
    rc = main(
        [
            "fit",
            "--set", f"dataset={tmp_path / 'nope.csv'}",
            "--set", "target=y",
            "--set", f"output={tmp_path / 'm.txt'}",
        ]
    )
    assert rc == 1


def test_config_file_with_flag_overrides(tmp_path, train_file):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "# tiny demo run\n"
        f"dataset = {train_file}\n"
        "target = y\n"
        f"output = {tmp_path / 'ignored.txt'}\n"
        "n_trials = 3\n"
        "n_initial = 2\n"
        "n_iterations = 5\n"
        "inner_n_folds = 2\n"
        "q_min = 0\n"
        "q_max = 1\n"
        "kernels = se\n"
        "seed = 4\n"
    )
    out = tmp_path / "actual.txt"
    rc = main(["fit", "--config", str(cfg), "--output", str(out)])
    assert rc == 0
    assert out.exists()
    assert not (tmp_path / "ignored.txt").exists()


def test_missing_config_file_is_usage_error(capsys):
    assert main(["fit", "--config", "/nonexistent/run.cfg"]) == 2


def test_bad_config_line_is_usage_error_naming_the_line(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# a comment\n\ntarget = y\nn_trials 3\n")
    assert main(["fit", "--config", str(cfg)]) == 2
    assert f"{cfg}:4: expected 'key = value', got 'n_trials 3'" in capsys.readouterr().err


# --- predict -------------------------------------------------------------------

def fit_interpolator(tmp_path, train_file):
    # constant positive lengthscale keeps the Gram well-conditioned, so the
    # near-zero noise model genuinely interpolates its training points
    model_path = tmp_path / "interp.txt"
    rc = run_fit(
        train_file,
        model_path,
        extra=[
            "--set", "noise=1e-10",
            "--set", "q_max=0",
            "--set", "coeff_min=0.5",
            "--set", "n_iterations=20",
        ],
    )
    assert rc == 0
    return model_path


def test_predict_training_file_reproduces_targets(tmp_path, train_file):
    model_path = fit_interpolator(tmp_path, train_file)
    out = tmp_path / "preds.csv"
    rc = main(
        [
            "predict",
            "--set", f"model={model_path}",
            "--set", f"inputs={train_file}",  # includes the target column
            "--output", str(out),
        ]
    )
    assert rc == 0
    rows = out.read_text().splitlines()
    assert rows[0] == "mean,variance"
    got = np.array([[float(v) for v in row.split(",")] for row in rows[1:]])
    truth = np.array(
        [float(line.split(",")[1]) for line in train_file.read_text().splitlines()[1:]]
    )
    assert got.shape == (20, 2)
    np.testing.assert_allclose(got[:, 0], truth, rtol=1e-4, atol=1e-6)
    assert np.all(got[:, 1] >= 0.0)


def test_predict_is_idempotent(tmp_path, train_file):
    model_path = fit_interpolator(tmp_path, train_file)
    outs = []
    for name in ("p1.csv", "p2.csv"):
        out = tmp_path / name
        main(
            [
                "predict",
                "--set", f"model={model_path}",
                "--set", f"inputs={train_file}",
                "--output", str(out),
            ]
        )
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


def test_predict_counts_the_rows_outside_the_training_box(
    tmp_path, train_file, capsys
):
    model_path = fit_interpolator(tmp_path, train_file)
    capsys.readouterr()
    x = np.array([float(line.split(",")[0])
                  for line in train_file.read_text().splitlines()[1:]])
    lo, hi = x.min(), x.max()
    # the box's edges are inside it; 2 of these 5 rows lie outside
    queries = [lo, hi, 0.5 * (lo + hi), lo - 0.01, hi + 0.5]
    src = tmp_path / "queries.csv"
    src.write_text("x\n" + "".join(f"{float(v)!r}\n" for v in queries))
    out = tmp_path / "queries_out.csv"
    rc = main(["predict", "--set", f"model={model_path}", "--set", f"inputs={src}",
               "--output", str(out)])
    assert rc == 0
    assert capsys.readouterr().out == (
        f"predict: 5 rows, 2 outside the training min-max box -> {out}\n"
    )
    assert len(out.read_text().splitlines()) == 1 + 5  # the file has no count


def test_predict_empty_inputs_writes_header_only(tmp_path, train_file):
    model_path = fit_interpolator(tmp_path, train_file)
    # blank lines are skipped, as `load_csv` skips them for `fit`
    for content in ("x,y\n", "", "x,y\n\n"):
        src = tmp_path / "empty.csv"
        src.write_text(content)
        out = tmp_path / "empty_out.csv"
        rc = main(
            [
                "predict",
                "--set", f"model={model_path}",
                "--set", f"inputs={src}",
                "--output", str(out),
            ]
        )
        assert rc == 0
        assert out.read_text() == "mean,variance\n"


def test_predict_schema_mismatch_names_column(tmp_path, train_file, capsys):
    model_path = fit_interpolator(tmp_path, train_file)

    missing = tmp_path / "missing.csv"
    missing.write_text("z\n0.5\n")
    rc = main(
        [
            "predict",
            "--set", f"model={model_path}",
            "--set", f"inputs={missing}",
            "--output", str(tmp_path / "o.csv"),
        ]
    )
    assert rc == 1
    assert "'x'" in capsys.readouterr().err

    extra = tmp_path / "extra.csv"
    extra.write_text("x,weird\n0.5,1.0\n")
    rc = main(
        [
            "predict",
            "--set", f"model={model_path}",
            "--set", f"inputs={extra}",
            "--output", str(tmp_path / "o.csv"),
        ]
    )
    assert rc == 1
    assert "'weird'" in capsys.readouterr().err


def test_fit_rejects_a_repeated_column_name(tmp_path, capsys):
    # with two columns named 'a', predict would map both training columns
    # to the first, so (0.1, 0.9) and (0.1, 0.1) would predict alike
    src = tmp_path / "twice.csv"
    rows = "".join(f"{i / 9!r},{(9 - i) / 9!r},{i}\n" for i in range(10))
    src.write_text("a,a,y\n" + rows)
    model_path = tmp_path / "model.txt"
    rc = main(["fit", "--set", f"dataset={src}", "--set", "target=y",
               "--output", str(model_path), *FAST_FIT])
    assert rc == 1
    err = capsys.readouterr().err
    assert "twice.csv" in err and "'a'" in err
    assert not model_path.exists()


@pytest.mark.parametrize("header, name", [('"x,1",y', "'x,1'"), (",y", "''")],
                         ids=["comma", "empty"])
def test_fit_rejects_a_column_name_the_model_cannot_list(
    tmp_path, capsys, header, name
):
    # the model keeps the input names as one comma-joined line, which
    # predict splits: a name with a comma, or an empty one, would make a
    # model that predict refuses
    src = tmp_path / "named.csv"
    src.write_text(header + "\n" + "".join(f"{i / 9!r},{i}\n" for i in range(10)))
    rc = main(["fit", "--set", f"dataset={src}", "--set", "target=y",
               "--output", str(tmp_path / "model.txt"), *FAST_FIT])
    assert rc == 1
    err = capsys.readouterr().err
    assert "named.csv" in err and name in err
    assert list(tmp_path.iterdir()) == [src]  # nothing written


def test_predict_rejects_a_repeated_column_name(tmp_path, train_file, capsys):
    model_path = fit_interpolator(tmp_path, train_file)
    src = tmp_path / "twice.csv"
    src.write_text("x,x\n0.1,0.9\n")
    out = tmp_path / "o.csv"
    rc = main(["predict", "--set", f"model={model_path}", "--set", f"inputs={src}",
               "--output", str(out)])
    assert rc == 1
    err = capsys.readouterr().err
    assert "twice.csv" in err and "'x'" in err
    assert not out.exists()


def test_predict_rejects_a_model_that_names_a_column_twice(tmp_path, capsys):
    # a model saved from a table with a repeated column name lists it twice;
    # predict would read both inputs from the one query column of that name
    src = tmp_path / "two.csv"
    rows = "".join(f"{i / 9!r},{(9 - i) / 9!r},{i}\n" for i in range(10))
    src.write_text("a,b,y\n" + rows)
    model_path = tmp_path / "model.txt"
    assert main(["fit", "--set", f"dataset={src}", "--set", "target=y",
                 "--output", str(model_path), *FAST_FIT]) == 0
    text = model_path.read_text()
    assert "meta.columns = a,b\n" in text
    model_path.write_text(text.replace("meta.columns = a,b", "meta.columns = a,a"))
    queries = tmp_path / "q.csv"
    queries.write_text("a\n0.1\n")
    out = tmp_path / "o.csv"
    rc = main(["predict", "--set", f"model={model_path}", "--set", f"inputs={queries}",
               "--output", str(out)])
    assert rc == 1
    err = capsys.readouterr().err
    assert "model.txt" in err and "'a'" in err
    assert not out.exists()


def test_predict_rejects_a_nan_query_row(tmp_path, train_file, capsys):
    # the solves skip scipy's finiteness scan, so a NaN query must be
    # stopped before them, at basis evaluation
    model_path = fit_interpolator(tmp_path, train_file)
    src = tmp_path / "nan.csv"
    src.write_text("x\n0.5\nnan\n")
    rc = main(
        [
            "predict",
            "--set", f"model={model_path}",
            "--set", f"inputs={src}",
            "--output", str(tmp_path / "o.csv"),
        ]
    )
    assert rc == 1
    assert "finite" in capsys.readouterr().err


# --- benchmark / baseline -------------------------------------------------------

BENCH_ARGS = [
    "--set", "n_folds=3", "--set", "n_trials=2", "--set", "n_initial=1",
    "--set", "n_iterations=3", "--set", "inner_n_folds=2",
    "--set", "nested=false", "--set", "q_min=0", "--set", "q_max=1",
    "--set", "kernels=se",
]


def bench_csv(tmp_path):
    rng = np.random.default_rng(5)
    x = np.sort(rng.uniform(0.0, 1.0, 24))
    y = np.cos(2.0 * x)
    path = tmp_path / "bench.csv"
    write_csv(path, x, y)
    return path


def run_bench(sub, data, out, seed="7"):
    return main(
        [
            sub,
            "--set", f"dataset={data}",
            "--set", "target=y",
            "--output", str(out),
            "--seed", seed,
            "--threads", "1",
            *BENCH_ARGS,
        ]
    )


def test_benchmark_cli_writes_report(tmp_path, capsys):
    data = bench_csv(tmp_path)
    out = tmp_path / "report.txt"
    assert run_bench("benchmark", data, out) == 0
    text = out.read_text()
    assert text.startswith("format = pcegp-report-1\n")
    assert "method = pcegp" in text
    assert "mean_rmse = " in text
    assert "wall" not in text
    assert "mean" in capsys.readouterr().out  # human table on stdout


def test_benchmark_cli_byte_identical_reruns(tmp_path):
    data = bench_csv(tmp_path)
    a, b = tmp_path / "r1.txt", tmp_path / "r2.txt"
    assert run_bench("benchmark", data, a) == 0
    assert run_bench("benchmark", data, b) == 0
    assert a.read_bytes() == b.read_bytes()


def test_baseline_cli(tmp_path):
    data = bench_csv(tmp_path)
    out = tmp_path / "base.txt"
    assert run_bench("baseline", data, out) == 0
    assert "method = baseline" in out.read_text()


def test_bad_config_value_is_usage_error(tmp_path, capsys):
    data = bench_csv(tmp_path)
    rc = main(
        [
            "benchmark",
            "--set", f"dataset={data}",
            "--set", "target=y",
            "--set", "n_folds=lots",
            "--output", str(tmp_path / "r.txt"),
        ]
    )
    assert rc == 2
    assert "n_folds" in capsys.readouterr().err



@pytest.mark.parametrize(
    "settings, message",
    [
        (["kernels=rq", "rq_shape=-1"], "shape"),
        (["kernels=rq", "rq_shape=nan"], "shape"),
        (["basis=jacobi", "jacobi_alpha=-2"], "jacobi"),
        (["basis=jacobi", "jacobi_alpha=nan"], "jacobi"),
        (["noise=nan"], "fixed noise"),
        (["noise=inf"], "fixed noise"),
        (["coeff_min=nan"], "coeff_range"),
        (["scale_max=inf"], "scale_range"),
        # keys that would have no effect
        (["r_max=3"], "'r_max' needs noise = search"),
        (["noise=0.01", "r_min=1"], "'r_min' needs noise = search"),
        (["rq_shape=2"], "'rq_shape' needs an rq kernel"),
        (["jacobi_alpha=0.5"], "'jacobi_alpha' needs basis = jacobi"),
        (["basis=hermite", "jacobi_beta=0.5"], "'jacobi_beta' needs basis = jacobi"),
    ],
    ids=["rq-negative", "rq-nan", "jacobi-below-minus-one", "jacobi-nan",
         "noise-nan", "noise-inf", "coeff-nan", "scale-inf",
         "r-with-default-noise", "r-with-fixed-noise", "rq-shape-without-rq",
         "jacobi-alpha-with-default-basis", "jacobi-beta-with-hermite"],
)
def test_an_impossible_space_value_is_a_usage_error_before_the_search(
    tmp_path, capsys, settings, message
):
    # exit 2 before any trial runs, not a failed search or a numpy range
    # error after it
    data = bench_csv(tmp_path)
    overrides = [arg for item in settings for arg in ("--set", item)]
    for sub, base in (("fit", FAST_FIT), ("benchmark", BENCH_ARGS),
                      ("baseline", BENCH_ARGS)):
        assert main([
            sub, "--set", f"dataset={data}", "--set", "target=y",
            "--output", str(tmp_path / f"{sub}.txt"), *base, *overrides,
        ]) == 2
        assert message in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == [data]  # nothing written

@pytest.mark.parametrize(
    "sub, settings, message",
    [
        ("fit", ["inner_n_folds=1"], "inner folds"),
        ("fit", ["n_trials=0", "n_initial=0"], "at least one trial"),
        ("fit", ["n_initial=-1"], "n_initial"),
        ("fit", ["n_iterations=-1"], "n_iterations"),
        ("benchmark", ["inner_n_folds=1"], "inner folds"),
        ("benchmark", ["n_iterations=-1"], "n_iterations"),
        ("baseline", ["n_iterations=-1"], "n_iterations"),
    ],
    ids=[
        "fit-one-fold", "fit-no-trials", "fit-negative-initial",
        "fit-negative-iterations", "benchmark-one-fold",
        "benchmark-negative-iterations", "baseline-negative-iterations",
    ],
)
def test_impossible_search_settings_are_usage_errors(
    tmp_path, capsys, sub, settings, message
):
    data = bench_csv(tmp_path)
    base = FAST_FIT if sub == "fit" else BENCH_ARGS
    overrides = [arg for item in settings for arg in ("--set", item)]
    rc = main(
        [
            sub,
            "--set", f"dataset={data}",
            "--set", "target=y",
            "--output", str(tmp_path / "out.txt"),
            *base,
            *overrides,
        ]
    )
    assert rc == 2
    assert message in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == [data]  # nothing written


@pytest.mark.parametrize("sub", ["fit", "benchmark", "baseline"])
def test_a_negative_seed_is_a_usage_error_before_the_data_is_read(
    tmp_path, capsys, sub
):
    # numpy's generators take no negative seed; the check names the key
    # before the dataset, here a file that does not exist, is read
    base = FAST_FIT if sub == "fit" else BENCH_ARGS
    rc = main([sub, "--set", f"dataset={tmp_path / 'absent.csv'}",
               "--set", "target=y", "--output", str(tmp_path / "out.txt"),
               *base, "--seed", "-1"])
    assert rc == 2
    assert "seed" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []  # nothing written


@pytest.mark.parametrize(
    "settings",
    [
        ["n_trials=0", "n_initial=0"],
        ["n_trials=2", "n_initial=3"],
        ["n_initial=-1"],
        ["n_iterations=-1"],
        ["inner_n_folds=1"],
    ],
    ids=["no-trials", "initial-above-trials", "negative-initial",
         "negative-iterations", "one-inner-fold"],
)
def test_fit_benchmark_and_baseline_share_one_rule_for_the_search_settings(
    tmp_path, capsys, settings
):
    data = bench_csv(tmp_path)
    overrides = [arg for item in settings for arg in ("--set", item)]
    codes = []
    for sub, base in (("fit", FAST_FIT), ("benchmark", BENCH_ARGS),
                      ("baseline", BENCH_ARGS)):
        codes.append(main([
            sub, "--set", f"dataset={data}", "--set", "target=y",
            "--output", str(tmp_path / f"{sub}.txt"), *base, *overrides,
        ]))
    assert codes == [2, 2, 2]
    assert list(tmp_path.iterdir()) == [data]  # nothing written


def test_no_random_trials_is_a_valid_setting_for_every_command(tmp_path, capsys):
    # trial 0 then falls back to a random draw, since TPE needs two trials
    data = bench_csv(tmp_path)
    for sub, base in (("fit", FAST_FIT), ("benchmark", BENCH_ARGS),
                      ("baseline", BENCH_ARGS)):
        out = tmp_path / f"{sub}.txt"
        assert main([
            sub, "--set", f"dataset={data}", "--set", "target=y",
            "--output", str(out), *base, "--set", "n_initial=0",
        ]) == 0
        assert out.exists()


# --- writes that fail part-way -------------------------------------------------

class _HalfWriter:
    """A file that takes half of the first text written to it, then fails
    as a full disk does."""

    def __init__(self, fh):
        self._fh = fh

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self._fh.close()

    def write(self, text):
        self._fh.write(text[: len(text) // 2])
        self._fh.flush()
        raise OSError(errno.ENOSPC, "No space left on device")


def _fail_writes_to(monkeypatch, suffix):
    """Make every file that `pcegp.data` opens for writing at a path ending
    in `suffix` fail part-way; reads are left alone."""
    real_open = open

    def fake_open(path, mode="r", *args, **kwargs):
        fh = real_open(path, mode, *args, **kwargs)
        return _HalfWriter(fh) if "w" in mode and str(path).endswith(suffix) else fh

    monkeypatch.setattr(data_mod, "open", fake_open, raising=False)


def _assert_left_alone(path, before):
    assert path.read_bytes() == before
    assert not list(path.parent.glob("*.tmp"))


def test_failed_model_write_leaves_the_previous_file(tmp_path, train_file, monkeypatch):
    model_path = tmp_path / "model.txt"
    assert run_fit(train_file, model_path) == 0
    model = load_model(model_path)
    before = model_path.read_bytes()
    assert before == model_to_text(model).encode("utf-8")
    _fail_writes_to(monkeypatch, "model.txt.tmp")
    with pytest.raises(OSError):
        save_model(replace(model, meta={"seed": "other"}), model_path)
    _assert_left_alone(model_path, before)


def test_failed_history_write_leaves_the_previous_file(
    tmp_path, train_file, monkeypatch, capsys
):
    model_path = tmp_path / "model.txt"
    history = tmp_path / "model.txt.history"
    assert run_fit(train_file, model_path) == 0
    before = history.read_bytes()
    _fail_writes_to(monkeypatch, ".history.tmp")
    assert run_fit(train_file, model_path, extra=["--seed", "5"]) == 1
    _assert_left_alone(history, before)


def test_all_failed_search_history_is_written_whole_or_not_at_all(
    tmp_path, train_file, monkeypatch, capsys
):
    model_path = tmp_path / "model.txt"
    history = tmp_path / "model.txt.history"

    def failing_trial(theta, *args):
        return FAILED_LOSS, [FAILED_LOSS], None, None

    monkeypatch.setattr(optim_mod, "_evaluate_trial", failing_trial)
    assert run_fit(train_file, model_path) == 1
    assert "every trial failed" in capsys.readouterr().err
    before = history.read_bytes()
    assert before.startswith(b"format = pcegp-search-1\nseed = 4\n")
    assert b"trial_2.loss = inf\n" in before and b"best_" not in before
    assert not model_path.exists()
    _fail_writes_to(monkeypatch, ".history.tmp")
    assert run_fit(train_file, model_path, extra=["--seed", "5"]) == 1
    _assert_left_alone(history, before)


def _without_wall_times(text):
    return [line for line in text.splitlines() if ".wall_time = " not in line]


@pytest.mark.parametrize("k", [1, 3])
def test_an_interrupted_fit_leaves_the_history_of_its_finished_trials(
    tmp_path, train_file, monkeypatch, capsys, k
):
    whole = tmp_path / "whole.txt"
    assert run_fit(train_file, whole, extra=["--set", "n_trials=4"]) == 0
    real = optim_mod._evaluate_trial
    calls = []

    def interrupted_at_trial_k(*args):
        if len(calls) == k:
            raise KeyboardInterrupt
        calls.append(None)
        return real(*args)

    monkeypatch.setattr(optim_mod, "_evaluate_trial", interrupted_at_trial_k)
    cut = tmp_path / "cut.txt"
    assert run_fit(train_file, cut, extra=["--set", "n_trials=4"]) == 1
    assert "interrupted" in capsys.readouterr().err
    assert not cut.exists()
    lines = _without_wall_times((tmp_path / "cut.txt.history").read_text())
    assert f"n_trials = {k}" in lines
    trials = [line for line in lines if line.startswith("trial_")]
    assert len(trials) == 4 * k
    expected = _without_wall_times((tmp_path / "whole.txt.history").read_text())
    assert trials == [line for line in expected if line.startswith("trial_")][: 4 * k]
    assert not list(tmp_path.glob("*.tmp"))


def test_failed_prediction_write_leaves_the_previous_file(
    tmp_path, train_file, monkeypatch, capsys
):
    model_path = fit_interpolator(tmp_path, train_file)
    out = tmp_path / "preds.csv"
    args = ["predict", "--set", f"model={model_path}",
            "--set", f"inputs={train_file}", "--output", str(out)]
    assert main(args) == 0
    before = out.read_bytes()
    _fail_writes_to(monkeypatch, "preds.csv.tmp")
    assert main(args) == 1
    _assert_left_alone(out, before)


# --- inspect --------------------------------------------------------------------

def test_inspect_round_trips_coefficients(tmp_path, train_file, capsys):
    model_path = tmp_path / "model.txt"
    assert run_fit(train_file, model_path) == 0
    capsys.readouterr()
    assert main(["inspect", "--set", f"model={model_path}"]) == 0
    text = capsys.readouterr().out
    assert "lengthscale[legendre_shifted_01](x) = " in text

    parsed = parse_description(text)
    model = load_model(model_path)
    (form, scale, ls_field) = model.stack.entries[0]
    assert parsed["kernels"][0]["lengthscale"][0] == ls_field.basis.label()
    np.testing.assert_array_equal(
        parsed["kernels"][0]["lengthscale"][1], ls_field.coefficients
    )
    assert parsed["kernels"][0]["scale2"] == scale * scale
    assert parsed["noise"] == {"mode": "fixed", "value": model.noise.value}


def test_inspect_corrupt_model_is_runtime_error(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("format = pcegp-model-3\n")
    assert main(["inspect", "--set", f"model={bad}"]) == 1
    assert "missing" in capsys.readouterr().err


# --- flags and environment -------------------------------------------------------

def test_threads_flag_and_env(tmp_path, train_file, monkeypatch, capsys):
    model_path = tmp_path / "model.txt"
    assert run_fit(train_file, model_path) == 0

    assert main(["inspect", "--set", f"model={model_path}", "--threads", "0"]) == 2

    monkeypatch.setenv("PCEGP_THREADS", "notanint")
    assert main(["inspect", "--set", f"model={model_path}"]) == 2
    assert "PCEGP_THREADS" in capsys.readouterr().err

    monkeypatch.setenv("PCEGP_THREADS", "1")
    assert main(["inspect", "--set", f"model={model_path}"]) == 0


_THREADS_AFTER_A_MATMUL = """
import os, sys
from pcegp.launch import main
assert "numpy" not in sys.modules  # the package import is lazy
code = main(sys.argv[1:])
import numpy as np
a = np.ones((800, 800))
a @ a
print(code, len(os.listdir("/proc/self/task")))
"""


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="needs /proc")
def test_threads_flag_sizes_the_blas_pool_before_numpy_loads(tmp_path, train_file):
    model_path = tmp_path / "model.txt"
    assert run_fit(train_file, model_path) == 0
    env = {k: v for k, v in os.environ.items()
           if k not in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                        "MKL_NUM_THREADS", "PCEGP_THREADS")}
    env["PYTHONPATH"] = str(Path(__file__).resolve().parent.parent / "src")

    def threads_after(*flags, extra_env=()):
        out = subprocess.run(
            [sys.executable, "-c", _THREADS_AFTER_A_MATMUL,
             "inspect", "--set", f"model={model_path}", *flags],
            env={**env, **dict(extra_env)}, capture_output=True, text=True,
            check=True, timeout=120,
        ).stdout.split()
        assert out[-2] == "0"
        return int(out[-1])

    assert threads_after("--threads", "1") == 1
    assert threads_after(extra_env={"PCEGP_THREADS": "1"}) == 1
    if (os.cpu_count() or 1) > 1:
        # the control: uncapped, OpenBLAS starts a pool of its own
        assert threads_after() > 1


def test_malformed_set_is_usage_error(capsys):
    assert main(["fit", "--set", "novalue"]) == 2
    assert "key=value" in capsys.readouterr().err
