"""End-to-end command-line behavior: artifacts, exit codes, determinism."""

import numpy as np
import pytest

from pcegp.cli import main
from pcegp.serialize import load_model, parse_description


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


def test_fit_same_seed_is_byte_identical(tmp_path, train_file):
    a, b = tmp_path / "a.txt", tmp_path / "b.txt"
    assert run_fit(train_file, a) == 0
    assert run_fit(train_file, b) == 0
    assert a.read_bytes() == b.read_bytes()


def test_unknown_config_key_is_usage_error(capsys, train_file, tmp_path):
    rc = main(["fit", "--set", "bogus_key=1"])
    assert rc == 2
    assert "bogus_key" in capsys.readouterr().err


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
    np.testing.assert_array_equal(
        parsed["kernels"][0]["terms"][0][1], ls_field.terms[0][1]
    )
    assert parsed["kernels"][0]["scale2"] == scale * scale
    assert parsed["noise"] == {"mode": "fixed", "value": model.noise.value}


def test_inspect_corrupt_model_is_runtime_error(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("format = pcegp-model-1\n")
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


def test_malformed_set_is_usage_error(capsys):
    assert main(["fit", "--set", "novalue"]) == 2
    assert "key=value" in capsys.readouterr().err
