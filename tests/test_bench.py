"""Benchmark harness: RMSE, outer-fold protocol, baseline, and reports."""

import hashlib

import numpy as np
import pytest

import pcegp.bench as bench
from pcegp.bench import (
    EXPECTED_DATASETS,
    BenchmarkConfig,
    BenchmarkReport,
    dataset_manifest,
    manifest_text,
    report_table,
    report_text,
    rmse,
    run_baseline,
    run_benchmark,
    verify_dataset,
)
from pcegp.data import Dataset, make_folds, scale_split
from pcegp.kernels import KernelForm
from pcegp.optim import SearchSpace
from pcegp.poly import Basis


def _sin_dataset(n=24, seed=3):
    rng = np.random.default_rng(seed)
    x = np.sort(rng.uniform(0.0, 1.0, size=(n, 1)), axis=0)
    y = np.sin(3.0 * x[:, 0])
    return Dataset(x, y, ["x0"], "y")


def _tiny_space():
    return SearchSpace(
        kernel_forms=(KernelForm.se(),),
        basis=Basis.legendre01(),
        q_range=(0, 1),
        coeff_range=(-2.0, 2.0),
        scale_range=(1e-2, 10.0),
        noise_fixed=1e-4,
    )


def _tiny_config(tmp_path_or_str="unused.csv", nested=False, seed=0):
    return BenchmarkConfig(
        dataset_path=str(tmp_path_or_str),
        target_column="y",
        n_folds=4,
        n_trials=4,
        n_initial=2,
        n_iterations=5,
        seed=seed,
        nested=nested,
        inner_n_folds=2,
        space=_tiny_space(),
    )


# --- rmse ------------------------------------------------------------------

def test_rmse_hand_value():
    # errors 3 and 4: mean square 12.5
    assert rmse([3.0, 4.0], [0.0, 0.0]) == pytest.approx(3.5355339059327378, abs=1e-12)


def test_rmse_perfect_and_symmetry():
    assert rmse([1.0, 2.0], [1.0, 2.0]) == 0.0
    assert rmse([1.0, 5.0], [2.0, 3.0]) == rmse([2.0, 3.0], [1.0, 5.0])


def test_rmse_rejects_empty_and_mismatch():
    with pytest.raises(ValueError, match="empty"):
        rmse([], [])
    with pytest.raises(ValueError, match="mismatch"):
        rmse([1.0], [1.0, 2.0])


# --- config and report invariants -------------------------------------------

def test_config_validation():
    with pytest.raises(ValueError, match="outer folds"):
        _replace_cfg(n_folds=1)
    with pytest.raises(ValueError, match="inner folds"):
        _replace_cfg(inner_n_folds=1)
    with pytest.raises(ValueError, match="n_initial"):
        _replace_cfg(n_initial=9, n_trials=4)


def _replace_cfg(**kw):
    base = dict(
        dataset_path="d.csv", target_column="y", n_folds=4, n_trials=4,
        n_initial=2, inner_n_folds=2, space=_tiny_space(),
    )
    base.update(kw)
    return BenchmarkConfig(**base)


def test_report_mean_must_match_folds():
    with pytest.raises(ValueError, match="mean_rmse"):
        BenchmarkReport(
            method="pcegp",
            per_fold_rmse=(1.0, 2.0),
            mean_rmse=1.7,
            std_rmse=0.5,
            wall_time=0.0,
            config_echo={},
            best_thetas=(),
        )


def test_benchmark_space_shape():
    space = SearchSpace()
    assert [f.tag for f in space.kernel_forms] == [
        "squared_exponential",
        "absolute_exponential",
        "matern_3_2",
        "rational_quadratic",
    ]
    assert space.basis == Basis.legendre01()
    assert space.q_range == (5, 10)
    assert space.noise_fixed == 1e-4
    # shared degree + 4 blocks of 11 coefficients + 4 squared scales
    assert space.n_parameters == 1 + 4 * 11 + 4


def test_config_echo_writes_shapes_exactly():
    # two runs that differ only in a shape parameter echo differently
    def echo(rq_shape, alpha):
        space = SearchSpace(kernel_forms=(KernelForm.se(), KernelForm.rq(rq_shape)),
                            basis=Basis.jacobi(alpha, 2), q_range=(0, 1))
        return BenchmarkConfig("d.csv", "y", space=space).echo()

    first = echo(0.1234567, 0.1234567)
    assert first["kernels"] == "squared_exponential rational_quadratic(0.1234567)"
    assert first["basis"] == "jacobi(0.1234567,2.0)"
    assert echo(0.1234568, 0.1234567)["kernels"] != first["kernels"]
    assert echo(0.1234567, 0.1234568)["basis"] != first["basis"]


# --- benchmark driver --------------------------------------------------------

def test_non_nested_benchmark_runs_and_aggregates():
    ds = _sin_dataset()
    report = run_benchmark(_tiny_config(), dataset=ds)
    assert report.method == "pcegp"
    assert len(report.per_fold_rmse) == 4
    assert report.mean_rmse == pytest.approx(np.mean(report.per_fold_rmse), abs=1e-15)
    assert report.std_rmse == pytest.approx(np.std(report.per_fold_rmse), abs=1e-15)
    assert all(np.isfinite(r) for r in report.per_fold_rmse)
    # one search shared across folds: identical tuning vector everywhere
    assert len(set(report.best_thetas)) == 1
    # a smooth 1-d signal must beat constant prediction by a wide margin
    assert report.mean_rmse < 0.5 * np.std(ds.outputs)


def test_nested_benchmark_tunes_per_fold():
    ds = _sin_dataset()
    report = run_benchmark(_tiny_config(nested=True), dataset=ds)
    assert len(report.best_thetas) == 4
    assert all(len(t) == _tiny_space().n_parameters for t in report.best_thetas)
    assert np.isfinite(report.mean_rmse)


def test_fold_count_checked_before_the_search(monkeypatch):
    def no_search(*args, **kwargs):
        raise AssertionError("searched before the fold plan was checked")

    monkeypatch.setattr(bench, "run_search", no_search)
    with pytest.raises(ValueError, match="n_folds"):
        run_benchmark(_tiny_config(), dataset=_sin_dataset(n=3))


def test_benchmark_fold_hygiene(monkeypatch):
    """Per-fold scalers are fit on exactly the outer training rows."""
    ds = _sin_dataset()
    cfg = _tiny_config(nested=False, seed=11)
    plan = make_folds(ds.n_points, cfg.n_folds, cfg.seed)

    seen = []

    def spy(x, y):  # every outer fold's scalers are fitted here
        split = scale_split(x, y)
        seen.append((split[0].kind, split[1].kind, np.array(x), np.array(y)))
        return split

    monkeypatch.setattr(bench, "scale_split", spy)
    run_benchmark(cfg, dataset=ds)

    assert len(seen) == cfg.n_folds
    for f, (kind_in, kind_out, x_fit, y_fit) in enumerate(seen):
        tr = plan.train_indices(f)
        assert kind_in == "min_max_per_column"
        assert kind_out == "z_normalize"
        np.testing.assert_array_equal(x_fit, ds.inputs[tr])
        np.testing.assert_array_equal(y_fit, ds.outputs[tr])


def test_benchmark_report_text_is_deterministic():
    ds = _sin_dataset()
    a = report_text(run_benchmark(_tiny_config(seed=5), dataset=ds))
    b = report_text(run_benchmark(_tiny_config(seed=5), dataset=ds))
    assert a == b
    assert "wall" not in a  # timing must never leak into the canonical text


def test_report_text_structure():
    ds = _sin_dataset()
    report = run_benchmark(_tiny_config(), dataset=ds)
    text = report_text(report)
    lines = text.splitlines()
    assert lines[0] == "format = pcegp-report-1"
    assert "method = pcegp" in lines
    assert any(line.startswith("fold_3.rmse = ") for line in lines)
    assert any(line.startswith("mean_rmse = ") for line in lines)
    table = report_table(report)
    assert "mean" in table and "wall" in table


def test_checkpoint_file_written_and_completed(tmp_path):
    ds = _sin_dataset()
    path = tmp_path / "check.txt"
    report = run_benchmark(_tiny_config(), dataset=ds, checkpoint_path=path)
    text = path.read_text()
    assert text == report_text(report)
    assert "fold_0.rmse = " in text and "fold_3.rmse = " in text


def test_interrupt_flushes_partial_checkpoint(tmp_path, monkeypatch):
    ds = _sin_dataset(n=30)
    path = tmp_path / "partial.txt"
    calls = {"n": 0}
    real = bench._fit_ard_baseline

    def bomb(*args, **kwargs):
        calls["n"] += 1
        if calls["n"] == 3:
            raise KeyboardInterrupt
        return real(*args, **kwargs)

    monkeypatch.setattr(bench, "_fit_ard_baseline", bomb)
    with pytest.raises(KeyboardInterrupt):
        run_baseline(_tiny_config(), dataset=ds, checkpoint_path=path)
    monkeypatch.undo()
    full_path = tmp_path / "full.txt"
    run_baseline(_tiny_config(), dataset=ds, checkpoint_path=full_path)

    def fold_lines(text, fold):
        return [
            line for line in text.splitlines()
            if line.startswith((f"fold_{fold}.rmse = ", f"fold_{fold}.theta = "))
        ]

    partial, full = path.read_text(), full_path.read_text()
    assert partial.startswith("format = pcegp-report-1\n")
    for fold in (0, 1):
        assert len(fold_lines(partial, fold)) == 2
        assert fold_lines(partial, fold) == fold_lines(full, fold)
    assert not fold_lines(partial, 2)
    assert not list(tmp_path.glob("*.tmp"))


# --- stationary baseline ------------------------------------------------------

def test_baseline_learns_noiseless_linear_map():
    rng = np.random.default_rng(7)
    x = rng.uniform(0.0, 1.0, size=(50, 2))
    y = 3.0 * x[:, 0] - 2.0 * x[:, 1] + 1.0
    ds = Dataset(x, y, ["a", "b"], "y")
    cfg = BenchmarkConfig(
        dataset_path="linear.csv", target_column="y", n_folds=5,
        n_trials=1, n_initial=1, n_iterations=200, seed=1,
        inner_n_folds=2, space=_tiny_space(),
    )
    report = run_baseline(cfg, dataset=ds)
    assert report.method == "baseline"
    assert len(report.per_fold_rmse) == 5
    # noiseless smooth target: near-interpolation, far below the target spread
    assert report.mean_rmse < 0.1 * np.std(y)
    # per-fold parameter vectors: one log lengthscale per input + 2 extras
    assert all(len(t) == 4 for t in report.best_thetas)


def test_a_baseline_gradient_that_is_not_finite_names_its_restart(monkeypatch):
    # the second restart, from lengthscale 0.1, meets a NaN gradient at
    # its first step
    real = bench._ard_neg_mll_and_grad

    def nan_from_0_1(log_params, x, y, gradient=True, workspace=None):
        neg, grad, alpha = real(log_params, x, y, gradient, workspace)
        if gradient and log_params[0] == np.log(0.1):
            grad = np.full_like(grad, np.nan)
        return neg, grad, alpha

    monkeypatch.setattr(bench, "_ard_neg_mll_and_grad", nan_from_0_1)
    x = np.random.default_rng(4).uniform(size=(12, 2))
    with pytest.raises(RuntimeError, match=r"restart from lengthscale 0\.1 is not"):
        bench._fit_ard_baseline(x, np.sin(3.0 * x[:, 0]), 3)


def test_baseline_deterministic():
    ds = _sin_dataset()
    cfg = _tiny_config(seed=2)
    a = report_text(run_baseline(cfg, dataset=ds))
    b = report_text(run_baseline(cfg, dataset=ds))
    assert a == b


# --- manifests ---------------------------------------------------------------

def test_dataset_manifest_counts_and_hash(tmp_path):
    p = tmp_path / "small.csv"
    # a quoted header name may hold the delimiter
    for content in ("a,b,y\n1,2,3\n4,5,6\n7,8,9\n",
                    '"a,b",c,y\n1,2,3\n4,5,6\n7,8,9\n'):
        p.write_text(content)
        m = dataset_manifest(p)
        assert m["file"] == "small.csv"
        assert m["n_rows"] == 3
        assert m["n_columns"] == 3
        assert m["sha256"] == hashlib.sha256(content.encode()).hexdigest()


def test_a_whitespace_line_of_a_one_column_file_is_not_a_row(tmp_path):
    # the manifest chooses no column, so no cell is parsed; a line of spaces
    # is a blank line all the same, as it is when columns are read
    p = tmp_path / "one.csv"
    for content in ("y\n1\n   \n2\n", "a,y\n1,2\n  ,  \n3,4\n"):
        p.write_text(content)
        assert dataset_manifest(p)["n_rows"] == 2, content


def test_manifest_text_and_verification(tmp_path):
    p = tmp_path / "t.csv"
    p.write_text("x;y\n1;2\n3;4\n")
    m = dataset_manifest(p)
    assert m["n_columns"] == 2  # semicolon-delimited
    text = manifest_text([m])
    assert text.startswith("format = pcegp-manifest-1\n")
    assert f"t.csv.sha256 = {m['sha256']}" in text

    verify_dataset(p, {"n_rows": 2, "n_columns": 2, "sha256": m["sha256"]})
    with pytest.raises(ValueError, match="n_rows"):
        verify_dataset(p, {"n_rows": 99})
    with pytest.raises(ValueError, match="sha256"):
        verify_dataset(p, {"sha256": "0" * 64})


def test_expected_dataset_shapes():
    assert EXPECTED_DATASETS["boston_housing.csv"] == {
        "n_rows": 506, "n_columns": 14,
    }
    assert EXPECTED_DATASETS["energy_efficiency.csv"] == {
        "n_rows": 768, "n_columns": 10,
    }
    assert EXPECTED_DATASETS["concrete_compressive.csv"] == {
        "n_rows": 1030, "n_columns": 9,
    }
