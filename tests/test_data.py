"""Tests for CSV ingestion, scalers, and fold plans."""

import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pcegp.cli as cli_mod
from pcegp.data import (
    Dataset,
    FoldPlan,
    apply_scaler,
    fit_scaler,
    load_csv,
    make_folds,
    read_csv,
)
from pcegp.gp import fit_precompute
from pcegp.hyper import LengthscaleField, NoiseField
from pcegp.kernels import KernelForm, KernelStack
from pcegp.poly import Basis
from pcegp.serialize import save_model


# ---------------------------------------------------------------------------
# Dataset invariants
# ---------------------------------------------------------------------------

def test_dataset_validation():
    x = np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])
    y = np.array([1.0, 2.0, 3.0])
    ds = Dataset(x, y, ["a", "b"], "t")
    assert ds.n_points == 3 and ds.n_inputs == 2

    with pytest.raises(ValueError):
        Dataset(x[:1], y[:1], ["a", "b"])  # too few rows
    with pytest.raises(ValueError):
        Dataset(x, y[:2], ["a", "b"])  # length mismatch
    with pytest.raises(ValueError):
        Dataset(np.array([[np.nan, 1.0], [2.0, 3.0]]), y[:2], ["a", "b"])
    with pytest.raises(ValueError):
        Dataset(x, y, ["a"])  # wrong name count


# ---------------------------------------------------------------------------
# CSV loading
# ---------------------------------------------------------------------------

def _write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text, encoding="utf-8")
    return p


def test_load_csv_basic(tmp_path):
    p = _write(tmp_path, "small.csv", "a,b,t\n1,2,3\n4,5,6\n7,8,9\n")
    (ds,) = load_csv(p, ["t"])
    assert ds.n_points == 3 and ds.n_inputs == 2
    assert ds.column_names == ["a", "b"]
    assert ds.target_name == "t"
    np.testing.assert_array_equal(ds.outputs, [3.0, 6.0, 9.0])


def test_load_csv_semicolon_and_blank_tail(tmp_path):
    p = _write(tmp_path, "semi.csv", "a;b;t\n1;2;3\n4;5;6\n\n")
    (ds,) = load_csv(p, ["t"])
    assert ds.n_points == 2
    np.testing.assert_array_equal(ds.inputs, [[1.0, 2.0], [4.0, 5.0]])


def test_load_csv_two_targets(tmp_path):
    p = _write(
        tmp_path, "multi.csv", "a,b,c,h,c2\n1,2,3,10,20\n4,5,6,11,21\n7,8,9,12,22\n"
    )
    ds_h, ds_c = load_csv(p, ["h", "c2"])
    # both targets removed from the inputs of each dataset
    assert ds_h.n_inputs == 3 and ds_c.n_inputs == 3
    assert ds_h.target_name == "h" and ds_c.target_name == "c2"
    np.testing.assert_array_equal(ds_h.outputs, [10.0, 11.0, 12.0])
    np.testing.assert_array_equal(ds_c.outputs, [20.0, 21.0, 22.0])


def test_load_csv_distinct_diagnostics(tmp_path):
    with pytest.raises(FileNotFoundError):
        load_csv(tmp_path / "absent.csv", ["t"])

    p_bad = _write(tmp_path, "bad.csv", "a,t\n1,2\nx,4\n")
    with pytest.raises(ValueError, match="non-numeric value 'x'"):
        load_csv(p_bad, ["t"])

    p_ok = _write(tmp_path, "ok.csv", "a,t\n1,2\n3,4\n")
    with pytest.raises(ValueError, match="target column 'z' not found"):
        load_csv(p_ok, ["z"])

    p_gap = _write(tmp_path, "gap.csv", "a,t\n1,\n3,4\n")
    with pytest.raises(ValueError, match="missing value"):
        load_csv(p_gap, ["t"])

    p_ragged = _write(tmp_path, "ragged.csv", "a,t\n1,2,3\n")
    with pytest.raises(ValueError, match="expected 2 fields"):
        load_csv(p_ragged, ["t"])


def test_a_repeated_column_name_is_rejected_naming_the_file_and_column(tmp_path):
    # columns are chosen by name, so a repeated name would read its first
    # copy for every other one
    p = _write(tmp_path, "twice.csv", "a;b;a;t\n1;2;3;4\n")
    with pytest.raises(ValueError, match=r"twice.csv: column 'a' appears more"):
        load_csv(p, ["t"])
    p.write_text("a,t,t,t\n1,2,3,4\n")
    with pytest.raises(ValueError, match=r"twice.csv: column 't' appears more"):
        read_csv(p, lambda header: [0])


def test_load_csv_names_the_file_line_and_column_of_a_bad_cell(tmp_path):
    p = _write(tmp_path, "cells.csv", "a;b;t\n1;2;3\n\n4; ;6\n")
    with pytest.raises(ValueError, match=r"cells.csv:4: missing value in column 'b'"):
        load_csv(p, ["t"])
    p.write_text("a,b,t\n1,2,3\n4,5,six\n")
    with pytest.raises(ValueError, match=r"cells.csv:3: non-numeric value 'six' in column 't'"):
        load_csv(p, ["t"])
    for text, message in (("", "empty file"), ("a,t\n\n", "no data rows")):
        p.write_text(text)
        with pytest.raises(ValueError, match=message):
            load_csv(p, ["t"])


def _predict_model_file(folder, n_x):
    """A tiny model over inputs a0.. and target y, saved for `pcegp predict`."""
    rng = np.random.default_rng(n_x)
    x, y = rng.uniform(size=(6, n_x)), rng.normal(size=6)
    field = LengthscaleField(((Basis.legendre01(), np.array([1.0])),), n_x)
    stack = KernelStack(((KernelForm.se(), 1.0, field),))
    names = [f"a{i}" for i in range(n_x)]
    model = fit_precompute(
        stack, NoiseField.fixed(1e-2),
        fit_scaler("min_max_per_column", x), fit_scaler("z_normalize", y), x, y,
        meta={"columns": ",".join(names), "target": "y"},
    )
    path = folder / "model.txt"
    save_model(model, path)
    return path, names


def _predict_queries(model_path, inputs, out):
    """The query matrix `pcegp predict` reads from `inputs`."""
    seen = []
    real = cli_mod.predict_batch

    def recording(model, queries):
        seen.append(np.array(queries))
        return real(model, queries)

    cli_mod.predict_batch = recording
    try:
        cli_mod.main(["predict", "--set", f"model={model_path}",
                      "--set", f"inputs={inputs}", "--output", str(out)])
    finally:
        cli_mod.predict_batch = real
    return seen[0] if seen else np.empty((0, 0))


@settings(max_examples=60, deadline=None, database=None, derandomize=True)
@given(data=st.data())
def test_every_reader_of_a_table_returns_its_exact_floats(data):
    # drawn: the delimiter, the line ending, blank lines, the column order
    # and the target's position; cells are repr floats
    n_x = data.draw(st.integers(1, 3), label="n_x")
    n_rows = data.draw(st.integers(2, 8), label="n_rows")
    delim = data.draw(st.sampled_from([",", ";"]), label="delimiter")
    ending = data.draw(st.sampled_from(["\n", "\r\n"]), label="line ending")
    order = data.draw(st.permutations(range(n_x)), label="column order")
    target_at = data.draw(st.integers(0, n_x), label="target position")
    cells = np.array(data.draw(st.lists(
        st.floats(allow_nan=False, allow_infinity=False),
        min_size=n_rows * (n_x + 1), max_size=n_rows * (n_x + 1),
    ), label="cells")).reshape(n_rows, n_x + 1)  # inputs a0.., then y
    # a blank line: nothing, spaces, or empty cells
    blanks = data.draw(st.lists(
        st.sampled_from(["", "  ", "{}", " {} "]), min_size=n_rows, max_size=n_rows,
    ), label="blank lines")
    gaps = data.draw(st.lists(st.booleans(), min_size=n_rows, max_size=n_rows),
                     label="blank line before row")

    columns = list(order)
    columns.insert(target_at, n_x)  # the file's columns, as indices into cells
    names = [f"a{i}" for i in range(n_x)] + ["y"]

    def table(cols):
        lines = [delim.join(names[c] for c in cols)]
        for row, blank, gap in zip(cells, blanks, gaps):
            lines += [blank.format(delim * (len(cols) - 1))] if gap else []
            lines.append(delim.join(repr(float(row[c])) for c in cols))
        return ending.join(lines) + data.draw(st.sampled_from(["", ending]))

    with tempfile.TemporaryDirectory() as folder:
        folder = Path(folder)
        path = folder / "table.csv"
        path.write_bytes(table(columns).encode("utf-8"))
        (ds,) = load_csv(path, ["y"])
        inputs = [c for c in columns if c != n_x]
        assert ds.column_names == [names[c] for c in inputs]
        assert ds.inputs.tobytes() == cells[:, inputs].tobytes()
        assert ds.outputs.tobytes() == cells[:, n_x].tobytes()

        # predict reads the training columns in training order, with or
        # without the target column
        model_path, _ = _predict_model_file(folder, n_x)
        no_target = folder / "queries.csv"
        no_target.write_bytes(table(order).encode("utf-8"))
        expected = cells[:, :n_x].tobytes()
        assert _predict_queries(model_path, path, folder / "p1").tobytes() == expected
        assert _predict_queries(model_path, no_target, folder / "p2").tobytes() == expected


# ---------------------------------------------------------------------------
# scalers
# ---------------------------------------------------------------------------

def test_min_max_midpoint():
    st = fit_scaler("min_max_per_column", np.array([2.0, 4.0]))
    assert st.loc[0] == 2.0 and st.scale[0] == 2.0
    assert apply_scaler(st, np.array([3.0]))[0] == 0.5


def test_min_max_unit_interval_identity():
    st = fit_scaler("min_max_per_column", np.array([0.0, 1.0]))
    x = np.array([0.3])
    assert apply_scaler(st, x)[0] == pytest.approx(0.3, abs=1e-15)


def test_min_max_extrapolates():
    st = fit_scaler("min_max_per_column", np.array([0.0, 10.0]))
    assert apply_scaler(st, np.array([5.0]))[0] == pytest.approx(0.5)
    assert apply_scaler(st, np.array([12.0]))[0] == pytest.approx(1.2)


def test_min_max_full_matrix_hits_bounds():
    rng = np.random.default_rng(0)
    a = rng.normal(size=(40, 3)) * [1.0, 10.0, 0.1] + [5.0, -2.0, 0.0]
    st = fit_scaler("min_max_per_column", a)
    s = apply_scaler(st, a)
    np.testing.assert_allclose(s.min(axis=0), 0.0, atol=1e-15)
    np.testing.assert_allclose(s.max(axis=0), 1.0, rtol=1e-15)


def test_z_normalize_hand_values():
    st = fit_scaler("z_normalize", np.array([10.0, 20.0, 30.0]))
    assert st.loc[0] == pytest.approx(20.0)
    assert st.scale[0] == pytest.approx(np.sqrt(200.0 / 3.0))
    s = apply_scaler(st, np.array([[10.0], [20.0], [30.0]]))
    np.testing.assert_allclose(s.ravel(), [-1.224744871, 0.0, 1.224744871], atol=1e-8)


def test_constant_column_is_an_error():
    a = np.column_stack([np.arange(5.0), np.full(5, 7.0)])
    with pytest.raises(ValueError, match="column 1"):
        fit_scaler("min_max_per_column", a)
    with pytest.raises(ValueError, match="column 1"):
        fit_scaler("z_normalize", a)


def test_scaler_round_trip():
    rng = np.random.default_rng(3)
    a = rng.normal(size=(25, 4)) * 3.0 + 1.0
    for kind in ("min_max_per_column", "z_normalize"):
        st = fit_scaler(kind, a)
        back = apply_scaler(st, a) * st.scale + st.loc
        np.testing.assert_allclose(back, a, atol=1e-12)


def test_scaler_dimension_mismatch():
    st = fit_scaler("z_normalize", np.random.default_rng(1).normal(size=(10, 3)))
    with pytest.raises(ValueError, match="columns"):
        apply_scaler(st, np.zeros(4))


# ---------------------------------------------------------------------------
# fold plans
# ---------------------------------------------------------------------------

def test_folds_singleton_case():
    plan = make_folds(10, 10, seed=0)
    sizes = np.bincount(plan.assignments, minlength=10)
    assert np.all(sizes == 1)


def test_folds_506_by_10():
    plan = make_folds(506, 10, seed=42)
    sizes = sorted(np.bincount(plan.assignments, minlength=10), reverse=True)
    assert sizes == [51] * 6 + [50] * 4


def test_folds_deterministic_and_seed_sensitive():
    a = make_folds(100, 5, seed=7).assignments
    b = make_folds(100, 5, seed=7).assignments
    c = make_folds(100, 5, seed=8).assignments
    np.testing.assert_array_equal(a, b)
    assert not np.array_equal(a, c)


@settings(max_examples=100, deadline=None, database=None, derandomize=True)
@given(data=st.data())
def test_folds_partition_properties(data):
    n = data.draw(st.integers(2, 200), label="n")
    k = data.draw(st.integers(2, n), label="k")
    plan = make_folds(n, k, seed=data.draw(st.integers(0, 2**32 - 1), label="seed"))
    tests = [plan.test_indices(f) for f in range(k)]
    # every row in exactly one test fold, and each training set its complement
    assert np.array_equal(np.sort(np.concatenate(tests)), np.arange(n))
    for f, test in enumerate(tests):
        assert test.size in (n // k, -(-n // k))
        assert np.array_equal(
            np.sort(np.concatenate([plan.train_indices(f), test])), np.arange(n)
        )


def test_folds_range_validation():
    with pytest.raises(ValueError):
        make_folds(10, 1, seed=0)
    with pytest.raises(ValueError):
        make_folds(10, 11, seed=0)


def test_fold_plan_invariant_checks():
    FoldPlan(2, np.array([0, 0, 1, 1, 0]))  # spread 1 is allowed
    with pytest.raises(ValueError):
        FoldPlan(2, np.array([0, 0, 0, 1]))  # sizes 3 and 1, spread 2
    with pytest.raises(ValueError):
        FoldPlan(2, np.array([0, 2, 1, 1]))  # index out of range
