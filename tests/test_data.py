"""Tests for CSV ingestion, scalers, and fold plans."""

import numpy as np
import pytest

from pcegp.data import (
    Dataset,
    FoldPlan,
    apply_scaler,
    fit_scaler,
    load_csv,
    make_folds,
)


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


def test_folds_partition_properties():
    rng = np.random.default_rng(11)
    for _ in range(20):
        n = int(rng.integers(5, 200))
        k = int(rng.integers(2, min(n, 12) + 1))
        plan = make_folds(n, k, seed=int(rng.integers(0, 1 << 30)))
        seen = np.concatenate([plan.test_indices(f) for f in range(k)])
        assert sorted(seen) == list(range(n))
        sizes = np.bincount(plan.assignments, minlength=k)
        assert sizes.max() - sizes.min() <= 1
        # train/test complement
        f = int(rng.integers(0, k))
        assert set(plan.train_indices(f)) | set(plan.test_indices(f)) == set(range(n))
        assert not set(plan.train_indices(f)) & set(plan.test_indices(f))


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
