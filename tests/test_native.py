"""The compiled kernels pcegp calls directly, against scipy's public wrappers.

scipy's `cho_solve`, `solve_triangular` and `cdist` stay the references:
the direct calls must give their bits and raise their errors.
"""

from dataclasses import replace

import numpy as np
import pytest
import scipy
from scipy.linalg import cho_solve, solve_triangular
from scipy.spatial.distance import cdist

import pcegp._native as native
from pcegp.data import fit_scaler
from pcegp.gp import fit_precompute, predict_batch
from pcegp.hyper import LengthscaleField, NoiseField
from pcegp.kernels import KernelForm, KernelStack, ladder_cholesky, noisy_gram
from pcegp.poly import Basis


def random_field(rng, n_inputs):
    return LengthscaleField(((Basis.legendre01(), rng.normal(size=4)),), n_inputs)


def factor(n, seed):
    """The lower factor of a Gram, in a C-order buffer as the likelihood keeps it,
    with K in its strict upper triangle."""
    rng = np.random.default_rng(seed)
    stack = KernelStack(((KernelForm.matern32(), 1.3, random_field(rng, 3)),))
    k = noisy_gram(stack, NoiseField.fixed(1e-3), rng.uniform(size=(n, 3)))[1]
    return ladder_cholesky(k, "test").chol, rng


@pytest.mark.parametrize("n", [1, 7, 300])
def test_dpotrs_gives_the_bits_of_cho_solve(n):
    chol, rng = factor(n, n)
    y = rng.normal(size=n)
    before = y.copy()
    got = native.dpotrs(chol.T, y, lower=0)
    assert got.tobytes() == cho_solve((chol.T, False), y, check_finite=False).tobytes()
    assert y.tobytes() == before.tobytes()


@pytest.mark.parametrize("n_rhs", [1, 256])
def test_dtrtrs_gives_the_bits_of_solve_triangular(n_rhs):
    chol, rng = factor(300, n_rhs)
    b = rng.normal(size=(300, n_rhs))  # C-order, as the cross covariances are
    before = b.copy()
    got = native.dtrtrs(chol.T, b, lower=0, trans=1)
    want = solve_triangular(chol.T, b, lower=False, trans="T", check_finite=False)
    assert got.tobytes() == want.tobytes()
    assert b.tobytes() == before.tobytes()


@pytest.mark.parametrize("shape_a, shape_b", [((1, 1), (1, 1)), ((64, 8), (687, 8)),
                                              ((300, 13), (256, 13))])
def test_the_distance_kernel_gives_the_bits_of_cdist(shape_a, shape_b):
    rng = np.random.default_rng(shape_a[0])
    a, b = rng.uniform(size=shape_a), rng.uniform(size=shape_b)
    want = cdist(a, b, "sqeuclidean", out=np.empty((a.shape[0], b.shape[0])))
    assert native.cdist_sqeuclidean(a, b).tobytes() == want.tobytes()
    out = np.empty_like(want)
    assert native.cdist_sqeuclidean(a, b, out=out) is out
    assert out.tobytes() == want.tobytes()


def test_the_distance_kernel_rejects_bad_shapes():
    a = np.ones((3, 2))
    with pytest.raises(ValueError, match="same number of columns"):
        native.cdist_sqeuclidean(a, np.ones((4, 3)))
    with pytest.raises(ValueError, match="incorrect shape"):
        native.cdist_sqeuclidean(a, a, out=np.empty((3, 4)))


def test_the_solves_raise_the_errors_of_the_wrappers():
    singular = np.asfortranarray(np.diag([1.0, 0.0, 2.0]))
    with pytest.raises(np.linalg.LinAlgError, match="diagonal 1"):
        native.dtrtrs(singular, np.ones((3, 2)), lower=0, trans=1)
    with pytest.raises(ValueError, match="illegal value in 9-th argument"):
        native.dtrtrs(np.asfortranarray(np.eye(3)), np.ones((2, 2)))


def test_a_zero_on_the_factor_diagonal_makes_prediction_raise():
    rng = np.random.default_rng(5)
    x, y = rng.uniform(size=(12, 2)), rng.normal(size=12)
    stack = KernelStack(((KernelForm.se(), 1.0, random_field(rng, 2)),))
    model = fit_precompute(stack, NoiseField.fixed(1e-4), fit_scaler("min_max_per_column", x),
                           fit_scaler("z_normalize", y), x, y)
    chol = model.chol.copy()
    chol[4, 4] = 0.0
    with pytest.raises(np.linalg.LinAlgError):
        predict_batch(replace(model, chol=chol), x[:3])


def test_a_missing_compiled_module_is_named(monkeypatch, tmp_path):
    (tmp_path / "linalg").mkdir()
    monkeypatch.setattr(scipy, "__file__", str(tmp_path / "__init__.py"))
    with pytest.raises(ImportError, match="_flapack was not found"):
        native._load_extension("linalg", "_flapack")
