"""The compiled kernels pcegp calls directly, against scipy's public wrappers.

scipy's `cho_solve`, `solve_triangular`, `cdist`, `pdist` and `squareform`
stay the references: the direct calls must give their bits and raise their
errors.
"""

import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
import scipy
from scipy.linalg import cho_solve, solve_triangular
from scipy.spatial.distance import cdist, pdist, squareform

import pcegp._native as native
from pcegp.data import fit_scaler
from pcegp.gp import fit_precompute, predict_batch
from pcegp.hyper import LengthscaleField, NoiseField
from pcegp.kernels import KernelForm, KernelStack, ladder_cholesky
from pcegp.poly import Basis

from oracles import training_covariance


def random_field(rng, n_inputs):
    return LengthscaleField(Basis.legendre01(), rng.normal(size=4), n_inputs)


def factor(n, seed):
    """The lower factor of a Gram, in a C-order buffer as the likelihood keeps it,
    with K in its strict upper triangle."""
    rng = np.random.default_rng(seed)
    stack = KernelStack(((KernelForm.matern32(), 1.3, random_field(rng, 3)),))
    k = training_covariance(stack, NoiseField.fixed(1e-3), rng.uniform(size=(n, 3)))
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


@pytest.mark.parametrize("n", [1, 2, 64, 300])
def test_pdist_and_the_condensed_copies_give_the_bits_of_scipy(n):
    # rows drawn from a pool of about half as many repeat, so some
    # distances are exactly zero
    rng = np.random.default_rng(n)
    x = rng.uniform(size=(n, 5))[rng.integers(0, max(1, n // 2), size=n)]
    want = pdist(x, "sqeuclidean")
    assert native.pdist_sqeuclidean(x).tobytes() == want.tobytes()
    out = np.empty_like(want)
    assert native.pdist_sqeuclidean(x, out=out) is out
    assert out.tobytes() == want.tobytes()

    # unpacked into a buffer whose diagonal is left as it was
    square = np.full((n, n), 7.0)
    assert native.unpack_condensed(want, square) is square
    expected = squareform(want)
    np.fill_diagonal(expected, 7.0)
    assert square.tobytes() == expected.tobytes()

    # gathered from a symmetric matrix with a diagonal of its own
    symmetric = squareform(rng.normal(size=want.size)) + np.diag(rng.normal(size=n))
    pairs = np.empty_like(want)
    assert native.gather_condensed(symmetric, pairs) is pairs
    assert pairs.tobytes() == squareform(symmetric, checks=False).tobytes()


def test_the_condensed_copies_check_their_shapes():
    # the compiled loops trust the sizes they are given
    for square, condensed in (
        (np.empty((4, 4)), np.empty(5)),
        (np.empty((4, 3)), np.empty(6)),
        (np.empty((4, 4)), np.empty(12)[::2]),
        (np.empty((8, 4))[::2], np.empty(6)),
        (np.empty((4, 4), dtype=np.float32), np.empty(6)),
    ):
        with pytest.raises(ValueError):
            native.unpack_condensed(condensed, square)
        with pytest.raises(ValueError):
            native.gather_condensed(square, condensed)


def test_importing_pcegp_leaves_scipy_spatial_unregistered():
    # the distance modules are loaded from their files, not as submodules
    code = (
        "import sys, pcegp.cli, pcegp.kernels\n"
        "found = [m for m in sys.modules if m.split('.')[:2] == ['scipy', 'spatial']]\n"
        "sys.exit(f'registered: {found}' if found else 0)\n"
    )
    # the package from this checkout, with or without PYTHONPATH set
    env = dict(os.environ)
    paths = [str(Path(__file__).resolve().parent.parent / "src")]
    if env.get("PYTHONPATH"):
        paths.append(env["PYTHONPATH"])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr


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
