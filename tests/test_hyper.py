"""Tests for the expansion-driven lengthscale and noise fields."""

import numpy as np
import pytest

import pcegp.hyper as hyper_mod
from pcegp.hyper import (
    LengthscaleField,
    NoiseField,
    PointBasis,
    eval_lengthscale_batch,
    eval_noise_batch,
)
from pcegp.poly import Basis, eval_basis


def const_field(c, n_inputs=2, extra_zeros=2):
    coeffs = [c] + [0.0] * extra_zeros
    return LengthscaleField(Basis.legendre01(), coeffs, n_inputs=n_inputs)


def at_point(field, point):
    """Lengthscale vector at one point, through the batch evaluator."""
    pts = np.asarray(point, dtype=float)[None, :]
    return eval_lengthscale_batch(field, pts)[:, 0]


def expansion_at(field, value):
    """A field's expansion at one scalar, straight from the basis values."""
    c = field.coefficients
    return float(c @ eval_basis(field.basis, c.size - 1, [value])[:, 0])


# ---------------------------------------------------------------------------
# lengthscale evaluation
# ---------------------------------------------------------------------------

def test_constant_field_returns_constant_vector():
    f = const_field(1.7, n_inputs=3)
    np.testing.assert_allclose(
        at_point(f, [0.1, 0.5, 0.99]), [1.7, 1.7, 1.7], atol=1e-15
    )


def test_linear_shifted_legendre_per_coordinate():
    f = LengthscaleField(Basis.legendre01(), [0.0, 1.0], n_inputs=2)
    got = at_point(f, [0.25, 0.75])
    np.testing.assert_allclose(got, [-0.5, 0.5], atol=1e-14)


def test_lengthscale_linear_in_coefficients():
    rng = np.random.default_rng(5)
    kind = Basis.legendre01()
    c1, c2 = rng.normal(size=4), rng.normal(size=4)
    x = rng.uniform(size=3)
    f1 = LengthscaleField(kind, c1, 3)
    f2 = LengthscaleField(kind, c2, 3)
    f12 = LengthscaleField(kind, 2.0 * c1 - 0.5 * c2, 3)
    lhs = at_point(f12, x)
    rhs = 2.0 * at_point(f1, x) - 0.5 * at_point(f2, x)
    np.testing.assert_allclose(lhs, rhs, atol=1e-12)


def test_point_basis_evaluates_its_one_family_once_at_the_highest_degree(
    monkeypatch,
):
    # the fields of one model share one PointBasis: their family is
    # evaluated once, at the highest degree any of them needs, and every
    # field reads the same bits as from a PointBasis of its own
    rng = np.random.default_rng(6)
    jacobi = Basis.jacobi(1.0, 0.5)
    fields = (
        LengthscaleField(jacobi, rng.normal(size=3), 2),
        LengthscaleField(jacobi, rng.normal(size=5), 2),
        LengthscaleField(jacobi, rng.normal(size=2), 2),
    )
    noise = NoiseField.pce(jacobi, np.r_[-3.0, 0.1 * rng.normal(size=2)])
    pts = rng.uniform(size=(6, 2))
    alone = [eval_lengthscale_batch(f, pts) for f in fields]
    alone_noise = eval_noise_batch(noise, pts)

    calls = []

    def counted(kind, max_degree, points):
        calls.append((kind.family, max_degree))
        return eval_basis(kind, max_degree, points)

    monkeypatch.setattr(hyper_mod, "eval_basis", counted)
    shared = PointBasis(pts, fields + (noise,))
    for f, want in zip(fields, alone):
        assert eval_lengthscale_batch(f, shared).tobytes() == want.tobytes()
    assert eval_noise_batch(noise, shared).tobytes() == alone_noise.tobytes()
    # a fixed noise reads no basis values
    assert np.array_equal(eval_noise_batch(NoiseField.fixed(1e-3), shared), [1e-3] * 6)
    assert calls == [("jacobi", 4)]

    # nothing else is evaluated: another family, or a degree above the
    # highest, is refused
    with pytest.raises(ValueError, match="legendre_shifted_01 to degree 1 was not"):
        shared.values(Basis.legendre01(), 1)
    with pytest.raises(ValueError, match=r"jacobi\(1,0.5\) to degree 5 was not"):
        shared.values(jacobi, 5)
    assert calls == [("jacobi", 4)]


@pytest.mark.parametrize("with_field", [True, False], ids=["field", "alone"])
def test_point_basis_refuses_a_fixed_noise(with_field):
    # a fixed noise has no family and no coefficients to size a degree by
    field = LengthscaleField(Basis.legendre01(), [0.5, 0.1], 2)
    fields = ((field,) if with_field else ()) + (NoiseField.fixed(0.1),)
    with pytest.raises(ValueError, match="a fixed noise reads no basis values"):
        PointBasis(np.zeros((3, 2)), fields)


def test_a_field_needs_a_basis_and_finite_coefficients():
    with pytest.raises(TypeError, match="Basis"):
        LengthscaleField("legendre_shifted_01", [1.0], 2)
    with pytest.raises(ValueError, match="at least one"):
        LengthscaleField(Basis.legendre01(), [], 2)
    with pytest.raises(ValueError, match="finite"):
        NoiseField.pce(Basis.legendre01(), [0.0, np.nan])


def test_zero_coefficients_give_zero_vector():
    f = const_field(0.0, n_inputs=4)
    np.testing.assert_array_equal(at_point(f, [0.1, 0.2, 0.3, 0.4]), 0.0)


def test_dimension_mismatch_rejected():
    f = const_field(1.0, n_inputs=3)
    with pytest.raises(ValueError):
        at_point(f, [0.1, 0.2])


# ---------------------------------------------------------------------------
# batch evaluation
# ---------------------------------------------------------------------------

def test_batch_matches_single_loop():
    rng = np.random.default_rng(9)
    f = LengthscaleField(Basis.jacobi(0.5, 0.5), rng.normal(size=5), n_inputs=4)
    pts = rng.uniform(size=(11, 4))
    batch = eval_lengthscale_batch(f, pts)
    assert batch.shape == (4, 11)
    for i in range(11):
        for d in range(4):
            expected = expansion_at(f, pts[i, d])
            assert batch[d, i] == pytest.approx(expected, abs=1e-13)


def test_batch_single_row_matches():
    f = const_field(2.5, n_inputs=2)
    pts = np.array([[0.2, 0.9]])
    np.testing.assert_allclose(eval_lengthscale_batch(f, pts), [[2.5], [2.5]])


# ---------------------------------------------------------------------------
# noise field
# ---------------------------------------------------------------------------

def test_fixed_noise():
    f = NoiseField.fixed(1e-4)
    assert eval_noise_batch(f, np.array([[0.2, 0.8]]))[0] == 1e-4
    np.testing.assert_array_equal(
        eval_noise_batch(f, np.zeros((5, 2))), np.full(5, 1e-4)
    )


def test_fixed_noise_must_be_positive():
    with pytest.raises(ValueError):
        NoiseField.fixed(0.0)
    with pytest.raises(ValueError):
        NoiseField.fixed(-1e-3)
    for value in (np.nan, np.inf):
        with pytest.raises(ValueError, match="finite"):
            NoiseField.fixed(value)


def test_pce_noise_constant_recovery():
    # the constant term is the log variance: phi_0 = 1 in every family
    f = NoiseField.pce(Basis.legendre01(), [np.log(0.7), 0.0, 0.0])
    assert eval_noise_batch(f, np.array([[0.1, 0.9, 0.4]]))[0] == pytest.approx(0.7)


def test_pce_noise_averages_over_coordinates():
    # linear term: the log variance is the mean of P~_1 over coords = mean(2x-1)
    f = NoiseField.pce(Basis.legendre01(), [0.0, 1.0])
    got = eval_noise_batch(f, np.array([[0.6, 1.0]]))[0]  # mean of (0.2, 1.0)
    assert got == pytest.approx(np.exp(0.6), rel=1e-14)


def test_noise_batch_matches_single():
    rng = np.random.default_rng(12)
    # a log variance near -30: every variance is tiny, and positive
    coeffs = np.r_[-30.0, rng.normal(size=3)]
    f = NoiseField.pce(Basis.legendre01(), coeffs)
    pts = rng.uniform(size=(9, 3))
    batch = eval_noise_batch(f, pts)
    singles = [np.exp(np.mean([expansion_at(f, v) for v in p])) for p in pts]
    np.testing.assert_allclose(batch, singles, rtol=1e-13)
    assert np.all(batch > 0.0)


# ---------------------------------------------------------------------------
# sensitivities
# ---------------------------------------------------------------------------

def test_lengthscale_sensitivity_matches_finite_difference():
    # the lengthscales are linear in the coefficients, so the derivative of
    # l_d(x_i) by coefficient m is the basis value the gradient reads from
    # the points' PointBasis, at column i * n_x + d
    rng = np.random.default_rng(15)
    coeffs = rng.normal(size=4)
    f = LengthscaleField(Basis.legendre01(), coeffs, 2)
    pts = rng.uniform(size=(5, 2))
    values = PointBasis(pts, (f,)).values(Basis.legendre01(), 3)
    h = 1e-6
    for m in range(coeffs.size):
        bumped = coeffs.copy()
        bumped[m] += h
        g = LengthscaleField(Basis.legendre01(), bumped, 2)
        fd = (eval_lengthscale_batch(g, pts) - eval_lengthscale_batch(f, pts)) / h
        np.testing.assert_allclose(fd, values[m].reshape(5, 2).T, atol=1e-8)


def test_noise_sensitivity_matches_finite_difference():
    # the log noise is linear in its coefficients: the derivative of the
    # variance by coefficient m is the variance times the basis value
    # averaged over each point's coordinates, at any sign of the expansion
    rng = np.random.default_rng(16)
    coeffs = np.r_[-4.0, rng.normal(size=2)]
    f = NoiseField.pce(Basis.legendre01(), coeffs)
    pts = rng.uniform(size=(7, 2))
    values = PointBasis(pts, (f,)).values(Basis.legendre01(), 2)
    variances = eval_noise_batch(f, pts)
    h = 1e-6
    for m in range(3):
        bumped = coeffs.copy()
        bumped[m] += h
        g = NoiseField.pce(Basis.legendre01(), bumped)
        fd = (np.log(eval_noise_batch(g, pts)) - np.log(variances)) / h
        np.testing.assert_allclose(fd, values[m].reshape(7, 2).mean(axis=1), atol=1e-8)
        fd = (eval_noise_batch(g, pts) - variances) / h
        want = variances * values[m].reshape(7, 2).mean(axis=1)
        np.testing.assert_allclose(fd, want, rtol=1e-5, atol=1e-12)
