"""Oracle tests for the orthogonal polynomial bases.

Low-degree values are checked against hand-expanded closed forms, higher
degrees against scipy's independent evaluators, and orthogonality against
Gauss quadrature matched to each family's density.
"""

import math

import numpy as np
import pytest
from scipy import special

from pcegp.poly import Basis, eval_basis, orthogonality_defect

XS = np.array([-1.7, -0.4, 0.0, 0.31, 0.5, 1.0, 2.0, 3.25])
XS01 = np.array([0.0, 0.1, 0.25, 0.5, 0.77, 1.0])

ALL_FAMILIES = [
    Basis.hermite(),
    Basis.legendre(),
    Basis.legendre01(),
    Basis.jacobi(0.5, 1.5),
    Basis.laguerre(),
]


# ---------------------------------------------------------------------------
# closed-form oracles, first four polynomials of each family
# ---------------------------------------------------------------------------

def test_hermite_closed_forms():
    phi = eval_basis(Basis.hermite(), 3, XS)
    x = XS
    np.testing.assert_allclose(phi[0], np.ones_like(x), atol=1e-12)
    np.testing.assert_allclose(phi[1], x, atol=1e-12)
    np.testing.assert_allclose(phi[2], x**2 - 1.0, atol=1e-12)
    np.testing.assert_allclose(phi[3], x**3 - 3.0 * x, atol=1e-12)


def test_legendre_closed_forms():
    phi = eval_basis(Basis.legendre(), 3, XS)
    x = XS
    np.testing.assert_allclose(phi[1], x, atol=1e-12)
    np.testing.assert_allclose(phi[2], (3.0 * x**2 - 1.0) / 2.0, atol=1e-12)
    np.testing.assert_allclose(phi[3], (5.0 * x**3 - 3.0 * x) / 2.0, atol=1e-12)


def test_legendre_shifted_closed_forms():
    phi = eval_basis(Basis.legendre01(), 3, XS01)
    t = 2.0 * XS01 - 1.0
    np.testing.assert_allclose(phi[1], t, atol=1e-12)
    np.testing.assert_allclose(phi[2], 6.0 * XS01**2 - 6.0 * XS01 + 1.0, atol=1e-12)
    np.testing.assert_allclose(phi[3], (5.0 * t**3 - 3.0 * t) / 2.0, atol=1e-12)


def test_laguerre_closed_forms():
    x = np.array([0.0, 0.5, 1.0, 3.0, 7.2])
    phi = eval_basis(Basis.laguerre(), 3, x)
    np.testing.assert_allclose(phi[1], 1.0 - x, atol=1e-12)
    np.testing.assert_allclose(phi[2], (x**2 - 4.0 * x + 2.0) / 2.0, atol=1e-12)
    np.testing.assert_allclose(
        phi[3], (-(x**3) + 9.0 * x**2 - 18.0 * x + 6.0) / 6.0, atol=1e-12
    )


def test_jacobi_degree_one_closed_form():
    a, b = 1.25, -0.5
    phi = eval_basis(Basis.jacobi(a, b), 1, XS)
    np.testing.assert_allclose(
        phi[1], 0.5 * (a - b) + 0.5 * (a + b + 2.0) * XS, atol=1e-12
    )


def test_jacobi_zero_zero_is_legendre():
    phi_j = eval_basis(Basis.jacobi(0.0, 0.0), 8, XS)
    phi_l = eval_basis(Basis.legendre(), 8, XS)
    np.testing.assert_allclose(phi_j, phi_l, atol=1e-12)


# ---------------------------------------------------------------------------
# frozen point values
# ---------------------------------------------------------------------------

def test_degree_zero_is_one_everywhere():
    for kind in ALL_FAMILIES:
        phi = eval_basis(kind, 0, [0.7])
        assert phi[0, 0] == 1.0


def test_hermite_2_at_2():
    phi = eval_basis(Basis.hermite(), 2, [2.0])
    assert abs(phi[2, 0] - 3.0) < 1e-12


def test_shifted_legendre_2_at_half():
    phi = eval_basis(Basis.legendre01(), 2, [0.5])
    assert abs(phi[2, 0] - (-0.5)) < 1e-12


def test_laguerre_1_at_3():
    phi = eval_basis(Basis.laguerre(), 1, [3.0])
    assert abs(phi[1, 0] - (-2.0)) < 1e-12


# ---------------------------------------------------------------------------
# cross-check against scipy's own evaluators up to degree 10
# ---------------------------------------------------------------------------

def test_recurrences_match_scipy():
    deg = 10
    n = np.arange(deg + 1)[:, None]
    cases = [
        (Basis.hermite(), special.eval_hermitenorm(n, XS[None, :])),
        (Basis.legendre(), special.eval_legendre(n, XS[None, :])),
        (Basis.legendre01(), special.eval_legendre(n, 2.0 * XS01[None, :] - 1.0)),
        (Basis.jacobi(0.5, 1.5), special.eval_jacobi(n, 0.5, 1.5, XS[None, :])),
        (Basis.jacobi(1.0, 2.0), special.eval_jacobi(n, 1.0, 2.0, XS[None, :])),
        (Basis.laguerre(), special.eval_laguerre(n, XS[None, :])),
    ]
    for kind, expected in cases:
        pts = XS01 if kind.family == "legendre_shifted_01" else XS
        got = eval_basis(kind, deg, pts)
        np.testing.assert_allclose(got, expected, rtol=1e-10, atol=1e-10,
                                   err_msg=kind.label())


def test_values_shape_and_row0():
    for kind in ALL_FAMILIES:
        phi = eval_basis(kind, 5, np.linspace(0.05, 0.95, 7))
        assert phi.shape == (6, 7)
        np.testing.assert_array_equal(phi[0], np.ones(7))
        assert np.all(np.isfinite(phi))


# ---------------------------------------------------------------------------
# orthogonality under each family's density
# ---------------------------------------------------------------------------

def test_off_diagonal_defects_vanish():
    for kind in ALL_FAMILIES:
        for i in range(9):
            for j in range(9):
                if i == j:
                    continue
                d = orthogonality_defect(kind, i, j, 20)
                assert abs(d) <= 1e-10, (kind.label(), i, j, d)


def test_diagonal_norms():
    # legendre_shifted_01: int_0^1 P~_n^2 dx = 1/(2n+1)
    for n in range(6):
        d = orthogonality_defect(Basis.legendre01(), n, n, 20)
        assert abs(d - 1.0 / (2 * n + 1)) < 1e-10
    # hermite probabilists': E[He_n^2] = n!
    for n in range(6):
        d = orthogonality_defect(Basis.hermite(), n, n, 20)
        assert abs(d - math.factorial(n)) < 1e-8 * math.factorial(n)
    # laguerre is orthonormal under exp(-x)
    for n in range(6):
        d = orthogonality_defect(Basis.laguerre(), n, n, 20)
        assert abs(d - 1.0) < 1e-10


def test_defect_known_values():
    assert abs(orthogonality_defect(Basis.legendre01(), 0, 0, 4) - 1.0) < 1e-12
    assert abs(orthogonality_defect(Basis.hermite(), 1, 1, 8) - 1.0) < 1e-10
    for kind in ALL_FAMILIES:
        assert abs(orthogonality_defect(kind, 1, 2, 12)) < 1e-10


def test_defect_rejects_coarse_rule():
    # degree 8 product needs at least 5 Gauss points
    with pytest.raises(ValueError):
        orthogonality_defect(Basis.legendre(), 4, 4, 4)


# ---------------------------------------------------------------------------
# validation errors
# ---------------------------------------------------------------------------

def test_jacobi_parameter_validation():
    with pytest.raises(ValueError):
        Basis.jacobi(-1.0, 0.0)
    with pytest.raises(ValueError):
        Basis.jacobi(0.0, -1.5)
    Basis.jacobi(-0.99, -0.99)  # boundary-adjacent values are fine


def test_unknown_family_rejected():
    with pytest.raises(ValueError):
        Basis("chebyshev")


def test_eval_rejects_bad_inputs():
    with pytest.raises(ValueError):
        eval_basis(Basis.hermite(), -1, [0.0])
    with pytest.raises(ValueError):
        eval_basis(Basis.hermite(), 2, [0.0, np.nan])
