"""Orthogonal polynomial bases for chaos expansions.

Five classical families are supported, each orthogonal with respect to a
probability density on its natural domain:

=====================  =======================================  ==============
family                 density                                  domain
=====================  =======================================  ==============
hermite_probabilists   standard normal N(0, 1)                  (-inf, inf)
legendre_standard      uniform, p(x) = 1/2                      [-1, 1]
legendre_shifted_01    uniform, p(x) = 1                        [0, 1]
jacobi                 Beta-type, (1-x)^a (1+x)^b / const       [-1, 1]
laguerre               exponential, p(x) = exp(-x)              [0, inf)
=====================  =======================================  ==============

All families are evaluated by their three-term recurrences in the standard
(unnormalized) convention with phi_0 = 1; expansion coefficients absorb any
normalization. `legendre_shifted_01` is the standard Legendre family under
the affine map x -> 2x - 1, which makes it orthogonal on [0, 1] and suited
to min-max scaled inputs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

FAMILIES = (
    "hermite_probabilists",
    "legendre_standard",
    "legendre_shifted_01",
    "jacobi",
    "laguerre",
)


@dataclass(frozen=True)
class Basis:
    """One orthogonal polynomial family, with shape parameters for Jacobi."""

    family: str
    alpha: float = 0.0
    beta: float = 0.0

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"unknown basis family {self.family!r}")
        # chained comparisons with infinity: NaN fails them
        if self.family == "jacobi" and not (
            -1.0 < self.alpha < np.inf and -1.0 < self.beta < np.inf
        ):
            raise ValueError(
                f"jacobi requires finite alpha > -1 and beta > -1, "
                f"got alpha={self.alpha}, beta={self.beta}"
            )

    @classmethod
    def hermite(cls) -> "Basis":
        return cls("hermite_probabilists")

    @classmethod
    def legendre(cls) -> "Basis":
        return cls("legendre_standard")

    @classmethod
    def legendre01(cls) -> "Basis":
        return cls("legendre_shifted_01")

    @classmethod
    def jacobi(cls, alpha: float = 0.0, beta: float = 0.0) -> "Basis":
        return cls("jacobi", alpha=alpha, beta=beta)

    @classmethod
    def laguerre(cls) -> "Basis":
        return cls("laguerre")

    def label(self) -> str:
        """The family's name; a Jacobi family's holds alpha and beta by `repr`."""
        if self.family == "jacobi":
            return f"jacobi({float(self.alpha)!r},{float(self.beta)!r})"
        return self.family


def eval_basis(kind: Basis, max_degree: int, points) -> np.ndarray:
    """Evaluate one family up to ``max_degree`` at the given points.

    Parameters
    ----------
    kind : Basis
        The polynomial family.
    max_degree : int
        Highest degree to evaluate (>= 0).
    points : array_like
        Evaluation points, any shape; flattened to a vector.

    Returns
    -------
    np.ndarray
        Shape ``(max_degree + 1, n_points)`` with ``[i, j] = phi_i(points[j])``;
        row 0 is identically one.
    """
    if max_degree < 0:
        raise ValueError(f"max_degree must be >= 0, got {max_degree}")
    x = np.asarray(points, dtype=float).ravel()
    if x.size and not np.all(np.isfinite(x)):
        raise ValueError("basis evaluation points must be finite")

    n = max_degree + 1
    out = np.empty((n, x.size))
    out[0] = 1.0
    if max_degree == 0:
        return out

    fam = kind.family
    if fam == "hermite_probabilists":
        # He_{k+1} = x He_k - k He_{k-1}
        out[1] = x
        for k in range(1, max_degree):
            out[k + 1] = x * out[k] - k * out[k - 1]
    elif fam in ("legendre_standard", "legendre_shifted_01"):
        t = 2.0 * x - 1.0 if fam == "legendre_shifted_01" else x
        # Bonnet: (k+1) P_{k+1} = (2k+1) t P_k - k P_{k-1}
        out[1] = t
        for k in range(1, max_degree):
            out[k + 1] = ((2 * k + 1) * t * out[k] - k * out[k - 1]) / (k + 1)
    elif fam == "laguerre":
        # (k+1) La_{k+1} = (2k+1-x) La_k - k La_{k-1}
        out[1] = 1.0 - x
        for k in range(1, max_degree):
            out[k + 1] = ((2 * k + 1 - x) * out[k] - k * out[k - 1]) / (k + 1)
    elif fam == "jacobi":
        a, b = kind.alpha, kind.beta
        out[1] = 0.5 * (a - b) + 0.5 * (a + b + 2.0) * x
        for k in range(1, max_degree):
            # recurrence in n = k + 1 for P_n^{(a,b)}
            m = k + 1
            c0 = 2.0 * m * (m + a + b) * (2.0 * m + a + b - 2.0)
            c1 = (2.0 * m + a + b - 1.0) * (a * a - b * b)
            c2 = (2.0 * m + a + b - 1.0) * (2.0 * m + a + b) * (2.0 * m + a + b - 2.0)
            c3 = 2.0 * (m + a - 1.0) * (m + b - 1.0) * (2.0 * m + a + b)
            out[m] = ((c1 + c2 * x) * out[k] - c3 * out[k - 1]) / c0
    else:  # pragma: no cover - guarded by Basis.__post_init__
        raise ValueError(f"unknown basis family {fam!r}")

    return out


def gauss_rule(kind: Basis, n_points: int):
    """Gauss nodes and weights matched to the family's probability density.

    The returned rule satisfies ``sum_k w_k f(x_k) ~= int f(x) p(x) dx`` with
    ``p`` the density the family is orthogonal to, exactly for polynomial
    ``f`` of degree <= 2 n_points - 1. `scipy.special` is imported here, not
    with the module: no fit, prediction or benchmark needs it.
    """
    from scipy import special

    if n_points < 1:
        raise ValueError("quadrature needs at least one point")
    fam = kind.family
    if fam == "hermite_probabilists":
        x, w = special.roots_hermitenorm(n_points)
        return x, w / np.sqrt(2.0 * np.pi)
    if fam == "legendre_standard":
        x, w = special.roots_legendre(n_points)
        return x, w / 2.0
    if fam == "legendre_shifted_01":
        x, w = special.roots_legendre(n_points)
        return (x + 1.0) / 2.0, w / 2.0
    if fam == "jacobi":
        a, b = kind.alpha, kind.beta
        x, w = special.roots_jacobi(n_points, a, b)
        norm = 2.0 ** (a + b + 1.0) * special.beta(a + 1.0, b + 1.0)
        return x, w / norm
    if fam == "laguerre":
        x, w = special.roots_laguerre(n_points)
        return x, w
    raise ValueError(f"no quadrature rule for family {fam!r}")


def orthogonality_defect(kind: Basis, i: int, j: int, quad_points: int) -> float:
    """Weighted inner product ``int phi_i phi_j p dx`` by Gauss quadrature.

    Near zero for ``i != j``; for ``i == j`` it returns the squared norm of
    phi_i under the family's density (1 for degree 0 in every family).
    """
    if i < 0 or j < 0:
        raise ValueError("degrees must be non-negative")
    needed = (i + j) // 2 + 1
    if quad_points < needed:
        raise ValueError(
            f"{quad_points} quadrature points cannot integrate degree {i + j} "
            f"exactly; need at least {needed}"
        )
    x, w = gauss_rule(kind, quad_points)
    values = eval_basis(kind, max(i, j), x)
    return float(np.sum(w * values[i] * values[j]))
