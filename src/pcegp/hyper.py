"""Input-dependent hyperparameter fields built from chaos expansions.

A `LengthscaleField` maps a scaled input point to one lengthscale per
coordinate: the same expansion coefficients are applied to every
coordinate, and the per-coordinate variation comes from evaluating the
polynomials at that coordinate's value. A `NoiseField` is either a fixed
variance or an expansion of the log variance, averaged over coordinates:
sigma^2(x) = exp(mean_d sum_m c_m phi_m(x_d)), positive for any
coefficients (the log link of Goldberg, Williams & Bishop, NIPS 1997).

Each field is one expansion in one basis family: its coefficient j
multiplies the degree-j polynomial. An expansion to degree q spans the
polynomials of degree at most q in every family, so a sum over a second
family could add nothing that a higher degree cannot.

The lengthscales and the log noise are linear in their coefficients,
which the likelihood gradient exploits: the sensitivity of either to a
coefficient is just the matching polynomial value, which `gp.mll_gradient`
reads from the same `PointBasis` as the fields themselves.
`gp.free_parameters` is the one flattening of the fields' coefficients.

The polynomial values depend only on the points, so a `PointBasis` keeps
them with the points they were computed on: one `eval_basis`, at the
highest degree any of the given fields needs, serves every field evaluated
on that point set (a lower degree takes the leading rows, which the
recurrence makes the same bits). For the reason above, the fields of one
model, its stack's and its noise's, share one basis family: a
`PointBasis` over fields of two families is refused. A field still holds
its family, so that it can be evaluated on its own. Every evaluator here
takes either plain points, for which it makes a `PointBasis` that lives
for the call, or a `PointBasis` its caller made and keeps:
`optim.fine_tune` keeps one over the training split for all of its Adam
steps and its closing fit, and a prediction keeps one over its queries.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .poly import Basis, eval_basis


def _freeze_coefficients(field) -> None:
    """Check a field's basis; hold a finite, non-empty copy of its coefficients."""
    if not isinstance(field.basis, Basis):
        raise TypeError(f"expected Basis, got {type(field.basis).__name__}")
    c = np.array(field.coefficients, dtype=float).ravel()  # never the caller's
    if c.size == 0:
        raise ValueError("an expansion needs at least one coefficient")
    if not np.all(np.isfinite(c)):
        raise ValueError("coefficients must be finite")
    object.__setattr__(field, "coefficients", c)


@dataclass(frozen=True)
class LengthscaleField:
    """Per-coordinate lengthscale: one expansion in `basis`, whose coefficient
    j multiplies the degree-j polynomial, the same for every coordinate."""

    basis: Basis
    coefficients: np.ndarray
    n_inputs: int

    def __post_init__(self):
        _freeze_coefficients(self)
        if self.n_inputs < 1:
            raise ValueError("n_inputs must be >= 1")


@dataclass(frozen=True)
class NoiseField:
    """Noise variance: fixed positive value, or exp of an expansion."""

    mode: str
    value: float = 0.0
    basis: Basis | None = None
    coefficients: np.ndarray | None = None

    def __post_init__(self):
        if self.mode == "fixed":
            if not 0.0 < self.value < np.inf:
                raise ValueError(f"fixed noise must be finite and > 0: {self.value}")
        elif self.mode == "pce":
            _freeze_coefficients(self)
        else:
            raise ValueError(f"unknown noise mode {self.mode!r}")

    @classmethod
    def fixed(cls, value: float) -> "NoiseField":
        return cls(mode="fixed", value=value)

    @classmethod
    def pce(cls, basis: Basis, coefficients) -> "NoiseField":
        return cls(mode="pce", basis=basis, coefficients=coefficients)


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------

class PointBasis:
    """An N x n_x point set and the values of its fields' one basis family.

    `fields`, the lengthscale fields and noise expansions that will read
    the values, must share a family (a ValueError names both otherwise),
    which is evaluated once, here, at the highest degree any of them needs.
    A fixed noise reads no basis values and is refused with a ValueError.
    The points are a read-only copy, so the values always belong to them.
    """

    def __init__(self, points, fields):
        pts = np.array(points, dtype=float)
        if pts.ndim == 1:
            pts = pts[None, :]
        if pts.ndim != 2:
            raise ValueError(
                f"points must be an N x n_x matrix, got shape {pts.shape}"
            )
        if any(f.basis is None for f in fields):  # only a fixed noise has none
            raise ValueError("a fixed noise reads no basis values; leave it out")
        pts.setflags(write=False)
        self.points = pts
        kinds = {f.basis for f in fields}
        if len(kinds) != 1:
            labels = " and ".join(sorted(k.label() for k in kinds)) or "none"
            raise ValueError(f"the fields of a model share one family, got {labels}")
        (self._kind,) = kinds
        self._degree = max(f.coefficients.size for f in fields) - 1
        self._values = eval_basis(self._kind, self._degree, pts)
        self._values.setflags(write=False)

    def values(self, kind: Basis, max_degree: int) -> np.ndarray:
        """phi_0 .. phi_max_degree of `kind` at every coordinate, row-major.

        Shape (max_degree + 1, N * n_x); column i * n_x + d is point i's
        coordinate d: a read-only view of the stored values. Nothing else was
        evaluated: another family or a higher degree raises a ValueError.
        """
        if kind != self._kind or max_degree > self._degree:
            raise ValueError(f"{kind.label()} to degree {max_degree} was not evaluated")
        return self._values[: max_degree + 1]


def as_point_basis(points, fields) -> PointBasis:
    """`points` itself when it is a `PointBasis`, else a new one over them."""
    return points if isinstance(points, PointBasis) else PointBasis(points, fields)


def _expansion(field, basis: PointBasis) -> np.ndarray:
    """A field's expansion evaluated element-wise over the basis's points.

    The einsum, unlike a BLAS product, rounds every column alike, so two
    copies of one point warp to the same bits (zero distance, not 1e-35).
    It is added onto zeros, which turns a -0.0 into +0.0.
    """
    c = field.coefficients
    total = np.zeros(basis.points.size)
    total += np.einsum("m,mk->k", c, basis.values(field.basis, c.size - 1))
    return total.reshape(basis.points.shape)


def eval_lengthscale_batch(field: LengthscaleField, points) -> np.ndarray:
    """Lengthscales for N scaled points (or a `PointBasis`), n_inputs x N."""
    basis = as_point_basis(points, (field,))
    if basis.points.shape[1] != field.n_inputs:
        raise ValueError(
            f"points must have {field.n_inputs} coordinates, "
            f"got shape {basis.points.shape}"
        )
    return _expansion(field, basis).T


def eval_noise_batch(field: NoiseField, points) -> np.ndarray:
    """Noise variances for N scaled points (or a `PointBasis`), length N."""
    pts = points.points if isinstance(points, PointBasis) else points
    if np.ndim(pts) != 2:
        raise ValueError("noise fields are evaluated on an N x n_x matrix")
    if field.mode == "fixed":
        return np.full(len(pts), field.value)
    return np.exp(_expansion(field, as_point_basis(points, (field,))).mean(axis=1))
