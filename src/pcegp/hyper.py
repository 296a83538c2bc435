"""Input-dependent hyperparameter fields built from chaos expansions.

A `LengthscaleField` maps a scaled input point to one lengthscale per
coordinate: the same expansion coefficients are applied to every
coordinate, and the per-coordinate variation comes from evaluating the
polynomials at that coordinate's value. A `NoiseField` is either a fixed
variance or an expansion of the log variance, averaged over coordinates:
sigma^2(x) = exp(mean_d sum_m c_m phi_m(x_d)), positive for any
coefficients (the log link of Goldberg, Williams & Bishop, NIPS 1997).

The lengthscales and the log noise are linear in their coefficients,
which the likelihood gradient exploits: the sensitivity of either to a
coefficient is just the matching polynomial value, which `gp.mll_gradient`
reads from the same `PointBasis` as the fields themselves. The fields hold
their coefficients as (basis, vector) terms; `gp.free_parameters` is their
one flattening.

The polynomial values depend only on the points, so a `PointBasis` keeps
them with the points they were computed on: one `eval_basis` per basis
family, at the highest degree any of the given fields needs, serves every
field evaluated on that point set (a lower degree takes the leading rows,
which the recurrence makes the same bits). Every evaluator here takes
either plain points, for which it makes a `PointBasis` that lives for the
call, or a `PointBasis` its caller made and keeps: `optim.fine_tune` keeps
one over the training split for all of its Adam steps and its closing
fit, and a prediction keeps one over its queries.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .poly import Basis, eval_basis


def _freeze_terms(terms):
    frozen = []
    for kind, coeffs in terms:
        c = np.array(coeffs, dtype=float).ravel()  # copy: never alias the caller
        if c.size == 0:
            raise ValueError("each term needs at least one coefficient")
        if not np.all(np.isfinite(c)):
            raise ValueError("coefficients must be finite")
        if not isinstance(kind, Basis):
            raise TypeError(f"expected Basis, got {type(kind).__name__}")
        frozen.append((kind, c))
    if not frozen:
        raise ValueError("at least one (basis, coefficients) term is required")
    return tuple(frozen)


@dataclass(frozen=True)
class LengthscaleField:
    """Per-coordinate lengthscale from shared expansion coefficients."""

    terms: tuple
    n_inputs: int

    def __post_init__(self):
        object.__setattr__(self, "terms", _freeze_terms(self.terms))
        if self.n_inputs < 1:
            raise ValueError("n_inputs must be >= 1")


@dataclass(frozen=True)
class NoiseField:
    """Noise variance: fixed positive value, or exp of an expansion."""

    mode: str
    value: float = 0.0
    terms: tuple = ()

    def __post_init__(self):
        if self.mode == "fixed":
            if self.value <= 0.0:
                raise ValueError(f"fixed noise must be positive, got {self.value}")
        elif self.mode == "pce":
            object.__setattr__(self, "terms", _freeze_terms(self.terms))
        else:
            raise ValueError(f"unknown noise mode {self.mode!r}")

    @classmethod
    def fixed(cls, value: float) -> "NoiseField":
        return cls(mode="fixed", value=value)

    @classmethod
    def pce(cls, terms) -> "NoiseField":
        return cls(mode="pce", terms=tuple(terms))


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------

class PointBasis:
    """An N x n_x point set and its chaos-basis values, one evaluation per family.

    `fields` (lengthscale or noise fields) name the families and degrees
    that will be asked for, so that each family is evaluated once, on first
    use, at the highest of those degrees. The points are a read-only copy,
    so the values always belong to them.
    """

    def __init__(self, points, fields=()):
        pts = np.array(points, dtype=float)
        if pts.ndim == 1:
            pts = pts[None, :]
        if pts.ndim != 2:
            raise ValueError(
                f"points must be an N x n_x matrix, got shape {pts.shape}"
            )
        pts.setflags(write=False)
        self.points = pts
        self._degrees = {}
        for f in fields:
            for kind, c in f.terms:
                self._degrees[kind] = max(self._degrees.get(kind, 0), c.size - 1)
        self._values = {}

    def values(self, kind: Basis, max_degree: int) -> np.ndarray:
        """phi_0 .. phi_max_degree of `kind` at every coordinate, row-major.

        Shape (max_degree + 1, N * n_x); column i * n_x + d is point i's
        coordinate d: a read-only view of the stored values.
        """
        have = self._values.get(kind)
        if have is None or have.shape[0] <= max_degree:
            degree = max(max_degree, self._degrees.get(kind, 0))
            have = self._values[kind] = eval_basis(kind, degree, self.points)
            have.setflags(write=False)
        return have[: max_degree + 1]


def as_point_basis(points, fields=()) -> PointBasis:
    """`points` itself when it is a `PointBasis`, else a new one over them."""
    return points if isinstance(points, PointBasis) else PointBasis(points, fields)


def _terms_eval(terms, basis: PointBasis) -> np.ndarray:
    """Sum of all expansions evaluated element-wise over the basis's points.

    The einsum, unlike a BLAS product, rounds every column alike, so two
    copies of one point warp to the same bits (zero distance, not 1e-35).
    """
    total = np.zeros(basis.points.size)
    for kind, coeffs in terms:
        total += np.einsum("m,mk->k", coeffs, basis.values(kind, coeffs.size - 1))
    return total.reshape(basis.points.shape)


def eval_lengthscale_batch(field: LengthscaleField, points) -> np.ndarray:
    """Lengthscales for N scaled points (or a `PointBasis`), n_inputs x N."""
    basis = as_point_basis(points, (field,))
    if basis.points.shape[1] != field.n_inputs:
        raise ValueError(
            f"points must have {field.n_inputs} coordinates, "
            f"got shape {basis.points.shape}"
        )
    return _terms_eval(field.terms, basis).T


def eval_noise_batch(field: NoiseField, points) -> np.ndarray:
    """Noise variances for N scaled points (or a `PointBasis`), length N."""
    if not isinstance(points, PointBasis) and np.ndim(points) != 2:
        raise ValueError("noise fields are evaluated on an N x n_x matrix")
    basis = as_point_basis(points, (field,))
    if field.mode == "fixed":
        return np.full(basis.points.shape[0], field.value)
    return np.exp(_terms_eval(field.terms, basis).mean(axis=1))
