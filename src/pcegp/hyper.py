"""Input-dependent hyperparameter fields built from chaos expansions.

A `LengthscaleField` maps a scaled input point to one lengthscale per
coordinate: the same expansion coefficients are applied to every
coordinate, and the per-coordinate variation comes from evaluating the
polynomials at that coordinate's value. A `NoiseField` is either a fixed
variance or an expansion averaged over coordinates and clamped to a
positive floor.

Both fields are linear in their coefficients (before the noise clamp),
which the optimizer exploits: the sensitivity of any output to a
coefficient is just the matching polynomial value.
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

    @property
    def n_coefficients(self) -> int:
        return sum(c.size for _, c in self.terms)


@dataclass(frozen=True)
class NoiseField:
    """Noise variance: fixed positive value, or a clamped expansion."""

    mode: str
    value: float = 0.0
    terms: tuple = ()
    floor: float = 1e-8

    def __post_init__(self):
        if self.floor <= 0.0:
            raise ValueError("noise floor must be positive")
        if self.mode == "fixed":
            if self.value <= 0.0:
                raise ValueError(f"fixed noise must be positive, got {self.value}")
        elif self.mode == "pce":
            object.__setattr__(self, "terms", _freeze_terms(self.terms))
        else:
            raise ValueError(f"unknown noise mode {self.mode!r}")

    @classmethod
    def fixed(cls, value: float, floor: float = 1e-8) -> "NoiseField":
        return cls(mode="fixed", value=value, floor=floor)

    @classmethod
    def pce(cls, terms, floor: float = 1e-8) -> "NoiseField":
        return cls(mode="pce", terms=tuple(terms), floor=floor)

    @property
    def n_coefficients(self) -> int:
        return sum(c.size for _, c in self.terms) if self.mode == "pce" else 0


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------

def _as_points(points, n_inputs: int) -> np.ndarray:
    a = np.asarray(points, dtype=float)
    if a.ndim == 1:
        a = a[None, :]
    if a.ndim != 2 or a.shape[1] != n_inputs:
        raise ValueError(
            f"points must have {n_inputs} coordinates, got shape {a.shape}"
        )
    return a


def _terms_eval(terms, coords: np.ndarray) -> np.ndarray:
    """Sum of all expansions evaluated element-wise over ``coords``."""
    flat = coords.ravel()
    total = np.zeros(flat.size)
    for kind, coeffs in terms:
        total += coeffs @ eval_basis(kind, coeffs.size - 1, flat)
    return total.reshape(coords.shape)


def eval_lengthscale_batch(field: LengthscaleField, points) -> np.ndarray:
    """Lengthscales for N scaled points as an n_inputs x N matrix."""
    pts = _as_points(points, field.n_inputs)
    return _terms_eval(field.terms, pts).T


def eval_noise_batch(field: NoiseField, points) -> np.ndarray:
    """Noise variances for N scaled points as a length-N vector."""
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2:
        raise ValueError("eval_noise_batch expects an N x n_x matrix")
    if field.mode == "fixed":
        return np.full(pts.shape[0], field.value)
    raw = _terms_eval(field.terms, pts).mean(axis=1)
    return np.maximum(field.floor, raw)


# ---------------------------------------------------------------------------
# coefficient plumbing for the optimizer
# ---------------------------------------------------------------------------

def lengthscale_coefficients(field: LengthscaleField) -> np.ndarray:
    """All expansion coefficients as one flat vector, term order preserved."""
    return np.concatenate([c for _, c in field.terms])


def with_lengthscale_coefficients(
    field: LengthscaleField, flat
) -> LengthscaleField:
    """Rebuild the field with coefficients taken from a flat vector."""
    flat = np.asarray(flat, dtype=float).ravel()
    if flat.size != field.n_coefficients:
        raise ValueError(
            f"expected {field.n_coefficients} coefficients, got {flat.size}"
        )
    terms = []
    k = 0
    for kind, c in field.terms:
        terms.append((kind, flat[k : k + c.size]))
        k += c.size
    return LengthscaleField(terms=tuple(terms), n_inputs=field.n_inputs)


def lengthscale_sensitivity(field: LengthscaleField, points) -> np.ndarray:
    """Polynomial values pairing each coefficient with each output entry.

    Returns a tensor ``S`` of shape (n_coefficients, n_inputs, N) with
    ``S[m, d, i] = phi_m(points[i, d])``, so that
    ``eval_lengthscale_batch = tensordot(coeffs, S, 1)``. Rows follow the
    flat coefficient order of `lengthscale_coefficients`.
    """
    pts = _as_points(points, field.n_inputs)
    n, d = pts.shape
    rows = []
    flat = pts.ravel()
    for kind, c in field.terms:
        values = eval_basis(kind, c.size - 1, flat)
        rows.append(values.reshape(c.size, n, d).transpose(0, 2, 1))
    return np.concatenate(rows, axis=0)


def noise_sensitivity(field: NoiseField, points) -> np.ndarray:
    """Per-coefficient sensitivity of the unclamped noise at each point.

    Shape (n_coefficients, N): entry [m, i] is the mean of phi_m over the
    coordinates of point i. Zero rows where the clamp is active must be
    handled by the caller (the clamped value has zero gradient).
    """
    if field.mode != "pce":
        raise ValueError("noise sensitivity is defined only for pce mode")
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2:
        raise ValueError("noise_sensitivity expects an N x n_x matrix")
    n, d = pts.shape
    rows = []
    flat = pts.ravel()
    for kind, c in field.terms:
        values = eval_basis(kind, c.size - 1, flat)
        rows.append(values.reshape(c.size, n, d).mean(axis=2))
    return np.concatenate(rows, axis=0)
