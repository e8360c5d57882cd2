"""Real inner-product vectors in orthonormal-basis coordinates.

Everything in this package is diagonal in one fixed orthonormal basis, so
vectors are stored directly as their coefficient sequences. An orthogonal
change of basis is provided so tests can confirm that no result depends on
the particular representation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Vec",
    "BasisMap",
    "inner",
    "norm",
    "change_basis",
    "basis_vector",
    "zeros",
    "random_basis_map",
    "ORTHOGONALITY_TOL",
]

#: per-entry tolerance for orthogonality checks on change-of-basis matrices
ORTHOGONALITY_TOL = 1e-12


@dataclass(frozen=True, eq=False)
class Vec:
    """Immutable vector of basis coefficients."""

    coeffs: np.ndarray

    def __post_init__(self) -> None:
        arr = np.array(self.coeffs, dtype=float)
        if arr.ndim != 1 or arr.size == 0:
            raise ValueError("coeffs must be a non-empty 1-d sequence")
        if not np.isfinite(arr).all():
            raise ValueError("coeffs must be finite (no NaN or Inf)")
        arr.flags.writeable = False
        object.__setattr__(self, "coeffs", arr)

    @classmethod
    def _adopt(cls, arr: np.ndarray) -> "Vec":
        """A Vec over ``arr`` itself, with no copy and no check: for a fresh,
        non-empty, 1-d, finite float array that nothing else writes."""
        arr.flags.writeable = False
        vec = object.__new__(cls)
        object.__setattr__(vec, "coeffs", arr)
        return vec

    @property
    def dim(self) -> int:
        return self.coeffs.size

    def __add__(self, other: "Vec") -> "Vec":
        _check_same_dim(self, other)
        return Vec(self.coeffs + other.coeffs)

    def __sub__(self, other: "Vec") -> "Vec":
        _check_same_dim(self, other)
        return Vec(self.coeffs - other.coeffs)

    def __mul__(self, scalar: float) -> "Vec":
        return Vec(self.coeffs * float(scalar))

    __rmul__ = __mul__

    def __neg__(self) -> "Vec":
        return Vec(-self.coeffs)

    def __repr__(self) -> str:
        return f"Vec({self.coeffs.tolist()!r})"


def _check_same_dim(x: Vec, y: Vec) -> None:
    if x.dim != y.dim:
        raise ValueError(f"dimension mismatch: {x.dim} vs {y.dim}")


def inner(x: Vec, y: Vec) -> float:
    """Inner product: sum of coordinate products."""
    _check_same_dim(x, y)
    return float(np.dot(x.coeffs, y.coeffs))


def norm(x: Vec) -> float:
    """Norm induced by :func:`inner`; zero exactly when x is zero."""
    return math.sqrt(inner(x, x))


@dataclass(frozen=True, eq=False)
class BasisMap:
    """Orthogonal change-of-basis matrix (columns are the new basis vectors).

    Construction rejects matrices whose Gram defect ``|Q^T Q - I|`` exceeds
    :data:`ORTHOGONALITY_TOL` in any entry.
    """

    matrix: np.ndarray

    def __post_init__(self) -> None:
        q = np.array(self.matrix, dtype=float)
        if q.ndim != 2 or q.shape[0] != q.shape[1] or q.shape[0] == 0:
            raise ValueError("matrix must be square and non-empty")
        if not np.all(np.isfinite(q)):
            raise ValueError("matrix must be finite")
        defect = float(np.abs(q.T @ q - np.eye(q.shape[0])).max())
        if defect > ORTHOGONALITY_TOL:
            raise ValueError(f"matrix is not orthogonal: max |Q^T Q - I| = {defect:.3e}")
        q.flags.writeable = False
        object.__setattr__(self, "matrix", q)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


def change_basis(x: Vec, q: BasisMap) -> Vec:
    """Apply the orthogonal map Q to x. Norms are preserved (isometry)."""
    if x.dim != q.dim:
        raise ValueError(f"dimension mismatch: vector {x.dim} vs map {q.dim}")
    return Vec(q.matrix @ x.coeffs)


def basis_vector(dim: int, i: int) -> Vec:
    """Unit vector along coordinate i."""
    if not 0 <= i < dim:
        raise ValueError(f"index {i} out of range for dimension {dim}")
    out = np.zeros(dim)
    out[i] = 1.0
    return Vec(out)


def zeros(dim: int) -> Vec:
    """Zero vector of the given dimension."""
    if dim < 1:
        raise ValueError("coeffs must be a non-empty 1-d sequence")
    # finite by construction, so neither copied nor scanned
    return Vec._adopt(np.zeros(dim))


def random_basis_map(dim: int, rng: np.random.Generator | int | None = None) -> BasisMap:
    """Random orthogonal map, deterministic for a given seed."""
    gen = np.random.default_rng(rng)
    q, r = np.linalg.qr(gen.standard_normal((dim, dim)))
    # fix column signs so the draw is unique for a given seed
    q = q * np.sign(np.diag(r))
    return BasisMap(q)
