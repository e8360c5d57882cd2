"""Vectors in orthonormal-basis coordinates.

Everything in this package is diagonal in one fixed orthonormal basis, so a
vector is its array of coefficients. :class:`Vec` wraps one such array as
the start and the iterates of the one-row runs (:func:`splitrate.run_dr`,
:func:`splitrate.run_admm`); everything else works on plain arrays, with
:func:`basis_rows` for unit starts. A seeded random orthogonal matrix
(:func:`random_basis_map`) lets the battery run the same problem in a
rotated basis, where nothing is diagonal, and confirm that no rate depends
on the representation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# numpy 2 loads numpy.random on first use; importing it here puts that cost
# (about 12 ms) into the package import, not into the first seeded sweep
from numpy.random import default_rng

__all__ = ["Vec", "basis_rows", "random_basis_map"]


@dataclass(frozen=True, eq=False)
class Vec:
    """Immutable vector of basis coefficients; arithmetic is done on ``coeffs``."""

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

    def __repr__(self) -> str:
        return f"Vec({self.coeffs.tolist()!r})"


def basis_rows(dim: int, indices) -> np.ndarray:
    """Unit vectors as rows: a ``(len(indices), dim)`` array whose row r is
    the unit vector along coordinate ``indices[r]``."""
    indices = np.asarray(indices, dtype=int)
    if not np.all((0 <= indices) & (indices < dim)):
        raise ValueError(f"an index is out of range for dimension {dim}")
    out = np.zeros((indices.size, dim))
    out[np.arange(indices.size), indices] = 1.0
    return out


def random_basis_map(dim: int, rng: np.random.Generator | int | None = None) -> np.ndarray:
    """Random orthogonal ``(dim, dim)`` matrix, read-only and deterministic
    for a given seed; its columns are the rotated basis vectors."""
    gen = default_rng(rng)
    q, r = np.linalg.qr(gen.standard_normal((dim, dim)))
    # fix column signs so the draw is unique for a given seed
    q = q * np.sign(np.diag(r))
    q.flags.writeable = False
    return q
