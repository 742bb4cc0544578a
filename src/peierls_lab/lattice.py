"""Bravais lattices, dual lattices and Brillouin-zone k-grids.

The Brillouin zone is realized as the centered coefficient box: k belongs to
the fundamental cell iff its coefficients alpha_j in the dual basis satisfy
-1/2 <= alpha_j < 1/2.  The k-grids are cell-centered in that box, and band
quantities are interpolated in the coefficients alpha (effective.BandData),
so every band quantity downstream inherits clean dual-lattice periodicity.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from . import PeierlsError

__all__ = [
    "Lattice",
    "KGrid",
    "dual_basis",
    "make_kgrid",
    "signed_permutations",
]

_DEGENERATE_TOL = 1e-12


class LatticeError(PeierlsError, ValueError):
    pass


def dual_basis(basis: np.ndarray) -> np.ndarray:
    """Return dual vectors e*_k with e_j . e*_k = 2 pi delta_jk.

    Parameters
    ----------
    basis : (d, d) array, rows are the generating vectors e_j.
    """
    basis = np.asarray(basis, dtype=float)
    if basis.ndim != 2 or basis.shape[0] != basis.shape[1]:
        raise LatticeError(f"basis must be square (d, d), got {basis.shape}")
    gram = basis @ basis.T
    if abs(np.linalg.det(gram)) <= _DEGENERATE_TOL:
        raise LatticeError("degenerate lattice: basis vectors are linearly dependent")
    # rows of D solve basis @ D.T = 2 pi I
    return 2.0 * np.pi * np.linalg.inv(basis).T


@dataclass(frozen=True)
class Lattice:
    """A Bravais lattice in d <= 3 dimensions.

    Attributes
    ----------
    basis : (d, d) array, rows e_j (lattice units).
    dual : (d, d) array, rows e*_j with e_j . e*_k = 2 pi delta_jk.
    """

    basis: np.ndarray
    dual: np.ndarray

    @classmethod
    def from_basis(cls, basis) -> "Lattice":
        basis = np.atleast_2d(np.asarray(basis, dtype=float))
        if basis.shape[0] not in (1, 2, 3):
            raise LatticeError("only d in {1, 2, 3} supported")
        return cls(basis=basis, dual=dual_basis(basis))

    @classmethod
    def cubic(cls, dim: int) -> "Lattice":
        return cls.from_basis(np.eye(dim))

    @property
    def dim(self) -> int:
        return self.basis.shape[0]

    def dual_vector(self, coeffs) -> np.ndarray:
        """Integer coefficients -> dual lattice vector."""
        return np.asarray(coeffs, dtype=float) @ self.dual


@dataclass(frozen=True)
class KGrid:
    """Uniform cell-centered grid over the Brillouin-zone coefficient box.

    points has shape (N, d) with N = prod(shape); ordering is C-order over the
    per-axis index m, at alpha = (m + 1/2)/n - 1/2, never on the zone
    boundary.  Along each axis the coefficient steps by 1/n, except on the
    seam link from the last point back to the first, which steps by
    1/n - 1: that link alone crosses a dual translation, and it crosses -1.
    For odd n the axis holds alpha = q/n, q = -(n-1)/2, ..., (n-1)/2, which
    are the fiber momenta 2 pi q / n of a periodic box of n cells.
    """

    lattice: Lattice
    shape: tuple
    points: np.ndarray

    @property
    def n_points(self) -> int:
        return self.points.shape[0]

    @property
    def dim(self) -> int:
        return self.lattice.dim

    def reshape(self, values: np.ndarray) -> np.ndarray:
        """View flat per-point values (N, ...) as (shape..., ...)."""
        return np.asarray(values).reshape(self.shape + np.asarray(values).shape[1:])


def make_kgrid(lattice: Lattice, shape) -> KGrid:
    """Build the cell-centered k-grid of KGrid.

    shape : int or sequence of d ints, all >= 1.
    """
    if np.isscalar(shape):
        shape = (int(shape),) * lattice.dim
    shape = tuple(int(s) for s in shape)
    if len(shape) != lattice.dim:
        raise LatticeError(f"shape has {len(shape)} entries for a {lattice.dim}-d lattice")
    if any(s < 1 for s in shape):
        raise LatticeError("grid shape entries must be >= 1")
    axes = [(np.arange(n) + 0.5) / n - 0.5 for n in shape]
    mesh = np.meshgrid(*axes, indexing="ij")
    alpha = np.stack([a.ravel() for a in mesh], axis=-1)
    points = alpha @ lattice.dual
    return KGrid(lattice=lattice, shape=shape, points=points)


def signed_permutations(d: int):
    """The 2^d d! signed permutation matrices (d, d) of integers, identity
    first: M[l, perm[l]] = sign[l], over permutations in lexicographic order
    and, for each, signs from all +1 to all -1."""
    for perm in itertools.permutations(range(d)):
        for signs in itertools.product((1, -1), repeat=d):
            M = np.zeros((d, d), dtype=int)
            M[np.arange(d), perm] = signs
            yield M
