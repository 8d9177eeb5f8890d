"""Uniform grids, trapezoid quadrature and a checked Hermitian eigensolver
shared by every other module.

All quantities are dimensionless (hbar = 1).  Momentum-space amplitudes
follow the unitary convention

    psi~(p) = (1/sqrt(2 pi)) * Integral psi(x) exp(-i p x) dx.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Grid1D",
    "NonHermitianError",
    "make_grid",
    "trapezoid_weights",
    "quadrature",
    "eigh",
]

# largest sample count a user parameter may set (grid points, sweep and
# protocol samples): bounds the arrays that such a count sizes
MAX_COUNT = 1 << 16
# largest slit count: the m x m overlap matrices and the n x m slit basis
# grow with it
MAX_SLITS = 64
# largest deviation of a matrix handed to ``eigh`` from its conjugate
# transpose, relative to its largest entry (at least 1)
HERMITICITY_TOL = 1e-12


class NonHermitianError(ValueError):
    """Matrix handed to a Hermitian eigensolver is not Hermitian."""


@dataclass(frozen=True)
class Grid1D:
    """Uniform 1-D grid with n_points samples on [x_min, x_max] inclusive."""

    n_points: int
    x_min: float
    x_max: float

    def __post_init__(self):
        if not isinstance(self.n_points, numbers.Integral):
            raise ValueError(f"n_points must be an integer, got {self.n_points!r}")
        if self.n_points < 2:
            raise ValueError(f"grid needs at least 2 points, got {self.n_points}")
        if not self.x_max > self.x_min:
            raise ValueError(f"x_max must exceed x_min, got [{self.x_min}, {self.x_max}]")

    @property
    def spacing(self) -> float:
        return (self.x_max - self.x_min) / (self.n_points - 1)

    @property
    def points(self) -> np.ndarray:
        return np.linspace(self.x_min, self.x_max, self.n_points)


def make_grid(edge: float, n_points: int) -> Grid1D:
    """Grid [-edge, edge], symmetric about 0; ``Grid1D`` rejects an edge
    that is not positive, NaN included."""
    return Grid1D(n_points, -edge, edge)


def trapezoid_weights(grid: Grid1D) -> np.ndarray:
    """Quadrature weight per sample: spacing everywhere, halved at the ends."""
    w = np.full(grid.n_points, grid.spacing)
    w[0] *= 0.5
    w[-1] *= 0.5
    return w


def quadrature(values, grid: Grid1D):
    """Trapezoid-rule integral of sampled values over the grid."""
    values = np.asarray(values)
    if values.shape[0] != grid.n_points:
        raise ValueError(
            f"integrand length {values.shape[0]} does not match grid with "
            f"{grid.n_points} points"
        )
    return trapezoid_weights(grid) @ values


def eigh(matrix):
    """Eigendecomposition of a Hermitian matrix, values ascending.

    Takes one matrix or a stack of shape (..., n, n), decomposed in one
    call; ``vectors[..., :, k]`` belongs to ``values[..., k]``.  Raises
    :class:`NonHermitianError` when any matrix deviates from its conjugate
    transpose by more than ``HERMITICITY_TOL`` (relative to its own largest
    entry, at least 1).
    """
    h = np.asarray(matrix)
    if h.ndim < 2 or h.shape[-2] != h.shape[-1]:
        raise ValueError(f"expected a square matrix or a stack of them, got shape {h.shape}")
    axes = (-2, -1)
    scale = np.maximum(1.0, np.max(np.abs(h), axis=axes, initial=0.0))
    dev = np.max(np.abs(h - np.swapaxes(h, -2, -1).conj()), axis=axes, initial=0.0)
    bad = np.flatnonzero(dev > HERMITICITY_TOL * scale)
    if bad.size:
        where = f" {bad[0]} (flat index) of the stack" if dev.ndim else ""
        raise NonHermitianError(f"matrix{where} deviates from Hermitian by {dev.flat[bad[0]]:.3e}")
    return np.linalg.eigh(h)
