"""Uniform grids, trapezoid quadrature, the caps on user counts and the
checked Hermitian eigensolver of ``schmidt.schmidt_stack``.

A grid is its points and their spacing, on [-edge, edge].  ``grid``
checks neither: every edge comes from a checked parameter (``SlitParams``,
``DoubleWell``), and every count from ``scenarios.run``'s ``grid_points``
check or the DVR's constants.

All quantities are dimensionless (hbar = 1).  Momentum-space amplitudes
follow the unitary convention

    psi~(p) = (1/sqrt(2 pi)) * Integral psi(x) exp(-i p x) dx.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "NonHermitianError",
    "grid",
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


def grid(edge: float, n: int) -> tuple[np.ndarray, float]:
    """The n points of the uniform grid [-edge, edge] and their spacing."""
    return np.linspace(-edge, edge, n), 2.0 * edge / (n - 1)


def quadrature(values, spacing: float):
    """Trapezoid-rule integral of values sampled ``spacing`` apart."""
    weights = np.full(len(values), spacing)
    weights[[0, -1]] *= 0.5
    return weights @ values


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
