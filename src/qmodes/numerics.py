"""Uniform grids, trapezoid quadrature and the caps on user counts.

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

__all__ = ["grid", "quadrature"]

# largest sample count a user parameter may set (grid points, sweep and
# protocol samples): bounds the arrays that such a count sizes
MAX_COUNT = 1 << 16
# largest slit count: the m x m overlap matrices and the n x m slit basis
# grow with it
MAX_SLITS = 64


def grid(edge: float, n: int) -> tuple[np.ndarray, float]:
    """The n points of the uniform grid [-edge, edge] and their spacing."""
    return np.linspace(-edge, edge, n), 2.0 * edge / (n - 1)


def quadrature(values, spacing: float):
    """Trapezoid-rule integral of values sampled ``spacing`` apart."""
    weights = np.full(len(values), spacing)
    weights[[0, -1]] *= 0.5
    return weights @ values

