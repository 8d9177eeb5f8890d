"""Uniform grids, trapezoid quadrature, unitary Fourier transforms and a
checked Hermitian eigensolver shared by every other module.

All quantities are dimensionless (hbar = 1).  The Fourier convention is
the unitary one,

    psi~(p) = (1/sqrt(2 pi)) * Integral psi(x) exp(-i p x) dx,

realised on uniform grids through an FFT with explicit phase corrections
for the grid offset, so the discrete result approximates the continuous
transform and Parseval's identity holds to quadrature accuracy.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "Grid1D",
    "SampledWave",
    "GridLeakageError",
    "NonHermitianError",
    "make_grid",
    "trapezoid_weights",
    "quadrature",
    "conjugate_grid",
    "fourier_to_momentum",
    "fourier_to_position",
    "eigh",
]

DEFAULT_GRID_POINTS = 1024
DEFAULT_LEAK_TOL = 1e-8


class GridLeakageError(ValueError):
    """Wave amplitude at a grid boundary is too large for a faithful transform."""


class NonHermitianError(ValueError):
    """Matrix handed to a Hermitian eigensolver is not Hermitian."""


@dataclass(frozen=True)
class Grid1D:
    """Uniform 1-D grid with n_points samples on [x_min, x_max] inclusive."""

    n_points: int
    x_min: float
    x_max: float

    def __post_init__(self):
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

    @property
    def half_width(self) -> float:
        return 0.5 * (self.x_max - self.x_min)


@dataclass(frozen=True)
class SampledWave:
    """Amplitudes sampled on a 1-D grid.

    Carries either a complex wavefunction or a real density; dtype follows
    the data.  A wave is "normalized" when quadrature(|psi|^2) = 1.
    """

    grid: Grid1D
    amplitudes: np.ndarray

    def __post_init__(self):
        amp = np.asarray(self.amplitudes)
        if amp.ndim != 1 or amp.shape[0] != self.grid.n_points:
            raise ValueError(
                f"amplitude length {amp.shape} does not match grid with "
                f"{self.grid.n_points} points"
            )
        object.__setattr__(self, "amplitudes", amp)

    def norm(self) -> float:
        """sqrt of the trapezoid integral of |psi|^2."""
        return float(np.sqrt(quadrature(np.abs(self.amplitudes) ** 2, self.grid).real))

    def normalized(self) -> "SampledWave":
        return SampledWave(self.grid, self.amplitudes / self.norm())


def make_grid(center: float, half_width: float, n_points: int) -> Grid1D:
    """Symmetric grid [center - half_width, center + half_width]."""
    if n_points < 2:
        raise ValueError(f"n_points must be >= 2, got {n_points}")
    if not half_width > 0:
        raise ValueError(f"half_width must be positive, got {half_width}")
    return Grid1D(n_points, center - half_width, center + half_width)


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


def conjugate_grid(grid: Grid1D) -> Grid1D:
    """Momentum grid conjugate to a position grid: dp = 2 pi / (n dx), centered at 0."""
    n = grid.n_points
    dp = 2.0 * np.pi / (n * grid.spacing)
    h = n // 2
    return Grid1D(n, -h * dp, (n - 1 - h) * dp)


def _check_leakage(amplitudes: np.ndarray, tol: float):
    edge = max(abs(amplitudes[0]), abs(amplitudes[-1]))
    if edge > tol:
        raise GridLeakageError(
            f"boundary amplitude {edge:.3e} exceeds {tol:.1e}; widen the grid"
        )


def fourier_to_momentum(psi: SampledWave, leak_tol: float = DEFAULT_LEAK_TOL) -> SampledWave:
    """Unitary transform of a position-space wave onto the conjugate momentum grid.

    The FFT is corrected for the grid offset so that

        psi~(p_k) = (dx / sqrt(2 pi)) * sum_j psi(x_j) exp(-i p_k x_j)

    holds exactly on the returned grid.  Requires the wave to have decayed
    below ``leak_tol`` at both grid ends.
    """
    grid = psi.grid
    _check_leakage(psi.amplitudes, leak_tol)
    n = grid.n_points
    h = n // 2
    pgrid = conjugate_grid(grid)
    j = np.arange(n)
    modulated = psi.amplitudes * np.exp(2j * np.pi * h * j / n)
    spectrum = np.fft.fft(modulated)
    phases = np.exp(-1j * pgrid.points * grid.x_min)
    out = (grid.spacing / np.sqrt(2.0 * np.pi)) * phases * spectrum
    return SampledWave(pgrid, out)


def fourier_to_position(
    psi_momentum: SampledWave,
    target: Grid1D | None = None,
    leak_tol: float = DEFAULT_LEAK_TOL,
) -> SampledWave:
    """Inverse unitary transform back to position space.

    ``target`` may be any grid whose spacing equals 2 pi / (n dp); by default
    the zero-centered conjugate grid is used.  Composed with
    :func:`fourier_to_momentum` this reproduces the input samples.
    """
    pgrid = psi_momentum.grid
    _check_leakage(psi_momentum.amplitudes, leak_tol)
    n = pgrid.n_points
    dx = 2.0 * np.pi / (n * pgrid.spacing)
    if target is None:
        h = n // 2
        target = Grid1D(n, -h * dx, (n - 1 - h) * dx)
    else:
        if target.n_points != n:
            raise ValueError("target grid size does not match the momentum grid")
        if abs(target.spacing - dx) > 1e-9 * dx:
            raise ValueError(
                f"target spacing {target.spacing:.6e} incompatible with conjugate "
                f"spacing {dx:.6e}"
            )
    k = np.arange(n)
    modulated = psi_momentum.amplitudes * np.exp(1j * k * pgrid.spacing * target.x_min)
    back = np.fft.ifft(modulated) * n
    out = (pgrid.spacing / np.sqrt(2.0 * np.pi)) * np.exp(1j * pgrid.x_min * target.points) * back
    return SampledWave(target, out)


def eigh(matrix, hermiticity_tol: float = 1e-12):
    """Eigendecomposition of a Hermitian matrix, values ascending.

    Raises :class:`NonHermitianError` when the input deviates from its
    conjugate transpose by more than ``hermiticity_tol`` (relative to the
    largest entry).
    """
    h = np.asarray(matrix)
    if h.ndim != 2 or h.shape[0] != h.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {h.shape}")
    scale = max(1.0, float(np.max(np.abs(h))) if h.size else 1.0)
    dev = float(np.max(np.abs(h - h.conj().T)))
    if dev > hermiticity_tol * scale:
        raise NonHermitianError(f"matrix deviates from Hermitian by {dev:.3e}")
    values, vectors = np.linalg.eigh(h)
    return values, vectors
