"""Independent references for the tests: an offset-corrected FFT and the
two-slit closed forms."""

import numpy as np

from qmodes.interference import two_slit_norm
from qmodes.numerics import Grid1D, SampledWave
from qmodes.schmidt import SchmidtDecomposition, analytic_two_slit_weights


def conjugate_grid(grid):
    n = grid.n_points
    dp = 2.0 * np.pi / (n * grid.spacing)
    return Grid1D(n, -(n // 2) * dp, (n - 1 - n // 2) * dp)


def fourier_to_momentum(psi):
    grid = psi.grid
    n = grid.n_points
    pgrid = conjugate_grid(grid)
    spectrum = np.fft.fft(psi.amplitudes * np.exp(2j * np.pi * (n // 2) * np.arange(n) / n))
    phases = np.exp(-1j * pgrid.points * grid.x_min)
    return SampledWave(pgrid, (grid.spacing / np.sqrt(2.0 * np.pi)) * phases * spectrum)


def single_slit_momentum_density(sigma_x, p_x):
    return np.sqrt(1.0 / (2.0 * np.pi)) * 2.0 * sigma_x * np.exp(-2.0 * sigma_x**2 * np.asarray(p_x) ** 2)


def two_slit_intensity(a, sigma_x, p_x):
    c2 = two_slit_norm(a, sigma_x)
    p = np.asarray(p_x)
    envelope = np.sqrt(1.0 / (2.0 * np.pi)) * sigma_x * np.exp(-2.0 * sigma_x**2 * p**2)
    return 4.0 * c2 * envelope * np.cos(p * a) ** 2


def cos_sin_mode(grid, sigma, center, trig):
    p = grid.points
    sign = 1.0 if trig is np.cos else -1.0
    overlap = np.exp(-(center**2) / (2.0 * sigma**2))
    norm = np.sqrt(2.0 * np.sqrt(2.0) * sigma / (np.sqrt(np.pi) * (1.0 + sign * overlap)))
    return SampledWave(grid, norm * np.exp(-(sigma**2) * p**2) * trig(p * center))


def two_slit_schmidt(slits, det, particle_grid, detector_grid):
    modes_x = [cos_sin_mode(particle_grid, slits.sigma_x, slits.a, trig) for trig in (np.cos, np.sin)]
    modes_xi = [cos_sin_mode(detector_grid, det.sigma_xi, det.b, trig) for trig in (np.cos, np.sin)]
    return SchmidtDecomposition(np.array(analytic_two_slit_weights(slits, det)), modes_x, modes_xi, 0.0)
