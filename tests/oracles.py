"""Independent references for the tests: sampled waves and an
offset-corrected FFT, the two-slit closed forms, the uniform-source fringe
pattern, a least-squares fit of a pattern's fringe visibility, the grid
reference for slit states, and Python's text of data tables and protocols.

The grid reference samples the joint state psi(x, xi) on a particle x
detector grid as a factor pair psi = left @ right.T, normalizes it by
trapezoid quadrature, and decomposes it by a thin QR of the weighted
particle factor and an SVD of the small core left over.  It shares no code
with the closed-form overlap path of ``qmodes.schmidt``.
"""

import json
import math
from dataclasses import dataclass

import numpy as np

from qmodes.interference import slit_centers, two_slit_norm
from qmodes.numerics import Grid1D, quadrature, trapezoid_weights
from qmodes.schmidt import analytic_two_slit_weights


@dataclass(frozen=True)
class SampledWave:
    """Amplitudes sampled on a 1-D grid: a complex wavefunction or a real density."""

    grid: Grid1D
    amplitudes: np.ndarray

    def __post_init__(self):
        amp = np.asarray(self.amplitudes)
        if amp.shape != (self.grid.n_points,):
            raise ValueError(f"amplitude shape {amp.shape} does not match {self.grid.n_points} grid points")
        object.__setattr__(self, "amplitudes", amp)


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


def source_pattern(a, sigma_x, grid, v):
    """Two-slit momentum pattern of visibility v, env^2 (1 + v cos 2 p a),
    normalized by trapezoid quadrature on ``grid``."""
    p = grid.points
    pattern = np.exp(-2.0 * sigma_x**2 * p**2) * (1.0 + v * np.cos(2.0 * p * a))
    return pattern / quadrature(pattern, grid)


MIN_SAMPLES_PER_PERIOD = 16


def visibility_from_intensity(density, a, sigma_x):
    """Fringe visibility of a sampled two-slit momentum pattern by a fit.

    The Gaussian envelope exp(-2 sigma_x^2 p^2) is divided out and
    A + B cos(2 a p) + C sin(2 a p) is fitted by linear least squares over
    the central window |p| <= 3 pi/(4a); V = hypot(B, C) / A.  Needs at
    least 16 samples per fringe period pi/a, and a grid that spans the
    window.
    """
    grid = density.grid
    period = np.pi / a
    if grid.spacing > period / MIN_SAMPLES_PER_PERIOD:
        raise ValueError(f"grid spacing {grid.spacing:.4g}: need {MIN_SAMPLES_PER_PERIOD} samples per period pi/a")
    if grid.half_width < 0.75 * period:
        raise ValueError("central fringe window not covered by the grid")
    p = grid.points
    window = np.abs(p) <= 0.75 * period
    p = p[window]
    flat = np.real(density.amplitudes[window]) / np.exp(-2.0 * sigma_x**2 * p**2)
    # normal equations: the three columns are far from dependent over 1.5 periods
    basis = np.vstack((np.ones_like(p), np.cos(2.0 * a * p), np.sin(2.0 * a * p)))
    mean, cos_part, sin_part = np.linalg.solve(basis @ basis.T, basis @ flat)
    return float(np.clip(np.hypot(cos_part, sin_part) / mean, 0.0, 1.0))


def cos_sin_mode(grid, sigma, center, trig):
    p = grid.points
    sign = 1.0 if trig is np.cos else -1.0
    overlap = np.exp(-(center**2) / (2.0 * sigma**2))
    norm = np.sqrt(2.0 * np.sqrt(2.0) * sigma / (np.sqrt(np.pi) * (1.0 + sign * overlap)))
    return SampledWave(grid, norm * np.exp(-(sigma**2) * p**2) * trig(p * center))


def two_slit_schmidt(slits, det, particle_grid, detector_grid):
    """Closed-form two-slit (weights, particle modes, detector modes)."""
    modes_x = [cos_sin_mode(particle_grid, slits.sigma_x, slits.a, trig) for trig in (np.cos, np.sin)]
    modes_xi = [cos_sin_mode(detector_grid, det.sigma_xi, det.b, trig) for trig in (np.cos, np.sin)]
    return np.array(analytic_two_slit_weights(slits, det)), modes_x, modes_xi


# ---------------------------------------------------------------------------
# grid reference


@dataclass(frozen=True)
class GridState:
    """Sampled joint amplitude ``left @ right.T`` on a particle x detector grid."""

    particle_grid: Grid1D
    detector_grid: Grid1D
    left: np.ndarray
    right: np.ndarray

    @property
    def amplitudes(self):
        return self.left @ self.right.T

    def norm(self):
        total = np.sum(_gram(self.left, self.particle_grid) * _gram(self.right, self.detector_grid))
        return float(np.sqrt(total.real))


def _gram(factor, grid):
    return factor.T @ (trapezoid_weights(grid)[:, None] * factor.conj())


def _normalized(particle_grid, detector_grid, left, right):
    norm = GridState(particle_grid, detector_grid, left, right).norm()
    return GridState(particle_grid, detector_grid, left / norm, right)


def grid_state_momentum(slits, det, particle_grid, detector_grid):
    """Momentum amplitude env(p) env(q) F(p a + q b), F the form factor.

    Each cosine pair cos(c eta) + cos(-c eta) of F expands into
    2 cos(c a p) cos(c b q) - 2 sin(c a p) sin(c b q); odd m adds the c = 0
    term.
    """
    p = particle_grid.points
    q = detector_grid.points
    env_x = np.exp(-slits.sigma_x**2 * p**2)[:, None]
    env_xi = np.exp(-det.sigma_xi**2 * q**2)[:, None]
    c = slits.m - 1 - 2 * np.arange(slits.m // 2)
    cap = np.outer(p, c * slits.a)
    cbq = np.outer(q, c * det.b)
    left = [2.0 * np.cos(cap), -2.0 * np.sin(cap)]
    right = [np.cos(cbq), np.sin(cbq)]
    if slits.m % 2:
        left.append(np.ones((p.size, 1)))
        right.append(np.ones((q.size, 1)))
    return _normalized(particle_grid, detector_grid, env_x * np.hstack(left), env_xi * np.hstack(right))


def grid_state_coordinate(slits, det, particle_grid, detector_grid):
    """Coordinate amplitude: one 2-D Gaussian per (slit, spot) pair."""
    x = particle_grid.points[:, None]
    xi = detector_grid.points[:, None]
    left = np.exp(-((x - slit_centers(slits.m, slits.a)) ** 2) / (4.0 * slits.sigma_x**2))
    right = np.exp(-((xi - slit_centers(slits.m, det.b)) ** 2) / (4.0 * det.sigma_xi**2))
    return _normalized(particle_grid, detector_grid, left, right)


def grid_marginal(state):
    """Particle marginal: diagonal of left @ G @ left^H, G the right factor's Gram matrix."""
    return np.real(np.sum((state.left @ _gram(state.right, state.detector_grid)) * state.left.conj(), axis=1))


def grid_schmidt(state, threshold=1e-12):
    """(weights, particle modes, detector modes) from a thin QR and a core SVD.

    The modes are the columns of two arrays, orthonormal under trapezoid
    quadrature.
    """
    sqrt_wx = np.sqrt(trapezoid_weights(state.particle_grid))
    sqrt_wxi = np.sqrt(trapezoid_weights(state.detector_grid))
    q_x, t = np.linalg.qr(state.left * sqrt_wx[:, None])
    u, s, vh = np.linalg.svd(t @ (state.right * sqrt_wxi[:, None]).T, full_matrices=False)
    keep = max(int(np.sum(s**2 >= threshold)), 1)
    return s[:keep] ** 2, (q_x @ u[:, :keep]) / sqrt_wx[:, None], vh[:keep].T / sqrt_wxi[:, None]


def gram_weights_oracle(m, a, sigma_x, b, sigma_xi):
    """Schmidt weights from the m x m slit-overlap problem.

    The state is (1/sqrt m) sum_j u_j (x) v_j with Gaussian slit/spot modes
    whose overlaps are closed-form.  Orthogonalizing with the symmetric
    square root W of the slit Gram matrix reduces the particle density
    operator to the m x m matrix N^2 W S_xi W whose eigenvalues are the
    weights.  Entirely independent of grids and SVD.
    """
    cx = slit_centers(m, a)
    cxi = slit_centers(m, b)
    s_x = np.exp(-np.subtract.outer(cx, cx) ** 2 / (8.0 * sigma_x**2))
    s_xi = np.exp(-np.subtract.outer(cxi, cxi) ** 2 / (8.0 * sigma_xi**2))
    vals, vecs = np.linalg.eigh(s_x)
    w_half = (vecs * np.sqrt(np.clip(vals, 0.0, None))) @ vecs.T
    norm_sq = 1.0 / np.sum(s_x * s_xi)
    lam = np.linalg.eigvalsh(norm_sq * w_half @ s_xi @ w_half)
    return np.sort(lam)[::-1]


def python_text(block, seps, fmt):
    """Python's text of every value of a 2-D block, each followed by its
    column's separator: ``%.12g`` for csv, the ``json.dumps`` token for json."""
    spell = (lambda v: "%.12g" % v) if fmt == "csv" else json.dumps
    return b"".join(spell(v).encode() + sep for row in block.tolist() for v, sep in zip(row, seps))


def protocol_to_dict(protocol):
    """The JSON content of a protocol file of the (N, s^2) matrix B: B's
    entries as [real, imaginary] pairs."""
    b = np.asarray(protocol, dtype=complex)
    pairs = np.stack([b.real, b.imag], axis=-1).tolist()
    return {"s": math.isqrt(b.shape[1]), "n_measurements": b.shape[0], "b": pairs}
