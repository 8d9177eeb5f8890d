"""Independent references for the tests: named grids, sampled waves and an
offset-corrected FFT, a detector's two numbers, the two-slit closed forms
(for a detector and at any detector overlap), the multi-slit form factor,
the uniform-source visibility and fringe pattern, a least-squares fit of a
pattern's fringe visibility, the grid reference for slit states, the mode
mixture of a decomposition, the double well's two-level energies and the
coupled-qubit Hamiltonian solved by ``eigh``, and Python's text of data
tables and protocols.

The grid reference samples the joint state psi(x, xi) on a particle x
detector grid as a factor pair psi = left @ right.T, normalizes it by
trapezoid quadrature, and decomposes it by a thin QR of the weighted
particle factor and an SVD of the small core left over.  It shares no code
with the closed-form overlap path of ``qmodes.schmidt``.
"""

import json
import math
from collections import namedtuple
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from qmodes.coherence import source_coherence
from qmodes.interference import basis_density, slit_centers
from qmodes.numerics import grid, quadrature
from qmodes.schmidt import analytic_two_slit_weights


class Grid(NamedTuple):
    """A uniform grid as its points and their spacing, the pair that
    ``qmodes.numerics.grid`` returns."""

    points: np.ndarray
    spacing: float


def symmetric(edge, n):
    """The grid ``qmodes.numerics.grid(edge, n)`` on [-edge, edge]."""
    return Grid(*grid(edge, n))


def span(lo, hi, n):
    """n points on [lo, hi], lo < hi: the grids that qmodes never samples."""
    return Grid(np.linspace(lo, hi, n), (hi - lo) / (n - 1))


def trapezoid_weights(grid):
    """Quadrature weight per sample: the spacing, halved at the two ends."""
    weights = np.full(grid.points.size, grid.spacing)
    weights[[0, -1]] *= 0.5
    return weights


@dataclass(frozen=True)
class SampledWave:
    """Amplitudes sampled on a 1-D grid: a complex wavefunction or a real density."""

    grid: Grid
    amplitudes: np.ndarray

    def __post_init__(self):
        amp = np.asarray(self.amplitudes)
        if amp.shape != self.grid.points.shape:
            raise ValueError(f"amplitude shape {amp.shape} does not match {self.grid.points.size} grid points")
        object.__setattr__(self, "amplitudes", amp)


def conjugate_grid(grid):
    n = grid.points.size
    dp = 2.0 * np.pi / (n * grid.spacing)
    return span(-(n // 2) * dp, (n - 1 - n // 2) * dp, n)


def fourier_to_momentum(psi):
    grid = psi.grid
    n = grid.points.size
    pgrid = conjugate_grid(grid)
    spectrum = np.fft.fft(psi.amplitudes * np.exp(2j * np.pi * (n // 2) * np.arange(n) / n))
    phases = np.exp(-1j * pgrid.points * grid.points[0])
    return SampledWave(pgrid, (grid.spacing / np.sqrt(2.0 * np.pi)) * phases * spectrum)


def form_factor(eta, m: int):
    """Multi-slit amplitude factor sin(m eta) / sin(eta).

    Evaluated as the cosine sum sum_k cos((m - 1 - 2k) eta), which has no
    removable singularity and no cancellation near eta = k pi, where F = +/-m.
    |F| <= m everywhere and F(eta + pi) = (-1)^(m-1) F(eta).
    """
    if m < 1:
        raise ValueError(f"slit count must be >= 1, got {m}")
    eta_arr = np.asarray(eta, dtype=float)
    out = sum(np.cos((m - 1 - 2 * k) * eta_arr) for k in range(m))
    return out if out.ndim else float(out)


# a which-way detector's spots, of width sigma_xi at +/-b: the two numbers
# qmodes.interference.detector_overlap and the closed forms take
Detector = namedtuple("Detector", "b sigma_xi")


def two_slit_norm(a, sigma_x):
    """Normalization C^2 = 1 / (1 + exp(-a^2 / 2 sigma_x^2)) of the symmetric pair."""
    return 1.0 / (1.0 + np.exp(-(a**2) / (2.0 * sigma_x**2)))


def single_slit_momentum_density(sigma_x, p_x):
    return np.sqrt(1.0 / (2.0 * np.pi)) * 2.0 * sigma_x * np.exp(-2.0 * sigma_x**2 * np.asarray(p_x) ** 2)


def two_slit_intensity(a, sigma_x, p_x):
    c2 = two_slit_norm(a, sigma_x)
    p = np.asarray(p_x)
    envelope = np.sqrt(1.0 / (2.0 * np.pi)) * sigma_x * np.exp(-2.0 * sigma_x**2 * p**2)
    return 4.0 * c2 * envelope * np.cos(p * a) ** 2


def source_visibility(y):
    """Visibility |sinc(4 y)| from a uniform source of size y, elementwise like
    ``qmodes.coherence.source_coherence``."""
    v = np.abs(source_coherence(y))
    return v if v.ndim else float(v)


def source_pattern(a, sigma_x, grid, v):
    """Two-slit momentum pattern of visibility v, env^2 (1 + v cos 2 p a),
    normalized by trapezoid quadrature on ``grid``."""
    p = grid.points
    pattern = np.exp(-2.0 * sigma_x**2 * p**2) * (1.0 + v * np.cos(2.0 * p * a))
    return pattern / quadrature(pattern, grid.spacing)


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
    if 0.5 * (grid.points[-1] - grid.points[0]) < 0.75 * period:
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
    return np.array(analytic_two_slit_weights(slits, *det)), modes_x, modes_xi


def two_slit_gamma_weights(a, sigma_x, gamma):
    """Closed-form two-slit weights (lambda_+, lambda_-) at detector overlap
    gamma, lambda_+/- = (1 +/- q)(1 +/- gamma) / 2(1 + q gamma) with q the
    slit overlap, not sorted.  Free of cancellation: 1 - q is taken from
    expm1, and for gamma < 0, 1 + q gamma = (1 + gamma) - gamma (1 - q)."""
    exponent = -(a**2) / (2.0 * sigma_x**2)
    q, gap = np.exp(exponent), -np.expm1(exponent)
    denom = 2.0 * ((1.0 + gamma) - gamma * gap if gamma < 0 else 1.0 + q * gamma)
    return (1.0 + q) * (1.0 + gamma) / denom, gap * (1.0 - gamma) / denom


# ---------------------------------------------------------------------------
# grid reference


@dataclass(frozen=True)
class GridState:
    """Sampled joint amplitude ``left @ right.T`` on a particle x detector grid."""

    particle_grid: Grid
    detector_grid: Grid
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


def reconstruct_marginal(weights, coefficients, basis):
    """Particle marginal as the mode mixture sum_k lambda_k |psi_k|^2.

    ``weights`` and ``coefficients`` are a decomposition of ``schmidt``, and
    ``basis`` is the slit basis sampled on a grid (``slit_basis``): the
    density of the matrix sum_k lambda_k c_k c_k^T in the slit basis, which
    equals the decomposed state's marginal density on that grid up to the
    truncation threshold.
    """
    return basis_density(basis, (coefficients * weights) @ coefficients.T)


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


# ---------------------------------------------------------------------------
# double-well levels and the coupled-qubit Hamiltonian


def energy_terms(a, sx, eps, alpha, beta, m):
    """Kinetic T0, T1 and potential U0, U1 of a double well's Gaussian pair
    (eps the overlap), in the arithmetic of the arguments (float64, or
    mpmath's mpf)."""
    c0_sq, c1_sq = 1.0 / (1.0 + eps), 1.0 / (1.0 - eps)
    q = a**2 / sx**2
    kin = 1.0 / (8.0 * m * sx**2)
    t0 = c0_sq * kin * (1.0 - (q - 1.0) * eps)
    t1 = c1_sq * kin * (1.0 + (q - 1.0) * eps)
    base = -alpha / 2.0 * (a**2 + sx**2) + beta / 4.0 * (a**4 + 6.0 * sx**2 * a**2 + 3.0 * sx**4)
    cross = -alpha * sx**2 / 2.0 + 3.0 * beta * sx**4 / 4.0
    return t0, t1, c0_sq * (base + eps * cross), c1_sq * (base - eps * cross)


def two_level_energies(well):
    """(E0, E1) = (U0 + T0, U1 + T1) of the well's Gaussian pair, each O(1):
    their float difference loses the splitting's digits."""
    t0, t1, u0, u1 = energy_terms(well.a, well.sigma_x, well.overlap, well.alpha, well.beta, well.mass)
    return u0 + t0, u1 + t1


def coupling_terms(eps, scale):
    """(h1, h2, h3) of the contact coupling -g0 delta(x - xi) between two
    Gaussian pairs of overlap eps, with scale = g0 / (4 sqrt(pi) sigma_x),
    in the arithmetic of the arguments; e3 = eps^(3/2), e4 = eps^2."""
    c0_sq, c1_sq = 1.0 / (1.0 + eps), 1.0 / (1.0 - eps)
    e3, e4 = eps**1.5, eps**2
    h1 = -(c0_sq**2) * scale * (1.0 + 4.0 * e3 + 3.0 * e4)
    h2 = -c0_sq * c1_sq * scale * (1.0 - e4)
    h3 = -(c1_sq**2) * scale * (1.0 - 4.0 * e3 + 3.0 * e4)
    return h1, h2, h3


def build_two_qubit(e0, e1, well, g0):
    """Hamiltonians of two double-well qubits, a (..., 4, 4) stack over the
    couplings g0, in the basis order (00, 01, 10, 11):
    diag(2E0 + h1, E0+E1 + h2, E0+E1 + h2, 2E1 + h3) with h2 on the
    anti-diagonal."""
    scale = np.asarray(g0, dtype=float) / (4.0 * np.sqrt(np.pi) * well.sigma_x)
    h1, h2, h3 = coupling_terms(well.overlap, scale)
    h = np.zeros(np.shape(g0) + (4, 4))
    h[..., 0, 0] = 2.0 * e0 + h1
    h[..., 1, 1] = h[..., 2, 2] = e0 + e1 + h2
    h[..., 3, 3] = 2.0 * e1 + h3
    h[..., 0, 3] = h[..., 3, 0] = h[..., 1, 2] = h[..., 2, 1] = h2
    return h


def ground_state_entanglement(h):
    """Schmidt number K = 1/(1 - 2 Delta), Delta = |c00 c11 - c01 c10|^2, of
    the lowest eigenvector of each matrix of a (..., 4, 4) stack, solved in
    one ``eigh`` call.  Where the two lowest levels coincide, K is that of
    the vector ``eigh`` returns."""
    _, vectors = np.linalg.eigh(h)
    c = vectors[..., :, 0].reshape(vectors.shape[:-2] + (2, 2))
    delta = np.square(np.abs(c[..., 0, 0] * c[..., 1, 1] - c[..., 0, 1] * c[..., 1, 0]))
    return 1.0 / (1.0 - 2.0 * delta)


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
