"""Schmidt decomposition of bipartite joint states and the derived
information measures.

The two-slit entangled state has cosine/sine Schmidt modes for particle
and detector, with the closed-form weights

    lambda_0 = (1 + e_a + e_b + e_a e_b) / (2 (1 + e_a e_b))
    lambda_1 = (1 - e_a - e_b + e_a e_b) / (2 (1 + e_a e_b))

where e_a = exp(-a^2/2 sigma_x^2), e_b = exp(-b^2/2 sigma_xi^2).  Any
sampled joint state is decomposed numerically from its factor pair
psi = left @ right.T: a thin QR of the quadrature-weighted particle factor
and an SVD of the r x n_xi core left over, never of the n x n amplitude
matrix.  The quadrature weights make the recovered modes orthonormal
under the continuum inner product and the weights sum to 1.  Measures:
entropy S = -sum lambda log2 lambda, mode count K = 1/sum lambda^2,
information I = log2 K.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .interference import DetectorParams, JointState, SlitParams
from .numerics import SampledWave, trapezoid_weights

__all__ = [
    "SchmidtDecomposition",
    "InvalidWeightsError",
    "analytic_two_slit_weights",
    "numerical_schmidt",
    "entropy",
    "schmidt_number",
    "information",
    "reconstruct_marginal",
]

DEFAULT_TRUNCATION = 1e-12
DEGENERACY_TOL = 1e-10


class InvalidWeightsError(ValueError):
    """Weight vector is not a probability distribution."""


@dataclass(frozen=True)
class SchmidtDecomposition:
    """Weights and paired particle/detector modes, weights descending.

    psi(x, xi) = sum_k sqrt(lambda_k) phi_k(x) chi_k(xi) up to the truncated
    tail, and the modes are orthonormal under trapezoid quadrature.  When
    two retained weights coincide within ~1e-10 the individual modes are
    only defined up to rotations in the degenerate subspace and the
    ``degenerate`` flag is set.
    """

    weights: np.ndarray
    particle_modes: list[SampledWave]
    detector_modes: list[SampledWave]
    truncation_threshold: float
    degenerate: bool = False

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        if len(self.particle_modes) != w.size or len(self.detector_modes) != w.size:
            raise ValueError("mode count does not match the number of weights")
        object.__setattr__(self, "weights", w)


def _validate_weights(weights, tol: float = 1e-6) -> np.ndarray:
    w = np.asarray(weights, dtype=float)
    if w.ndim != 1 or w.size == 0:
        raise InvalidWeightsError(f"expected a non-empty 1-D weight vector, got shape {w.shape}")
    if np.any(w < -1e-12):
        raise InvalidWeightsError(f"negative weight {w.min():.3e}")
    if abs(w.sum() - 1.0) > tol:
        raise InvalidWeightsError(f"weights sum to {w.sum():.8f}, expected 1")
    return np.clip(w, 0.0, None)


def analytic_two_slit_weights(slits: SlitParams, det: DetectorParams) -> tuple[float, float]:
    """Closed-form (lambda_0, lambda_1) for the two-slit entangled state."""
    e_a = np.exp(-slits.a**2 / (2.0 * slits.sigma_x**2))
    e_b = np.exp(-det.b**2 / (2.0 * det.sigma_xi**2))
    denom = 2.0 * (1.0 + e_a * e_b)
    lam0 = (1.0 + e_a + e_b + e_a * e_b) / denom
    lam1 = (1.0 - e_a - e_b + e_a * e_b) / denom
    return float(lam0), float(lam1)


def _real_if_possible(factor: np.ndarray) -> np.ndarray:
    if np.iscomplexobj(factor) and not np.any(factor.imag):
        return factor.real
    return factor


def numerical_schmidt(state: JointState, threshold: float = DEFAULT_TRUNCATION) -> SchmidtDecomposition:
    """Schmidt decomposition of a sampled joint state from its factor pair.

    Both factors are scaled by sqrt of the per-sample quadrature weights,
    and a thin QR of the particle factor, sqrt(W_x) left = Q_x T, leaves the
    weighted state as Q_x (T right^T sqrt(W_xi)).  An SVD of that r x n_xi
    core gives the singular values, whose squares are the weights, and its
    singular vectors, unscaled, are continuum-orthonormal modes.  The cost
    is O(n r^2), with r the factor rank (m for slit states).  Weights below
    ``threshold`` are dropped.  The free phase of every mode pair is fixed
    by making the largest-magnitude particle-mode component real and
    positive.
    """
    sqrt_wx = np.sqrt(trapezoid_weights(state.particle_grid))
    sqrt_wxi = np.sqrt(trapezoid_weights(state.detector_grid))
    q_x, t = np.linalg.qr(_real_if_possible(state.left) * sqrt_wx[:, None])
    core = t @ (_real_if_possible(state.right) * sqrt_wxi[:, None]).T
    u, s, vh = np.linalg.svd(core, full_matrices=False)
    lam = s**2
    keep = max(int(np.sum(lam >= threshold)), 1)
    weights = lam[:keep]
    modes_x = (q_x @ u[:, :keep]) / sqrt_wx[:, None]
    modes_xi = vh[:keep].T / sqrt_wxi[:, None]
    particle_modes: list[SampledWave] = []
    detector_modes: list[SampledWave] = []
    for k in range(keep):
        mode_x = modes_x[:, k]
        mode_xi = modes_xi[:, k]
        peak = np.argmax(np.abs(mode_x))
        if np.abs(mode_x[peak]) > 0:
            phase = mode_x[peak] / np.abs(mode_x[peak])
            mode_x = mode_x / phase
            mode_xi = mode_xi * phase
        particle_modes.append(SampledWave(state.particle_grid, mode_x))
        detector_modes.append(SampledWave(state.detector_grid, mode_xi))
    degenerate = bool(np.any(np.abs(np.diff(weights)) < DEGENERACY_TOL)) if keep > 1 else False
    return SchmidtDecomposition(weights, particle_modes, detector_modes, threshold, degenerate)


def entropy(weights) -> float:
    """Entanglement entropy S = -sum lambda_k log2 lambda_k, with 0 log 0 = 0."""
    w = _validate_weights(weights)
    nz = w[w > 0]
    return float(-np.sum(nz * np.log2(nz)))


def schmidt_number(weights) -> float:
    """Effective number of modes K = 1 / sum lambda_k^2."""
    w = _validate_weights(weights)
    return float(1.0 / np.sum(w**2))


def information(weights) -> float:
    """Schmidt information I = log2 K."""
    return float(np.log2(schmidt_number(weights)))


def reconstruct_marginal(decomp: SchmidtDecomposition) -> SampledWave:
    """Particle marginal as the mode mixture sum_k lambda_k |psi_k|^2.

    Equals the directly marginalized density of the decomposed state,
    point by point, up to the truncation threshold.
    """
    grid = decomp.particle_modes[0].grid
    density = np.zeros(grid.n_points)
    for lam, mode in zip(decomp.weights, decomp.particle_modes):
        density += lam * np.abs(mode.amplitudes) ** 2
    return SampledWave(grid, density)
