"""Schmidt decomposition of slit states and the derived information
measures.

A slit state N sum_j u_j(x) v_j(xi), given by its slit geometry and its
particle density matrix D = N^2 S_xi in the slit basis
(:func:`qmodes.interference.slit_state`), has rank at most m, and every
inner product it needs is a closed-form overlap, so its decomposition is
an m x m eigenproblem with the quadrature done exactly (the known-range
case of Halko, Martinsson & Tropp 2011).  With S_x = E diag(mu) E^T, the
functions U E diag(mu)^(-1/2) are orthonormal, and in them the particle
density operator is the matrix W^T D W, W = E diag(mu)^(1/2).  Its
eigenvalues are the Schmidt weights; its eigenvectors, mapped back through
E diag(mu)^(-1/2), are the particle modes' coefficients in the slit basis,
so the modes sampled on any grid are ``basis @ coefficients``.
Eigenvalues of S_x below ``DEFAULT_TRUNCATION`` times the largest are
dropped, which keeps overlapping slits well posed, and so are weights
below ``DEFAULT_TRUNCATION``.  States of one slit geometry share S_x, so
``schmidt_stack`` decomposes a sweep of them with one eigensolve of S_x and
one stacked eigensolve of their reduced matrices.

For two slits the weights have the closed form

    lambda_0 = (1 + e_a + e_b + e_a e_b) / (2 (1 + e_a e_b))
    lambda_1 = (1 - e_a - e_b + e_a e_b) / (2 (1 + e_a e_b))

where e_a = exp(-a^2/2 sigma_x^2), e_b = exp(-b^2/2 sigma_xi^2).  Measures:
entropy S = -sum lambda log2 lambda, mode count K = 1/sum lambda^2,
information I = log2 K.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .interference import DetectorParams, SlitParams, basis_density
from .numerics import eigh

__all__ = [
    "SchmidtDecomposition",
    "InvalidWeightsError",
    "analytic_two_slit_weights",
    "schmidt_stack",
    "schmidt",
    "entropy",
    "schmidt_number",
    "information",
    "reconstruct_marginal",
]

DEFAULT_TRUNCATION = 1e-12
DEGENERACY_TOL = 1e-10
# a weight vector must sum to 1 within this
WEIGHT_SUM_TOL = 1e-6


class InvalidWeightsError(ValueError):
    """Weight vector is not a probability distribution."""


@dataclass(frozen=True)
class SchmidtDecomposition:
    """Weights, descending, and the particle modes in the slit basis.

    Particle mode k is sum_j coefficients[j, k] u_j, and the modes are
    orthonormal.  When two retained weights coincide within ~1e-10 the
    individual modes are only defined up to rotations in the degenerate
    subspace and the ``degenerate`` flag is set.
    """

    weights: np.ndarray
    coefficients: np.ndarray
    degenerate: bool = False

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        if np.ndim(self.coefficients) != 2 or np.shape(self.coefficients)[1] != w.size:
            raise ValueError("mode count does not match the number of weights")
        object.__setattr__(self, "weights", w)


def _validate_weights(weights) -> np.ndarray:
    w = np.asarray(weights, dtype=float)
    if w.ndim != 1 or w.size == 0:
        raise InvalidWeightsError(f"expected a non-empty 1-D weight vector, got shape {w.shape}")
    if np.any(w < -1e-12):
        raise InvalidWeightsError(f"negative weight {w.min():.3e}")
    if abs(w.sum() - 1.0) > WEIGHT_SUM_TOL:
        raise InvalidWeightsError(f"weights sum to {w.sum():.8f}, expected 1")
    return np.clip(w, 0.0, None)


def analytic_two_slit_weights(slits: SlitParams, det: DetectorParams) -> tuple[float, float]:
    """Closed-form (lambda_0, lambda_1) for the two-slit entangled state.

    lambda_1 = (1 - e_a)(1 - e_b) / 2(1 + e_a e_b) takes both factors from
    expm1, so it keeps its relative accuracy as either overlap nears 1.
    """
    e_a, e_b = slits.overlap, det.overlap
    denom = 2.0 * (1.0 + e_a * e_b)
    lam0 = (1.0 + e_a + e_b + e_a * e_b) / denom
    gap_a = -np.expm1(-(slits.a**2) / (2.0 * slits.sigma_x**2))
    gap_b = -np.expm1(-(det.b**2) / (2.0 * det.sigma_xi**2))
    lam1 = gap_a * gap_b / denom
    return float(lam0), float(lam1)


def schmidt_stack(slits: SlitParams, densities) -> list[SchmidtDecomposition]:
    """Schmidt decompositions of k states of one slit geometry, from their
    particle density matrices D, a (k, m, m) stack.

    One eigensolve of S_x serves the stack, and the k reduced matrices are
    solved in one stacked call.  LAPACK solves each matrix of a stack on its
    own, so a state's decomposition does not depend on the others in the
    stack.  Per state, weights below ``DEFAULT_TRUNCATION`` are dropped, but
    the largest is always kept.
    """
    mu, e = eigh(slits.overlaps)
    kept = mu > DEFAULT_TRUNCATION * mu[-1]
    mu, e = mu[kept], e[:, kept]
    half = e * np.sqrt(mu)
    lams, vecs = eigh(half.T @ np.asarray(densities) @ half)
    back = e / np.sqrt(mu)
    decompositions = []
    for lam, vec in zip(lams[:, ::-1], vecs[:, :, ::-1]):
        keep = max(int(np.sum(lam >= DEFAULT_TRUNCATION)), 1)
        weights = lam[:keep]
        degenerate = bool(np.any(np.abs(np.diff(weights)) < DEGENERACY_TOL))
        decompositions.append(SchmidtDecomposition(weights, back @ vec[:, :keep], degenerate))
    return decompositions


def schmidt(slits: SlitParams, density) -> SchmidtDecomposition:
    """Schmidt decomposition of the slit state of density matrix D =
    ``density`` (``slit_state``): ``schmidt_stack`` of a stack of one."""
    return schmidt_stack(slits, density[None])[0]


def entropy(weights) -> float:
    """Entanglement entropy S = -sum lambda_k log2 lambda_k, with 0 log 0 = 0."""
    w = _validate_weights(weights)
    nz = w[w > 0]
    # 0 - sum, not -sum: a single weight of 1 gives +0.0
    return float(0.0 - np.sum(nz * np.log2(nz)))


def schmidt_number(weights) -> float:
    """Effective number of modes K = 1 / sum lambda_k^2."""
    w = _validate_weights(weights)
    return float(1.0 / np.sum(w**2))


def information(weights) -> float:
    """Schmidt information I = log2 K."""
    return float(np.log2(schmidt_number(weights)))


def reconstruct_marginal(decomp: SchmidtDecomposition, basis: np.ndarray) -> np.ndarray:
    """Particle marginal as the mode mixture sum_k lambda_k |psi_k|^2.

    ``basis`` is the slit basis sampled on a grid (``slit_basis``).  The
    mixture equals the marginal density of the decomposed state on that
    grid, point by point, up to the truncation threshold.
    """
    c = decomp.coefficients
    return basis_density(basis, (c * decomp.weights) @ c.T)
