"""Schmidt decomposition of slit states and the derived information
measures.

A slit state N sum_j u_j(x) v_j(xi), given by its slit geometry and its
particle density matrix D = N^2 S_xi in the slit basis
(:func:`qmodes.interference.slit_state`), has rank at most m, and every
inner product it needs is a closed-form overlap, so its decomposition is an
m x m eigenproblem with the quadrature done exactly (the known-range case
of Halko, Martinsson & Tropp 2011).  With S_x = E diag(mu) E^T, the
functions U E diag(mu)^(-1/2) are orthonormal, and in them the particle
density operator is the matrix W^T D W, W = E diag(mu)^(1/2).  The Schmidt
weights are its eigenvalues over their sum, so no rounding of N^2 reaches
them (for two slits N^2 = 1/(2 + 2 q gamma) cancels as the slits close at
gamma = -1); its eigenvectors, mapped back through E diag(mu)^(-1/2), are
the particle modes' coefficients in the slit basis, so the modes sampled on
any grid are ``basis @ coefficients``.  S_x and W^T D W are symmetric by
construction, and LAPACK reads one triangle of each, so neither is checked.
Eigenvalues of S_x below ``DEFAULT_TRUNCATION`` times the largest are
dropped, which keeps overlapping slits well posed, and so are weights below
it.  For two slits that truncation bounds their spacing: S_x has the
eigenvalues 1 -/+ q, and once their ratio tanh(a^2 / 4 sigma_x^2) falls to
it the slits coincide, and ``check_fringes`` refuses them before a
visibility or fringe pattern is read from the state.  A decomposition is
the pair (weights, coefficients): the r kept weights descending, and an
(m, r) array whose column k holds the coefficients of mode k; where two
weights coincide, their modes are fixed only up to a rotation in their
subspace.  States of one slit geometry share S_x, so
``schmidt_stack`` decomposes a sweep of them with one eigensolve of S_x and
one stacked eigensolve of their reduced matrices, and returns one pair per
state: fig4's, fig6-data's and coherence's K come from it.  Only the fig7
curve and the coherence sweep's ``schmidt_from_v`` column take K from the
visibility instead, by ``coherence.k_from_v``, a closed form that holds for
orthogonal slit states alone.

For two slits the weights have the closed form

    lambda_0 = (1 + e_a + e_b + e_a e_b) / (2 (1 + e_a e_b))
    lambda_1 = (1 - e_a - e_b + e_a e_b) / (2 (1 + e_a e_b))

where e_a = exp(-a^2/2 sigma_x^2) and e_b = exp(-b^2/2 sigma_xi^2) for spots
of width sigma_xi at +/-b (``analytic_two_slit_weights``).  Measures:
entropy S = -sum lambda log2 lambda, mode count K = 1/sum lambda^2,
information I = log2 K.
"""

from __future__ import annotations

import numpy as np

from .interference import SlitParams, detector_overlap

__all__ = [
    "UnresolvedFringesError",
    "check_fringes",
    "analytic_two_slit_weights",
    "schmidt_stack",
    "schmidt",
    "entropy",
    "schmidt_number",
    "information",
]

DEFAULT_TRUNCATION = 1e-12


class UnresolvedFringesError(ValueError):
    """Two slits coincide within the Schmidt truncation: S_x has lost an
    eigenvalue, so the state has no two orthonormal paths to interfere."""


def check_fringes(slits: SlitParams) -> None:
    """Raise :class:`UnresolvedFringesError` when two slits are unresolved in S_x.

    S_x has the eigenvalues 1 -/+ q, q = exp(-a^2 / 2 sigma_x^2), and the
    Schmidt truncation drops the smaller once their ratio
    (1 - q)/(1 + q) = tanh(a^2 / 4 sigma_x^2) falls to ``DEFAULT_TRUNCATION``.
    The state of gamma = -1 lies wholly in its odd eigenvector: past the
    bound its reduced matrix is rounding noise, which ``schmidt_stack``
    would normalize into weight 1 on the even mode.
    """
    if np.tanh(slits.a**2 / (4.0 * slits.sigma_x**2)) <= DEFAULT_TRUNCATION:
        raise UnresolvedFringesError(
            f"no fringes: slits a={slits.a:g} apart coincide at width sigma_x={slits.sigma_x:g}"
        )


def analytic_two_slit_weights(slits: SlitParams, b: float, sigma_xi: float) -> tuple[float, float]:
    """Closed-form (lambda_0, lambda_1) for the two-slit entangled state with
    detector spots of width sigma_xi at +/-b.

    lambda_1 = (1 - e_a)(1 - e_b) / 2(1 + e_a e_b) takes both factors from
    expm1, so it keeps its relative accuracy as either overlap nears 1.
    """
    e_a, e_b = slits.overlap, detector_overlap(b, sigma_xi)
    denom = 2.0 * (1.0 + e_a * e_b)
    lam0 = (1.0 + e_a + e_b + e_a * e_b) / denom
    gap_a = -np.expm1(-(slits.a**2) / (2.0 * slits.sigma_x**2))
    gap_b = -np.expm1(-(b**2) / (2.0 * sigma_xi**2))
    lam1 = gap_a * gap_b / denom
    return float(lam0), float(lam1)


def schmidt_stack(slits: SlitParams, densities) -> list[tuple[np.ndarray, np.ndarray]]:
    """Schmidt decompositions of k states of one slit geometry, from their
    particle density matrices D, a (k, m, m) stack: one (weights,
    coefficients) pair per state.

    One eigensolve of S_x serves the stack, and the k reduced matrices are
    solved in one stacked call.  LAPACK solves each matrix of a stack on its
    own, so a state's decomposition does not depend on the others in the
    stack.  Per state, the weights are the eigenvalues over their sum, and
    those below ``DEFAULT_TRUNCATION`` are dropped; the largest of m weights
    summing to 1 is at least 1/m, so it is always kept.
    """
    mu, e = np.linalg.eigh(slits.overlaps)
    kept = mu > DEFAULT_TRUNCATION * mu[-1]
    mu, e = mu[kept], e[:, kept]
    half = e * np.sqrt(mu)
    lams, vecs = np.linalg.eigh(half.T @ np.asarray(densities) @ half)
    lams /= lams.sum(axis=-1, keepdims=True)
    back = e / np.sqrt(mu)
    decompositions = []
    for lam, vec in zip(lams[:, ::-1], vecs[:, :, ::-1]):
        keep = int(np.sum(lam >= DEFAULT_TRUNCATION))
        decompositions.append((lam[:keep], back @ vec[:, :keep]))
    return decompositions


def schmidt(slits: SlitParams, density) -> tuple[np.ndarray, np.ndarray]:
    """(weights, coefficients) of the slit state of density matrix D =
    ``density`` (``slit_state``): ``schmidt_stack`` of a stack of one."""
    return schmidt_stack(slits, density[None])[0]


def entropy(weights) -> float:
    """Entanglement entropy S = -sum lambda_k log2 lambda_k, with 0 log 0 = 0."""
    w = np.asarray(weights, dtype=float)
    nz = w[w > 0]
    # 0 - sum, not -sum: a single weight of 1 gives +0.0
    return float(0.0 - np.sum(nz * np.log2(nz)))


def schmidt_number(weights) -> float:
    """Effective number of modes K = 1 / sum lambda_k^2."""
    return float(1.0 / np.sum(np.square(weights)))


def information(weights) -> float:
    """Schmidt information I = log2 K."""
    return float(np.log2(schmidt_number(weights)))
