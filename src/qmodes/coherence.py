"""Fringe visibility, its universal coupling to the Schmidt number, and the
partial-coherence models that reduce to a detector overlap.

A two-slit state with particle density matrix D in the slit basis
(:func:`qmodes.interference.slit_state`) has the momentum pattern
env(p)^2 (D_00 + D_11 + 2 D_01 cos 2ap), env the Gaussian envelope of one
slit.  Its visibility, the modulation left once the envelope is divided
out, is read from the state, V = 2|D_01| / (D_00 + D_11), at any slit
spacing and with no pattern sampled; for the state of detector overlap
gamma it is |gamma|.

A source point displaced from the optical axis advances one slit's phase
by phi relative to the other; entangling the sign of that shift with an
auxiliary qubit reproduces classical partial coherence.  The qubit takes
the place of the which-way detector: its branch states
v_0 = (e^(i phi), e^(-i phi))/sqrt 2 and v_1 = conj(v_0) overlap by
cos 2 phi, so the model is ``interference.slit_state(slits, cos 2 phi)``.
A uniform source of dimensionless size y is the same two-slit state with
the overlap gamma(y) = sinc(4 y) of van Cittert-Zernike (Born & Wolf,
Principles of Optics, ch. 10), in the normalized convention
sinc(x) = sin(pi x)/(pi x) of numpy.  gamma is signed: for y in
(1/4, 1/2) it is negative and the fringes reverse their contrast.  For any
two-mode decomposition with visibility V = |gamma|,

    K = 2 / (1 + V^2),   lambda_0 = (1 + V)/2,   lambda_1 = (1 - V)/2.
"""

from __future__ import annotations

import numpy as np

from .interference import SlitParams
from .schmidt import DEFAULT_TRUNCATION, entropy

__all__ = [
    "UnresolvedFringesError",
    "check_fringes",
    "visibility",
    "k_from_v",
    "entropy_from_v",
    "source_coherence",
    "source_visibility",
    "source_schmidt",
]


class UnresolvedFringesError(ValueError):
    """Two slits coincide within the Schmidt truncation: S_x has lost an
    eigenvalue, so the state has no two orthonormal paths to interfere."""


def check_fringes(slits: SlitParams) -> None:
    """Raise :class:`UnresolvedFringesError` when two slits are unresolved in S_x.

    S_x has the eigenvalues 1 -/+ q, q = exp(-a^2 / 2 sigma_x^2), and the
    Schmidt truncation drops the smaller once their ratio
    (1 - q)/(1 + q) = tanh(a^2 / 4 sigma_x^2) falls to ``DEFAULT_TRUNCATION``.
    """
    if np.tanh(slits.a**2 / (4.0 * slits.sigma_x**2)) <= DEFAULT_TRUNCATION:
        raise UnresolvedFringesError(
            f"no fringes: slits a={slits.a:g} apart coincide at width sigma_x={slits.sigma_x:g}"
        )


def visibility(density):
    """Fringe visibility 2|D_01| / (D_00 + D_11) of a two-slit density matrix D.

    Elementwise over a stack of matrices; one matrix gives a float.
    """
    d = np.asarray(density)
    v = 2.0 * np.abs(d[..., 0, 1]) / (d[..., 0, 0] + d[..., 1, 1])
    return v if v.ndim else float(v)


def _clamped_visibility(v: float) -> float:
    """v clamped to [0, 1]; more than 1e-12 outside raises ``ValueError``."""
    if not -1e-12 <= v <= 1.0 + 1e-12:
        raise ValueError(f"visibility must lie in [0, 1], got {v}")
    return min(max(v, 0.0), 1.0)


def k_from_v(v: float) -> float:
    """Schmidt number of a two-mode state with visibility v: K = 2/(1 + v^2)."""
    return 2.0 / (1.0 + _clamped_visibility(v) ** 2)


def entropy_from_v(v: float) -> float:
    """Entropy of the two-mode weights ((1+V)/2, (1-V)/2)."""
    v = _clamped_visibility(v)
    return entropy(((1.0 + v) / 2.0, (1.0 - v) / 2.0))


def source_coherence(y):
    """Overlap gamma = sinc(4 y) of a uniform source of dimensionless size y.

    Signed: negative for y in (1/4, 1/2), where the fringes reverse their
    contrast.  Elementwise over an array of sizes; a scalar y gives a float.
    Raises ``ValueError`` if any size is negative.
    """
    y = np.asarray(y, dtype=float)
    if np.any(y < 0):
        raise ValueError(f"source size must be non-negative, got {np.min(y[y < 0])}")
    gamma = np.sinc(4.0 * y)
    return gamma if gamma.ndim else float(gamma)


def source_visibility(y):
    """Visibility |sinc(4 y)| from a uniform source of size y, like ``source_coherence``."""
    v = np.abs(source_coherence(y))
    return v if v.ndim else float(v)


def source_schmidt(y):
    """Schmidt number from a uniform source of size y: 2 / (1 + sinc^2(4 y)).

    Elementwise over an array of sizes, like ``source_visibility``.
    """
    k = 2.0 / (1.0 + np.square(source_visibility(y)))
    return k if k.ndim else float(k)
