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
(1/4, 1/2) it is negative and the fringes reverse their contrast.  When the
two slit states are orthogonal, the state's Schmidt weights follow from its
visibility V = |gamma|,

    K = 2 / (1 + V^2),   lambda_0 = (1 + V)/2,   lambda_1 = (1 - V)/2,

and ``k_from_v`` gives that K for the fig7 curve and the coherence sweep's
``schmidt_from_v`` column.  Overlapping slits break this relation
(Englert, PRL 77, 2154 (1996)): the state of ``a = 0.5``, ``sigma_x = 0.5``
and gamma = cos(pi/4) has V = 0.707 but weights 0.960 and 0.040 (K = 1.084,
not 1.333).  So every other K in a report, fig6-data's included, comes from
the state's Schmidt decomposition (:mod:`qmodes.schmidt`), and every V of
a state from its density matrix by ``visibility``.  The fig7 curve builds
no state: its V = |sinc 4y| is written out where it is used.
"""

from __future__ import annotations

import numpy as np

from .interference import SlitParams
from .schmidt import DEFAULT_TRUNCATION

__all__ = [
    "UnresolvedFringesError",
    "check_fringes",
    "visibility",
    "k_from_v",
    "source_coherence",
]


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


def visibility(density):
    """Fringe visibility 2|D_01| / (D_00 + D_11) of a two-slit density matrix D.

    Elementwise over a stack of matrices.
    """
    return 2.0 * np.abs(density[..., 0, 1]) / (density[..., 0, 0] + density[..., 1, 1])


def k_from_v(v):
    """K = 2/(1 + v^2): the Schmidt number of a state of visibility v whose
    two slit states are orthogonal.

    Elementwise over an array of visibilities.
    """
    return 2.0 / (1.0 + np.square(v))


def source_coherence(y):
    """Overlap gamma = sinc(4 y) of a uniform source of dimensionless size y.

    Signed: negative for y in (1/4, 1/2), where the fringes reverse their
    contrast.  Elementwise over an array of sizes.
    """
    return np.sinc(4.0 * y)
