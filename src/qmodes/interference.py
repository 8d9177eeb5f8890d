"""Gaussian slit functions, multi-slit geometry and the entangled
particle-detector state.

A particle passes a screen with m Gauss-type slits of width parameter
sigma_x spaced 2a apart; a detecting degree of freedom xi responds with a
Gaussian "spot" of width sigma_xi centered at +/-b, ... correlated with the
slit index.  Slits and spots are described by one basis, the
unit-normalized slit functions

    u_j(x)  = (2 pi sigma^2)^(-1/4) exp(-(x - c_j)^2 / 4 sigma^2),
    u~_j(p) = (2 sigma^2 / pi)^(1/4) exp(-sigma^2 p^2) exp(-i p c_j),

the second the Fourier transform of the first under the
:mod:`qmodes.numerics` convention, with c_j the centers of
:func:`slit_centers`.  Their overlaps are closed forms,
S[j, k] = q^((j - k)^2) with q = exp(-a^2 / 2 sigma^2) the overlap of
neighbours.  The entangled state N sum_j u_j(x) v_j(xi) is thus fixed by
the slits and the detector overlap matrix S_xi[j, k] = gamma^((j - k)^2),
with N^2 = 1 / sum(S_x o S_xi) exactly, and it enters every result through
one m x m array, its particle density matrix D = N^2 S_xi in the slit basis
(:func:`slit_state`).  For two separated slits one
number, the overlap gamma of neighbouring detector (or environment)
states, sets the fringe visibility |gamma| and K = 2 / (1 + gamma^2): a
which-way detector with spots of width sigma_xi at +/-b gives
gamma = exp(-b^2 / 2 sigma_xi^2) (:func:`detector_overlap`), the coherence
qubit gamma = cos 2 phi, and a uniform source of size y gamma = sinc(4 y)
(:mod:`qmodes.coherence`).  The particle marginal in either
representation is the diagonal of U D U^H, with U the slit basis
sampled on the particle grid, by :func:`coordinate_basis` at positions or
:func:`momentum_basis` at momenta, so no detector axis is ever sampled.  In
momentum space the joint amplitude is the product of the two Gaussian
envelopes and the slit form factor

    F(eta) = sin(m eta) / sin(eta) = sum_k cos((m - 1 - 2k) eta),
    eta = p_x a + p_xi b.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np

from .numerics import MAX_SLITS

__all__ = [
    "SlitParams",
    "detector_overlap",
    "slit_centers",
    "slit_state",
    "coordinate_basis",
    "momentum_basis",
    "basis_density",
]

# lengths up to this and widths down to its reciprocal keep every square
# and every grid a width sets in the float64 range, so an overlap such as
# exp(-a^2 / 2 sigma^2) underflows to 0 where a / sigma is large
_SCALE = 1e150


def _check_scale(name: str, value: float, low: float):
    if not low <= value <= _SCALE:
        raise ValueError(f"{name} must be finite and in [{low:g}, {_SCALE:g}], got {value}")


@dataclass(frozen=True)
class SlitParams:
    """Screen geometry: m slits of width sigma_x, consecutive centers 2a apart."""

    a: float
    sigma_x: float
    m: int

    def __post_init__(self):
        if not isinstance(self.m, numbers.Integral):
            raise ValueError(f"slit count m must be an integer, got {self.m!r}")
        if self.m < 1:
            raise ValueError(f"slit count m must be >= 1, got {self.m}")
        if self.m > MAX_SLITS:
            raise ValueError(f"slit count m must be at most {MAX_SLITS}, got {self.m}")
        _check_scale("sigma_x", self.sigma_x, 1.0 / _SCALE)
        _check_scale("slit half-spacing a", self.a, 0.0)
        if self.m >= 2 and not self.a > 0:
            raise ValueError(f"slit half-spacing must be positive, got {self.a}")

    @property
    def overlap(self) -> float:
        """Gaussian overlap exp(-a^2 / 2 sigma_x^2) of neighbouring slits."""
        return float(np.exp(-self.a**2 / (2.0 * self.sigma_x**2)))

    @property
    def overlaps(self) -> np.ndarray:
        """Slit overlap matrix S_x[j, k] = <u_j|u_k> = overlap^((j - k)^2)."""
        return _overlap_matrix(self.overlap, self.m)


def detector_overlap(b: float, sigma_xi: float) -> float:
    """Overlap gamma = exp(-b^2 / 2 sigma_xi^2) of neighbouring detector
    spots of width sigma_xi centered 2b apart (b = 0: no coupling).

    It damps the fringes cos(2 p_x a) of the two-slit momentum marginal.
    """
    _check_scale("spot half-spacing b", b, 0.0)
    _check_scale("sigma_xi", sigma_xi, 1.0 / _SCALE)
    return float(np.exp(-(b**2) / (2.0 * sigma_xi**2)))


def slit_centers(m: int, a: float) -> np.ndarray:
    """Centers of m slits spaced 2a apart, symmetric about 0, sorted.

    Odd m: 0, +/-2a, ..., +/-(m-1)a.  Even m: +/-a, +/-3a, ..., +/-(m-1)a.
    """
    return (2.0 * np.arange(m) - (m - 1)) * a


def _overlap_matrix(overlap: float, m: int) -> np.ndarray:
    """Overlaps overlap^((j - k)^2) of m unit Gaussians laid out like the slits."""
    j = np.arange(m)
    return overlap ** (np.subtract.outer(j, j) ** 2)


def slit_state(slits: SlitParams, overlap: float) -> np.ndarray:
    """Particle density matrix D of the m-slit state whose neighbouring
    detector states overlap by gamma = ``overlap``, an (m, m) array.

    The state is N sum_j u_j(x) v_j(xi) with detector overlaps
    S_xi[j, k] = <v_j|v_k> = gamma^((j - k)^2), and its particle reduced
    density matrix in the slit basis is D = N^2 S_xi, N^2 = 1 / sum(S_x o S_xi):
    rho_x = sum_jk D[j, k] |u_j><u_k|.  gamma is ``detector_overlap(b, sigma_xi)``
    for a which-way detector, cos 2 phi for the coherence qubit and the
    signed ``coherence.source_coherence(y)`` for a uniform source; gamma = 1
    leaves the particle unentangled.  Every such gamma lies in [-1, 1], so
    it is taken as given; raises ``ValueError`` when the joint amplitude
    vanishes.
    """
    s_xi = _overlap_matrix(overlap, slits.m)
    total = float(np.sum(slits.overlaps * s_xi))
    if not total > 0:
        raise ValueError("joint amplitude is identically zero")
    return s_xi / total


def coordinate_basis(slits: SlitParams, x) -> np.ndarray:
    """The unit slit functions u_j(x) at the points ``x``, one column each."""
    s = slits.sigma_x
    t = np.asarray(x, dtype=float)[:, None] - slit_centers(slits.m, slits.a)
    # far from every slit the exponent may overflow to -inf: the value is 0
    with np.errstate(over="ignore"):
        return (2.0 * np.pi * s**2) ** -0.25 * np.exp(-(t**2) / (4.0 * s**2))


def momentum_basis(slits: SlitParams, p) -> np.ndarray:
    """The unit slit functions u~_j(p) at the momenta ``p``, one column each."""
    s = slits.sigma_x
    t = np.asarray(p, dtype=float)[:, None]
    tc = t * slit_centers(slits.m, slits.a)
    return (2.0 * s**2 / np.pi) ** 0.25 * np.exp(-(s**2) * t**2) * (np.cos(tc) - 1j * np.sin(tc))


def basis_density(basis: np.ndarray, matrix: np.ndarray) -> np.ndarray:
    """Density sum_jk u_j A[j, k] conj(u_k) at each sample of the basis U.

    With A a density matrix in the slit basis this is the density of that
    state where U was sampled: ``basis_density(basis, slit_state(slits, gamma))``
    is the particle marginal P_x(x) = Integral |psi(x, xi)|^2 dxi for a
    ``coordinate_basis`` and P~_x(p_x) for a ``momentum_basis``.  A is real
    symmetric, so the density is the sum over the real and the imaginary
    part V of U of the row sums of (V A) o V, all in real arithmetic; the
    row sums go through a matmul, as np.sum over a short axis is slow.
    """
    parts = (basis.real, basis.imag) if np.iscomplexobj(basis) else (basis,)
    return sum((part @ matrix) * part for part in parts) @ np.ones(basis.shape[1])
