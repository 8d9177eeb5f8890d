"""Gaussian slit wavefunctions, multi-slit geometry and the entangled
particle-detector joint state.

A particle passes a screen with m Gauss-type slits of width parameter
sigma_x spaced 2a apart; a detecting degree of freedom xi responds with a
Gaussian "spot" of width sigma_xi centered at +/-b, ... correlated with the
slit index.  Momentum-space amplitudes factor into Gaussian envelopes times
the slit form factor

    F(eta) = sin(m eta) / sin(eta) = sum_k cos((m - 1 - 2k) eta),
    eta = p_x a + p_xi b.

Expanding each cosine of the sum splits the state into m product terms,
so slit joint states are stored as rank-m factor pairs, never as n x n
matrices; :mod:`qmodes.schmidt` decomposes those factors directly.
Normalization constants are always computed numerically rather than set
to their well-separated-slit limit of 1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .numerics import Grid1D, SampledWave, trapezoid_weights

__all__ = [
    "COORDINATE",
    "MOMENTUM",
    "SlitParams",
    "DetectorParams",
    "JointState",
    "WrongRepresentationError",
    "two_slit_norm",
    "slit_centers",
    "spot_centers",
    "form_factor",
    "joint_state_momentum",
    "joint_state_coordinate",
    "marginal_momentum_density",
    "marginal_coordinate_density",
]

COORDINATE = "coordinate"
MOMENTUM = "momentum"

WELL_SEPARATED_OVERLAP = 0.01


class WrongRepresentationError(ValueError):
    """Operation applied to a joint state in the wrong representation."""


@dataclass(frozen=True)
class SlitParams:
    """Screen geometry: m slits of width sigma_x, consecutive centers 2a apart."""

    a: float
    sigma_x: float
    m: int = 2

    def __post_init__(self):
        if self.m < 1:
            raise ValueError(f"slit count must be >= 1, got {self.m}")
        if not self.sigma_x > 0:
            raise ValueError(f"sigma_x must be positive, got {self.sigma_x}")
        if self.m >= 2 and not self.a > 0:
            raise ValueError(f"slit half-spacing must be positive, got {self.a}")

    @property
    def overlap(self) -> float:
        """Gaussian overlap exp(-a^2 / 2 sigma_x^2) of neighbouring slits."""
        return float(np.exp(-self.a**2 / (2.0 * self.sigma_x**2)))

    @property
    def well_separated(self) -> bool:
        return self.overlap < WELL_SEPARATED_OVERLAP


@dataclass(frozen=True)
class DetectorParams:
    """Detector response: spots of width sigma_xi, half-spacing b (b = 0: no coupling)."""

    b: float
    sigma_xi: float

    def __post_init__(self):
        if self.b < 0:
            raise ValueError(f"spot half-spacing must be non-negative, got {self.b}")
        if not self.sigma_xi > 0:
            raise ValueError(f"sigma_xi must be positive, got {self.sigma_xi}")


@dataclass(frozen=True)
class JointState:
    """Two-particle amplitude psi(x, xi) on a particle x detector grid, in factored form.

    ``psi = left @ right.T``: column k of ``left`` (n_x x r) and of ``right``
    (n_xi x r) sample one product term.  Omitting ``right`` takes it as the
    identity, so ``left`` is then the dense amplitude matrix itself.  The
    representation flag records whether the axes are coordinates or the
    conjugate momenta; the dtype may be real when the state carries no phase.
    """

    particle_grid: Grid1D
    detector_grid: Grid1D
    left: np.ndarray
    representation: str
    right: np.ndarray | None = None

    def __post_init__(self):
        left = np.asarray(self.left)
        if left.ndim != 2:
            raise ValueError(f"left factor must be a matrix, got shape {left.shape}")
        right = np.eye(left.shape[1]) if self.right is None else np.asarray(self.right)
        expected = (self.particle_grid.n_points, self.detector_grid.n_points)
        if (left.shape[0], right.shape[0]) != expected or right.shape[1:] != left.shape[1:]:
            raise ValueError(f"factor shapes {left.shape}, {right.shape} do not match grids {expected}")
        if self.representation not in (COORDINATE, MOMENTUM):
            raise ValueError(f"unknown representation {self.representation!r}")
        object.__setattr__(self, "left", left)
        object.__setattr__(self, "right", right)

    @property
    def amplitudes(self) -> np.ndarray:
        """Dense n_x x n_xi amplitude matrix (``amplitudes[i, j]`` at point i, j)."""
        return self.left @ self.right.T

    def norm(self) -> float:
        total = np.sum(_gram(self.left, self.particle_grid) * _gram(self.right, self.detector_grid))
        return float(np.sqrt(total.real))


def two_slit_norm(a: float, sigma_x: float) -> float:
    """Normalization C^2 = 1 / (1 + exp(-a^2 / 2 sigma_x^2)) of the symmetric pair."""
    if not sigma_x > 0:
        raise ValueError(f"sigma_x must be positive, got {sigma_x}")
    return 1.0 / (1.0 + np.exp(-(a**2) / (2.0 * sigma_x**2)))


def slit_centers(m: int, a: float) -> np.ndarray:
    """Centers of m slits spaced 2a apart, symmetric about 0, sorted.

    Odd m: 0, +/-2a, ..., +/-(m-1)a.  Even m: +/-a, +/-3a, ..., +/-(m-1)a.
    """
    if m < 1:
        raise ValueError(f"slit count must be >= 1, got {m}")
    return (2.0 * np.arange(m) - (m - 1)) * a


def spot_centers(m: int, b: float) -> np.ndarray:
    """Detector spot centers, same layout as the slits with spacing 2b."""
    return slit_centers(m, b)


def form_factor(eta, m: int) -> np.ndarray | float:
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


def _gram(factor: np.ndarray, grid: Grid1D) -> np.ndarray:
    """Quadrature overlaps of the factor's columns: factor^T W conj(factor)."""
    return factor.T @ (trapezoid_weights(grid)[:, None] * factor.conj())


def _normalize_joint(
    left: np.ndarray, right: np.ndarray, particle_grid: Grid1D, detector_grid: Grid1D, representation: str
) -> JointState:
    norm = JointState(particle_grid, detector_grid, left, representation, right).norm()
    if not norm > 0:
        raise ValueError("joint amplitude is identically zero")
    return JointState(particle_grid, detector_grid, left / norm, representation, right)


def joint_state_momentum(
    slits: SlitParams,
    det: DetectorParams,
    particle_grid: Grid1D,
    detector_grid: Grid1D,
) -> JointState:
    """Entangled m-slit state in momentum representation.

    psi~(p_x, p_xi) = (C/sqrt(m)) sqrt(2 sigma_x) sqrt(2 sigma_xi) / sqrt(2 pi)
                      * exp(-sigma_x^2 p_x^2) exp(-sigma_xi^2 p_xi^2) F(p_x a + p_xi b)

    with C fixed by numerical normalization on the supplied grids.  Each
    cosine pair cos(c eta) + cos(-c eta) of F expands into two product terms,
    2 cos(c a p_x) cos(c b p_xi) - 2 sin(c a p_x) sin(c b p_xi), and odd m adds
    the constant c = 0 term, which gives m factor columns.  For b = 0 the
    sine terms vanish and the state is a product (no entanglement).
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
    if slits.m % 2:  # the c = 0 term
        left.append(np.ones((p.size, 1)))
        right.append(np.ones((q.size, 1)))
    return _normalize_joint(
        env_x * np.hstack(left), env_xi * np.hstack(right), particle_grid, detector_grid, MOMENTUM
    )


def joint_state_coordinate(
    slits: SlitParams,
    det: DetectorParams,
    particle_grid: Grid1D,
    detector_grid: Grid1D,
) -> JointState:
    """Entangled m-slit state in coordinate representation.

    Superposition of m two-dimensional Gaussians, one per (slit, spot) pair:
    the slit Gaussians are the left factor, the spot Gaussians the right one.
    Normalized numerically.  The two-slit case reduces to a symmetric pair of
    Gaussians at (+/-a, +/-b) with
    C^2 = 1 / (1 + exp(-(a^2/sigma_x^2 + b^2/sigma_xi^2)/2)).
    """
    x = particle_grid.points[:, None]
    xi = detector_grid.points[:, None]
    left = np.exp(-((x - slit_centers(slits.m, slits.a)) ** 2) / (4.0 * slits.sigma_x**2))
    right = np.exp(-((xi - spot_centers(slits.m, det.b)) ** 2) / (4.0 * det.sigma_xi**2))
    return _normalize_joint(left, right, particle_grid, detector_grid, COORDINATE)


def _particle_marginal(state: JointState) -> SampledWave:
    # diagonal of left @ G @ left^H, G the Gram matrix of the right factor;
    # the row sums go through a matmul, as np.sum over a short axis is slow
    gram = _gram(state.right, state.detector_grid)
    density = ((state.left @ gram) * state.left.conj()).real @ np.ones(gram.shape[0])
    return SampledWave(state.particle_grid, density)


def marginal_momentum_density(state: JointState) -> SampledWave:
    """Particle momentum density P~_x(p_x) = Integral |psi~(p_x, p_xi)|^2 dp_xi.

    For the two-slit state this carries the fringe modulation factor
    exp(-b^2 / 2 sigma_xi^2) on cos(2 p_x a); at b = 0 it equals the ideal
    two-slit pattern.
    """
    if state.representation != MOMENTUM:
        raise WrongRepresentationError("marginal_momentum_density needs a momentum-space state")
    return _particle_marginal(state)


def marginal_coordinate_density(state: JointState) -> SampledWave:
    """Particle coordinate density P_x(x) = Integral |psi(x, xi)|^2 dxi."""
    if state.representation != COORDINATE:
        raise WrongRepresentationError("marginal_coordinate_density needs a coordinate-space state")
    return _particle_marginal(state)
