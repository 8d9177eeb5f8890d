"""Fringe visibility, its universal coupling to the Schmidt number, and the
partial-coherence models that reduce to a detector overlap.

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

from .numerics import SampledWave

__all__ = [
    "UnresolvedFringesError",
    "visibility_from_intensity",
    "k_from_v",
    "v_from_k",
    "entropy_from_v",
    "source_coherence",
    "source_visibility",
    "source_schmidt",
]

MIN_SAMPLES_PER_PERIOD = 16


class UnresolvedFringesError(ValueError):
    """Momentum grid too coarse to resolve the fringe period pi/a."""


def visibility_from_intensity(density: SampledWave, a: float, sigma_x: float) -> float:
    """Fringe visibility (I_max - I_min) / (I_max + I_min) of a two-slit pattern.

    The Gaussian envelope exp(-2 sigma_x^2 p^2) is divided out and
    A + B cos(2 a p) + C sin(2 a p) is fitted by linear least squares over
    the central window |p| <= 3 pi/(4a); V = hypot(B, C) / A.  Requires at
    least 16 samples per fringe period pi/a.
    """
    if not a > 0:
        raise ValueError(f"slit half-spacing must be positive, got {a}")
    grid = density.grid
    period = np.pi / a
    if grid.spacing > period / MIN_SAMPLES_PER_PERIOD:
        raise UnresolvedFringesError(
            f"grid spacing {grid.spacing:.4g} exceeds {period / MIN_SAMPLES_PER_PERIOD:.4g} "
            f"(need >= {MIN_SAMPLES_PER_PERIOD} samples per period pi/a)"
        )
    p = grid.points
    window = np.abs(p) <= 0.75 * period
    if np.count_nonzero(window) < 5:
        raise UnresolvedFringesError("central fringe window not covered by the grid")
    p = p[window]
    flat = np.real(density.amplitudes[window]) / np.exp(-2.0 * sigma_x**2 * p**2)
    # normal equations: the three columns are far from dependent over 1.5 periods
    basis = np.vstack((np.ones_like(p), np.cos(2.0 * a * p), np.sin(2.0 * a * p)))
    try:
        mean, cos_part, sin_part = np.linalg.solve(basis @ basis.T, basis @ flat)
    except np.linalg.LinAlgError:
        # cos(2 a p) = 1 over the whole grid: the slits coincide in floating point
        raise UnresolvedFringesError(
            f"no fringe across the grid: slits a={a:g} apart coincide at width sigma_x={sigma_x:g}"
        ) from None
    if mean <= 0:
        raise ValueError("intensity pattern is not positive on the central window")
    return float(np.clip(np.hypot(cos_part, sin_part) / mean, 0.0, 1.0))


def k_from_v(v: float) -> float:
    """Schmidt number of a two-mode state with visibility v: K = 2/(1 + v^2)."""
    if not -1e-12 <= v <= 1.0 + 1e-12:
        raise ValueError(f"visibility must lie in [0, 1], got {v}")
    return 2.0 / (1.0 + min(max(v, 0.0), 1.0) ** 2)


def v_from_k(k: float) -> float:
    """Visibility of a two-mode state with Schmidt number k: V = sqrt((2-k)/k)."""
    if not 1.0 - 1e-12 <= k <= 2.0 + 1e-12:
        raise ValueError(f"two-mode Schmidt number must lie in [1, 2], got {k}")
    k = min(max(k, 1.0), 2.0)
    return float(np.sqrt((2.0 - k) / k))


def entropy_from_v(v: float) -> float:
    """Entropy of the two-mode weights ((1+V)/2, (1-V)/2)."""
    if not -1e-12 <= v <= 1.0 + 1e-12:
        raise ValueError(f"visibility must lie in [0, 1], got {v}")
    v = min(max(v, 0.0), 1.0)
    s = 0.0
    for lam in ((1.0 + v) / 2.0, (1.0 - v) / 2.0):
        if lam > 0.0:
            s -= lam * np.log2(lam)
    return float(s)


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
