"""Two-level treatment of a particle in a symmetric double well, the
delta-coupled pair of such qubits, and the ammonia-inversion application.

The well U(x) = -alpha x^2/2 + beta x^4/4 has minima at +/-a with
a = sqrt(alpha/beta); Gaussian states of width sigma_x^2 = 1/(2 m omega_0)
sit in each, with omega_0 = sqrt(2 alpha / m).  ``DoubleWell`` holds
(alpha, beta, m) and gives a, sigma_x and the inter-well overlap as
properties.  Symmetric/antisymmetric combinations give ground and excited
levels whose splitting E1 - E0 is the tunnel (inversion) frequency, which
``two_level_splitting`` returns in closed form.  A pair of delta-coupled
qubits is block diagonal in the basis (00, 01, 10, 11), and its levels
enter only through that splitting, so ``two_qubit_schmidt_number`` gives
the Schmidt number of the pair's ground state in closed form, elementwise
over an array of couplings.

``grid_eigensolve`` gives the exact levels of the same well, converged in a
sinc discrete variable representation, against which the two-level
splitting is compared.  The ammonia report keys
``fd_delta_e``/``fd_frequency_ghz_*`` hold these grid levels; "fd" is kept
from the finite-difference solver they once came from.

``AMMONIA_ISOTOPES`` maps each isotope's name, NH3, ND3 or NT3, to the
pair (reduced mass, measured inversion frequency in GHz).  Ammonia units:
masses in atomic mass units (1.66e-27 kg), lengths in Bohr radii (0.529
Angstrom), so one model energy unit is hbar^2/(m0 a0^2) = 2.39e-21 J and
corresponds to 3607 GHz (4 significant figures; division by the Planck
constant 6.62607015e-34 J s).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .numerics import grid

__all__ = [
    "DoubleWell",
    "AMMONIA_ISOTOPES",
    "AMMONIA_EQUILIBRIUM",
    "AMMONIA_SPLITTING",
    "GHZ_PER_MODEL_UNIT",
    "DegenerateWellError",
    "InsufficientGridError",
    "UnresolvedSplittingError",
    "FitError",
    "two_level_splitting",
    "fit_potential",
    "splitting_to_frequency",
    "lowest_levels",
    "grid_eigensolve",
    "two_qubit_schmidt_number",
]

ENERGY_UNIT_J = 2.39e-21
PLANCK_J_S = 6.62607015e-34
GHZ_PER_MODEL_UNIT = ENERGY_UNIT_J / PLANCK_J_S / 1e9  # 3607 GHz per model unit

# Pyramid height over Bohr radius (0.37 / 0.529 Angstrom) and the 24 GHz
# inversion splitting in model units; both are input data, not recomputed.
AMMONIA_EQUILIBRIUM = 0.699
AMMONIA_SPLITTING = 0.00665

OVERLAP_VALIDITY = 0.01

# Sinc-DVR levels: the Hamiltonian is dense, so its size is capped.  The
# grid grows from _DVR_START_POINTS in steps of _DVR_STEP_POINTS until two
# successive splittings agree to _DVR_CONVERGENCE (relative).
MAX_DVR_POINTS = 2048
_DVR_START_POINTS = 64
_DVR_STEP_POINTS = 32
_DVR_CONVERGENCE = 1e-9
_EPS = np.finfo(float).eps


class DegenerateWellError(ValueError):
    """Wells coincide (a = 0): the antisymmetric combination is singular."""


class InsufficientGridError(ValueError):
    """Eigensolver grid larger than the dense solve allows, or not converged within it."""


class UnresolvedSplittingError(ValueError):
    """Splitting too small against the levels for a dense eigensolve to resolve."""


class FitError(ValueError):
    """Potential-parameter fit failed or left the two-level validity regime."""


def _require_finite_positive(**values: float):
    for name, value in values.items():
        if not 0.0 < value < math.inf:
            raise ValueError(f"{name} must be finite and positive, got {value}")


@dataclass(frozen=True)
class DoubleWell:
    """Quartic double well -alpha x^2/2 + beta x^4/4 for a particle of given mass."""

    alpha: float
    beta: float
    mass: float

    def __post_init__(self):
        _require_finite_positive(alpha=self.alpha, beta=self.beta, mass=self.mass)

    def potential(self, x: np.ndarray) -> np.ndarray:
        return -self.alpha * x**2 / 2.0 + self.beta * x**4 / 4.0

    @property
    def a(self) -> float:
        """Equilibrium position of either minimum, sqrt(alpha/beta)."""
        return float(np.sqrt(self.alpha / self.beta))

    @property
    def sigma_x(self) -> float:
        """Gaussian width, sigma_x^2 = 1/(2 m omega0) with omega0 = sqrt(2 alpha/m)."""
        return float(np.sqrt(1.0 / (2.0 * self.mass * np.sqrt(2.0 * self.alpha / self.mass))))

    @property
    def overlap(self) -> float:
        """Inter-well overlap exp(-a^2/(2 sigma_x^2)); the two-level model needs it below 0.01."""
        return float(np.exp(self.log_overlap))

    @property
    def log_overlap(self) -> float:
        """log of the overlap, -a^2/(2 sigma_x^2): finite where ``overlap`` underflows to 0."""
        return -(self.a**2) / (2.0 * self.sigma_x**2)


# name -> (reduced mass, measured inversion frequency in GHz)
AMMONIA_ISOTOPES = {
    "NH3": (3.0 * 14.0 / 17.0, 24.0),
    "ND3": (6.0 * 14.0 / 20.0, 1.6),
    "NT3": (9.0 * 14.0 / 23.0, 0.306),
}


def two_level_splitting(well: DoubleWell) -> float:
    """Closed-form splitting E1 - E0 of the symmetric (0) and antisymmetric
    (1) Gaussian-pair states.  Warns when the overlap eps exceeds 0.01,
    outside two-level validity.

    With C0^2 = 1/(1 + eps), C1^2 = 1/(1 - eps), q = a^2/sigma^2 and
    T_kin = 1/(8 m sigma^2), the levels are

        E0 = C0^2 [T_kin (1 - (q - 1) eps) + base + eps cross]
        E1 = C1^2 [T_kin (1 + (q - 1) eps) + base - eps cross]

    with base = -alpha (a^2 + sigma^2)/2 + beta (a^4 + 6 sigma^2 a^2 +
    3 sigma^4)/4 and cross = -alpha sigma^2/2 + 3 beta sigma^4/4.  E0 and
    E1 are O(1) while the splitting can be 1e-10 or smaller, so their float
    difference keeps few correct digits and rounds to 0 for well-separated
    wells.  Subtracted in closed form, free of cancellation,

        E1 - E0 = 2 eps/(1 - eps^2) [q T_kin + base - cross],

    and since a = sqrt(alpha/beta) gives beta a^2 = alpha (and q T_kin =
    alpha a^2 for sigma^2 = 1/(2 m omega0)), the bracket is
    alpha (3a^2/4 + 3 sigma^2/2), so

        E1 - E0 = (3 alpha/2) eps (a^2 + 2 sigma^2) / (1 - eps^2) > 0,

    evaluated in log space from ``well.log_overlap``, so a splitting in
    the subnormal range keeps its value where eps itself underflows.
    """
    eps = well.overlap
    if eps >= 1.0 or well.a == 0.0:
        raise DegenerateWellError("wells coincide; antisymmetric state undefined")
    if eps > OVERLAP_VALIDITY:
        warnings.warn(
            f"inter-well overlap {eps:.3g} > {OVERLAP_VALIDITY}; two-level results are unreliable",
            stacklevel=2,
        )
    return math.exp(_log_splitting(well.alpha, well.a, well.sigma_x**2, well.log_overlap))


def _log_splitting(alpha: float, a: float, sigma_sq: float, log_eps: float) -> float:
    """log(E1 - E0) = log eps + log(1.5 alpha (a^2 + 2 sigma^2)) - log1p(-eps^2),
    the closed form of ``two_level_splitting``, finite where eps underflows."""
    return (
        log_eps
        + math.log(1.5 * alpha * (a**2 + 2.0 * sigma_sq))
        - math.log1p(-math.exp(2.0 * log_eps))
    )


def fit_potential(a_target: float, delta_e_target: float, mass: float) -> DoubleWell:
    """Well parameters (alpha, beta) reproducing equilibrium a and splitting E1 - E0.

    The constraint beta = alpha / a^2 pins the equilibrium exactly and the
    splitting is solved by bisection in alpha (the splitting decreases
    monotonically with alpha at fixed a) down to adjacent floats.  The
    objective is log(E1 - E0) - log(target), from the closed-form splitting
    of ``two_level_splitting``: it has no cancellation and stays finite where
    the overlap underflows.  The fitted well must satisfy the two-level
    validity overlap < 0.01; a mass (or equilibrium) too small for any
    alpha of the search to meet it raises ``FitError`` before the search, and
    a mass too large for the splitting target raises it as well.
    """
    _require_finite_positive(a_target=a_target, delta_e_target=delta_e_target, mass=mass)
    # the overlap exp(-a^2 sqrt(2 alpha m)) falls as alpha grows: if it is
    # still past the validity limit at the last alpha the bracket search
    # tries, no alpha fits, and at smaller alphas it can round to 1
    alpha_max = 2.0**79
    if a_target**2 * math.sqrt(2.0 * alpha_max * mass) <= -math.log(OVERLAP_VALIDITY):
        raise FitError(
            f"mass {mass} too small for equilibrium {a_target}: the inter-well overlap "
            f"exceeds {OVERLAP_VALIDITY} at every alpha the fit tries"
        )
    log_target = math.log(delta_e_target)

    def objective(alpha: float) -> float:
        sigma_sq = 1.0 / (2.0 * mass * math.sqrt(2.0 * alpha / mass))
        if sigma_sq == 0.0:
            return -math.inf  # a mass so large that the Gaussians are points: no splitting
        log_eps = -(a_target**2) / (2.0 * sigma_sq)
        return _log_splitting(alpha, a_target, sigma_sq, log_eps) - log_target

    lo = 1e-4
    f_lo = objective(lo)
    if f_lo < 0:
        raise FitError(
            f"mass {mass} too large for equilibrium {a_target}: splitting target {delta_e_target} "
            f"unreachable, the splitting is below it at every alpha the fit tries (from {lo})"
        )
    hi = 1.0
    for _ in range(80):
        f_hi = objective(hi)
        if f_hi < 0:
            break
        hi *= 2.0
    else:
        raise FitError(f"no bracket found for splitting target {delta_e_target}")
    while lo < (mid := 0.5 * (lo + hi)) < hi:
        f_mid = objective(mid)
        if f_mid < 0:
            hi, f_hi = mid, f_mid
        else:
            lo, f_lo = mid, f_mid
    alpha = lo if f_lo <= -f_hi else hi
    well = DoubleWell(alpha, alpha / a_target**2, mass)
    if well.overlap >= OVERLAP_VALIDITY:
        raise FitError(
            f"mass {mass} too large for equilibrium {a_target} and splitting target "
            f"{delta_e_target}: the fitted well's inter-well overlap {well.overlap:.3g} is not "
            f"below {OVERLAP_VALIDITY}, so the two-level model is invalid"
        )
    achieved = _log_splitting(alpha, well.a, well.sigma_x**2, well.log_overlap)
    if abs(achieved - log_target) > 1e-10:
        raise FitError(
            f"bisection stalled: achieved {math.exp(achieved)}, wanted {delta_e_target}"
        )
    return well


def splitting_to_frequency(delta_e: float) -> float:
    """Transition frequency in GHz for a splitting in model energy units."""
    return delta_e * GHZ_PER_MODEL_UNIT


def lowest_levels(potential_values, mass: float, spacing: float) -> np.ndarray:
    """Eigenvalues of -(1/2m) d^2/dx^2 + U(x) in the sinc DVR, ascending.

    The Colbert-Miller sinc discrete variable representation (J. Chem. Phys.
    96, 1982 (1992)) on a uniform grid of n points ``spacing`` apart, n
    the number of potential samples: U sampled on the diagonal and the
    Toeplitz kinetic row pi^2/3 at k = 0, 2(-1)^k/k^2 at k != 0, over
    2 m dx^2.  It converges exponentially in the spacing while the wave
    functions vanish at the grid ends.  The dense Hamiltonian is n x n, so
    grids of more than ``MAX_DVR_POINTS`` points raise
    ``InsufficientGridError``.
    """
    u = np.asarray(potential_values, dtype=float)
    n = u.shape[0]
    if n > MAX_DVR_POINTS:
        raise InsufficientGridError(f"the dense DVR takes at most {MAX_DVR_POINTS} points, got {n}")
    k = np.arange(1, n)
    row = np.concatenate(([np.pi**2 / 3.0], 2.0 * (-1.0) ** k / k**2)) / (2.0 * mass * spacing**2)
    # window i of [row[n-1], ..., row[1], row[0], ..., row[n-1]] is H's row n-1-i
    h = np.lib.stride_tricks.sliding_window_view(np.concatenate((row[:0:-1], row)), n)[::-1].copy()
    h[np.diag_indices(n)] += u
    return np.linalg.eigvalsh(h)


def grid_eigensolve(well: DoubleWell) -> tuple[float, float]:
    """Two lowest double-well levels from the sinc DVR, converged in the grid.

    Independent of the two-level closed forms.  The n-point grid is
    ``numerics.grid(H, n)``, on the box [-H, H] with
    H = max(3a, a + 8 sigma_x): the DVR converges exponentially only while
    the wave functions vanish at the box edges, and a light, shallow well
    still holds amplitude 1e-2 at 3a, where its splitting converges only
    algebraically in the grid.  The grid grows from 64 points in steps of
    32 until the splittings at n and n + 32 agree to 1e-9 relative, and the
    finer pair is returned.  Each level carries a rounding error of order
    eps ||H||, with ||H|| ~ pi^2/(6 m dx^2) + max|U| growing as n^2; once
    that floor exceeds 1e-9 of E1 - E0, no two splittings can be told to
    agree, and ``UnresolvedSplittingError`` is raised at once, naming the
    floor.  ``InsufficientGridError`` is raised if ``MAX_DVR_POINTS`` do
    not converge.
    """
    edge = max(3.0 * well.a, well.a + 8.0 * well.sigma_x)
    previous = None
    for n in range(_DVR_START_POINTS, MAX_DVR_POINTS + 1, _DVR_STEP_POINTS):
        x, dx = grid(edge, n)
        u = well.potential(x)
        e0, e1 = lowest_levels(u, well.mass, dx)[:2]
        splitting = e1 - e0
        floor = _EPS * (np.pi**2 / (6.0 * well.mass * dx**2) + np.max(np.abs(u)))
        if floor > _DVR_CONVERGENCE * splitting:
            raise UnresolvedSplittingError(
                f"rounding floor {floor:.3g} of a {n}-point solve exceeds {_DVR_CONVERGENCE:g} "
                f"of the splitting {splitting:.3g}: a dense eigensolve cannot resolve it"
            )
        if previous is not None and abs(splitting - previous) <= _DVR_CONVERGENCE * splitting:
            return float(e0), float(e1)
        previous = splitting
    raise InsufficientGridError(f"splitting did not converge within {MAX_DVR_POINTS} points")


def two_qubit_schmidt_number(well: DoubleWell, splitting: float, g0):
    """Schmidt number K of the ground state of two double-well qubits with
    contact interaction -g0 delta(x - xi), elementwise over the couplings g0.

    ``splitting`` is the well's E1 - E0 (``two_level_splitting``), and must
    be positive.  g0 > 0 is attraction, g0 < 0 repulsion.  In the basis
    (00, 01, 10, 11) the Hamiltonian is

        H = diag(2E0 + h1, E0+E1 + h2, E0+E1 + h2, 2E1 + h3)

    plus h2 at [0, 3], [1, 2], [2, 1] and [3, 0], where, with s =
    g0/(4 sqrt(pi) sigma), C0^2 = 1/(1 + eps), C1^2 = 1/(1 - eps) and
    e = sqrt(eps) (eps = overlap),

        h1 = -C0^4 s (1 + 4 e^3 + 3 e^4)
        h2 = -C0^2 C1^2 s (1 - e^4) = -s
        h3 = -C1^4 s (1 - 4 e^3 + 3 e^4).

    H splits into the blocks {00, 11} and {01, 10}, and the levels enter
    only through d = h1 - h3 - 2 (E1 - E0):

    - the lowest {00, 11} vector has K = 2/(1 + t^2), t = |d|/hypot(d, 2 h2)
      <= 1, so K = 1 at g0 = 0 and K lies in [1, 2];
    - the {01, 10} block's vectors (|01> -/+ |10>)/sqrt 2 have K = 2.  Its
      lowest level is the lower where h2 > 0 and
      d^2 < (h1 + h3 - 2 h2)(h1 + h3 + 2 h2), which strong repulsion
      reaches.  Where the two blocks' lowest levels tie, the ground state
      is not unique, and K is the {00, 11} value.

    h1 - h3 and h1 + h3 - 2 h2 are O(eps) and O(eps^2) of s, so both are
    taken in closed form, free of cancellation:

        h1 - h3 = 4 s eps (1 - 2e + 3e^4 - 2e^5) / (1 - eps^2)^2
        h1 + h3 - 2 h2 = -4 s eps^2 (1 - e)^2 (3 + 2e + eps) / (1 - eps^2)^2.
    """
    eps = well.overlap
    e = math.sqrt(eps)
    den = (1.0 - eps**2) ** 2
    scale = np.asarray(g0, dtype=float) / (4.0 * math.sqrt(math.pi) * well.sigma_x)
    d = 4.0 * eps * (1.0 - 2.0 * e + 3.0 * e**4 - 2.0 * e**5) / den * scale - 2.0 * splitting
    q = 4.0 * eps**2 * (1.0 - e) ** 2 * (3.0 + 2.0 * e + eps) / den
    # h2 = -scale, so (h1 + h3 - 2 h2)(h1 + h3 + 2 h2) = scale^2 q (q + 4)
    bell = (scale < 0.0) & (np.abs(d) < -scale * math.sqrt(q * (q + 4.0)))
    return np.where(bell, 2.0, 2.0 / (1.0 + np.square(np.abs(d) / np.hypot(d, 2.0 * scale))))
