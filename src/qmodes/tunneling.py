"""Two-level treatment of a particle in a symmetric double well, the
delta-coupled pair of such qubits, and the ammonia-inversion application.

The well U(x) = -alpha x^2/2 + beta x^4/4 has minima at +/-a with
a = sqrt(alpha/beta); Gaussian states of width sigma_x^2 = 1/(2 m omega_0)
sit in each, with omega_0 = sqrt(2 alpha / m).  ``DoubleWell`` holds
(alpha, beta, m) and gives a, sigma_x and the inter-well overlap as
properties.  Symmetric/antisymmetric combinations give ground and excited
levels whose splitting E1 - E0 is the tunnel (inversion) frequency.  A pair
of delta-coupled qubits is a (..., 4, 4) stack of Hamiltonians, one per
coupling (``build_two_qubit``), and ``ground_state_entanglement`` reads the
Schmidt number of each ground state from the stack.

``grid_eigensolve`` gives the exact levels of the same well, converged in a
sinc discrete variable representation, against which the two-level ones are
compared.  The ammonia report keys ``fd_delta_e``/``fd_frequency_ghz_*``
hold these grid levels; "fd" is kept from the finite-difference solver they
once came from.

Ammonia units: masses in atomic mass units (1.66e-27 kg), lengths in Bohr
radii (0.529 Angstrom), so one model energy unit is hbar^2/(m0 a0^2) =
2.39e-21 J and corresponds to 3607 GHz (4 significant figures; division by
the Planck constant 6.62607015e-34 J s).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .numerics import Grid1D, eigh, make_grid

__all__ = [
    "DoubleWell",
    "TwoLevelEnergies",
    "Isotope",
    "AMMONIA_ISOTOPES",
    "AMMONIA_EQUILIBRIUM",
    "AMMONIA_SPLITTING",
    "GHZ_PER_MODEL_UNIT",
    "DegenerateWellError",
    "InsufficientGridError",
    "UnresolvedSplittingError",
    "FitError",
    "two_level_energies",
    "fit_potential",
    "reduced_mass",
    "splitting_to_frequency",
    "lowest_levels",
    "grid_eigensolve",
    "build_two_qubit",
    "ground_state_entanglement",
]

ENERGY_UNIT_J = 2.39e-21
PLANCK_J_S = 6.62607015e-34
GHZ_PER_MODEL_UNIT = ENERGY_UNIT_J / PLANCK_J_S / 1e9  # 3607 GHz per model unit

# Pyramid height over Bohr radius (0.37 / 0.529 Angstrom) and the 24 GHz
# inversion splitting in model units; both are input data, not recomputed.
AMMONIA_EQUILIBRIUM = 0.699
AMMONIA_SPLITTING = 0.00665

OVERLAP_VALIDITY = 0.01
# two lowest two-qubit levels closer than this, relative to the largest
# |level| (at least 1), leave the ground state and its K undetermined
DEGENERACY_TOL = 1e-12

# Sinc-DVR levels: the Hamiltonian is dense, so its size is capped.  The
# grid grows from _DVR_START_POINTS in steps of _DVR_STEP_POINTS until two
# successive splittings agree to _DVR_CONVERGENCE (relative); a splitting
# below _MIN_RELATIVE_SPLITTING of the levels is rounding noise.
MAX_DVR_POINTS = 2048
_DVR_START_POINTS = 64
_DVR_STEP_POINTS = 32
_DVR_CONVERGENCE = 1e-9
_MIN_RELATIVE_SPLITTING = 1e-10


class DegenerateWellError(ValueError):
    """Wells coincide (a = 0): the antisymmetric combination is singular."""


class InsufficientGridError(ValueError):
    """Eigensolver grid larger than the dense solve allows, or not converged within it."""


class UnresolvedSplittingError(ValueError):
    """Splitting too small against the levels for a dense eigensolve to resolve."""


class FitError(ValueError):
    """Potential-parameter fit failed or left the two-level validity regime."""


@dataclass(frozen=True)
class DoubleWell:
    """Quartic double well -alpha x^2/2 + beta x^4/4 for a particle of given mass."""

    alpha: float
    beta: float
    mass: float

    def __post_init__(self):
        for name in ("alpha", "beta", "mass"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be positive, got {getattr(self, name)}")

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


@dataclass(frozen=True)
class TwoLevelEnergies:
    """Kinetic, potential and total energies of the symmetric/antisymmetric pair.

    ``splitting`` is E1 - E0 from its closed form (see ``two_level_energies``),
    not the float difference ``e1 - e0``: both energies are O(1) while the
    splitting can be 1e-10 or smaller, so the difference keeps few correct
    digits and rounds to 0 for well-separated wells.  ``u1 - u0`` and
    ``t1 - t0`` cancel just as badly, so the field is stored.
    """

    c0_sq: float
    c1_sq: float
    t0: float
    t1: float
    u0: float
    u1: float
    e0: float
    e1: float
    splitting: float


@dataclass(frozen=True)
class Isotope:
    """Named reduced mass, with the measured inversion frequency when known."""

    name: str
    mass: float
    experimental_ghz: float | None = None


AMMONIA_ISOTOPES = {
    "NH3": Isotope("NH3", 3.0 * 14.0 / 17.0, 24.0),
    "ND3": Isotope("ND3", 6.0 * 14.0 / 20.0, 1.6),
    "NT3": Isotope("NT3", 9.0 * 14.0 / 23.0, 0.306),
}


def two_level_energies(well: DoubleWell) -> TwoLevelEnergies:
    """Closed-form energies of the symmetric (0) and antisymmetric (1) states.

    T0 = C0^2/(8 m sigma^2) [1 - (a^2/sigma^2 - 1) eps]  (eps = overlap),
    T1 with C1^2 and +, and the quartic-well potential expectations U0/U1
    evaluated over the same Gaussian pair.  E = U + T.  Warns when eps
    exceeds 0.01, outside two-level validity.

    The splitting is taken in closed form, free of cancellation:

        E1 - E0 = 2 eps/(1 - eps^2) [q T_kin + base - cross],  q = a^2/sigma^2,

    and since a = sqrt(alpha/beta) gives beta a^2 = alpha (and q T_kin =
    alpha a^2 for sigma^2 = 1/(2 m omega0)), the bracket is
    alpha (3a^2/4 + 3 sigma^2/2), so

        E1 - E0 = (3 alpha/2) eps (a^2 + 2 sigma^2) / (1 - eps^2) > 0,

    evaluated in log space from ``well.log_overlap``, so a splitting in
    the subnormal range keeps its value where eps itself underflows.
    """
    a, sx, m = well.a, well.sigma_x, well.mass
    eps = well.overlap
    if eps >= 1.0 or a == 0.0:
        raise DegenerateWellError("wells coincide; antisymmetric state undefined")
    if eps > OVERLAP_VALIDITY:
        warnings.warn(
            f"inter-well overlap {eps:.3g} > {OVERLAP_VALIDITY}; two-level results are unreliable",
            stacklevel=2,
        )
    c0_sq = 1.0 / (1.0 + eps)
    c1_sq = 1.0 / (1.0 - eps)
    q = a**2 / sx**2
    kin = 1.0 / (8.0 * m * sx**2)
    t0 = c0_sq * kin * (1.0 - (q - 1.0) * eps)
    t1 = c1_sq * kin * (1.0 + (q - 1.0) * eps)
    base = -well.alpha / 2.0 * (a**2 + sx**2) + well.beta / 4.0 * (
        a**4 + 6.0 * sx**2 * a**2 + 3.0 * sx**4
    )
    cross = -well.alpha * sx**2 / 2.0 + 3.0 * well.beta * sx**4 / 4.0
    u0 = c0_sq * (base + eps * cross)
    u1 = c1_sq * (base - eps * cross)
    splitting = math.exp(_log_splitting(well.alpha, a, sx**2, well.log_overlap))
    return TwoLevelEnergies(c0_sq, c1_sq, t0, t1, u0, u1, u0 + t0, u1 + t1, splitting)


def _log_splitting(alpha: float, a: float, sigma_sq: float, log_eps: float) -> float:
    """log(E1 - E0) = log eps + log(1.5 alpha (a^2 + 2 sigma^2)) - log1p(-eps^2),
    the closed form of ``two_level_energies``, finite where eps underflows."""
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
    of ``two_level_energies``: it has no cancellation and stays finite where
    the overlap underflows.  The fitted well must satisfy the two-level
    validity overlap < 0.01; a mass (or equilibrium) too small for any
    alpha of the search to meet it raises ``FitError`` before the search.
    """
    if not (a_target > 0 and delta_e_target > 0 and mass > 0):
        raise ValueError("targets and mass must be positive")
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
        raise FitError(f"splitting target {delta_e_target} unreachable: too large at alpha={lo}")
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
            f"fitted well has overlap {well.overlap:.3g} >= {OVERLAP_VALIDITY}; "
            "two-level model invalid"
        )
    achieved = _log_splitting(alpha, well.a, well.sigma_x**2, well.log_overlap)
    if abs(achieved - log_target) > 1e-10:
        raise FitError(
            f"bisection stalled: achieved {math.exp(achieved)}, wanted {delta_e_target}"
        )
    return well


def reduced_mass(m_a: float, m_b: float) -> float:
    """m_a m_b / (m_a + m_b)."""
    if not (m_a > 0 and m_b > 0):
        raise ValueError("masses must be positive")
    return m_a * m_b / (m_a + m_b)


def splitting_to_frequency(delta_e: float) -> float:
    """Transition frequency in GHz for a splitting in model energy units."""
    return delta_e * GHZ_PER_MODEL_UNIT


def lowest_levels(potential_values, mass: float, grid: Grid1D, n_levels: int = 2) -> np.ndarray:
    """Lowest eigenvalues of -(1/2m) d^2/dx^2 + U(x) in the sinc DVR of the grid.

    The Colbert-Miller sinc discrete variable representation (J. Chem. Phys.
    96, 1982 (1992)) on the uniform grid: U sampled on the diagonal and the
    Toeplitz kinetic row pi^2/3 at k = 0, 2(-1)^k/k^2 at k != 0, over
    2 m dx^2.  It converges exponentially in the spacing while the wave
    functions vanish at the grid ends.  The dense Hamiltonian is n x n, so
    grids of more than ``MAX_DVR_POINTS`` points raise
    ``InsufficientGridError``.
    """
    u = np.asarray(potential_values, dtype=float)
    n = grid.n_points
    if u.shape[0] != n:
        raise ValueError("potential samples do not match the grid")
    if not 1 <= n_levels <= n:
        raise ValueError(f"n_levels must lie in [1, {n}], got {n_levels}")
    if n > MAX_DVR_POINTS:
        raise InsufficientGridError(f"the dense DVR takes at most {MAX_DVR_POINTS} points, got {n}")
    k = np.arange(1, n)
    row = np.concatenate(([np.pi**2 / 3.0], 2.0 * (-1.0) ** k / k**2)) / (2.0 * mass * grid.spacing**2)
    # window i of [row[n-1], ..., row[1], row[0], ..., row[n-1]] is H's row n-1-i
    h = np.lib.stride_tricks.sliding_window_view(np.concatenate((row[:0:-1], row)), n)[::-1].copy()
    h[np.diag_indices(n)] += u
    return np.linalg.eigvalsh(h)[:n_levels]


def grid_eigensolve(well: DoubleWell) -> tuple[float, float]:
    """Two lowest double-well levels from the sinc DVR, converged in the grid.

    Independent of the two-level closed forms.  The box is [-H, H] with
    H = max(3a, a + 8 sigma_x): the DVR converges exponentially only while
    the wave functions vanish at the box edges, and a light, shallow well
    still holds amplitude 1e-2 at 3a, where its splitting converges only
    algebraically in the grid.  The grid grows from 64 points in steps of
    32 until the splittings at n and n + 32 agree to 1e-9 relative, and the
    finer pair is returned.  Raises ``UnresolvedSplittingError`` once
    E1 - E0 falls below 1e-10 of the larger |E|, where the dense
    eigensolve's rounding swamps the splitting, and
    ``InsufficientGridError`` if ``MAX_DVR_POINTS`` do not converge.
    """
    half_width = max(3.0 * well.a, well.a + 8.0 * well.sigma_x)
    previous = None
    for n in range(_DVR_START_POINTS, MAX_DVR_POINTS + 1, _DVR_STEP_POINTS):
        grid = make_grid(0.0, half_width, n)
        e0, e1 = lowest_levels(well.potential(grid.points), well.mass, grid)
        splitting = e1 - e0
        if splitting < _MIN_RELATIVE_SPLITTING * max(abs(e0), abs(e1)):
            raise UnresolvedSplittingError(
                f"splitting {splitting:.3g} is below {_MIN_RELATIVE_SPLITTING:g} of the "
                f"levels {e0:.6g}, {e1:.6g}: a dense eigensolve cannot resolve it"
            )
        if previous is not None and abs(splitting - previous) <= _DVR_CONVERGENCE * splitting:
            return float(e0), float(e1)
        previous = splitting
    raise InsufficientGridError(f"splitting did not converge within {MAX_DVR_POINTS} points")


def build_two_qubit(energies: TwoLevelEnergies, well: DoubleWell, g0: np.ndarray) -> np.ndarray:
    """Hamiltonians of two double-well qubits with contact interaction -g0 delta(x - xi).

    g0 > 0 is attraction, g0 < 0 repulsion.  An array of couplings gives a
    (..., 4, 4) stack, one Hamiltonian per coupling, in the basis order
    (00, 01, 10, 11):

        H = diag(2E0, E0+E1, E0+E1, 2E1) + h

    where h has h1 at [0, 0], h3 at [3, 3], and h2 at [1, 1], [2, 2] and on
    the anti-diagonal ([0, 3], [1, 2], [2, 1], [3, 0]), with

        h1 = -C0^4 g0/(4 sqrt(pi) sigma) (1 + 4 e3 + 3 e4)
        h2 = -C0^2 C1^2 g0/(4 sqrt(pi) sigma) (1 - e4)
        h3 = -C1^4 g0/(4 sqrt(pi) sigma) (1 - 4 e3 + 3 e4)

    and e3 = exp(-3a^2/4 sigma^2), e4 = exp(-a^2/sigma^2).  As the overlap
    vanishes all three tend to -g0/(4 sqrt(pi) sigma).
    """
    a, sx = well.a, well.sigma_x
    e3 = np.exp(-3.0 * a**2 / (4.0 * sx**2))
    e4 = np.exp(-(a**2) / sx**2)
    scale = g0 / (4.0 * np.sqrt(np.pi) * sx)
    h1 = -energies.c0_sq**2 * scale * (1.0 + 4.0 * e3 + 3.0 * e4)
    h2 = -energies.c0_sq * energies.c1_sq * scale * (1.0 - e4)
    h3 = -energies.c1_sq**2 * scale * (1.0 - 4.0 * e3 + 3.0 * e4)
    e0, e1 = energies.e0, energies.e1
    h = np.zeros(np.shape(g0) + (4, 4))
    h[..., 0, 0] = 2.0 * e0 + h1
    h[..., 1, 1] = h[..., 2, 2] = e0 + e1 + h2
    h[..., 3, 3] = 2.0 * e1 + h3
    h[..., 0, 3] = h[..., 3, 0] = h[..., 1, 2] = h[..., 2, 1] = h2
    return h


def ground_state_entanglement(h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Schmidt number K = 1/(1 - 2 Delta) of each two-qubit ground state, and
    whether it is degenerate.

    Delta = |c00 c11 - c01 c10|^2 from the lowest eigenvector of H.  K runs
    from 1 (product state) to 2 (Bell-like state).  The (..., 4, 4) stack is
    solved in one ``eigh`` call.  Where the two lowest levels lie within
    ``DEGENERACY_TOL`` the ground vector, and so K, is not unique, and the
    flag is set.
    """
    values, vectors = eigh(h)
    scale = np.maximum(1.0, np.max(np.abs(values), axis=-1))
    degenerate = values[..., 1] - values[..., 0] < DEGENERACY_TOL * scale
    c = vectors[..., :, 0].reshape(vectors.shape[:-2] + (2, 2))
    delta = np.square(np.abs(c[..., 0, 0] * c[..., 1, 1] - c[..., 0, 1] * c[..., 1, 0]))
    return 1.0 / (1.0 - 2.0 * delta), degenerate
