"""SVD analysis of linear measurement protocols: adequacy, completeness
classification, regularized reconstruction and the entanglement bound.

A protocol is its matrix B, an (N, s^2) array acting on column-stacked
s x s density matrices, B rho = P.  With B = U S V+ the rotated data
Q = U+ P must vanish beyond the model rank r (adequacy); factors f = V+ rho
split into r defined values f_j = Q_j / S_j and s^2 - r undefined ones.
Setting the undefined factors to zero gives the regularized solution and
the bound

    K <= K_max = 1 / (f+ f)

on the Schmidt number of any entanglement between the system and its
environment consistent with the data.  K_max = 1 certifies a pure state
even from an incomplete protocol ("conditional completeness").

For a qubit the physical completions of the data have a closed form: with
rho = (I + r.sigma)/2 the data fix r to an affine subspace, and the
completions are its intersection with the unit Bloch ball
(``completion_purity_range``).

Measurement vectors and reports convert to JSON-ready dicts with complex
numbers encoded as [re, im] pairs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .interference import SlitParams
from .numerics import MAX_COUNT

__all__ = [
    "UNCONDITIONALLY_COMPLETE",
    "CONDITIONALLY_COMPLETE",
    "INCOMPLETE",
    "ProtocolAnalysis",
    "ReconstructionReport",
    "InadequateDataError",
    "ZeroFactorsError",
    "QubitOnlyError",
    "vectorize",
    "devectorize",
    "analyze",
    "check_adequacy",
    "reconstruct",
    "completion_purity_range",
    "interference_protocol",
    "measurements_to_dict",
    "report_to_dict",
]

UNCONDITIONALLY_COMPLETE = "unconditionally_complete"
CONDITIONALLY_COMPLETE = "conditionally_complete"
INCOMPLETE = "incomplete"

DEFAULT_RANK_THRESHOLD = 1e-10
DEFAULT_ADEQUACY_TOL = 1e-8
DEFAULT_CONDITIONAL_TOL = 1e-6

HERMITICITY_TOL = 1e-10
TRACE_TOL = 1e-8
EIGENVALUE_TOL = 1e-8


class InadequateDataError(ValueError):
    """Measured data inconsistent with the protocol's column space."""

    def __init__(self, residual: float):
        super().__init__(f"adequacy violated: rotated-tail residual {residual:.3e}")
        self.residual = residual


class ZeroFactorsError(ValueError):
    """All defined factors vanish; K_max = 1/(f+ f) is undefined."""


class QubitOnlyError(ValueError):
    """The completion range is implemented for qubit protocols (s = 2) only."""


@dataclass(frozen=True)
class ProtocolAnalysis:
    """SVD B = U diag(s) V+ with the numerical rank: V square, U with min(N, s^2) columns."""

    u: np.ndarray = field(repr=False)
    v: np.ndarray = field(repr=False)
    singular_values: np.ndarray
    rank: int

    @property
    def model_dim(self) -> int:
        return self.v.shape[0]


@dataclass(frozen=True)
class ReconstructionReport:
    adequate: bool
    residual: float
    completeness_class: str
    factors: np.ndarray
    undefined_count: int
    rho_regularized: np.ndarray
    k_max: float
    physical: bool


def vectorize(rho) -> np.ndarray:
    """Column-stack a square matrix: second column under the first, and so on."""
    rho = np.asarray(rho)
    if rho.ndim != 2 or rho.shape[0] != rho.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {rho.shape}")
    return rho.ravel(order="F")


def devectorize(vec) -> np.ndarray:
    """Inverse of :func:`vectorize`."""
    vec = np.asarray(vec)
    s = int(round(np.sqrt(vec.size)))
    if s * s != vec.size:
        raise ValueError(f"length {vec.size} is not a perfect square")
    return vec.reshape(s, s, order="F")


def analyze(b) -> ProtocolAnalysis:
    """SVD of the protocol matrix B, rank counted above ``DEFAULT_RANK_THRESHOLD`` x s_max.

    B has one row per measurement and s^2 columns, one per entry of the
    column-stacked s x s density matrix; raises ``ValueError`` unless it is
    2-D with a perfect-square column count.
    """
    b = np.asarray(b)
    if b.ndim != 2 or math.isqrt(b.shape[1]) ** 2 != b.shape[1]:
        raise ValueError(f"a protocol matrix has N rows and s^2 columns, got shape {b.shape}")
    n, model_dim = b.shape
    # thin in U (N may be large); V stays square, its columns past the rank
    # span the undefined factors
    u, s, vh = np.linalg.svd(b, full_matrices=n < model_dim)
    rank = int(np.sum(s > DEFAULT_RANK_THRESHOLD * s[0])) if s.size and s[0] > 0 else 0
    return ProtocolAnalysis(u, vh.conj().T, s, rank)


def check_adequacy(analysis: ProtocolAnalysis, p):
    """Relative norm of the data outside the protocol's column space.

    With U_r the first r = rank columns of U, the part P - U_r U_r+ P (the
    rotated data Q = U+ P beyond component r) must vanish for the linear
    system to be consistent, within ``DEFAULT_ADEQUACY_TOL``.  Returns
    (adequate, residual).
    """
    p = np.asarray(p)
    if p.shape[0] != analysis.u.shape[0]:
        raise ValueError(
            f"data length {p.shape[0]} does not match {analysis.u.shape[0]} measurements"
        )
    total = float(np.linalg.norm(p))
    if total == 0.0:
        return True, 0.0
    u_r = analysis.u[:, : analysis.rank]
    residual = float(np.linalg.norm(p - u_r @ (u_r.conj().T @ p)) / total)
    return residual <= DEFAULT_ADEQUACY_TOL, residual


def _physical(rho: np.ndarray) -> bool:
    if np.max(np.abs(rho - rho.conj().T)) > HERMITICITY_TOL:
        return False
    if abs(np.trace(rho).real - 1.0) > TRACE_TOL or abs(np.trace(rho).imag) > TRACE_TOL:
        return False
    return bool(np.min(np.linalg.eigvalsh(0.5 * (rho + rho.conj().T))) >= -EIGENVALUE_TOL)


def _defined_factors(analysis: ProtocolAnalysis, p) -> tuple[np.ndarray, float]:
    """Defined factors Q_j / S_j, j <= rank, of adequate data, and the adequacy residual."""
    adequate, residual = check_adequacy(analysis, p)
    if not adequate:
        raise InadequateDataError(residual)
    r = analysis.rank
    q = analysis.u[:, :r].conj().T @ np.asarray(p)
    return q / analysis.singular_values[:r], residual


def reconstruct(analysis: ProtocolAnalysis, p) -> ReconstructionReport:
    """Regularized linear inversion with completeness classification.

    Defined factors are Q_j / S_j for j <= rank; undefined factors are set
    to zero, giving the minimum-norm solution rho = V f.  K_max = 1/(f+ f)
    bounds the Schmidt number of any system-environment entanglement
    consistent with the data.  Classes: rank = s^2 is unconditionally
    complete; otherwise |K_max - 1| <= ``DEFAULT_CONDITIONAL_TOL`` is
    conditionally complete, else incomplete.
    """
    defined, residual = _defined_factors(analysis, p)
    r = analysis.rank
    f = np.zeros(analysis.model_dim, dtype=complex)
    f[:r] = defined
    ff = float(np.real(f.conj() @ f))
    if ff <= 0.0:
        raise ZeroFactorsError("defined factors all vanish; K_max undefined")
    k_max = 1.0 / ff
    rho = devectorize(analysis.v @ f)
    if r == analysis.model_dim:
        completeness = UNCONDITIONALLY_COMPLETE
    elif abs(k_max - 1.0) <= DEFAULT_CONDITIONAL_TOL:
        completeness = CONDITIONALLY_COMPLETE
    else:
        completeness = INCOMPLETE
    return ReconstructionReport(
        adequate=True,
        residual=residual,
        completeness_class=completeness,
        factors=f[:r],
        undefined_count=analysis.model_dim - r,
        rho_regularized=rho,
        k_max=k_max,
        physical=_physical(rho),
    )


# column-stacked (I + r.sigma)/2 = _BLOCH_OFFSET + _BLOCH_MAP @ (x, y, z)
_BLOCH_OFFSET = np.array([0.5, 0.0, 0.0, 0.5])
_BLOCH_MAP = 0.5 * np.array([[0, 0, 1], [1, 1j, 0], [1, -1j, 0], [0, 0, -1]])


def completion_purity_range(analysis: ProtocolAnalysis, p) -> tuple[float, float]:
    """Least and greatest purity tr rho^2 of the physical qubit states fitting the data.

    With rho = (I + r.sigma)/2, every Hermitian unit-trace state, the
    defined factors V_r+ vec(rho) = f of ``reconstruct`` are a real affine
    system in r, taken in real and imaginary rows.  Its least-norm solution
    r0 is the completion nearest the maximally mixed state, d = |r0|, and
    its eigenvalues are (1 -/+ d)/2.  The system's singular values lie in
    [0, 1/sqrt 2], so those at most ``DEFAULT_RANK_THRESHOLD`` count as 0.
    If the system leaves r free along some direction, the completions run
    from purity (1 + d^2)/2 at r0 to 1 on the Bloch sphere; if it fixes r,
    both ends are (1 + d^2)/2.  NaN, NaN means no completion: no Hermitian
    unit-trace state fits within ``TRACE_TOL``, or the nearest one has an
    eigenvalue below -``EIGENVALUE_TOL``.
    """
    if analysis.model_dim != 4:
        raise QubitOnlyError(f"completion range needs s = 2, got s^2 = {analysis.model_dim}")
    factors, _ = _defined_factors(analysis, p)
    defined = analysis.v[:, : analysis.rank].conj().T
    coeffs = defined @ _BLOCH_MAP
    rhs = factors - defined @ _BLOCH_OFFSET
    a = np.concatenate((coeffs.real, coeffs.imag))
    b = np.concatenate((rhs.real, rhs.imag))
    u, sv, vt = np.linalg.svd(a, full_matrices=False)
    keep = sv > DEFAULT_RANK_THRESHOLD
    r0 = vt[keep].T @ (u[:, keep].T @ b / sv[keep])
    d = float(np.linalg.norm(r0))
    if np.linalg.norm(a @ r0 - b) > TRACE_TOL or (1.0 - d) / 2.0 < -EIGENVALUE_TOL:
        return np.nan, np.nan
    # a pure-state fit may round to d just above 1; no state is purer than 1
    least = min((1.0 + d**2) / 2.0, 1.0)
    return least, (1.0 if np.count_nonzero(keep) < 3 else least)


def interference_protocol(slits: SlitParams, n_points: int) -> np.ndarray:
    """Coordinate + momentum density sampling of the two-slit qubit space:
    the protocol matrix B, (2 n_points, 4) complex.

    The state space is spanned by the symmetric and antisymmetric two-slit
    states (u_0 + u_1) / sqrt(2 (1 + q)) and (u_1 - u_0) / sqrt(2 (1 - q)),
    with u_j the slit basis and q the slit overlap.  The first n_points rows
    sample the coordinate density on a uniform grid over +/-(a + 5 sigma_x);
    the next n_points rows sample the momentum density over
    +/-min(2/sigma_x, n pi / 8a).  Each row is scaled by its bin width, so
    B rho yields integrated bin probabilities.

    The states are evaluated without cancellation at any spacing a > 0: in
    coordinates u_1 -/+ u_0 = 2 A exp(-(x^2 + a^2) / 4 sigma^2) sinh/cosh(x a
    / 2 sigma^2), in momentum u~_0 + u~_1 = 2 env(p) cos(p a) and u~_1 - u~_0
    = -2i env(p) sin(p a), and 1 - q = -expm1(-a^2 / 2 sigma^2).  Raises
    ``ValueError`` unless a and a / sigma_x lie within [1e-152, 1e152].
    """
    if slits.m != 2:
        raise ValueError(f"protocol is defined on the two-slit space, got m={slits.m}")
    if n_points < 2:
        raise ValueError(f"need at least 2 sample points per space, got {n_points}")
    if n_points > MAX_COUNT:
        raise ValueError(f"n_points must be at most {MAX_COUNT}, got {n_points}")
    a, sx = slits.a, slits.sigma_x
    # the states' exponents hold a^2 and (a / sigma_x)^2, and the data's norm
    # sums the squares of B's entries, each at most 1.6 (a / sigma_x + 5):
    # within these bounds all of them stay normal and finite
    if not (a >= 1e-152 and 1e-152 <= a / sx <= 1e152):
        raise ValueError(
            f"a and a/sigma_x must lie within [1e-152, 1e152], got a={a:g}, sigma_x={sx:g}"
        )
    x = np.linspace(-(a + 5.0 * sx), a + 5.0 * sx, n_points)
    p_max = min(2.0 / sx, n_points * np.pi / (8.0 * a))
    p = np.linspace(-p_max, p_max, n_points)
    norms = np.sqrt([2.0 * (1.0 + slits.overlap), -2.0 * np.expm1(-(a**2) / (2.0 * sx**2))])
    # with g = u_1(|x|) and h = exp(-|x| a / sigma^2) = u_0(|x|) / g, the
    # cosh and sinh forms are g (1 + h) and sign(x) g (1 - h), which neither
    # overflow nor cancel
    g = (2.0 * np.pi * sx**2) ** -0.25 * np.exp(-((np.abs(x) - a) ** 2) / (4.0 * sx**2))
    h_minus_1 = np.expm1(-np.abs(x) * a / sx**2)
    coordinate = np.stack((g * (2.0 + h_minus_1), -np.sign(x) * g * h_minus_1), axis=1)
    env = 2.0 * (2.0 * sx**2 / np.pi) ** 0.25 * np.exp(-(sx**2) * p**2)
    momentum = np.stack((env * np.cos(p * a), -1j * env * np.sin(p * a)), axis=1)
    blocks = []
    for points, phi in ((x, coordinate / norms), (p, momentum / norms)):
        # row i is vec(phi_i phi_i^H) times the bin width, column-stacked
        outer = phi.conj()[:, :, None] * phi[:, None, :]
        blocks.append(outer.reshape(n_points, 4) * (points[1] - points[0]))
    return np.vstack(blocks).astype(complex)


# ---------------------------------------------------------------------------
# JSON-ready dicts: complex numbers as [re, im] pairs.


def _complex_to_pairs(arr: np.ndarray):
    arr = np.asarray(arr, dtype=complex)
    stacked = np.stack([arr.real, arr.imag], axis=-1)
    return stacked.tolist()


def measurements_to_dict(p) -> dict:
    return {"p": np.asarray(p, dtype=float).tolist()}


def report_to_dict(report: ReconstructionReport) -> dict:
    return {
        "adequate": report.adequate,
        "residual": report.residual,
        "completeness_class": report.completeness_class,
        "factors": _complex_to_pairs(report.factors),
        "undefined_count": report.undefined_count,
        "rho_regularized": _complex_to_pairs(report.rho_regularized),
        "k_max": report.k_max,
        "physical": report.physical,
    }
