"""SVD analysis of linear measurement protocols: adequacy, completeness
classification, regularized reconstruction and the entanglement bound.

A protocol is a matrix B acting on column-stacked density matrices,
B rho = P.  With B = U S V+ the rotated data Q = U+ P must vanish beyond
the model rank r (adequacy); factors f = V+ rho split into r defined
values f_j = Q_j / S_j and s^2 - r undefined ones.  Setting the undefined
factors to zero gives the regularized solution and the bound

    K <= K_max = 1 / (f+ f)

on the Schmidt number of any entanglement between the system and its
environment consistent with the data.  K_max = 1 certifies a pure state
even from an incomplete protocol ("conditional completeness").

Protocol matrices, measurement vectors and reports round-trip through
JSON with complex numbers encoded as [re, im] pairs.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .interference import SlitParams

__all__ = [
    "UNCONDITIONALLY_COMPLETE",
    "CONDITIONALLY_COMPLETE",
    "INCOMPLETE",
    "ProtocolMatrix",
    "ProtocolAnalysis",
    "ReconstructionReport",
    "CompletionGrid",
    "ScanResult",
    "InadequateDataError",
    "ZeroFactorsError",
    "DimensionalityError",
    "vectorize",
    "devectorize",
    "analyze",
    "check_adequacy",
    "reconstruct",
    "scan_completions",
    "interference_protocol",
    "protocol_to_dict",
    "protocol_from_dict",
    "measurements_to_dict",
    "measurements_from_dict",
    "report_to_dict",
    "save_json",
    "load_json",
]

UNCONDITIONALLY_COMPLETE = "unconditionally_complete"
CONDITIONALLY_COMPLETE = "conditionally_complete"
INCOMPLETE = "incomplete"

DEFAULT_RANK_THRESHOLD = 1e-10
# product-grid points a completion scan may visit (21 points per axis
# allow u = 2 undefined factors; u = 3 would be 21^6 ~ 86M)
MAX_SCAN_CANDIDATES = 10**7
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


class DimensionalityError(ValueError):
    """Too many undefined factors to scan exhaustively."""


@dataclass(frozen=True)
class ProtocolMatrix:
    """Measurement matrix B (N rows x s^2 columns) over column-stacked rho."""

    b: np.ndarray
    s: int

    def __post_init__(self):
        b = np.asarray(self.b)
        if b.ndim != 2 or b.shape[1] != self.s**2:
            raise ValueError(
                f"matrix shape {b.shape} inconsistent with Hilbert dimension {self.s}"
            )
        object.__setattr__(self, "b", b)

    @property
    def n_measurements(self) -> int:
        return self.b.shape[0]


@dataclass(frozen=True)
class ProtocolAnalysis:
    """Full SVD B = U diag(s) V+ with the numerical rank."""

    u: np.ndarray = field(repr=False)
    v: np.ndarray = field(repr=False)
    singular_values: np.ndarray
    rank: int
    rank_threshold: float

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


@dataclass(frozen=True)
class CompletionGrid:
    """Scan grid over undefined factors: points per real axis on [-radius, radius]."""

    points_per_dim: int = 21
    radius: float = 1.0
    eig_tol: float = EIGENVALUE_TOL
    hermiticity_tol: float = HERMITICITY_TOL
    chunk: int = 65536


@dataclass(frozen=True)
class ScanResult:
    """Physical completions found by scanning the undefined factors."""

    states: np.ndarray
    purity_min: float
    purity_max: float

    @property
    def count(self) -> int:
        return self.states.shape[0]


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


def analyze(protocol: ProtocolMatrix, rank_threshold: float = DEFAULT_RANK_THRESHOLD) -> ProtocolAnalysis:
    """SVD of the protocol matrix with rank counted above threshold x s_max."""
    u, s, vh = np.linalg.svd(protocol.b, full_matrices=True)
    rank = int(np.sum(s > rank_threshold * s[0])) if s.size and s[0] > 0 else 0
    return ProtocolAnalysis(u, vh.conj().T, s, rank, rank_threshold)


def check_adequacy(analysis: ProtocolAnalysis, p, tol: float = DEFAULT_ADEQUACY_TOL):
    """Relative norm of the rotated data beyond the model rank.

    Q = U+ P; components r+1..N must vanish for the linear system to be
    consistent.  Returns (adequate, residual).
    """
    p = np.asarray(p)
    if p.shape[0] != analysis.u.shape[0]:
        raise ValueError(
            f"data length {p.shape[0]} does not match {analysis.u.shape[0]} measurements"
        )
    q = analysis.u.conj().T @ p
    total = float(np.linalg.norm(q))
    if total == 0.0:
        return True, 0.0
    residual = float(np.linalg.norm(q[analysis.rank :]) / total)
    return residual <= tol, residual


def _physical(rho: np.ndarray) -> bool:
    if np.max(np.abs(rho - rho.conj().T)) > HERMITICITY_TOL:
        return False
    if abs(np.trace(rho).real - 1.0) > TRACE_TOL or abs(np.trace(rho).imag) > TRACE_TOL:
        return False
    return bool(np.min(np.linalg.eigvalsh(0.5 * (rho + rho.conj().T))) >= -EIGENVALUE_TOL)


def reconstruct(
    analysis: ProtocolAnalysis,
    p,
    tol: float = DEFAULT_ADEQUACY_TOL,
    conditional_tol: float = DEFAULT_CONDITIONAL_TOL,
) -> ReconstructionReport:
    """Regularized linear inversion with completeness classification.

    Defined factors are Q_j / S_j for j <= rank; undefined factors are set
    to zero, giving the minimum-norm solution rho = V f.  K_max = 1/(f+ f)
    bounds the Schmidt number of any system-environment entanglement
    consistent with the data.  Classes: rank = s^2 is unconditionally
    complete; otherwise |K_max - 1| <= conditional_tol is conditionally
    complete, else incomplete.
    """
    adequate, residual = check_adequacy(analysis, p, tol)
    if not adequate:
        raise InadequateDataError(residual)
    r = analysis.rank
    q = analysis.u.conj().T @ np.asarray(p)
    f = np.zeros(analysis.model_dim, dtype=complex)
    f[:r] = q[:r] / analysis.singular_values[:r]
    ff = float(np.real(f.conj() @ f))
    if ff <= 0.0:
        raise ZeroFactorsError("defined factors all vanish; K_max undefined")
    k_max = 1.0 / ff
    rho = devectorize(analysis.v @ f)
    if r == analysis.model_dim:
        completeness = UNCONDITIONALLY_COMPLETE
    elif abs(k_max - 1.0) <= conditional_tol:
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


def scan_completions(
    analysis: ProtocolAnalysis,
    p,
    grid: CompletionGrid = CompletionGrid(),
    tol: float = DEFAULT_ADEQUACY_TOL,
) -> ScanResult:
    """All physical states consistent with the data, on a factor-space grid.

    The undefined factors are swept over a product grid inside the ball
    ||f_undef|| <= radius (radius 1 suffices: any density matrix has
    Frobenius norm at most 1).  Completions that are Hermitian, unit-trace
    and positive within tolerance are retained.  The grid is generated one
    chunk at a time and may hold at most ``MAX_SCAN_CANDIDATES`` points.
    """
    report = reconstruct(analysis, p, tol)
    u_count = report.undefined_count
    s_dim = int(round(np.sqrt(analysis.model_dim)))
    rho_reg_vec = vectorize(report.rho_regularized)
    if u_count == 0:
        rho = report.rho_regularized
        states = rho[None, :, :] if _physical(rho) else np.empty((0, s_dim, s_dim), complex)
        purities = [float(np.sum(np.abs(rho) ** 2))] if states.shape[0] else []
        lo = min(purities, default=np.nan)
        hi = max(purities, default=np.nan)
        return ScanResult(states, lo, hi)
    shape = (grid.points_per_dim,) * (2 * u_count)
    total = grid.points_per_dim ** (2 * u_count)
    if total > MAX_SCAN_CANDIDATES:
        raise DimensionalityError(
            f"{u_count} undefined factors need {total} grid points; scan cap is {MAX_SCAN_CANDIDATES}"
        )

    axis = np.linspace(-grid.radius, grid.radius, grid.points_per_dim)
    null_basis = analysis.v[:, analysis.rank :]
    kept: list[np.ndarray] = []
    for start in range(0, total, grid.chunk):
        # this chunk's product-grid points, in meshgrid(..., indexing="ij") order
        index = np.unravel_index(np.arange(start, min(start + grid.chunk, total)), shape)
        reals = axis[np.stack(index, axis=1)]
        block = reals[:, :u_count] + 1j * reals[:, u_count:]
        block = block[np.linalg.norm(block, axis=1) <= grid.radius + 1e-12]
        vecs = rho_reg_vec[None, :] + block @ null_basis.T
        rhos = np.transpose(vecs.reshape(-1, s_dim, s_dim), (0, 2, 1))
        herm = np.max(np.abs(rhos - np.conj(np.transpose(rhos, (0, 2, 1)))), axis=(1, 2))
        traces = np.trace(rhos, axis1=1, axis2=2)
        ok = (herm <= grid.hermiticity_tol) & (np.abs(traces - 1.0) <= TRACE_TOL)
        if np.any(ok):
            sub = rhos[ok]
            sym = 0.5 * (sub + np.conj(np.transpose(sub, (0, 2, 1))))
            evals = np.linalg.eigvalsh(sym)
            ok2 = evals.min(axis=1) >= -grid.eig_tol
            if np.any(ok2):
                kept.append(sub[ok2])
    if kept:
        states = np.concatenate(kept, axis=0)
        purities = np.sum(np.abs(states) ** 2, axis=(1, 2)).real
        return ScanResult(states, float(purities.min()), float(purities.max()))
    return ScanResult(np.empty((0, s_dim, s_dim), complex), np.nan, np.nan)


def two_slit_basis_functions(slits: SlitParams, x: np.ndarray, p: np.ndarray):
    """Symmetric/antisymmetric two-slit states sampled in both representations.

    Returns (psi0(x), psi1(x), psi0~(p), psi1~(p)); the antisymmetric
    momentum wave carries the factor i that makes its coordinate form real.
    """
    a, sx = slits.a, slits.sigma_x
    overlap = slits.overlap
    c0 = 1.0 / np.sqrt(1.0 + overlap)
    c1 = 1.0 / np.sqrt(1.0 - overlap)
    norm_x = (1.0 / (np.sqrt(2.0 * np.pi) * 2.0 * sx)) ** 0.5
    gp = np.exp(-((x - a) ** 2) / (4.0 * sx**2))
    gm = np.exp(-((x + a) ** 2) / (4.0 * sx**2))
    psi0 = c0 * norm_x * (gp + gm)
    psi1 = c1 * norm_x * (gp - gm)
    norm_p = (1.0 / (2.0 * np.pi)) ** 0.25 * np.sqrt(sx)
    env = np.exp(-(sx**2) * p**2)
    psi0_t = 2.0 * c0 * norm_p * env * np.cos(p * a)
    psi1_t = 2.0j * c1 * norm_p * env * np.sin(p * a)
    return psi0, psi1, psi0_t, psi1_t


def interference_protocol(slits: SlitParams, n_points: int) -> ProtocolMatrix:
    """Coordinate + momentum density sampling of the two-slit qubit space.

    The state space is spanned by the symmetric and antisymmetric two-slit
    states.  The first n_points rows sample the coordinate density on a
    uniform grid over +/-(a + 5 sigma_x); the next n_points rows sample the
    momentum density over +/-min(2/sigma_x, n pi / 8a).  Each row is scaled
    by its bin width, so B rho yields integrated bin probabilities.
    """
    if slits.m != 2:
        raise ValueError(f"protocol is defined on the two-slit space, got m={slits.m}")
    if n_points < 2:
        raise ValueError(f"need at least 2 sample points per space, got {n_points}")
    a, sx = slits.a, slits.sigma_x
    x = np.linspace(-(a + 5.0 * sx), a + 5.0 * sx, n_points)
    p_max = min(2.0 / sx, n_points * np.pi / (8.0 * a))
    p = np.linspace(-p_max, p_max, n_points)
    psi0, psi1, psi0_t, psi1_t = two_slit_basis_functions(slits, x, p)
    dx = x[1] - x[0]
    dp = p[1] - p[0]
    rows = np.empty((2 * n_points, 4), dtype=complex)
    for i in range(n_points):
        phi = np.array([psi0[i], psi1[i]])
        rows[i] = np.outer(phi, phi.conj()).ravel(order="F") * dx
    for i in range(n_points):
        phi = np.array([psi0_t[i], psi1_t[i]])
        rows[n_points + i] = np.outer(phi, phi.conj()).ravel(order="F") * dp
    return ProtocolMatrix(rows, s=2)


# ---------------------------------------------------------------------------
# JSON interchange: complex numbers as [re, im] pairs.


def _complex_to_pairs(arr: np.ndarray):
    arr = np.asarray(arr, dtype=complex)
    stacked = np.stack([arr.real, arr.imag], axis=-1)
    return stacked.tolist()


def _pairs_to_complex(data) -> np.ndarray:
    arr = np.asarray(data, dtype=float)
    if arr.shape[-1] != 2:
        raise ValueError("complex entries must be [re, im] pairs")
    return arr[..., 0] + 1j * arr[..., 1]


def protocol_to_dict(protocol: ProtocolMatrix) -> dict:
    return {
        "s": protocol.s,
        "n_measurements": protocol.n_measurements,
        "b": _complex_to_pairs(protocol.b),
    }


def protocol_from_dict(data: dict) -> ProtocolMatrix:
    return ProtocolMatrix(_pairs_to_complex(data["b"]), int(data["s"]))


def measurements_to_dict(p) -> dict:
    return {"p": np.asarray(p, dtype=float).tolist()}


def measurements_from_dict(data: dict) -> np.ndarray:
    return np.asarray(data["p"], dtype=float)


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


def save_json(path, data: dict):
    Path(path).write_text(json.dumps(data, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def load_json(path) -> dict:
    return json.loads(Path(path).read_text(encoding="utf-8"))
