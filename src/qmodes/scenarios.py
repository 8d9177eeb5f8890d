"""Scenario catalog: deterministic reproduction of the reference figure
data and parametric runs of every subsystem.

Each scenario writes plot-ready two-column (or multi-column) CSV/JSON data
files plus a JSON run report with the computed scalars.  Output is
byte-identical across repeated runs with the same configuration; the wall
time is echoed to the console but kept out of the serialized report.

Data tables are float64 columns of equal length.  A CSV table is the
comma-joined header line followed by one ``%.12g`` comma-separated line per
row, every line ending in ``\\n``.  A JSON table is byte-equal to
``json.dumps({"columns": names, "rows": rows}, indent=2, sort_keys=True)``
plus ``\\n``, with ``NaN``, ``Infinity`` and ``-Infinity`` for non-finite
values.  Reports and the other JSON files are written the same way.  Every
data table, and a measurement protocol's matrix, is streamed in blocks of
rows through one kernel, :func:`qmodes.text.format_rows`, which writes each
value as Python does (``%.12g``, or the token ``json.dumps`` writes) and
hands the rare value float64 arithmetic cannot settle to Python; the
separators between values spell out the CSV commas and newlines or
``json.dumps``' indentation.  Only an empty JSON table goes through
``json.dump``.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import coherence, interference, schmidt, tomography, tunneling
from .numerics import MAX_COUNT, Grid1D, make_grid, quadrature
from .text import format_rows

__all__ = ["ScenarioConfig", "RunReport", "run", "list_scenarios", "SCENARIOS"]

# values formatted per write: bounds the kernel's temporaries, about 150
# bytes a value for CSV and 300 for JSON
_BLOCK_VALUES = {"csv": 2048, "json": 1024}


@dataclass
class ScenarioConfig:
    """A scenario name plus its numeric parameters and output destination."""

    name: str
    out_dir: Path
    fmt: str = "csv"
    grid_points: int = 1024
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        self.out_dir = Path(self.out_dir)
        self.grid_points = _convert("grid_points", self.grid_points, 0)
        if self.fmt not in ("csv", "json"):
            raise ValueError(f"format must be csv or json, got {self.fmt!r}")
        if self.grid_points < 16:
            raise ValueError(f"grid_points too small: {self.grid_points}")
        if self.grid_points > MAX_COUNT:
            raise ValueError(f"grid_points must be at most {MAX_COUNT}, got {self.grid_points}")


@dataclass
class RunReport:
    """Echo of the run: scalars traceable to module operations, file manifest."""

    scenario: str
    parameters: dict
    scalars: dict
    files: list
    wall_time_s: float

    def to_dict(self) -> dict:
        # wall time deliberately excluded: reports must be byte-stable
        return {
            "scenario": self.scenario,
            "parameters": self.parameters,
            "scalars": self.scalars,
            "files": self.files,
        }


def _sig6(value: float) -> float:
    return float(f"{float(value):.6g}")


def _save_json(path: Path, data: dict):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(data, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _save_values(path: Path, fmt: str, head: str, table: np.ndarray, seps: list[bytes], tail: str):
    """Write ``head``, then each value of the 2-D ``table`` as ``fmt`` writes
    it followed by its column's separator from ``seps``, with ``tail`` in
    place of the last separator; streamed in blocks of rows.  An empty table
    writes ``head`` alone."""
    step = max(1, _BLOCK_VALUES[fmt] // table.shape[1])
    with open(path, "wb") as fh:
        fh.write(head.encode("utf-8"))
        for start in range(0, len(table), step):
            text = format_rows(table[start : start + step], seps, fmt)
            if start + step >= len(table):
                text = text[: -len(seps[-1])] + tail.encode("ascii")
            fh.write(text)


class _Emitter:
    def __init__(self, config: ScenarioConfig):
        self.config = config
        self.files: list[str] = []
        config.out_dir.mkdir(parents=True, exist_ok=True)

    def table(self, stem: str, names: list[str], columns: list[np.ndarray]) -> str:
        """Write equal-length real 1-D ``columns`` under ``names`` as one table."""
        if len(names) != len(columns):
            raise ValueError(f"table {stem!r}: {len(names)} names for {len(columns)} columns")
        arrays = [np.asarray(c) for c in columns]
        for label, col in zip(names, arrays):
            if col.ndim != 1 or col.dtype.kind not in "biuf" or len(col) != len(arrays[0]):
                raise ValueError(
                    f"table {stem!r}: column {label!r} (shape {col.shape}, dtype {col.dtype}) "
                    f"is not real, 1-D and as long as the first column {arrays[0].shape}"
                )
        table = np.column_stack(arrays).astype(np.float64, copy=False)
        fmt = self.config.fmt
        name = f"{stem}.{fmt}"
        path = self.config.out_dir / name
        if fmt == "json" and not len(table):
            # json.dumps spells the empty row list
            _save_json(path, {"columns": names, "rows": []})
        elif fmt == "csv":
            seps = [b","] * (len(names) - 1) + [b"\n"]
            _save_values(path, fmt, ",".join(names) + "\n", table, seps, "\n")
        else:
            head = '{\n  "columns": ' + json.dumps(names, indent=2).replace("\n", "\n  ")
            head += ',\n  "rows": [\n    [\n      '
            seps = [b",\n      "] * (len(names) - 1) + [b"\n    ],\n    [\n      "]
            _save_values(path, fmt, head, table, seps, "\n    ]\n  ]\n}\n")
        self.files.append(name)
        return name

    def protocol(self, stem: str, b: np.ndarray) -> str:
        """Write the (N, s^2) protocol matrix B as the JSON ``{"b": B as
        [real, imaginary] pairs, "n_measurements": N, "s": s}``, streamed
        from the matrix without nested lists."""
        name = f"{stem}.json"
        path = self.config.out_dir / name
        s = math.isqrt(b.shape[1])
        # each row of B as its entries' (real, imaginary) pairs
        table = np.ascontiguousarray(b, dtype=complex).view(np.float64)
        # json.dumps indents the rows of B by 4, the pairs by 6 and the numbers by 8
        pair = [b",\n        ", b"\n      ],\n      [\n        "]
        row_end = b"\n      ]\n    ],\n    [\n      [\n        "
        seps = pair * (s**2 - 1) + [pair[0], row_end]
        tail = f'\n      ]\n    ]\n  ],\n  "n_measurements": {len(table)},\n  "s": {s}\n}}\n'
        _save_values(path, "json", '{\n  "b": [\n    [\n      [\n        ', table, seps, tail)
        self.files.append(name)
        return name

    def json_file(self, stem: str, data: dict) -> str:
        name = f"{stem}.json"
        _save_json(self.config.out_dir / name, data)
        self.files.append(name)
        return name


def _momentum_grid(sigma: float, n: int) -> Grid1D:
    # envelope exp(-sigma^2 p^2): 9 momentum sigmas leave amplitude < 1e-8
    return make_grid(0.0, 9.0 / (2.0 * sigma), n)


def _coordinate_grid(m: int, a: float, sigma: float, n: int) -> Grid1D:
    extent = (m - 1) * a
    return make_grid(0.0, extent + 8.0 * sigma, n)


def _marginal(
    slits: interference.SlitParams, density: np.ndarray, grid: Grid1D, representation: str
) -> np.ndarray:
    basis = interference.slit_basis(slits, grid.points, representation)
    return interference.basis_density(basis, density)


def _decompose(params: dict):
    slits = interference.SlitParams(a=params["a"], sigma_x=params["sigma_x"], m=params["m"])
    det = interference.DetectorParams(b=params["b"], sigma_xi=params["sigma_xi"])
    density = interference.slit_state(slits, det.overlap)
    return slits, det, density, schmidt.schmidt(slits, density)


# ---------------------------------------------------------------------------
# runners


def _run_slits(config: ScenarioConfig, emit: _Emitter) -> dict:
    params = config.params
    slits = interference.SlitParams(a=params["a"], sigma_x=params["sigma_x"], m=params["m"])
    density = interference.slit_state(slits, 1.0)
    n = config.grid_points
    pgrid = _momentum_grid(slits.sigma_x, n)
    xgrid = _coordinate_grid(slits.m, slits.a, slits.sigma_x, n)
    mom = _marginal(slits, density, pgrid, interference.MOMENTUM)
    coord = _marginal(slits, density, xgrid, interference.COORDINATE)
    emit.table(f"{config.name}_momentum", ["p_x", "density"], [pgrid.points, mom])
    emit.table(f"{config.name}_coordinate", ["x", "density"], [xgrid.points, coord])
    scalars = {
        "momentum_integral": quadrature(mom, pgrid),
        "coordinate_integral": quadrature(coord, xgrid),
    }
    if slits.m == 2:
        scalars["c_squared"] = interference.two_slit_norm(slits.a, slits.sigma_x)
    return scalars


def _run_entangled(config: ScenarioConfig, emit: _Emitter) -> dict:
    """Momentum and coordinate marginals of the entangled state; for two
    slits the fringe visibility is read from its density matrix."""
    slits, det, density, decomp = _decompose(config.params)
    if slits.m == 2:
        coherence.check_fringes(slits)
    pgrid = _momentum_grid(slits.sigma_x, config.grid_points)
    marg = _marginal(slits, density, pgrid, interference.MOMENTUM)
    emit.table(f"{config.name}_marginal_momentum", ["p_x", "density"], [pgrid.points, marg])
    xgrid = _coordinate_grid(slits.m, slits.a, slits.sigma_x, config.grid_points)
    coord = _marginal(slits, density, xgrid, interference.COORDINATE)
    emit.table(f"{config.name}_marginal_coordinate", ["x", "density"], [xgrid.points, coord])
    scalars = {
        "schmidt_number": schmidt.schmidt_number(decomp.weights),
        "entropy": schmidt.entropy(decomp.weights),
        "fringe_modulation": det.overlap,
        "visibility": coherence.visibility(density) if slits.m == 2 else None,
        "marginal_integral": quadrature(marg, pgrid),
    }
    return {k: v for k, v in scalars.items() if v is not None}


def _run_schmidt(config: ScenarioConfig, emit: _Emitter) -> dict:
    slits, det, density, decomp = _decompose(config.params)
    pgrid = _momentum_grid(slits.sigma_x, config.grid_points)
    basis = interference.slit_basis(slits, pgrid.points, interference.MOMENTUM)
    marg = interference.basis_density(basis, density)
    mixture = schmidt.reconstruct_marginal(decomp, basis)
    names = ["p_x"] + [f"mode{k}_density" for k in range(len(decomp.weights))]
    modes = [interference.basis_density(basis, np.outer(c, c)) for c in decomp.coefficients.T]
    emit.table(f"{config.name}_modes", names, [pgrid.points] + modes)
    emit.table(
        f"{config.name}_marginal",
        ["p_x", "marginal", "mode_mixture"],
        [pgrid.points, marg, mixture],
    )
    emit.table(
        f"{config.name}_weights",
        ["k", "weight"],
        [np.arange(len(decomp.weights), dtype=float), decomp.weights],
    )
    scalars = {
        "schmidt_number": schmidt.schmidt_number(decomp.weights),
        "entropy": schmidt.entropy(decomp.weights),
        "information": schmidt.information(decomp.weights),
        "mode_count": float(len(decomp.weights)),
    }
    for k, lam in enumerate(decomp.weights[:8]):
        scalars[f"lambda{k}"] = lam
    if slits.m == 2:
        lam0, lam1 = schmidt.analytic_two_slit_weights(slits, det)
        scalars["lambda0_analytic"] = lam0
        scalars["lambda1_analytic"] = lam1
        # a weight below the truncation is dropped, so compare it as 0
        kept0, kept1 = np.append(decomp.weights, 0.0)[:2]
        scalars["analytic_numeric_gap"] = max(abs(lam0 - kept0), abs(lam1 - kept1))
    return scalars


def _run_fig4(config: ScenarioConfig, emit: _Emitter) -> dict:
    """Momentum marginals at four detector offsets b, decomposed in one stack."""
    params = config.params
    n = config.grid_points
    b_values = (0.0, 0.3, 0.7, 1.5)
    slits = interference.SlitParams(a=params["a"], sigma_x=params["sigma_x"], m=params["m"])
    pgrid = _momentum_grid(slits.sigma_x, n)
    basis = interference.slit_basis(slits, pgrid.points, interference.MOMENTUM)
    overlaps = [interference.DetectorParams(b, params["sigma_xi"]).overlap for b in b_values]
    densities = np.stack([interference.slit_state(slits, g) for g in overlaps])
    names = ["p_x"]
    cols = [pgrid.points]
    scalars = {}
    for b, density, decomp in zip(b_values, densities, schmidt.schmidt_stack(slits, densities)):
        names.append(f"density_b_{b:g}")
        cols.append(interference.basis_density(basis, density))
        scalars[f"schmidt_number_b_{b:g}"] = schmidt.schmidt_number(decomp.weights)
    emit.table(f"{config.name}_intensity", names, cols)
    return scalars


def _run_source(config: ScenarioConfig, emit: _Emitter) -> dict:
    params = config.params
    n = config.grid_points
    slits = interference.SlitParams(a=params["a"], sigma_x=params["sigma_x"], m=2)
    pgrid = _momentum_grid(slits.sigma_x, n)
    basis = interference.slit_basis(slits, pgrid.points, interference.MOMENTUM)
    y_values = (0.0, 0.0625, 0.125, 0.1875, 0.25)
    names = ["p_x"]
    cols = [pgrid.points]
    scalars = {}
    for y in y_values:
        density = interference.slit_state(slits, coherence.source_coherence(y))
        names.append(f"density_y_{y:g}")
        cols.append(interference.basis_density(basis, density))
        scalars[f"visibility_y_{y:g}"] = coherence.source_visibility(y)
        scalars[f"schmidt_number_y_{y:g}"] = coherence.source_schmidt(y)
    emit.table(f"{config.name}_intensity", names, cols)
    return scalars


def _run_coupling_curve(config: ScenarioConfig, emit: _Emitter) -> dict:
    y = np.linspace(0.0, 0.5, 257)
    v = coherence.source_visibility(y)
    k = coherence.source_schmidt(y)
    emit.table(f"{config.name}_curve", ["y", "visibility", "schmidt_number"], [y, v, k])
    return {
        "visibility_y0": v[0],
        "schmidt_number_y0": k[0],
        "visibility_y025": coherence.source_visibility(0.25),
        "schmidt_number_y025": coherence.source_schmidt(0.25),
    }


def _run_coherence(config: ScenarioConfig, emit: _Emitter) -> dict:
    """The coherence qubit swept over 17 phases in [0, pi/2], and its scalars
    at ``phi``: each visibility is read from the state's density matrix, and
    the sweep's Schmidt numbers come from one stacked decomposition."""
    params = config.params
    phi = params["phi"]
    if not math.isfinite(2.0 * phi):
        # the qubit overlap is cos 2 phi
        raise ValueError(f"phi must be finite, and so must 2 phi, got {phi}")
    slits = interference.SlitParams(a=params["a"], sigma_x=params["sigma_x"], m=2)
    # before any state: coincident slits have no norm at gamma = -1
    coherence.check_fringes(slits)
    phis = np.linspace(0.0, np.pi / 2.0, 17)
    densities = np.stack([interference.slit_state(slits, np.cos(2.0 * p)) for p in phis])
    visibility = coherence.visibility(densities)
    k = [schmidt.schmidt_number(d.weights) for d in schmidt.schmidt_stack(slits, densities)]
    k_v = [coherence.k_from_v(v) for v in visibility]
    emit.table(
        f"{config.name}_sweep",
        ["phi", "visibility", "schmidt_number", "schmidt_from_v"],
        [phis, visibility, k, k_v],
    )
    v = coherence.visibility(interference.slit_state(slits, np.cos(2.0 * phi)))
    return {
        "phi": phi,
        "visibility": v,
        "schmidt_number": coherence.k_from_v(v),
        "lambda0": (1.0 + v) / 2.0,
        "lambda1": (1.0 - v) / 2.0,
        "entropy": coherence.entropy_from_v(v),
        "max_coupling_gap": max(abs(a - b) for a, b in zip(k, k_v)),
    }


def _run_ammonia(config: ScenarioConfig, emit: _Emitter) -> dict:
    params = config.params
    choice = params["isotope"]
    table = tunneling.AMMONIA_ISOTOPES
    if choice != "all":
        if choice not in table:
            raise ValueError(f"unknown isotope {choice!r}; pick one of {sorted(table)} or all")
        isotopes = [table[choice]]
    else:
        isotopes = [table[k] for k in ("NH3", "ND3", "NT3")]
    fit_mass = params["mass"]
    well = tunneling.fit_potential(
        tunneling.AMMONIA_EQUILIBRIUM, tunneling.AMMONIA_SPLITTING, fit_mass
    )
    wells = [tunneling.DoubleWell(well.alpha, well.beta, iso.mass) for iso in isotopes]
    delta_e = np.array([tunneling.two_level_energies(w).splitting for w in wells])
    fd_delta_e = np.array([e1 - e0 for e0, e1 in map(tunneling.grid_eigensolve, wells)])
    columns = {
        "mass": np.array([iso.mass for iso in isotopes]),
        "overlap": np.array([w.overlap for w in wells]),
        "delta_e": delta_e,
        "frequency_ghz": tunneling.splitting_to_frequency(delta_e),
        "fd_delta_e": fd_delta_e,
        "fd_frequency_ghz": tunneling.splitting_to_frequency(fd_delta_e),
        "experimental_ghz": np.array([iso.experimental_ghz for iso in isotopes], dtype=float),
    }
    emit.table(f"{config.name}_splittings", list(columns), list(columns.values()))
    scalars = {"alpha": well.alpha, "beta": well.beta, "fit_mass": fit_mass}
    for i, iso in enumerate(isotopes):
        for key in ("frequency_ghz", "overlap", "fd_frequency_ghz", "experimental_ghz"):
            scalars[f"{key}_{iso.name}"] = columns[key][i]
    return scalars


def _run_qubits(config: ScenarioConfig, emit: _Emitter) -> dict:
    params = config.params
    n_sweep = params["n_sweep"]
    if n_sweep < 3 or n_sweep % 2 == 0:
        # the middle sample is the uncoupled point g0 = 0
        raise ValueError(f"n_sweep must be odd and at least 3, got {n_sweep}")
    if n_sweep > MAX_COUNT:
        raise ValueError(f"n_sweep must be at most {MAX_COUNT}, got {n_sweep}")
    g0_max = params["g0_max"]
    if not 0.0 <= g0_max < np.inf:
        # the sweep runs from -g0_max to g0_max, so a negative one would swap its ends
        raise ValueError(f"g0_max must be finite and non-negative (0 means auto), got {g0_max}")
    well = tunneling.fit_potential(
        tunneling.AMMONIA_EQUILIBRIUM, tunneling.AMMONIA_SPLITTING, params["mass"]
    )
    energies = tunneling.two_level_energies(well)
    contact = 4.0 * math.sqrt(math.pi) * well.sigma_x
    g_max = g0_max or 300.0 * energies.splitting * contact
    if not (math.isfinite(2.0 * g_max) and math.isfinite(g_max / contact / energies.splitting)):
        # the sweep spans 2 g0_max, and each g0 is also written as g0 / (contact * splitting)
        raise ValueError(f"g0_max {g0_max} overflows the coupling sweep; pick a smaller one")
    g_values = np.linspace(-g_max, g_max, n_sweep)
    k_values, _ = tunneling.ground_state_entanglement(
        tunneling.build_two_qubit(energies, well, g_values)
    )
    emit.table(
        f"{config.name}_sweep",
        ["g0", "reduced_coupling", "schmidt_number"],
        [g_values, g_values / contact / energies.splitting, k_values],
    )
    return {
        "delta_e": energies.splitting,
        "sigma_x": well.sigma_x,
        "g0_max": g_max,
        "schmidt_number_g0_0": k_values[n_sweep // 2],
        "schmidt_number_attraction_max": k_values[-1],
        "schmidt_number_repulsion_max": k_values[0],
    }


def _run_tomography(config: ScenarioConfig, emit: _Emitter) -> dict:
    params = config.params
    slits = interference.SlitParams(a=params["a"], sigma_x=params["sigma_x"], m=2)
    # built first, so that a geometry it rejects leaves no file behind
    protocol = tomography.interference_protocol(slits, params["n_points"])
    populations = np.array([[1.0, 0.0, 0.0, 0.0], [0.0, 0.0, 0.0, 1.0]], dtype=complex)
    analysis = tomography.analyze(populations)
    pure = tomography.reconstruct(analysis, np.array([1.0, 0.0]))
    mixed = tomography.reconstruct(analysis, np.array([0.5, 0.5]))
    purity_min, purity_max = tomography.completion_purity_range(analysis, np.array([0.5, 0.5]))
    emit.protocol(f"{config.name}_populations_protocol", populations)
    emit.json_file(f"{config.name}_populations_pure_report", tomography.report_to_dict(pure))
    emit.json_file(f"{config.name}_populations_mixed_report", tomography.report_to_dict(mixed))

    ianalysis = tomography.analyze(protocol)
    rho_sym = np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex)
    p_data = np.real(protocol @ tomography.vectorize(rho_sym))
    ireport = tomography.reconstruct(ianalysis, p_data)
    emit.protocol(f"{config.name}_interference_protocol", protocol)
    emit.json_file(
        f"{config.name}_interference_measurements", tomography.measurements_to_dict(p_data)
    )
    emit.json_file(f"{config.name}_interference_report", tomography.report_to_dict(ireport))
    return {
        "populations_rank": float(analysis.rank),
        "pure_k_max": pure.k_max,
        "pure_class": pure.completeness_class,
        "mixed_k_max": mixed.k_max,
        "scan_purity_min": purity_min,
        "scan_purity_max": purity_max,
        "interference_rank": float(ianalysis.rank),
        "interference_k_max": ireport.k_max,
        "interference_residual": ireport.residual,
    }


# ---------------------------------------------------------------------------
# catalog: each scenario's defaults name every parameter it takes, and a
# default's type is the parameter's type (flags and config values included)

_SLIT_DEFAULTS = {"m": 2, "a": 5.0, "sigma_x": 0.5}
_TWO_SLIT_DEFAULTS = {"m": 2, "a": 5.0, "b": 0.5, "sigma_x": 0.5, "sigma_xi": 0.5}
_NH3_MASS = tunneling.AMMONIA_ISOTOPES["NH3"].mass
# g0_max = 0 (auto) sweeps the reduced coupling g0 / (contact * splitting) over +/-300
_QUBIT_DEFAULTS = {"mass": _NH3_MASS, "g0_max": 0.0, "n_sweep": 101}
_TOMOGRAPHY_DEFAULTS = {"a": 5.0, "sigma_x": 0.5, "n_points": 32}


@dataclass(frozen=True)
class _Scenario:
    summary: str
    runner: object
    defaults: dict


SCENARIOS: dict[str, _Scenario] = {
    "fig1": _Scenario(
        "two-slit coordinate and momentum densities (a=5, sigma_x=0.5)",
        _run_slits,
        _SLIT_DEFAULTS,
    ),
    "fig2": _Scenario(
        "which-way damping of the two-slit fringes (b=0.7 marginal)",
        _run_entangled,
        {**_TWO_SLIT_DEFAULTS, "b": 0.7},
    ),
    "fig3": _Scenario(
        "two-slit Schmidt modes and weights (a=5, b=0.5 reference case)",
        _run_schmidt,
        _TWO_SLIT_DEFAULTS,
    ),
    "fig4": _Scenario(
        "four-slit fringes at several particle-detector couplings",
        _run_fig4,
        {**_SLIT_DEFAULTS, "m": 4, "sigma_xi": 0.5},
    ),
    "fig5": _Scenario(
        "five-slit Schmidt modes and weights (a=5, b=0.5 reference case)",
        _run_schmidt,
        {**_TWO_SLIT_DEFAULTS, "m": 5},
    ),
    "fig6-data": _Scenario(
        "fringe patterns for finite source sizes y (uniform-source model)",
        _run_source,
        {"a": 5.0, "sigma_x": 0.5},
    ),
    "fig7": _Scenario(
        "visibility and Schmidt number versus source size y",
        _run_coupling_curve,
        {},
    ),
    "fig10": _Scenario(
        "ground-state entanglement versus contact coupling g0 (ammonia qubits)",
        _run_qubits,
        _QUBIT_DEFAULTS,
    ),
    "ammonia": _Scenario(
        "inversion splittings of NH3/ND3/NT3 from the fitted double well",
        _run_ammonia,
        {"isotope": "all", "mass": _NH3_MASS},
    ),
    "tomography-demo": _Scenario(
        "population-only and coordinate+momentum protocols with K_max bounds",
        _run_tomography,
        _TOMOGRAPHY_DEFAULTS,
    ),
    "slits": _Scenario(
        "m-slit densities without which-way coupling (parametric)",
        _run_slits,
        _SLIT_DEFAULTS,
    ),
    "entangled": _Scenario(
        "entangled particle-detector marginals (parametric)",
        _run_entangled,
        _TWO_SLIT_DEFAULTS,
    ),
    "schmidt": _Scenario(
        "Schmidt decomposition of the m-slit state (parametric)",
        _run_schmidt,
        _TWO_SLIT_DEFAULTS,
    ),
    "coherence": _Scenario(
        "qubit coherence model: visibility-Schmidt coupling sweep",
        _run_coherence,
        {"a": 5.0, "sigma_x": 0.5, "phi": np.pi / 8.0},
    ),
    "qubits": _Scenario(
        "two-qubit ground-state entanglement sweep (parametric)",
        _run_qubits,
        _QUBIT_DEFAULTS,
    ),
    "tomography": _Scenario(
        "measurement-protocol adequacy/completeness demo (parametric)",
        _run_tomography,
        _TOMOGRAPHY_DEFAULTS,
    ),
}


def list_scenarios() -> dict[str, str]:
    """Scenario names with one-line summaries."""
    return {name: sc.summary for name, sc in SCENARIOS.items()}


def _convert(key: str, value, default):
    kind = type(default)
    try:
        converted = kind(value)
    except (TypeError, ValueError, OverflowError):
        converted = None
    if converted is None or (kind is int and converted != value):
        raise ValueError(f"parameter {key!r} takes a {kind.__name__}, got {value!r}")
    return converted


def run(config: ScenarioConfig) -> RunReport:
    """Execute a scenario: write its data files and the JSON run report.

    ``config.params`` override the scenario's defaults and are converted to
    the type of the default they replace; an integer parameter takes only
    integral values.
    """
    if config.name not in SCENARIOS:
        raise ValueError(f"unknown scenario {config.name!r}; see list_scenarios()")
    defaults = SCENARIOS[config.name].defaults
    unknown = sorted(set(config.params) - set(defaults))
    if unknown:
        raise ValueError(f"unknown parameters for {config.name!r}: {unknown}")
    params = {**defaults, **{k: _convert(k, v, defaults[k]) for k, v in config.params.items()}}
    config = ScenarioConfig(config.name, config.out_dir, config.fmt, config.grid_points, params)

    start = time.perf_counter()
    emit = _Emitter(config)
    scalars = SCENARIOS[config.name].runner(config, emit)
    wall = time.perf_counter() - start

    clean_params = {k: (v if isinstance(v, str) else _sig6(v)) for k, v in params.items()}
    clean_scalars = {k: (v if isinstance(v, str) else _sig6(v)) for k, v in scalars.items()}
    report = RunReport(config.name, clean_params, clean_scalars, emit.files, wall)
    _save_json(config.out_dir / f"{config.name}_report.json", report.to_dict())
    return report
