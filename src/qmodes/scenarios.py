"""Scenario catalog: deterministic reproduction of the reference figure
data and parametric runs of every subsystem.

The catalog is one table, ``SCENARIOS``: each name maps to its ``qmodes
list`` summary, its runner and its full defaults, in ``qmodes list``
order.  The ten figure presets come first, then the six commands that are
not one.  A preset that shares a command's runner differs from it in its
defaults alone (``fig5`` is ``schmidt`` with ``m = 5``).  Which entries
are commands, run under their own name with one flag per default, is the
CLI's grammar (``cli._COMMANDS``).

A runner computes and writes nothing: ``runner(params, n)`` returns its
scalars and an ordered list of files ``(stem, kind, payload)``, where
``kind`` is ``table`` (names, columns), ``protocol`` (a matrix B) or
``json`` (a dict).  :func:`run` takes an entry's name, calls its runner,
writes the files in order, then a JSON run report of the scalars, all
named after it: ``momentum`` in a ``fig1`` run is ``fig1_momentum.csv``.
The directory is made only once the runner has returned, so a run that
raises writes nothing.  Output is byte-identical
across repeated runs with the same configuration; the wall time is
returned to the caller but kept out of the serialized report.

This module alone knows the output formats.  Data tables are float64
columns of equal length, at least one row long.  A CSV table is the
comma-joined header line followed by one ``%.12g`` comma-separated line
per row, every line ending in ``\\n``.  A JSON table is byte-equal to
``json.dumps({"columns": names, "rows": rows}, indent=2, sort_keys=True)``
plus ``\\n``, with ``NaN``, ``Infinity`` and ``-Infinity`` for non-finite
values.  Reports and the other JSON files are written the same way, with
an array as its nested lists and a complex entry as its ``[re, im]`` pair.
Every data table, and a measurement protocol's matrix, is streamed in
blocks of rows of about 2048 values, in either format, through one
kernel, :func:`qmodes.text.format_rows`, which writes each value as
Python does (``%.12g``, or the token ``json.dumps`` writes) and hands the
rare value float64 arithmetic cannot settle to Python; the separators
between values spell out the CSV commas and newlines or ``json.dumps``'
indentation.
"""

from __future__ import annotations

import json
import math
import time
from collections.abc import Callable
from pathlib import Path

import numpy as np

from . import coherence, interference, schmidt, tomography, tunneling
from .numerics import MAX_COUNT, grid, quadrature
from .text import format_rows

__all__ = ["run", "SCENARIOS"]

# values formatted per kernel call, in either format: bounds the kernel's
# temporaries, about 150 bytes a value for CSV and 300 for JSON
_BLOCK_VALUES = 2048


def _sig6(value: float) -> float:
    return float(f"{float(value):.6g}")


def _array_lists(value):
    """``json.dump``'s ``default``: a numpy array as its nested lists, or a
    numpy scalar as its Python value, each complex entry as its [re, im]
    pair.  The runners build every payload, so none is checked here."""
    if np.iscomplexobj(value):
        value = np.stack([value.real, value.imag], axis=-1)
    return value.tolist()


def _save_json(path: Path, data: dict):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(data, fh, indent=2, sort_keys=True, default=_array_lists)
        fh.write("\n")


def _save_values(path: Path, fmt: str, head: str, table: np.ndarray, seps: list[bytes], tail: str):
    """Write ``head``, then each value of the 2-D ``table`` as ``fmt`` writes
    it followed by its column's separator from ``seps``, with ``tail`` in
    place of the last separator; streamed in as few blocks of rows as hold
    about ``_BLOCK_VALUES`` values each, their row counts differing by
    at most one."""
    rows, cols = table.shape
    blocks = min(rows, -(-rows * cols // _BLOCK_VALUES))
    bounds = [rows * k // blocks for k in range(blocks + 1)]
    with open(path, "wb") as fh:
        fh.write(head.encode("utf-8"))
        for start, stop in zip(bounds, bounds[1:]):
            text = format_rows(table[start:stop], seps, fmt)
            if stop == rows:
                text = text[: -len(seps[-1])] + tail.encode("ascii")
            fh.write(text)


def _save_table(path: Path, fmt: str, names: list[str], columns: list[np.ndarray]):
    """Write ``columns`` under ``names`` as one table."""
    table = np.column_stack(columns).astype(np.float64, copy=False)
    if fmt == "csv":
        seps = [b","] * (len(names) - 1) + [b"\n"]
        _save_values(path, fmt, ",".join(names) + "\n", table, seps, "\n")
    else:
        head = '{\n  "columns": ' + json.dumps(names, indent=2).replace("\n", "\n  ")
        head += ',\n  "rows": [\n    [\n      '
        seps = [b",\n      "] * (len(names) - 1) + [b"\n    ],\n    [\n      "]
        _save_values(path, fmt, head, table, seps, "\n    ]\n  ]\n}\n")


def _save_protocol(path: Path, b: np.ndarray):
    """Write the (N, s^2) protocol matrix B as the JSON ``{"b": B as
    [real, imaginary] pairs, "n_measurements": N, "s": s}``, streamed
    from the matrix without nested lists."""
    s = math.isqrt(b.shape[1])
    # each row of B as its entries' (real, imaginary) pairs
    table = np.ascontiguousarray(b, dtype=complex).view(np.float64)
    # json.dumps indents the rows of B by 4, the pairs by 6 and the numbers by 8
    pair = [b",\n        ", b"\n      ],\n      [\n        "]
    row_end = b"\n      ]\n    ],\n    [\n      [\n        "
    seps = pair * (s**2 - 1) + [pair[0], row_end]
    tail = f'\n      ]\n    ]\n  ],\n  "n_measurements": {len(table)},\n  "s": {s}\n}}\n'
    _save_values(path, "json", '{\n  "b": [\n    [\n      [\n        ', table, seps, tail)


def _write(out_dir: Path, name: str, fmt: str, files: list[tuple[str, str, object]]) -> list[str]:
    """Write a runner's ``files`` into ``out_dir`` in their order, each as
    ``<name>_<stem>.<ext>``, and return the file names."""
    out_dir.mkdir(parents=True, exist_ok=True)
    written = []
    for stem, kind, payload in files:
        path = out_dir / f"{name}_{stem}.{fmt if kind == 'table' else 'json'}"
        if kind == "table":
            _save_table(path, fmt, *payload)
        elif kind == "protocol":
            _save_protocol(path, payload)
        else:
            _save_json(path, payload)
        written.append(path.name)
    return written


def _slits(params: dict, m: int) -> interference.SlitParams:
    return interference.SlitParams(a=params["a"], sigma_x=params["sigma_x"], m=m)


def _momentum_basis(slits: interference.SlitParams, n: int) -> tuple[np.ndarray, float, np.ndarray]:
    """The ``n`` momenta of the grid, their spacing and the slit basis
    sampled on them."""
    # envelope exp(-sigma^2 p^2): 9 momentum sigmas leave amplitude < 1e-8
    p, dp = grid(9.0 / (2.0 * slits.sigma_x), n)
    return p, dp, interference.momentum_basis(slits, p)


def _marginals(
    slits: interference.SlitParams, density: np.ndarray, n: int, prefix: str
) -> tuple[list, float, float]:
    """The momentum and coordinate densities of the state D = ``density`` as
    the tables ``<prefix>momentum`` and ``<prefix>coordinate``, and their
    integrals."""
    p, dp, basis = _momentum_basis(slits, n)
    mom = interference.basis_density(basis, density)
    x, dx = grid((slits.m - 1) * slits.a + 8.0 * slits.sigma_x, n)
    basis = interference.coordinate_basis(slits, x)
    coord = interference.basis_density(basis, density)
    files = [
        (prefix + "momentum", "table", (["p_x", "density"], [p, mom])),
        (prefix + "coordinate", "table", (["x", "density"], [x, coord])),
    ]
    return files, quadrature(mom, dp), quadrature(coord, dx)


def _sweep(slits: interference.SlitParams, n: int, label: str, values, overlaps):
    """The slit state of each overlap in ``overlaps``, built once: its
    Schmidt number from one stacked decomposition, as the scalar
    ``schmidt_number_<label>_<value>``, and its momentum density, as the
    column ``density_<label>_<value>`` of the table ``intensity``, for each
    entry of ``values``; with the (k, m, m) stack of the states."""
    densities = np.stack([interference.slit_state(slits, g) for g in overlaps])
    decompositions = schmidt.schmidt_stack(slits, densities)
    scalars = {
        f"schmidt_number_{label}_{v:g}": schmidt.schmidt_number(weights)
        for v, (weights, _) in zip(values, decompositions)
    }
    p, _, basis = _momentum_basis(slits, n)
    names = ["p_x"] + [f"density_{label}_{v:g}" for v in values]
    cols = [interference.basis_density(basis, d) for d in densities]
    return scalars, [("intensity", "table", (names, [p, *cols]))], densities


def _entangled_state(params: dict):
    """The slits, the detector overlap gamma and the density matrix D of the state."""
    slits = _slits(params, params["m"])
    gamma = interference.detector_overlap(params["b"], params["sigma_xi"])
    return slits, gamma, interference.slit_state(slits, gamma)


# ---------------------------------------------------------------------------
# runners


def _run_slits(params: dict, n: int) -> tuple[dict, list]:
    slits = _slits(params, params["m"])
    density = interference.slit_state(slits, 1.0)
    files, p_integral, x_integral = _marginals(slits, density, n, "")
    scalars = {"momentum_integral": p_integral, "coordinate_integral": x_integral}
    if slits.m == 2:
        # C^2 = 1 / (1 + q) normalizes the symmetric pair C (u_0 + u_1) / sqrt 2
        scalars["c_squared"] = 1.0 / (1.0 + slits.overlap)
    return scalars, files


def _run_entangled(params: dict, n: int) -> tuple[dict, list]:
    """Momentum and coordinate marginals of the entangled state; for two
    slits the fringe visibility is read from its density matrix."""
    slits, gamma, density = _entangled_state(params)
    weights, _ = schmidt.schmidt(slits, density)
    if slits.m == 2:
        schmidt.check_fringes(slits)
    files, marginal_integral, _ = _marginals(slits, density, n, "marginal_")
    scalars = {
        "schmidt_number": schmidt.schmidt_number(weights),
        "entropy": schmidt.entropy(weights),
        "fringe_modulation": gamma,
        "visibility": coherence.visibility(density) if slits.m == 2 else None,
        "marginal_integral": marginal_integral,
    }
    return {k: v for k, v in scalars.items() if v is not None}, files


def _run_schmidt(params: dict, n: int) -> tuple[dict, list]:
    slits, _, density = _entangled_state(params)
    weights, coefficients = schmidt.schmidt(slits, density)
    p, _, basis = _momentum_basis(slits, n)
    marg = interference.basis_density(basis, density)
    names = ["p_x"] + [f"mode{k}_density" for k in range(len(weights))]
    # mode k's amplitude is column k of basis @ coefficients, taken in its
    # real and imaginary parts: one complex matmul raised the peak RSS of a
    # fig3 or fig5 run by about 0.3 MB
    modes = np.square(basis.real @ coefficients) + np.square(basis.imag @ coefficients)
    # the far field as the mixture sum_k lambda_k |psi_k|^2 of the modes written
    mixture = modes @ weights
    files = [
        ("modes", "table", (names, [p, *modes.T])),
        ("marginal", "table", (["p_x", "marginal", "mode_mixture"], [p, marg, mixture])),
        ("weights", "table", (["k", "weight"], [np.arange(len(weights), dtype=float), weights])),
    ]
    scalars = {
        "schmidt_number": schmidt.schmidt_number(weights),
        "entropy": schmidt.entropy(weights),
        "information": schmidt.information(weights),
        "mode_count": float(len(weights)),
    }
    for k, lam in enumerate(weights[:8]):
        scalars[f"lambda{k}"] = lam
    if slits.m == 2:
        lam0, lam1 = schmidt.analytic_two_slit_weights(slits, params["b"], params["sigma_xi"])
        scalars["lambda0_analytic"] = lam0
        scalars["lambda1_analytic"] = lam1
        # a weight below the truncation is dropped, so compare it as 0
        kept0, kept1 = np.append(weights, 0.0)[:2]
        scalars["analytic_numeric_gap"] = max(abs(lam0 - kept0), abs(lam1 - kept1))
    return scalars, files


def _run_detector_sweep(params: dict, n: int) -> tuple[dict, list]:
    """Momentum marginals and Schmidt numbers at four detector offsets b."""
    b_values = (0.0, 0.3, 0.7, 1.5)
    overlaps = [interference.detector_overlap(b, params["sigma_xi"]) for b in b_values]
    return _sweep(_slits(params, params["m"]), n, "b", b_values, overlaps)[:2]


def _run_source(params: dict, n: int) -> tuple[dict, list]:
    """Fringe patterns, visibilities and Schmidt numbers at five source sizes y."""
    y_values = np.array([0.0, 0.0625, 0.125, 0.1875, 0.25])
    overlaps = coherence.source_coherence(y_values)
    slits = _slits(params, 2)
    # before any state, as for the other two-slit visibilities
    schmidt.check_fringes(slits)
    scalars, files, densities = _sweep(slits, n, "y", y_values, overlaps)
    for y, v in zip(y_values, coherence.visibility(densities)):
        scalars[f"visibility_y_{y:g}"] = v
    return scalars, files


def _run_coupling_curve(params: dict, n: int) -> tuple[dict, list]:
    # the step is 2^-9, so sample 128 is y = 1/4 exactly
    y = np.linspace(0.0, 0.5, 257)
    v = np.abs(coherence.source_coherence(y))
    k = coherence.k_from_v(v)
    scalars = {
        "visibility_y0": v[0],
        "schmidt_number_y0": k[0],
        "visibility_y025": v[128],
        "schmidt_number_y025": k[128],
    }
    return scalars, [("curve", "table", (["y", "visibility", "schmidt_number"], [y, v, k]))]


def _run_coherence(params: dict, n: int) -> tuple[dict, list]:
    """The coherence qubit swept over 17 phases in [0, pi/2], and its scalars
    at ``phi``, from one stack of the 18 states: each visibility is read
    from the state's density matrix, and each Schmidt number, and the
    weights and entropy at ``phi``, from one stacked decomposition."""
    phi = params["phi"]
    if not math.isfinite(2.0 * phi):
        # the qubit overlap is cos 2 phi
        raise ValueError(f"phi must be finite, and so must 2 phi, got {phi}")
    slits = _slits(params, 2)
    # before any state: coincident slits have no norm at gamma = -1
    schmidt.check_fringes(slits)
    # rows 0-16 are the sweep's states, row 17 the state at phi
    phis = np.append(np.linspace(0.0, np.pi / 2.0, 17), phi)
    densities = np.stack([interference.slit_state(slits, g) for g in np.cos(2.0 * phis)])
    visibility = coherence.visibility(densities)
    decompositions = schmidt.schmidt_stack(slits, densities)
    k = [schmidt.schmidt_number(w) for w, _ in decompositions]
    weights, _ = decompositions[-1]
    k_v = coherence.k_from_v(visibility[:-1])
    scalars = {
        "phi": phi,
        "visibility": visibility[-1],
        "schmidt_number": k[-1],
        "lambda0": weights[0],
        # a truncated second weight is 0
        "lambda1": weights[1] if weights.size > 1 else 0.0,
        "entropy": schmidt.entropy(weights),
        "max_coupling_gap": max(abs(a - b) for a, b in zip(k[:-1], k_v)),
    }
    names = ["phi", "visibility", "schmidt_number", "schmidt_from_v"]
    return scalars, [("sweep", "table", (names, [phis[:-1], visibility[:-1], k[:-1], k_v]))]


def _run_ammonia(params: dict, n: int) -> tuple[dict, list]:
    choice = params["isotope"]
    table = tunneling.AMMONIA_ISOTOPES
    if choice != "all" and choice not in table:
        raise ValueError(f"unknown isotope {choice!r}; pick one of {sorted(table)} or all")
    isotopes = list(table) if choice == "all" else [choice]
    masses, measured = zip(*(table[name] for name in isotopes))
    fit_mass = params["mass"]
    well = tunneling.fit_potential(
        tunneling.AMMONIA_EQUILIBRIUM, tunneling.AMMONIA_SPLITTING, fit_mass
    )
    wells = [tunneling.DoubleWell(well.alpha, well.beta, mass) for mass in masses]
    delta_e = np.array([tunneling.two_level_splitting(w) for w in wells])
    levels = []
    for name, w in zip(isotopes, wells):
        try:
            levels.append(tunneling.grid_eigensolve(w))
        except ValueError as exc:
            # under isotope "all" the line names whose well failed
            raise type(exc)(f"{name} well: {exc}") from exc
    fd_delta_e = np.array([e1 - e0 for e0, e1 in levels])
    columns = {
        "mass": np.array(masses),
        "overlap": np.array([w.overlap for w in wells]),
        "delta_e": delta_e,
        "frequency_ghz": tunneling.splitting_to_frequency(delta_e),
        "fd_delta_e": fd_delta_e,
        "fd_frequency_ghz": tunneling.splitting_to_frequency(fd_delta_e),
        "experimental_ghz": np.array(measured),
    }
    scalars = {"alpha": well.alpha, "beta": well.beta, "fit_mass": fit_mass}
    for i, name in enumerate(isotopes):
        for key in ("frequency_ghz", "overlap", "fd_frequency_ghz", "experimental_ghz"):
            scalars[f"{key}_{name}"] = columns[key][i]
    return scalars, [("splittings", "table", (list(columns), list(columns.values())))]


def _run_qubits(params: dict, n: int) -> tuple[dict, list]:
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
    splitting = tunneling.two_level_splitting(well)
    contact = 4.0 * math.sqrt(math.pi) * well.sigma_x
    g_max = g0_max or 300.0 * splitting * contact
    if not (math.isfinite(2.0 * g_max) and math.isfinite(g_max / contact / splitting)):
        # the sweep spans 2 g0_max, and each g0 is also written as g0 / (contact * splitting)
        raise ValueError(f"g0_max {g0_max} overflows the coupling sweep; pick a smaller one")
    g_values = np.linspace(-g_max, g_max, n_sweep)
    k_values = tunneling.two_qubit_schmidt_number(well, splitting, g_values)
    scalars = {
        "delta_e": splitting,
        "sigma_x": well.sigma_x,
        "g0_max": g_max,
        "schmidt_number_g0_0": k_values[n_sweep // 2],
        "schmidt_number_attraction_max": k_values[-1],
        "schmidt_number_repulsion_max": k_values[0],
    }
    columns = [g_values, g_values / contact / splitting, k_values]
    return scalars, [("sweep", "table", (["g0", "reduced_coupling", "schmidt_number"], columns))]


def _run_tomography(params: dict, n: int) -> tuple[dict, list]:
    populations = np.array([[1.0, 0.0, 0.0, 0.0], [0.0, 0.0, 0.0, 1.0]], dtype=complex)
    analysis = tomography.analyze(populations)
    pure = tomography.reconstruct(analysis, np.array([1.0, 0.0]))
    mixed = tomography.reconstruct(analysis, np.array([0.5, 0.5]))
    purity_min, purity_max = tomography.completion_purity_range(analysis, np.array([0.5, 0.5]))

    protocol = tomography.interference_protocol(_slits(params, 2), params["n_points"])
    ianalysis = tomography.analyze(protocol)
    rho_sym = np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex)
    p_data = np.real(protocol @ tomography.vectorize(rho_sym))
    ireport = tomography.reconstruct(ianalysis, p_data)
    scalars = {
        "populations_rank": float(analysis[3]),
        "pure_k_max": pure["k_max"],
        "pure_class": pure["completeness_class"],
        "mixed_k_max": mixed["k_max"],
        "scan_purity_min": purity_min,
        "scan_purity_max": purity_max,
        "interference_rank": float(ianalysis[3]),
        "interference_k_max": ireport["k_max"],
        "interference_residual": ireport["residual"],
    }
    files = [
        ("populations_protocol", "protocol", populations),
        ("populations_pure_report", "json", pure),
        ("populations_mixed_report", "json", mixed),
        ("interference_protocol", "protocol", protocol),
        ("interference_measurements", "json", {"p": p_data}),
        ("interference_report", "json", ireport),
    ]
    return scalars, files


# ---------------------------------------------------------------------------
# catalog: each entry's defaults name every parameter it takes, and a
# default's type is the parameter's type (flags and config values included)

_SLIT_DEFAULTS = {"m": 2, "a": 5.0, "sigma_x": 0.5}
_TWO_SLIT_DEFAULTS = {"m": 2, "a": 5.0, "b": 0.5, "sigma_x": 0.5, "sigma_xi": 0.5}
_NH3_MASS = tunneling.AMMONIA_ISOTOPES["NH3"][0]
# g0_max = 0 (auto) sweeps the reduced coupling g0 / (contact * splitting) over +/-300
_QUBIT_DEFAULTS = {"mass": _NH3_MASS, "g0_max": 0.0, "n_sweep": 101}
_TOMOGRAPHY_DEFAULTS = {"a": 5.0, "sigma_x": 0.5, "n_points": 32}

# name -> (`qmodes list` summary, runner, defaults), in `qmodes list` order:
# the figure presets, then the commands that are not one
SCENARIOS: dict[str, tuple[str, Callable, dict]] = {
    "fig1": (
        "two-slit coordinate and momentum densities (a=5, sigma_x=0.5)", _run_slits, _SLIT_DEFAULTS
    ),
    "fig2": (
        "which-way damping of the two-slit fringes (b=0.7 marginal)",
        _run_entangled,
        {**_TWO_SLIT_DEFAULTS, "b": 0.7},
    ),
    "fig3": (
        "two-slit Schmidt modes and weights (a=5, b=0.5 reference case)",
        _run_schmidt,
        _TWO_SLIT_DEFAULTS,
    ),
    "fig4": (
        "four-slit fringes at several particle-detector couplings",
        _run_detector_sweep,
        {**_SLIT_DEFAULTS, "m": 4, "sigma_xi": 0.5},
    ),
    "fig5": (
        "five-slit Schmidt modes and weights (a=5, b=0.5 reference case)",
        _run_schmidt,
        {**_TWO_SLIT_DEFAULTS, "m": 5},
    ),
    "fig6-data": (
        "fringe patterns for finite source sizes y (uniform-source model)",
        _run_source,
        {"a": 5.0, "sigma_x": 0.5},
    ),
    "fig7": ("visibility and Schmidt number versus source size y", _run_coupling_curve, {}),
    "fig10": (
        "ground-state entanglement versus contact coupling g0 (ammonia qubits)",
        _run_qubits,
        _QUBIT_DEFAULTS,
    ),
    "ammonia": (
        "inversion splittings of NH3/ND3/NT3 from the fitted double well",
        _run_ammonia,
        {"isotope": "all", "mass": _NH3_MASS},
    ),
    "tomography-demo": (
        "population-only and coordinate+momentum protocols with K_max bounds",
        _run_tomography,
        _TOMOGRAPHY_DEFAULTS,
    ),
    "slits": (
        "m-slit densities without which-way coupling (parametric)", _run_slits, _SLIT_DEFAULTS
    ),
    "entangled": (
        "entangled particle-detector marginals (parametric)", _run_entangled, _TWO_SLIT_DEFAULTS
    ),
    "schmidt": (
        "Schmidt decomposition of the m-slit state (parametric)", _run_schmidt, _TWO_SLIT_DEFAULTS
    ),
    "coherence": (
        "qubit coherence model: visibility-Schmidt coupling sweep",
        _run_coherence,
        {"a": 5.0, "sigma_x": 0.5, "phi": np.pi / 8.0},
    ),
    "qubits": (
        "two-qubit ground-state entanglement sweep (parametric)", _run_qubits, _QUBIT_DEFAULTS
    ),
    "tomography": (
        "measurement-protocol adequacy/completeness demo (parametric)",
        _run_tomography,
        _TOMOGRAPHY_DEFAULTS,
    ),
}


def _convert(key: str, value, default):
    kind = type(default)
    try:
        converted = kind(value)
    except (TypeError, ValueError, OverflowError):
        converted = None
    if converted is None or (kind is int and converted != value):
        raise ValueError(f"parameter {key!r} takes a {kind.__name__}, got {value!r}")
    return converted


def run(name: str, out_dir: Path, fmt: str, grid_points: int, params: dict) -> tuple[dict, float]:
    """Run the catalog entry ``name``: write its data files and the JSON
    run report into ``out_dir``, each named after ``name``, and return the
    report and the run's wall time in seconds.

    ``fmt`` (csv or json), ``grid_points`` and ``params`` are all checked,
    and the runner's computation done, before any file or directory is
    made.  Parameters are the entry's defaults, then ``params``, each
    converted to the type of the default it replaces; an integer
    parameter, and ``grid_points``, take only integral values.
    """
    grid_points = _convert("grid_points", grid_points, 0)
    if fmt not in ("csv", "json"):
        raise ValueError(f"format must be csv or json, got {fmt!r}")
    if grid_points < 16:
        raise ValueError(f"grid_points too small: {grid_points}")
    if grid_points > MAX_COUNT:
        raise ValueError(f"grid_points must be at most {MAX_COUNT}, got {grid_points}")
    if name not in SCENARIOS:
        raise ValueError(f"unknown scenario {name!r}; see 'qmodes list'")
    _, runner, defaults = SCENARIOS[name]
    unknown = sorted(set(params) - set(defaults))
    if unknown:
        raise ValueError(f"unknown parameters for {name!r}: {unknown}")
    params = {**defaults, **{k: _convert(k, v, defaults[k]) for k, v in params.items()}}

    start = time.perf_counter()
    scalars, files = runner(params, grid_points)
    written = _write(out_dir, name, fmt, files)
    wall = time.perf_counter() - start

    # the wall time stays out: reports are byte-stable
    report = {
        "scenario": name,
        "parameters": {k: (v if isinstance(v, str) else _sig6(v)) for k, v in params.items()},
        "scalars": {k: (v if isinstance(v, str) else _sig6(v)) for k, v in scalars.items()},
        "files": written,
    }
    _save_json(out_dir / f"{name}_report.json", report)
    return report, wall
