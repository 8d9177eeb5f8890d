"""Catalog scenarios: golden report scalars and byte-stable output."""

import json

import numpy as np
import pytest

from oracles import SampledWave, form_factor, source_pattern, source_visibility, visibility_from_intensity
from qmodes import cli, scenarios
from qmodes.coherence import k_from_v, source_coherence, visibility
from qmodes.interference import MOMENTUM, SlitParams, basis_density, detector_overlap, slit_basis, slit_state
from qmodes.numerics import make_grid
from qmodes.schmidt import entropy, schmidt, schmidt_number

N = 2048


def run(name, out_dir, **params):
    report, _ = scenarios.run(name, out_dir, "json", N, params)
    return report["scalars"]


def test_fig3_reference_weights(tmp_path):
    s = run("fig3", tmp_path)
    assert s["lambda0"] == pytest.approx(0.803265, abs=1e-6)
    assert s["lambda1"] == pytest.approx(0.196735, abs=1e-6)
    assert s["analytic_numeric_gap"] <= 1e-12


def test_fig5_schmidt_number(tmp_path):
    assert run("fig5", tmp_path)["schmidt_number"] == pytest.approx(3.10427, abs=1e-5)


@pytest.mark.parametrize("m", [2, 5, 16])
def test_mode_densities_are_the_densities_of_the_mode_projectors(tmp_path, m):
    # the runner writes |basis @ coefficients|^2; the reference is the density
    # of each mode's projector c c^T in the slit basis
    run("schmidt", tmp_path, m=m)
    rows = table_rows(tmp_path, "schmidt_modes")
    slits = SlitParams(a=5.0, sigma_x=0.5, m=m)
    _, coefficients = schmidt(slits, slit_state(slits, detector_overlap(0.5, 0.5)))
    basis = slit_basis(slits, make_grid(9.0, N).points, MOMENTUM)
    assert rows.shape == (N, 1 + coefficients.shape[1])
    for column, c in zip(rows[:, 1:].T, coefficients.T):
        reference = basis_density(basis, np.outer(c, c))
        assert np.max(np.abs(column - reference)) <= 1e-15 * np.max(reference)


def test_fig4_schmidt_number_grows_with_coupling(tmp_path):
    s = run("fig4", tmp_path)
    ks = [s[f"schmidt_number_b_{b:g}"] for b in (0.0, 0.3, 0.7, 1.5)]
    assert ks[0] == pytest.approx(1.0, abs=1e-5)
    assert all(k1 <= k2 for k1, k2 in zip(ks, ks[1:]))
    _, computation, overrides = scenarios.FIGURES["fig4"]
    assert max(ks) <= {**scenarios.COMPUTATIONS[computation][1], **overrides}["m"]


@pytest.mark.parametrize("n", [1024, 2048, 4096])
@pytest.mark.parametrize("m", [2, 3, 5, 8])
def test_unentangled_momentum_marginal_is_the_form_factor_pattern(tmp_path, m, n):
    # gamma = 1 gives D = 1 / sum(S_x) in every entry, so the marginal is
    # (2 sigma^2 / pi)^(1/2) exp(-2 sigma^2 p^2) F(p a, m)^2 / sum(S_x)
    a, sigma = 5.0, 0.5
    scenarios.run("slits", tmp_path, "json", n, {"m": m, "a": a, "sigma_x": sigma})
    table = json.loads((tmp_path / "slits_momentum.json").read_text(encoding="utf-8"))
    p, density = np.array(table["rows"]).T
    j = np.arange(m)
    s_x = np.exp(-(a**2) / (2.0 * sigma**2)) ** (np.subtract.outer(j, j) ** 2)
    pattern = np.sqrt(2.0 * sigma**2 / np.pi) * np.exp(-2.0 * sigma**2 * p**2) * form_factor(p * a, m) ** 2
    expected = pattern / s_x.sum()
    assert np.max(np.abs(density - expected)) <= 1e-12 * np.max(expected)


def test_marginals_integrate_to_one(tmp_path):
    fig1 = run("fig1", tmp_path / "fig1")
    assert fig1["momentum_integral"] == pytest.approx(1.0, abs=1e-5)
    assert fig1["coordinate_integral"] == pytest.approx(1.0, abs=1e-5)
    assert run("fig2", tmp_path / "fig2")["marginal_integral"] == pytest.approx(1.0, abs=1e-5)


def test_repeated_runs_are_byte_identical(tmp_path):
    first, second = tmp_path / "first", tmp_path / "second"
    run("fig3", first)
    run("fig3", second)
    names = sorted(p.name for p in first.iterdir())
    assert names == sorted(p.name for p in second.iterdir())
    assert "fig3_report.json" in names
    for name in names:
        assert (first / name).read_bytes() == (second / name).read_bytes(), name


def test_unknown_parameter_rejected(tmp_path):
    with pytest.raises(ValueError, match="unknown parameters"):
        run("fig3", tmp_path, bogus=1.0)


# golden scalars of the remaining catalog scenarios at the CLI's default grid
def run_1024(name, out_dir):
    report, _ = scenarios.run(name, out_dir, "json", 1024, {})
    return report["scalars"]


def test_ammonia_two_level_splittings(tmp_path):
    s = run_1024("ammonia", tmp_path)
    assert s["frequency_ghz_NH3"] == pytest.approx(24.0, abs=0.05)
    assert s["frequency_ghz_ND3"] == pytest.approx(1.50, abs=0.005)
    assert s["frequency_ghz_NT3"] == pytest.approx(0.278, abs=0.0005)


def test_fig7_schmidt_number_at_zero_and_quarter_source(tmp_path):
    s = run_1024("fig7", tmp_path)
    assert s["schmidt_number_y0"] == pytest.approx(1.0, abs=1e-12)
    assert s["schmidt_number_y025"] == pytest.approx(2.0, abs=1e-12)


def test_fig10_uncoupled_qubits_are_a_product_state(tmp_path):
    assert run_1024("fig10", tmp_path)["schmidt_number_g0_0"] == pytest.approx(1.0, abs=1e-12)


def test_fig10_and_qubits_need_no_eigensolve(tmp_path, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("np.linalg.eigh called")

    monkeypatch.setattr(np.linalg, "eigh", refuse)
    assert cli.main(["figures", "fig10", "--out", str(tmp_path / "fig10")]) == 0
    assert cli.main(["qubits", "--g0-max", "1e300", "--out", str(tmp_path / "qubits")]) == 0


def test_tomography_demo_completeness(tmp_path):
    s = run_1024("tomography-demo", tmp_path)
    assert s["pure_k_max"] == 1.0
    assert s["scan_purity_min"] == pytest.approx(0.5, abs=1e-12)
    assert s["scan_purity_max"] == pytest.approx(1.0, abs=1e-12)


def test_coherence_visibility_schmidt_coupling_is_exact(tmp_path):
    assert run_1024("coherence", tmp_path)["max_coupling_gap"] <= 1e-12


def test_coherence_two_mode_scalars(tmp_path):
    # the default phi = pi/8 gives the qubit overlap cos(pi/4); the report keeps six figures
    s = run_1024("coherence", tmp_path)
    v = s["visibility"]
    assert v == pytest.approx(np.cos(np.pi / 4.0), abs=1e-6)
    assert s["lambda0"] + s["lambda1"] == pytest.approx(1.0, abs=1e-6)
    assert s["lambda0"] == pytest.approx((1.0 + v) / 2.0, abs=1e-6)
    assert s["schmidt_number"] == pytest.approx(2.0 / (1.0 + v**2), abs=1e-5)
    assert s["entropy"] == pytest.approx(entropy(((1.0 + v) / 2.0, (1.0 - v) / 2.0)), abs=1e-5)


def test_coherence_scalars_are_the_decomposition_of_overlapping_slits(tmp_path):
    # at a = 0.5 the slit states overlap: the visibility cos(pi/4) would give
    # K = 2/(1 + V^2) = 4/3, but the state's weights are 0.960 and 0.040
    s = run("coherence", tmp_path, a=0.5)
    slits = SlitParams(a=0.5, sigma_x=0.5, m=2)
    weights, _ = schmidt(slits, slit_state(slits, np.cos(np.pi / 4.0)))
    assert s["visibility"] == pytest.approx(np.cos(np.pi / 4.0), abs=1e-6)
    assert s["lambda0"] == pytest.approx(weights[0], abs=1e-6)
    assert s["lambda1"] == pytest.approx(weights[1], rel=1e-5)
    assert s["schmidt_number"] == pytest.approx(schmidt_number(weights), abs=1e-5)
    assert s["entropy"] == pytest.approx(entropy(weights), abs=1e-6)


def test_coherence_second_weight_is_zero_once_truncated(tmp_path):
    # phi = 0: the qubit states coincide, the particle is in one mode
    s = run("coherence", tmp_path, phi=0.0)
    assert (s["lambda0"], s["lambda1"], s["schmidt_number"], s["entropy"]) == (1.0, 0.0, 1.0, 0.0)


def test_fig6_data_source_scalars(tmp_path):
    s = run_1024("fig6-data", tmp_path)
    assert s["visibility_y_0"] == 1.0
    assert s["schmidt_number_y_0"] == 1.0
    assert s["schmidt_number_y_0.25"] == pytest.approx(2.0, abs=1e-12)
    # 2 / (1 + 4/pi^2) = 1.423199..., which the report keeps to six significant figures
    assert s["schmidt_number_y_0.125"] == 1.4232


def test_fig6_data_schmidt_numbers_are_its_states_at_overlapping_slits(tmp_path):
    # at a = 0.5 the slit states overlap and K is not 2/(1 + V^2): at
    # y = 1/4 the visibility is 0, but the state's decomposition gives 1.46212
    config = tmp_path / "run.cfg"
    config.write_text("a = 0.5\n", encoding="utf-8")
    out = tmp_path / "out"
    assert cli.main(["figures", "fig6-data", "--config", str(config), "--out", str(out)]) == 0
    s = json.loads((out / "fig6-data_report.json").read_text(encoding="utf-8"))["scalars"]
    slits = SlitParams(a=0.5, sigma_x=0.5, m=2)
    for y in (0.0, 0.0625, 0.125, 0.1875, 0.25):
        k = schmidt_number(schmidt(slits, slit_state(slits, source_coherence(y)))[0])
        assert s[f"schmidt_number_y_{y:g}"] == float(f"{k:.6g}"), y
    assert s["schmidt_number_y_0.25"] == 1.46212


@pytest.mark.parametrize("n", [1024, 8192])
def test_fig6_data_densities_are_the_normalized_fringe_pattern(tmp_path, n):
    scenarios.run("fig6-data", tmp_path, "json", n, {})
    table = json.loads((tmp_path / "fig6-data_intensity.json").read_text(encoding="utf-8"))
    rows = np.array(table["rows"])
    grid = make_grid(9.0, n)  # 9 momentum sigmas at sigma_x = 0.5
    assert np.array_equal(rows[:, 0], grid.points)
    y_values = (0.0, 0.0625, 0.125, 0.1875, 0.25)
    assert table["columns"] == ["p_x"] + [f"density_y_{y:g}" for y in y_values]
    for column, y in zip(rows[:, 1:].T, y_values):
        reference = source_pattern(5.0, 0.5, grid, source_visibility(y))
        assert np.max(np.abs(column - reference)) <= 1e-15, y


def table_rows(out_dir, stem):
    return np.array(json.loads((out_dir / f"{stem}.json").read_text(encoding="utf-8"))["rows"])


def test_coherence_sweep_is_each_states_schmidt_number_and_visibility(tmp_path):
    run_1024("coherence", tmp_path)
    rows = table_rows(tmp_path, "coherence_sweep")
    slits = SlitParams(a=5.0, sigma_x=0.5, m=2)
    gammas = np.cos(2.0 * rows[:, 0])
    k = [schmidt_number(schmidt(slits, slit_state(slits, g))[0]) for g in gammas]
    assert rows[:, 2].tobytes() == np.array(k).tobytes()
    assert np.max(np.abs(rows[:, 1] - np.abs(gammas))) <= 2.3e-16


def runner_output(name, **params):
    """A preset's or a command's scalars and files at 1024 points, as its
    runner returns them: unrounded, and with no file written."""
    _, computation, overrides = scenarios.FIGURES.get(name, (None, name, {}))
    runner, defaults, _ = scenarios.COMPUTATIONS[computation]
    return runner({**defaults, **overrides, **params}, 1024)


@pytest.mark.parametrize("a", [5.0, 0.5])
def test_fig6_data_visibilities_are_its_states(a):
    s, _ = runner_output("fig6-data", a=a)
    slits = SlitParams(a=a, sigma_x=0.5, m=2)
    for y in (0.0, 0.0625, 0.125, 0.1875, 0.25):
        v = s[f"visibility_y_{y:g}"]
        assert v == visibility(slit_state(slits, source_coherence(y))), y
        # |sinc 4y|, which the states' overlaps are
        assert abs(v - source_visibility(y)) <= 2.0 * np.spacing(source_visibility(y)), y


def test_coherence_scalars_at_a_sweep_phase_are_its_row():
    # the default phi = pi/8 is the sweep's fifth phase
    s, files = runner_output("coherence")
    ((names, columns),) = [payload for stem, _, payload in files if stem == "sweep"]
    row = {name: column[4] for name, column in zip(names, columns)}
    assert s["phi"] == row["phi"] == np.pi / 8.0
    assert s["visibility"] == row["visibility"]
    assert s["schmidt_number"] == row["schmidt_number"]


def test_coherence_scalars_off_the_sweep_are_its_states():
    s, files = runner_output("coherence", phi=0.3)
    ((names, columns),) = [payload for stem, _, payload in files if stem == "sweep"]
    assert len(columns[0]) == 17 and 0.3 not in columns[0]
    slits = SlitParams(a=5.0, sigma_x=0.5, m=2)
    density = slit_state(slits, np.cos(2.0 * 0.3))
    weights, _ = schmidt(slits, density)
    assert s["visibility"] == visibility(density)
    assert s["schmidt_number"] == schmidt_number(weights)
    assert [s["lambda0"], s["lambda1"]] == list(weights)
    assert s["entropy"] == entropy(weights)


def test_fig7_quarter_source_scalars_are_samples_of_its_curve():
    s, files = runner_output("fig7")
    ((names, columns),) = [payload for stem, _, payload in files if stem == "curve"]
    curve = dict(zip(names, columns))
    assert curve["y"][128] == 0.25
    v = abs(source_coherence(0.25))
    assert s["visibility_y025"] == curve["visibility"][128] == v
    assert s["schmidt_number_y025"] == curve["schmidt_number"][128] == k_from_v(v)


@pytest.mark.parametrize("n", [1024, 4096])
def test_written_patterns_fit_to_their_states_visibility(tmp_path, n):
    # the fit needs a grid that spans the central fringe period pi/a; the
    # catalog's momentum grid does at a = 5, sigma_x = 0.5
    grid = make_grid(9.0, n)
    assert 0.5 * (grid.x_max - grid.x_min) >= np.pi / 5.0

    def fitted(column):
        return visibility_from_intensity(SampledWave(grid, column), 5.0, 0.5)

    fig2 = scenarios.run("fig2", tmp_path, "json", n, {})[0]["scalars"]
    rows = table_rows(tmp_path, "fig2_marginal_momentum")
    assert np.array_equal(rows[:, 0], grid.points)
    gamma = detector_overlap(0.7, 0.5)
    assert abs(fitted(rows[:, 1]) - gamma) <= 1e-4
    assert fig2["visibility"] == fig2["fringe_modulation"] == float(f"{gamma:.6g}")

    scenarios.run("fig6-data", tmp_path, "json", n, {})
    rows = table_rows(tmp_path, "fig6-data_intensity")
    for column, y in zip(rows[:, 1:].T, (0.0, 0.0625, 0.125, 0.1875, 0.25)):
        assert abs(fitted(column) - abs(source_coherence(y))) <= 1e-4, y

    # the coherence scenario writes its visibility column, not the patterns:
    # sample each qubit state on the catalog grid
    scenarios.run("coherence", tmp_path, "json", n, {})
    rows = table_rows(tmp_path, "coherence_sweep")
    slits = SlitParams(a=5.0, sigma_x=0.5, m=2)
    basis = slit_basis(slits, grid.points, MOMENTUM)
    for phi, v in rows[:, :2]:
        pattern = basis_density(basis, slit_state(slits, np.cos(2.0 * phi)))
        assert abs(fitted(pattern) - v) <= 1e-4, phi


# the runner contract: runner(params, n) -> (scalars, files), and run writes
KINDS = {"table", "protocol", "json"}


@pytest.mark.parametrize("computation", list(scenarios.COMPUTATIONS))
def test_each_runner_returns_scalars_and_uniquely_named_files(computation):
    runner, defaults, _ = scenarios.COMPUTATIONS[computation]
    scalars, files = runner(dict(defaults), 64)
    assert isinstance(scalars, dict) and scalars
    stems = [stem for stem, _, _ in files]
    assert stems and len(set(stems)) == len(stems)
    assert {kind for _, kind, _ in files} <= KINDS
    for stem, kind, payload in files:
        if kind == "table":
            scenarios._check_table(stem, *payload)


@pytest.mark.parametrize("computation", list(scenarios.COMPUTATIONS))
def test_a_runner_that_raises_after_building_its_files_writes_nothing(tmp_path, monkeypatch, computation):
    runner, defaults, summary = scenarios.COMPUTATIONS[computation]
    built = []

    def failing(params, n):
        built.append(runner(params, n))
        raise RuntimeError("raised after building its files")

    monkeypatch.setitem(scenarios.COMPUTATIONS, computation, (failing, defaults, summary))
    name = next((f for f, (_, c, _) in scenarios.FIGURES.items() if c == computation), computation)
    with pytest.raises(RuntimeError, match="after building"):
        scenarios.run(name, tmp_path / "out", "csv", 64, {})
    assert built[0][1]
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("n", [1024, 2048])
@pytest.mark.parametrize("figure", ["fig3", "fig5"])
def test_far_field_marginal_is_the_mixture_of_its_mode_densities(figure, n):
    # the paper's first claim, read from the runner's table without a file
    _, computation, overrides = scenarios.FIGURES[figure]
    runner, defaults, _ = scenarios.COMPUTATIONS[computation]
    _, files = runner({**defaults, **overrides}, n)
    ((names, columns),) = [payload for stem, _, payload in files if stem == "marginal"]
    table = dict(zip(names, columns))
    gap = np.max(np.abs(table["marginal"] - table["mode_mixture"]))
    assert gap <= 1e-13 * np.max(table["marginal"])
