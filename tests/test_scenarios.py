"""Catalog scenarios: golden report scalars and byte-stable output."""

import json

import numpy as np
import pytest

from oracles import SampledWave, source_pattern, visibility_from_intensity
from qmodes import scenarios
from qmodes.coherence import entropy_from_v, source_coherence, source_visibility
from qmodes.interference import MOMENTUM, DetectorParams, SlitParams, basis_density, slit_basis, slit_state
from qmodes.numerics import make_grid
from qmodes.schmidt import schmidt, schmidt_number

N = 2048


def run(name, out_dir, **params):
    return scenarios.run(scenarios.ScenarioConfig(name, out_dir, "json", N, params)).scalars


def test_fig3_reference_weights(tmp_path):
    s = run("fig3", tmp_path)
    assert s["lambda0"] == pytest.approx(0.803265, abs=1e-6)
    assert s["lambda1"] == pytest.approx(0.196735, abs=1e-6)
    assert s["analytic_numeric_gap"] <= 1e-12


def test_fig5_schmidt_number(tmp_path):
    assert run("fig5", tmp_path)["schmidt_number"] == pytest.approx(3.10427, abs=1e-5)


def test_fig4_schmidt_number_grows_with_coupling(tmp_path):
    s = run("fig4", tmp_path)
    ks = [s[f"schmidt_number_b_{b:g}"] for b in (0.0, 0.3, 0.7, 1.5)]
    assert ks[0] == pytest.approx(1.0, abs=1e-5)
    assert all(k1 <= k2 for k1, k2 in zip(ks, ks[1:]))
    assert max(ks) <= scenarios.SCENARIOS["fig4"].defaults["m"]


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
    return scenarios.run(scenarios.ScenarioConfig(name, out_dir, "json", 1024)).scalars


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
    assert s["entropy"] == pytest.approx(entropy_from_v(v), abs=1e-5)


def test_fig6_data_source_scalars(tmp_path):
    s = run_1024("fig6-data", tmp_path)
    assert s["visibility_y_0"] == 1.0
    assert s["schmidt_number_y_0.25"] == pytest.approx(2.0, abs=1e-12)
    # 2 / (1 + 4/pi^2) = 1.423199..., which the report keeps to six significant figures
    assert s["schmidt_number_y_0.125"] == 1.4232


@pytest.mark.parametrize("n", [1024, 8192])
def test_fig6_data_densities_are_the_normalized_fringe_pattern(tmp_path, n):
    scenarios.run(scenarios.ScenarioConfig("fig6-data", tmp_path, "json", n))
    table = json.loads((tmp_path / "fig6-data_intensity.json").read_text(encoding="utf-8"))
    rows = np.array(table["rows"])
    grid = make_grid(0.0, 9.0, n)  # 9 momentum sigmas at sigma_x = 0.5
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
    k = [schmidt_number(schmidt(slits, slit_state(slits, g)).weights) for g in gammas]
    assert rows[:, 2].tobytes() == np.array(k).tobytes()
    assert np.max(np.abs(rows[:, 1] - np.abs(gammas))) <= 2.3e-16


@pytest.mark.parametrize("n", [1024, 4096])
def test_written_patterns_fit_to_their_states_visibility(tmp_path, n):
    # the fit needs a grid that spans the central fringe period pi/a; the
    # catalog's momentum grid does at a = 5, sigma_x = 0.5
    grid = make_grid(0.0, 9.0, n)
    assert grid.half_width >= np.pi / 5.0

    def fitted(column):
        return visibility_from_intensity(SampledWave(grid, column), 5.0, 0.5)

    fig2 = scenarios.run(scenarios.ScenarioConfig("fig2", tmp_path, "json", n)).scalars
    rows = table_rows(tmp_path, "fig2_marginal_momentum")
    assert np.array_equal(rows[:, 0], grid.points)
    gamma = DetectorParams(0.7, 0.5).overlap
    assert abs(fitted(rows[:, 1]) - gamma) <= 1e-4
    assert fig2["visibility"] == fig2["fringe_modulation"] == float(f"{gamma:.6g}")

    scenarios.run(scenarios.ScenarioConfig("fig6-data", tmp_path, "json", n))
    rows = table_rows(tmp_path, "fig6-data_intensity")
    for column, y in zip(rows[:, 1:].T, (0.0, 0.0625, 0.125, 0.1875, 0.25)):
        assert abs(fitted(column) - abs(source_coherence(y))) <= 1e-4, y

    # the coherence scenario writes its visibility column, not the patterns:
    # sample each qubit state on the catalog grid
    scenarios.run(scenarios.ScenarioConfig("coherence", tmp_path, "json", n))
    rows = table_rows(tmp_path, "coherence_sweep")
    slits = SlitParams(a=5.0, sigma_x=0.5, m=2)
    basis = slit_basis(slits, grid.points, MOMENTUM)
    for phi, v in rows[:, :2]:
        pattern = basis_density(basis, slit_state(slits, np.cos(2.0 * phi)))
        assert abs(fitted(pattern) - v) <= 1e-4, phi
