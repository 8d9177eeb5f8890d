"""Catalog scenarios: golden report scalars and byte-stable output."""

import pytest

from qmodes import scenarios

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
