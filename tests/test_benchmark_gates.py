"""The benchmark's output checks pass on every scenario it runs.

``perfbench/checks.py`` gates each scenario's report and data files; this
runs every invocation of the three workloads that ``perfbench/run.py``
lists, in-process at the benchmark's grid, format and parameters, and
asserts every check is ok, so a renamed or dropped report key, or a moved
reference value, fails here rather than in a benchmark run.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

from qmodes import scenarios

_CHECKS = Path(__file__).resolve().parent.parent / "perfbench" / "checks.py"
_spec = importlib.util.spec_from_file_location("perfbench_checks", _CHECKS)
checks = importlib.util.module_from_spec(_spec)
sys.modules[_spec.name] = checks  # dataclasses resolve their module here
_spec.loader.exec_module(checks)

SMALL_MODELS = ["ammonia", "fig10", "coherence", "fig6-data", "fig7", "tomography-demo"]

# (name, format, grid points, parameters) of the slit-schmidt and
# grid-marginals invocations
SLIT_AND_GRID = [
    *((name, "csv", 2048, {}) for name in ("fig2", "fig3", "fig5", "fig4")),
    ("fig1", "csv", 4096, {}),
    ("slits", "json", 4096, {"m": 5}),
]


def assert_checks_pass(name, out_dir):
    results = checks.evaluate(name, out_dir)
    assert len(results) > 1
    assert [c for c in results if not c.ok] == []


@pytest.mark.parametrize("name", SMALL_MODELS)
def test_small_models_pass_the_benchmark_checks(name, tmp_path):
    scenarios.run(name, tmp_path, "json", 1024, {})
    assert_checks_pass(name, tmp_path)


@pytest.mark.parametrize("name, fmt, grid_points, params", SLIT_AND_GRID, ids=[i[0] for i in SLIT_AND_GRID])
def test_slit_schmidt_and_grid_marginals_pass_the_benchmark_checks(name, fmt, grid_points, params, tmp_path):
    scenarios.run(name, tmp_path, fmt, grid_points, params)
    assert_checks_pass(name, tmp_path)
