"""The benchmark's output checks pass on every small-models scenario.

``perfbench/checks.py`` gates each scenario's report and data files; this
runs the small-models scenarios in-process at the benchmark's grid and
format and asserts every check is ok, so a renamed or dropped report key
fails here rather than in a benchmark run.
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


@pytest.mark.parametrize("name", SMALL_MODELS)
def test_small_models_pass_the_benchmark_checks(name, tmp_path):
    scenarios.run(name, tmp_path, "json", 1024, {})
    results = checks.evaluate(name, tmp_path)
    assert len(results) > 1
    assert [c for c in results if not c.ok] == []
