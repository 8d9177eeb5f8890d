"""Tests of the benchmark itself: smoke runs on small grids, output checks,
span accounting and the refusal to run without the program's source."""

import json
import os
import shutil
import subprocess
import sys
import time

import pytest

import checks
import run
from spans import SpanRecorder, self_times

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
@pytest.mark.parametrize("trace", ["0", "1"])
def test_smoke_run_emits_every_metric(workload, trace, monkeypatch, capsys):
    # 512 points keep the run short; fig2's visibility check fails there (the
    # estimator bias grows on coarse grids), so correctness is not asserted
    small = []
    for argv in run.WORKLOADS[workload]:
        argv = list(argv)
        argv[argv.index("--grid-points") + 1] = "512"
        small.append(argv)
    monkeypatch.setitem(run.WORKLOADS, workload, small)
    code = run.main(["--workload", workload, "--seed", "3", "--seconds", "0", "--trace", trace])
    assert code == 0
    out = capsys.readouterr().out
    result = json.loads(out.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] == 2 * len(small)
    expected = BENCHMARK["per_layer" if trace == "1" else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {m["name"]: m["unit"] for m in expected}
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
    if trace == "0":
        assert result["metrics"]["ok_frac"]["value"] == 1 - result["failed"] / result["attempted"]
    else:
        assert "share of traced wall_s in scenarios.run.self_s" in out


def test_zero_exit_without_output_is_a_failure(tmp_path, monkeypatch):
    # a child that reports success but runs nothing and writes no files
    fake = tmp_path / "child.py"
    fake.write_text(
        "import json, sys\n"
        "json.dump({'code': 0, 'error': None, 'imported_ns': 0, 'main_start_ns': 0, 'main_end_ns': 0,\n"
        "           'maxrss_kb': 0, 'spans': [], 'counts': {}, 'unwrapped': []}, open(sys.argv[1], 'w'))\n",
        encoding="utf-8",
    )
    monkeypatch.setattr(run, "CHILD", fake)
    inv = run.run_invocation(["figures", "fig5"], False, tmp_path, "t", run.child_env(), time.monotonic() + 60)
    assert inv.code == 0 and inv.error is None
    assert inv.failed


def test_corrupted_report_scalar_is_a_failure(tmp_path):
    env = run.child_env()
    cmd = [sys.executable, "-m", "qmodes.cli", "figures", "fig5", "--grid-points", "128", "--out", str(tmp_path)]
    subprocess.run(cmd, env=env, check=True, capture_output=True, timeout=120)
    assert all(c.ok for c in checks.evaluate("fig5", tmp_path))

    report_path = tmp_path / "fig5_report.json"
    report = json.loads(report_path.read_text(encoding="utf-8"))
    report["scalars"]["schmidt_number"] = 3.10437
    report_path.write_text(json.dumps(report), encoding="utf-8")
    found = checks.evaluate("fig5", tmp_path)
    assert [c.name for c in found if not c.ok] == ["fig5.schmidt_number"]

    inv = run.Invocation(["figures", "fig5"], traced=False, code=0, setup_s=0.3, main_s=0.1, checks=found)
    assert inv.failed
    good = run.Invocation(["figures", "fig3"], traced=False, code=0, setup_s=0.3, main_s=0.1)
    assert run.end_to_end([[inv, good]])["ok_frac"] == 0.5


def test_missing_report_is_a_failure(tmp_path):
    assert not all(c.ok for c in checks.evaluate("fig3", tmp_path))


def test_self_times_partition_the_root_span():
    spans = [
        ["cli.main", -1, 0, 100],
        ["scenarios.run", 0, 10, 90],
        ["schmidt.numerical_schmidt", 1, 20, 50],
        ["tomography.save_json", 1, 60, 65],
    ]
    times = self_times(spans)
    assert times == pytest.approx(
        {"cli.main": 20e-9, "scenarios.run": 45e-9, "schmidt.numerical_schmidt": 30e-9, "tomography.save_json": 5e-9}
    )
    assert sum(times.values()) == pytest.approx(100e-9)


def test_layer_helper_is_a_span_only_outside_its_layer():
    rec = SpanRecorder()
    helper = rec.wrap_other("tomography.other", lambda: None)
    named = rec.wrap("tomography.analyze", lambda: helper())
    named()
    helper()
    assert [(name, parent) for name, parent, _, _ in rec.spans] == [
        ("tomography.analyze", -1),
        ("tomography.other", -1),
    ]


def test_parse_importtime_counts_outermost_scipy_and_qmodes_self():
    stderr = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 |       scipy",
        "import time:        50 |        150 |     scipy.linalg",
        "import time:        30 |        180 |   qmodes.schmidt",
        "import time:        40 |         40 |     scipy.optimize",
        "import time:        20 |         60 |   qmodes.tunneling",
        "import time:        10 |        250 | qmodes",
    ])
    parsed = run.parse_importtime(stderr)
    assert parsed["setup.import_scipy_s"] == pytest.approx(190e-6)
    assert parsed["setup.import_qmodes_self_s"] == pytest.approx(60e-6)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(run.HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "small-models", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
    assert not (tmp_path / ".perfbench").exists()
