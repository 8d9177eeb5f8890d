"""The catalog's bytes against the committed manifest ``tests/catalog.sha256``
(see ``tests/catalog_manifest.py``, which rewrites it)."""

import os
import subprocess
import sys
from pathlib import Path

from catalog_manifest import FORMATS, GRID_POINTS, HEADER, catalog_lines, differences, keyed, read_manifest

# the catalog runs of the perfbench workloads, at their formats and grid sizes
PERFBENCH_RUNS = [
    ("fig1", "csv", 4096),
    *[(name, "csv", 2048) for name in ("fig2", "fig3", "fig4", "fig5")],
    *[
        (name, "json", 1024)
        for name in ("ammonia", "fig10", "coherence", "fig6-data", "fig7", "tomography-demo")
    ],
]


def test_manifest_covers_every_entry_in_both_formats_at_every_grid():
    _, lines = read_manifest()
    runs = {key[:3] for key in keyed(lines) if key[1] != "-"}
    entries = {entry for entry, *_ in runs}
    assert runs == {(e, f, str(n)) for e in entries for f in FORMATS for n in GRID_POINTS}
    listed = [key for key in keyed(lines) if key[1:] == ("-", "-", "stdout")]
    assert listed == [("list", "-", "-", "stdout")]


def test_catalog_bytes_match_the_manifest(tmp_path):
    header, lines = read_manifest()
    problems = differences(lines, catalog_lines(tmp_path))
    versions = f"manifest written with {header[-1][2:]}, running {HEADER[-1][2:]}"
    assert not problems, "\n".join([versions, *problems])


def test_perfbench_runs_match_the_manifest_at_one_blas_thread(tmp_path):
    # perfbench runs its children with one BLAS thread, and the bytes depend
    # on LAPACK's last bits; the thread count is fixed before numpy loads
    tests = Path(__file__).parent
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(tests.parent / "src"), str(tests)]))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    script = (
        "import sys; from pathlib import Path; from catalog_manifest import run_lines\n"
        "for run in sys.argv[2:]:\n"
        "    name, fmt, n = run.split(':')\n"
        "    print(*run_lines(Path(sys.argv[1]), name, fmt, int(n)), sep='\\n')\n"
    )
    runs = [f"{name}:{fmt}:{n}" for name, fmt, n in PERFBENCH_RUNS]
    result = subprocess.run(
        [sys.executable, "-c", script, str(tmp_path), *runs], env=env, capture_output=True, text=True
    )
    assert result.returncode == 0, result.stderr
    _, committed = read_manifest()
    keys = {(name, fmt, str(n)) for name, fmt, n in PERFBENCH_RUNS}
    expected = [line for line in committed if tuple(line.split()[:3]) in keys]
    problems = differences(expected, result.stdout.splitlines())
    assert not problems, "\n".join(problems)
