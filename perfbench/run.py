"""Benchmark of ``qmodes`` figure runs: end-to-end cost and a per-layer trace.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload slit-schmidt --seed 1 --seconds 30 --trace 0

Each invocation is one ``qmodes`` command, run in a fresh interpreter the
way a user runs it, so nothing cached by one invocation serves the next.
Invocations run one at a time, with the BLAS thread count fixed in the
child's environment.  A pass runs every invocation of the workload once,
in an order drawn from ``--seed``; passes repeat until ``--seconds`` have
elapsed, with at least two, so that the outputs of two passes can be
compared byte for byte.  Every invocation's output is checked.

With ``--trace 0`` the end-to-end metrics are printed.  With ``--trace 1``
untraced and traced passes alternate and the per-layer metrics are
printed.  The last line of standard output is one JSON object; the lines
before it list the run environment, every check with its deviation, and
every metric with its unit and, for the per-layer ones, the end-to-end
metric it should move.  Span traces and check records are written to
``.perfbench/`` in the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import random
import re
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from checks import Check, evaluate
from spans import self_times

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CHILD = HERE / "child.py"
WORK = ROOT / ".perfbench"

# A run must end within 180 s; no invocation may outlive this.
HARD_LIMIT_S = 170.0
MIN_PASSES = 2
# One BLAS thread (<= nproc): on a 2-vCPU host, two threads made pass times
# spread about 5% against about 2% with one, and slowed set-up.
BLAS_THREADS = 1

WORKLOADS = {
    # seven n x n Schmidt decompositions (m = 2, 2, 5, 4 x 4); the SVD dominates
    "slit-schmidt": [
        ["figures", name, "--grid-points", "2048"] for name in ("fig2", "fig3", "fig5", "fig4")
    ],
    # n = 4096 joint states, 134 MB each, with no Schmidt decomposition
    "grid-marginals": [
        ["figures", "fig1", "--grid-points", "4096"],
        ["slits", "--m", "5", "--grid-points", "4096", "--format", "json"],
    ],
    # small models where set-up dominates; the n x 2 qubit state takes the
    # generic Schmidt path
    "small-models": [
        ["figures", name, "--grid-points", "1024", "--format", "json"]
        for name in ("ammonia", "fig10", "coherence", "fig6-data", "fig7", "tomography-demo")
    ],
}

END_TO_END = [
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("ok_frac", "fraction"),
]

# name, unit, the end-to-end metric it should move and where
PER_LAYER = [
    ("schmidt.numerical_schmidt.s", "s", "wall_s on slit-schmidt"),
    ("schmidt.numerical_schmidt.calls", "count", "wall_s on slit-schmidt"),
    ("schmidt.modes_kept_ratio", "ratio", "wall_s on slit-schmidt"),
    ("schmidt.other.s", "s", "wall_s on slit-schmidt"),
    ("interference.joint_state_momentum.s", "s", "wall_s, peak_rss_mb on grid-marginals"),
    ("interference.joint_state_coordinate.s", "s", "wall_s, peak_rss_mb on grid-marginals"),
    ("interference.marginal.s", "s", "wall_s, peak_rss_mb on grid-marginals"),
    ("interference.amplitude_elements", "count", "wall_s, peak_rss_mb on grid-marginals"),
    ("interference.other.s", "s", "wall_s on grid-marginals, slit-schmidt"),
    ("tunneling.fit_potential.s", "s", "wall_s on small-models"),
    ("tunneling.grid_eigensolve.s", "s", "wall_s on small-models"),
    ("tunneling.ground_state_entanglement.s", "s", "wall_s on small-models"),
    ("tunneling.other.s", "s", "wall_s on small-models"),
    ("tomography.scan_completions.s", "s", "wall_s, peak_rss_mb on small-models"),
    ("tomography.scan_kept_ratio", "ratio", "wall_s, peak_rss_mb on small-models"),
    ("tomography.analyze.s", "s", "wall_s on small-models"),
    ("tomography.reconstruct.s", "s", "wall_s on small-models"),
    ("tomography.other.s", "s", "wall_s on small-models"),
    ("coherence.qubit_coherence_state.s", "s", "wall_s on small-models"),
    ("coherence.visibility_from_intensity.s", "s", "wall_s on small-models"),
    ("coherence.other.s", "s", "wall_s on small-models"),
    ("scenarios.run.self_s", "s", "wall_s on small-models, grid-marginals"),
    ("tomography.save_json.s", "s", "wall_s on small-models, grid-marginals"),
    ("scenarios.bytes_written", "bytes", "wall_s on small-models, grid-marginals"),
    ("cli.main.self_s", "s", "wall_s on small-models, grid-marginals"),
    ("setup.import_scipy_s", "s", "setup_s on every workload"),
    ("setup.import_qmodes_self_s", "s", "setup_s on every workload"),
    ("trace.overhead", "ratio", "none; traced over untraced wall_s, minus 1"),
]

# A span's self time is reported as "<span name>.s", except for these two
# glue layers, whose self time is what is left after their children.
SPAN_METRICS = {
    "cli.main": "cli.main.self_s",
    "scenarios.run": "scenarios.run.self_s",
}
GLUE = list(SPAN_METRICS.values())


@dataclass
class Invocation:
    argv: list[str]
    traced: bool
    code: int | None = None
    error: str | None = None
    setup_s: float | None = None
    main_s: float | None = None
    maxrss_kb: int = 0
    spans: list = field(default_factory=list)
    counts: dict = field(default_factory=dict)
    unwrapped: list = field(default_factory=list)
    imports: dict = field(default_factory=dict)
    bytes_written: int = 0
    digest: str = ""
    checks: list[Check] = field(default_factory=list)

    @property
    def scenario(self) -> str:
        return self.argv[1] if self.argv[0] == "figures" else self.argv[0]

    @property
    def failed(self) -> bool:
        return self.code != 0 or self.error is not None or not all(c.ok for c in self.checks)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    return env


def parse_importtime(stderr: str) -> dict:
    """Seconds importing scipy (outermost scipy modules, cumulative) and in
    qmodes' own module bodies (self), from ``-X importtime`` output."""
    rows = []
    for line in stderr.splitlines():
        m = re.match(r"import time:\s+(\d+) \|\s+(\d+) \|( *)(\S+)", line)
        if m:
            rows.append((int(m[1]), int(m[2]), len(m[3]), m[4]))
    scipy_us = qmodes_us = 0
    ancestors: list[tuple[int, str]] = []
    # a module's line follows those of the imports it triggered, one level deeper
    for self_us, cum_us, level, name in reversed(rows):
        while ancestors and ancestors[-1][0] >= level:
            ancestors.pop()
        root = name.split(".")[0]
        if root == "scipy" and all(a[1].split(".")[0] != "scipy" for a in ancestors):
            scipy_us += cum_us
        if root == "qmodes":
            qmodes_us += self_us
        ancestors.append((level, name))
    return {"setup.import_scipy_s": scipy_us / 1e6, "setup.import_qmodes_self_s": qmodes_us / 1e6}


def tree_digest(out_dir: Path) -> tuple[str, int]:
    """Hash of every file's name and bytes under ``out_dir``, and their total size."""
    h = hashlib.sha256()
    size = 0
    for path in sorted(p for p in out_dir.rglob("*") if p.is_file()):
        data = path.read_bytes()
        h.update(path.relative_to(out_dir).as_posix().encode() + b"\0" + data)
        size += len(data)
    return h.hexdigest(), size


def run_invocation(argv, traced, scratch, tag, env, deadline) -> Invocation:
    inv = Invocation(list(argv), traced)
    out_dir = scratch / tag
    result_path = scratch / f"{tag}.json"
    cmd = [sys.executable]
    if traced:
        cmd += ["-X", "importtime"]
    cmd += [str(CHILD), str(result_path), "1" if traced else "0", "--", *argv, "--out", str(out_dir)]
    spawn_ns = time.monotonic_ns()
    try:
        proc = subprocess.run(
            cmd, env=env, cwd=ROOT, capture_output=True, text=True,
            timeout=max(1.0, deadline - time.monotonic()),
        )
    except subprocess.TimeoutExpired:
        inv.error = "timed out"
        shutil.rmtree(out_dir, ignore_errors=True)
        return inv
    try:
        result = json.loads(result_path.read_text(encoding="utf-8"))
    except (OSError, ValueError):
        inv.error = f"no result (exit {proc.returncode}): {proc.stderr[-2000:]}"
        shutil.rmtree(out_dir, ignore_errors=True)
        return inv
    result_path.unlink()
    inv.code = result["code"]
    inv.error = result["error"]
    if inv.code != 0 and inv.error is None:
        inv.error = "\n".join(l for l in proc.stderr.splitlines() if not l.startswith("import time:"))
    inv.setup_s = (result["imported_ns"] - spawn_ns) / 1e9
    inv.main_s = (result["main_end_ns"] - result["main_start_ns"]) / 1e9
    inv.maxrss_kb = result["maxrss_kb"]
    inv.spans = result["spans"]
    inv.counts = result["counts"]
    inv.unwrapped = result["unwrapped"]
    if traced:
        inv.imports = parse_importtime(proc.stderr)
    if out_dir.is_dir():
        inv.digest, inv.bytes_written = tree_digest(out_dir)
    if inv.code == 0:
        # a missing report is a failed check
        inv.checks = evaluate(inv.scenario, out_dir)
    shutil.rmtree(out_dir, ignore_errors=True)
    return inv


def run_passes(argvs, seconds, trace, seed, env, scratch) -> list[list[Invocation]]:
    """Passes until ``seconds`` have elapsed; traced passes alternate with
    untraced ones when ``trace`` is set."""
    rng = random.Random(seed)
    start = time.monotonic()
    deadline = start + HARD_LIMIT_S
    passes: list[list[Invocation]] = []
    while len(passes) < MIN_PASSES or time.monotonic() - start < seconds:
        if time.monotonic() >= deadline:
            break
        traced = trace and len(passes) % 2 == 1
        order = list(range(len(argvs)))
        rng.shuffle(order)
        invs = [None] * len(argvs)
        for i in order:
            invs[i] = run_invocation(argvs[i], traced, scratch, f"p{len(passes)}-i{i}", env, deadline)
        passes.append(invs)
    # outputs must be byte-identical across passes
    for invs in passes[1:]:
        for first, inv in zip(passes[0], invs):
            if inv.code == 0 and first.code == 0:
                same = inv.digest == first.digest
                inv.checks.append(Check(f"{inv.scenario}.identical_to_first_pass", float(not same), 0.0))
    return passes


def pass_wall(invs: list[Invocation]) -> float:
    return sum(inv.main_s for inv in invs if inv.main_s is not None)


def _median(values) -> float:
    """Median, or 0 when every invocation failed before it was timed."""
    values = list(values)
    return statistics.median(values) if values else 0.0


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def end_to_end(passes) -> dict:
    plain = [invs for invs in passes if not invs[0].traced]
    every = [inv for invs in passes for inv in invs]
    return {
        "wall_s": _median(pass_wall(invs) for invs in plain),
        "setup_s": _median(inv.setup_s for invs in plain for inv in invs if inv.setup_s is not None),
        "peak_rss_mb": max(inv.maxrss_kb for invs in plain for inv in invs) / 1024.0,
        "ok_frac": sum(not inv.failed for inv in every) / len(every),
    }


def per_layer(passes) -> tuple[dict, dict]:
    """Per-layer metrics, and the shares of traced pass time that the
    reported self times account for, in all and in each glue layer."""
    plain = [invs for invs in passes if not invs[0].traced]
    traced = [invs for invs in passes if invs[0].traced]
    per_pass = []
    accounted = []
    for invs in traced:
        values = {name: 0.0 for name, _, _ in PER_LAYER}
        counts: dict[str, float] = {}
        for inv in invs:
            for span, secs in self_times(inv.spans).items():
                key = SPAN_METRICS.get(span, f"{span}.s")
                values[key] += secs
            for key, n in inv.counts.items():
                counts[key] = counts.get(key, 0) + n
            values["schmidt.numerical_schmidt.calls"] += sum(
                1 for s in inv.spans if s[0] == "schmidt.numerical_schmidt"
            )
        values["schmidt.modes_kept_ratio"] = _ratio(
            counts.get("schmidt.modes_kept", 0), counts.get("schmidt.modes_possible", 0)
        )
        values["tomography.scan_kept_ratio"] = _ratio(
            counts.get("tomography.scan_kept", 0), counts.get("tomography.scan_candidates", 0)
        )
        values["interference.amplitude_elements"] = counts.get("interference.amplitude_elements", 0)
        values["scenarios.bytes_written"] = sum(inv.bytes_written for inv in invs)
        per_pass.append(values)
        traced_s = sum(sum(self_times(inv.spans).values()) for inv in invs)
        accounted.append(_ratio(traced_s, pass_wall(invs)))
    out = {name: _median(v[name] for v in per_pass) for name, _, _ in PER_LAYER}
    for key in ("setup.import_scipy_s", "setup.import_qmodes_self_s"):
        out[key] = _median(inv.imports[key] for invs in traced for inv in invs if inv.imports)
    traced_wall = _median(pass_wall(invs) for invs in traced)
    out["trace.overhead"] = _ratio(traced_wall, _median(pass_wall(invs) for invs in plain)) - 1.0
    shares = {"all self times": _median(accounted)}
    shares.update((name, _ratio(out[name], traced_wall)) for name in GLUE)
    return out, shares


def environment(workload, argvs) -> dict:
    def read(path, pattern=None):
        try:
            text = Path(path).read_text(encoding="utf-8")
        except OSError:
            return "unknown"
        if pattern is None:
            return text.strip()
        m = re.search(pattern, text, re.M)
        return m[1].strip() if m else "unknown"

    grids = sorted({int(a[a.index("--grid-points") + 1]) for a in argvs})
    return {
        "workload": workload,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": BLAS_THREADS,
        "python": sys.version.split()[0],
        "numpy": importlib.metadata.version("numpy"),
        "scipy": importlib.metadata.version("scipy"),
        "cpu_model": read("/proc/cpuinfo", r"^model name\s*:\s*(.*)$"),
        "l3_cache": read("/sys/devices/system/cpu/cpu0/cache/index3/size"),
        "grid_points": grids,
        # one float64 n x n joint amplitude at the largest grid (computed)
        "amplitude_bytes_per_state": max(grids) ** 2 * 8,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "qmodes" / "cli.py").is_file():
        print(f"perfbench: no qmodes source under {ROOT / 'src'}", file=sys.stderr)
        return 2

    argvs = WORKLOADS[args.workload]
    env = child_env()
    scratch = WORK / f"run-{os.getpid()}"
    scratch.mkdir(parents=True, exist_ok=True)
    try:
        # compile the package's bytecode and warm the file cache, untimed
        subprocess.run([sys.executable, "-c", "import qmodes.cli"], env=env, cwd=ROOT, timeout=60)
        passes = run_passes(argvs, args.seconds, bool(args.trace), args.seed, env, scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    invs = [inv for p in passes for inv in p]
    failed = sum(inv.failed for inv in invs)
    env_record = environment(args.workload, argvs)
    if args.trace:
        metrics, shares = per_layer(passes)
        table = [(name, unit, moves) for name, unit, moves in PER_LAYER]
    else:
        metrics = end_to_end(passes)
        table = [(name, unit, "") for name, unit in END_TO_END]

    print("environment " + json.dumps(env_record, sort_keys=True))
    worst: dict[str, Check] = {}
    for inv in invs:
        for c in inv.checks:
            if c.name not in worst or not c.deviation <= worst[c.name].deviation:
                worst[c.name] = c
    for c in worst.values():
        tol = "recorded only" if c.tolerance is None else f"tolerance {c.tolerance:.3g}"
        print(f"check {c.name:44s} deviation {c.deviation:.3g} ({tol}) {'ok' if c.ok else 'FAILED'}")
    for inv in invs:
        if inv.failed and not inv.checks:
            print(f"failed {' '.join(inv.argv)}: {inv.error or f'exit {inv.code}'}")
    unwrapped = sorted({u for inv in invs for u in inv.unwrapped})
    if unwrapped:
        print(f"untraced (function missing): {', '.join(unwrapped)}")
    for name, unit, moves in table:
        print(f"metric {name:40s} {metrics[name]:.6g} {unit}" + (f"  -> {moves}" if moves else ""))
    if args.trace:
        for name, share in shares.items():
            print(f"share of traced wall_s in {name}: {share:.4%}")
    print(f"passes {len(passes)}, invocations {len(invs)}, failed {failed}")

    record = {
        "environment": env_record,
        "seed": args.seed,
        "checks": [[c.name, c.deviation, c.tolerance, c.ok] for c in worst.values()],
        "invocations": [
            {"id": f"p{p}-i{i}", "argv": inv.argv, "traced": inv.traced, "failed": inv.failed,
             "setup_s": inv.setup_s, "main_s": inv.main_s, "spans": inv.spans}
            for p, pinvs in enumerate(passes) for i, inv in enumerate(pinvs)
        ],
    }
    (WORK / f"{args.workload}-trace{args.trace}.json").write_text(json.dumps(record), encoding="utf-8")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(invs),
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit, _ in table},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
