"""Alternating benchmark pairs of a git revision against the working tree.

    python tests/bench_pairs.py REV [--workloads NAME ...]

extracts REV with ``git archive REV | tar -x`` into a temporary directory,
so the repository's ``.git`` is never touched, and deletes it at the end.
For each workload it runs the command of ``BENCHMARK.json``
(``perfbench/run.py``) for its ``run_seconds`` with ``--trace 0`` in that
tree and in the working tree, one after the other, in 10 pairs: pair i
uses seed i, and odd pairs run REV first.
Per workload and end-to-end metric it prints each side's median and
quartiles, in how many pairs the working tree was better (ties count for
neither), and a verdict:

- "gain": the working tree wins at least 9 in 10 of the pairs, and the
  medians differ in its favour by more than the interquartile range of
  REV's runs;
- "regression": the working tree's median is worse than REV's by more
  than the metric's ``BENCHMARK.json`` bound, relative to REV's median;
- "unresolved": either side's interquartile range, relative to REV's
  median, is wider than the bound, and not every run of the working tree
  is better than every run of REV;
- "within bound" otherwise.
"""

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PAIRS = 10


def quartiles(values) -> tuple[float, float, float]:
    """(first quartile, median, third quartile) of ``values``."""
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def summary(parent, change, better, bound) -> dict:
    """Quartiles of each side, the change's wins and the verdict for one
    metric, from the paired runs ``parent[i]``, ``change[i]``."""
    sign = 1.0 if better == "lower" else -1.0
    wins = sum(sign * (p - c) > 0 for p, c in zip(parent, change))
    (p1, p_median, p3), (c1, c_median, c3) = quartiles(parent), quartiles(change)
    gain = sign * (p_median - c_median)
    if wins >= 0.9 * len(parent) and gain > p3 - p1:
        verdict = "gain"
    elif -gain > bound * abs(p_median):
        verdict = "regression"
    elif max(p3 - p1, c3 - c1) > bound * abs(p_median) and not all(
        sign * (p - c) > 0 for p in parent for c in change
    ):
        verdict = "unresolved"
    else:
        verdict = "within bound"
    return {"parent": (p1, p_median, p3), "change": (c1, c_median, c3), "wins": wins, "verdict": verdict}


def run(command, tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """End-to-end metric name -> value of one benchmark run in ``tree``."""
    argv = [*command, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    result = subprocess.run(argv, cwd=tree, capture_output=True, text=True)
    if result.returncode != 0:
        raise SystemExit(f"bench_pairs: {' '.join(argv)} in {tree} exited {result.returncode}:\n{result.stderr}")
    metrics = json.loads(result.stdout.splitlines()[-1])["metrics"]
    return {name: entry["value"] for name, entry in metrics.items()}


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    workloads = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("rev")
    parser.add_argument("--workloads", nargs="+", choices=workloads, default=workloads)
    args = parser.parse_args(argv)

    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as tmp:
        parent_tree = Path(tmp)
        archive = subprocess.run(["git", "archive", args.rev], cwd=ROOT, capture_output=True, check=True)
        subprocess.run(["tar", "-x", "-C", str(parent_tree)], input=archive.stdout, check=True)
        for workload in args.workloads:
            runs = {"parent": [], "change": []}
            for seed in range(1, PAIRS + 1):
                sides = [("parent", parent_tree), ("change", ROOT)]
                for side, tree in sides if seed % 2 else sides[::-1]:
                    runs[side].append(run(bench["command"], tree, workload, seed, bench["run_seconds"]))
            print(f"{workload}: {PAIRS} pairs, --seconds {bench['run_seconds']:g}, {args.rev} against the working tree")
            print(f"  {'metric':<12}{args.rev + ' median [q1, q3]':>36}{'tree median [q1, q3]':>36}  tree better  verdict")
            for metric in bench["end_to_end"]:
                name = metric["name"]
                parent = [r[name] for r in runs["parent"]]
                change = [r[name] for r in runs["change"]]
                s = summary(parent, change, metric["better"], metric["bound"])
                cells = [f"{m:.4g} [{q1:.4g}, {q3:.4g}] {metric['unit']}" for q1, m, q3 in (s["parent"], s["change"])]
                print(f"  {name:<12}{cells[0]:>36}{cells[1]:>36}  {s['wins']:>5}/{PAIRS:<5}  {s['verdict']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
