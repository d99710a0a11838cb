"""Alternating A/B runs of the benchmark between two checkouts.

    python3 tests/ab_bench.py PARENT CHANGE

For each workload it runs ten pairs of

    python3 perfbench/run.py --workload W --seed 3 --seconds 25 --trace 0

once in each checkout (the run imports that checkout's src), alternating
which side runs first. Then it prints, for every end-to-end metric of
BENCHMARK.json, both sides' medians with their quartiles, the ratio of
the medians (change / parent) and how many pairs the change won; a tie
counts for neither side. "clear" marks a metric on which the change won
at least nine pairs in ten and whose medians differ by more than the
distance between the parent's quartiles: the bar for claiming a gain.

run.py rewrites perfbench/out/*.json in the checkout it runs in, so run
this on `git worktree` copies of the two commits, not on a working tree
whose report files you want to keep. A run takes about 35 s; the whole
comparison about 25 minutes.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
from pathlib import Path

PAIRS = 10
WORKLOADS = ("general", "coplanar")
RUN_ARGS = ("--seed", "3", "--seconds", "25", "--trace", "0")
BENCHMARK = Path(__file__).resolve().parents[1] / "BENCHMARK.json"


def run_once(checkout: Path, workload: str) -> dict:
    """The metric values of one benchmark run in `checkout`."""
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload, *RUN_ARGS],
                          cwd=checkout, capture_output=True, text=True, check=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    return {name: m["value"] for name, m in result["metrics"].items()}


def _spread(values):
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return median, q1, q3


def summary(parent: list, change: list, end_to_end: list) -> list:
    """One line per end-to-end metric ({"name", "better"} entries of
    BENCHMARK.json) present in every run, from the paired runs' metric
    dicts: parent[i] and change[i] are pair i."""
    lines = []
    for metric in end_to_end:
        name, lower = metric["name"], metric["better"] == "lower"
        if not all(name in run for run in parent + change):
            continue
        p = [run[name] for run in parent]
        c = [run[name] for run in change]
        (pm, p1, p3), (cm, c1, c3) = _spread(p), _spread(c)
        won = sum((b < a) if lower else (b > a) for a, b in zip(p, c))
        ratio = cm / pm if pm else float("nan")
        clear = won >= 0.9 * len(p) and ((pm - cm) if lower else (cm - pm)) > p3 - p1
        lines.append(f"{name:24s} parent {pm:.4g} [{p1:.4g}, {p3:.4g}]  "
                     f"change {cm:.4g} [{c1:.4g}, {c3:.4g}]  {ratio:.3f}x  "
                     f"won {won}/{len(p)}{'  clear' if clear else ''}")
    return lines


def main(argv):
    if len(argv) != 2:
        sys.exit(__doc__)
    parent_dir, change_dir = (Path(a).resolve() for a in argv)
    end_to_end = json.loads(BENCHMARK.read_text(encoding="utf-8"))["end_to_end"]
    for workload in WORKLOADS:
        runs = {parent_dir: [], change_dir: []}
        for i in range(PAIRS):
            order = (parent_dir, change_dir) if i % 2 == 0 else (change_dir, parent_dir)
            for checkout in order:
                runs[checkout].append(run_once(checkout, workload))
            print(f"{workload}: pair {i + 1}/{PAIRS} done", file=sys.stderr, flush=True)
        print(f"== {workload} ({PAIRS} pairs, median [quartiles], change / parent)")
        for line in summary(runs[parent_dir], runs[change_dir], end_to_end):
            print(line, flush=True)


if __name__ == "__main__":
    main(sys.argv[1:])
