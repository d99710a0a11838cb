"""Block counts of ransac_pose per traffic class, for showing without
timing noise which inputs a change of its block schedule moves.

    python3 tests/ransac_blocks.py [CHECKOUT]

Imports the library from CHECKOUT/src (default: this checkout) and runs
quest6 RANSAC (threshold 0.005, max_iters 200) on this checkout's inputs,
so two checkouts can be compared line by line. Per class it prints the
per-run means, exact to the two decimals printed, of:

- blocks: the blocks drawn (calls of solver._block_candidates from
  ransac_pose);
- solved: the samples those blocks hold;
- walked: the samples the walk took before it stopped, as one-at-a-time
  sampling would take them. It is replayed from the hypotheses that
  solver._hypotheses returns per block, with ransac_pose's rule: the best
  hypothesis by (inlier count, lower mean error) sets the stop, which is
  the sample itself for a consensus of every match and the
  Fischler-Bolles stop at 1e-6 otherwise;
- polish: the calls of solver._polish_pose;

and the runs that raised. The classes are make_outlier_set(seed=s) for
s = 0..SETS-1, RANSAC seed s, at outlier fractions 0, 0.1, 0.2 and 0.4
with 1 px noise; at fractions 0 and 0.2 with no noise; with n = 15 and
n = 60 at 0.2; then the first BENCH_INPUTS RANSAC inputs of each
benchmark workload (perfbench/workload.py build_inputs, seed 3). A run
takes about half a minute.
"""

from __future__ import annotations

import math
import os
import sys
from pathlib import Path

from ransac_accuracy import ROOT, load

SETS = 20
BENCH_INPUTS = 100
BENCH_SEED = 3
# (outlier fraction, pixel noise, points) per make_outlier_set class
CLASSES = ((0.0, 1.0, 30), (0.1, 1.0, 30), (0.2, 1.0, 30), (0.4, 1.0, 30),
           (0.0, 0.0, 30), (0.2, 0.0, 30), (0.2, 1.0, 15), (0.2, 1.0, 60))
THRESHOLD = 0.005
MAX_ITERS = 200
MINIMAL = 6


def walked(blocks, n: int, max_iters: int = MAX_ITERS, minimal: int = MINIMAL) -> int:
    """The samples ransac_pose's walk takes over `blocks`, a list of
    (samples drawn, (owner, errs, masks) of _hypotheses) per block."""
    best, needed, it = None, max_iters, 0
    for size, (owner, errs, masks) in blocks:
        bounds = owner.searchsorted(range(size + 1)).tolist()
        for s in range(size):
            if it >= needed:
                return it
            it += 1
            for h in range(bounds[s], bounds[s + 1]):
                count = int(masks[h].sum())
                key = (count, -float(errs[h][masks[h]].mean()))
                if best is None or key > best:
                    best = key
                    chance = min((count / n)**minimal, 1.0 - 1e-12)
                    needed = it if count == n else min(
                        max_iters, math.ceil(math.log(1e-6) / math.log1p(-chance)))
    return it


class Counter:
    """Counts one ransac_pose run at a time through the solver module's
    _block_candidates, _hypotheses and _polish_pose, rebound while it
    runs."""

    def __init__(self, quest):
        self.quest = quest

    def run(self, points, seed: int, **kwargs):
        """(blocks, solved, walked, polish calls, raised) of one run."""
        solver = self.quest.solver
        names = ("_block_candidates", "_hypotheses", "_polish_pose")
        originals = {name: getattr(solver, name) for name in names}
        sizes, hyps, polish = [], [], [0]

        def block(M, N, idx, method):
            sizes.append(len(idx))
            return originals["_block_candidates"](M, N, idx, method)

        def hypotheses(*args):
            out = originals["_hypotheses"](*args)
            hyps.append((out[0], out[3], out[4]))
            return out

        def polished(*args):
            polish[0] += 1
            return originals["_polish_pose"](*args)

        for name, fn in zip(names, (block, hypotheses, polished)):
            setattr(solver, name, fn)
        raised = False
        try:
            solver.ransac_pose(points, seed=seed, **kwargs)
        except self.quest.errors.QuestError:
            raised = True
        finally:
            for name, fn in originals.items():
                setattr(solver, name, fn)
        return (len(sizes), sum(sizes), walked(list(zip(sizes, hyps)), len(points)),
                polish[0], raised)


def line(head: str, runs) -> str:
    """One class's line from its runs' Counter.run tuples."""
    blocks, solved, walk, polish, raised = (sum(col) for col in zip(*runs))
    k = len(runs)
    return (f"{head} runs={k} blocks={blocks / k:.2f} solved={solved / k:.2f} "
            f"walked={walk / k:.2f} polish={polish / k:.2f} raised={raised}")


def class_line(counter: Counter, make_outlier_set, fraction: float, sigma: float, n: int,
               sets: int = SETS) -> str:
    runs = []
    for s in range(sets):
        points = make_outlier_set(seed=s, n=n, outlier_fraction=fraction, sigma_px=sigma)[0]
        runs.append(counter.run(points, s, method="quest6", threshold=THRESHOLD,
                                max_iters=MAX_ITERS))
    return line(f"outliers={fraction:g} sigma={sigma:g} n={n}", runs)


def bench_line(counter: Counter, workload, name: str, count: int = BENCH_INPUTS) -> str:
    _, inputs = workload.build_inputs(counter.quest, name, BENCH_SEED, BENCH_SEED)
    runs = [counter.run(item.points, item.ransac_seed, **workload.RANSAC_ARGS)
            for item in inputs[:count]]
    return line(f"benchmark {name} seed={BENCH_SEED}", runs)


def main(argv):
    if len(argv) > 1:
        sys.exit(__doc__)
    checkout = Path(argv[0]).resolve() if argv else ROOT
    os.environ.setdefault("OMP_NUM_THREADS", "1")
    quest, workload, make_outlier_set = load(checkout)
    print(f"library {Path(quest.__file__).parent}")
    counter = Counter(quest)
    for fraction, sigma, n in CLASSES:
        print(class_line(counter, make_outlier_set, fraction, sigma, n), flush=True)
    for name in workload.WORKLOADS:
        print(bench_line(counter, workload, name), flush=True)


if __name__ == "__main__":
    main(sys.argv[1:])
