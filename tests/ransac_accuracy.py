"""Accuracy of ransac_pose against ground truth, for checking a change
that moves its output.

    python3 tests/ransac_accuracy.py [CHECKOUT]

Imports the library from CHECKOUT/src (default: this checkout) and runs
it on this checkout's inputs, so two checkouts can be compared line by
line. It prints:

- per benchmark workload and seed (1, 3, 7; all RANSAC inputs of
  perfbench/workload.py build_inputs): inlier F1, the runs whose rotation
  error is at least 0.01 pi, the runs that pass the benchmark's per-run
  check (precision and recall >= 0.95, rotation error < 0.01 pi), those
  that raised, and the median rotation error;
- acceptance criterion 8 (the 20 outlier sets of conftest's
  make_outlier_set) for quest6 and quest7: precision, recall, median and
  max rotation error, the max once each returned pose is polished
  further on its own mask (8 more polish calls, 64 LM rounds), and the
  sets that raised;
- the half-turn sweep: quest6 on make_outlier_set(seed=s,
  fixed_rotation=(w, 0, 0, sqrt(1 - w^2))), s = 0..11, per w the runs
  whose rotation error is at least 0.01 pi, and the worst;
- pure rotation: quest6 on make_outlier_set(seed=s, sigma_px=sigma,
  fixed_translation=(0, 0, 0)), sigma in {0, 1}, s = 0..3, per run the
  inlier mask's true positives, false positives and false negatives
  against the true mask, and the rotation error. A camera that only
  rotates leaves the inliers without parallax, which no section above
  tests.

Rotation errors are in units of pi, as rot_error gives them. A run takes
about two minutes.
"""

from __future__ import annotations

import math
import os
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SEEDS = (1, 3, 7)
C08_SETS = 20
HALF_TURN_W = (0.0, 0.03, 0.07, 0.10)
HALF_TURN_SEEDS = 12
PURE_ROTATION_SEEDS = 4
ROT_BOUND = 0.01
# further polish calls (8 LM rounds each) behind c08's polished_max
POLISH_CALLS = 8


def load(checkout: Path):
    """The quest package of `checkout`, with this checkout's benchmark
    workload module and outlier sets."""
    sys.path[:0] = [str(checkout / "src"), str(ROOT / "perfbench"), str(ROOT / "tests")]
    import quest
    import workload
    from conftest import make_outlier_set
    return quest, workload, make_outlier_set


def _f1(tp: int, fp: int, fn: int) -> float:
    return 2 * tp / (2 * tp + fp + fn) if tp + fp + fn else 1.0


def workload_line(quest, workload, name: str, seed: int, count=None) -> str:
    """Inlier F1, rotation misses, per-run ok count, raises and median
    rotation error over the first `count` (default all) RANSAC inputs of
    one workload and seed, checked as the benchmark checks them."""
    _, inputs = workload.build_inputs(quest, name, seed, seed)
    inputs = inputs[:count]
    runner = workload.Runner(quest)
    outs = [runner.check("ransac", item, *runner.timed("ransac", item)[2:]) for item in inputs]
    tp, fp, fn = (sum(getattr(o, f) for o in outs) for f in ("tp", "fp", "fn"))
    errs = [o.rot_err for o in outs]
    raised = sum(o.label != workload.POSE for o in outs)
    miss = sum(e >= ROT_BOUND for e in errs)
    return (f"{name} seed={seed} n={len(outs)} f1={_f1(tp, fp, fn):.4f} "
            f"rot_miss={miss} ok={sum(o.ok for o in outs)} raised={raised} "
            f"rot_median={statistics.median(errs):.4f}")


def polished(quest, points, cand, mask):
    """The rotation of a returned pose after POLISH_CALLS more
    solver._polish_pose calls on its own inlier mask."""
    M, N = quest.core._rays(points)
    R, t = quest.core.quat_to_rotation(cand.q)[None], cand.t[None]
    for _ in range(POLISH_CALLS):
        R, t = quest.solver._polish_pose(R, t, M, N, mask[None])
    return quest.core.quat_from_rotation(R[0])


def c08_line(quest, make_outlier_set, method: str, sets: int = C08_SETS) -> str:
    """Criterion 8's figures for one method; precision and recall count
    the sets that returned a pose. polished_max is the worst rotation error
    once each returned pose is polished further on its own mask (polished),
    which shows how far the returned pose is from the polish cost's
    minimum."""
    tp = fp = fn = 0
    errs, polished_errs, raised = [], [], []
    for s in range(sets):
        points, truth, pose = make_outlier_set(seed=s)
        try:
            cand, mask = quest.solver.ransac_pose(points, method, threshold=0.005,
                                                  max_iters=200, seed=s)
        except quest.errors.QuestError as e:
            raised.append(f"{s} ({type(e).__name__})")
            continue
        tp += int((mask & truth).sum())
        fp += int((mask & ~truth).sum())
        fn += int((~mask & truth).sum())
        errs.append(quest.core.rot_error(cand.q, pose.q))
        polished_errs.append(quest.core.rot_error(polished(quest, points, cand, mask), pose.q))
    median = statistics.median(errs) if errs else math.nan
    precision = tp / (tp + fp) if tp + fp else math.nan
    recall = tp / (tp + fn) if tp + fn else math.nan
    return (f"c08 {method} precision={precision:.4f} recall={recall:.4f} "
            f"rot_median={median:.4f} rot_max={max(errs, default=math.nan):.4f} "
            f"polished_max={max(polished_errs, default=math.nan):.4f} "
            f"raised={', '.join(raised) or 'none'}")


def half_turn_lines(quest, make_outlier_set, ws=HALF_TURN_W, seeds: int = HALF_TURN_SEEDS):
    """Per w, quest6 RANSAC's rotation misses and worst error on the sets
    turned by (w, 0, 0, sqrt(1 - w^2)); a run that raises is a miss at
    error 0.5. Then the total."""
    lines, misses = [], 0
    for w in ws:
        errs = []
        for s in range(seeds):
            points, _, pose = make_outlier_set(seed=s, fixed_rotation=(w, 0.0, 0.0,
                                                                       math.sqrt(1.0 - w * w)))
            try:
                cand, _ = quest.solver.ransac_pose(points, "quest6", threshold=0.005,
                                                   max_iters=200, seed=s)
                errs.append(quest.core.rot_error(cand.q, pose.q))
            except quest.errors.QuestError:
                errs.append(0.5)
        miss = sum(e >= ROT_BOUND for e in errs)
        misses += miss
        lines.append(f"half-turn w={w:.2f} misses={miss}/{seeds} worst={max(errs):.4f}")
    lines.append(f"half-turn misses={misses}/{len(ws) * seeds}")
    return lines


def pure_rotation_lines(quest, make_outlier_set, seeds: int = PURE_ROTATION_SEEDS):
    """Per pixel noise 0 and 1 and per seed, quest6 RANSAC on a camera that
    only rotates: tp, fp and fn of its inlier mask and its rotation error,
    or the error type it raised."""
    lines = []
    for sigma in (0.0, 1.0):
        for s in range(seeds):
            points, truth, pose = make_outlier_set(seed=s, sigma_px=sigma,
                                                   fixed_translation=(0.0, 0.0, 0.0))
            head = f"pure-rotation sigma={sigma:g} seed={s}"
            try:
                cand, mask = quest.solver.ransac_pose(points, "quest6", threshold=0.005,
                                                      max_iters=200, seed=s)
            except quest.errors.QuestError as e:
                lines.append(f"{head} raised={type(e).__name__}")
                continue
            lines.append(f"{head} tp={int((mask & truth).sum())} fp={int((mask & ~truth).sum())} "
                         f"fn={int((~mask & truth).sum())} "
                         f"rot_err={quest.core.rot_error(cand.q, pose.q):.2e}")
    return lines


def main(argv):
    if len(argv) > 1:
        sys.exit(__doc__)
    checkout = Path(argv[0]).resolve() if argv else ROOT
    os.environ.setdefault("OMP_NUM_THREADS", "1")
    quest, workload, make_outlier_set = load(checkout)
    print(f"library {Path(quest.__file__).parent}")
    for name in workload.WORKLOADS:
        for seed in SEEDS:
            print(workload_line(quest, workload, name, seed), flush=True)
    for method in ("quest6", "quest7"):
        print(c08_line(quest, make_outlier_set, method), flush=True)
    for line in half_turn_lines(quest, make_outlier_set):
        print(line, flush=True)
    for line in pure_rotation_lines(quest, make_outlier_set):
        print(line, flush=True)


if __name__ == "__main__":
    main(sys.argv[1:])
