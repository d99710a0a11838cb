"""Print one SHA-256 per group of solver outputs, so that two versions of
the library can be checked for bit-identical results with one diff.

    PYTHONPATH=src python tests/digest_outputs.py > new.txt
    PYTHONPATH=/path/to/other/checkout/src python tests/digest_outputs.py > old.txt
    diff old.txt new.txt

The groups are the benchmark's inputs (perfbench/workload.py build_inputs,
imported as it stands) per workload and seeds 1 and 7: estimate_pose on
the first 1,500 minimal inputs under quest6, quest7 and eightpt, and
ransac_pose on the first 100 RANSAC inputs; then ransac_pose under
quest6 and quest7 on the 20 outlier sets of acceptance criterion 8; then
the half-turn groups, scenes turned by (w, 0, 0, sqrt(1 - w^2)) for each
w of HALF_TURN_W, where estimate_pose takes its gauge frames: per w,
method and pixel noise 0 or 1, estimate_pose on make_outlier_set(seed=s,
n=k + 4, outlier_fraction=0) for s = 0..59, on all points and on the
first k (the method's minimal count); and per w and method, ransac_pose
on make_outlier_set(seed=s) for s = 0..11; then the pure-rotation
groups, a camera that only rotates: per method and pixel noise 0 or 1,
ransac_pose on make_outlier_set(seed=s, sigma_px=sigma,
fixed_translation=(0, 0, 0)) for s = 0..3.
Each output is hashed as the float.hex of every candidate field (and the
inlier mask), or as the error type and message when the call raised.
"""

from __future__ import annotations

import hashlib
import math
import sys
from pathlib import Path

from conftest import make_outlier_set
from ransac_accuracy import HALF_TURN_W

import quest
from quest.errors import QuestError

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import workload  # noqa: E402

_FIELDS = ("algebraic_residual", "t", "depths_u", "depths_v", "chirality_ok", "scale_note",
           "t_depth_ratio", "ambiguous_depths")


def _text(value) -> str:
    if value is None or isinstance(value, (bool, str)):
        return repr(value)
    if isinstance(value, float):
        return value.hex()
    return " ".join(float(v).hex() for v in value)


def _candidate(c) -> str:
    q = _text((c.q.w, c.q.x, c.q.y, c.q.z))
    return ";".join([q] + [_text(getattr(c, f)) for f in _FIELDS])


def _outcome(call) -> str:
    """The hashed text of one call's result: its candidates, or a
    (candidate, mask) pair, or the error it raised."""
    try:
        result = call()
    except QuestError as e:
        return f"{type(e).__name__}: {e}"
    if isinstance(result, tuple):
        cand, mask = result
        return _candidate(cand) + "|" + "".join("1" if keep else "0" for keep in mask)
    return "|".join(map(_candidate, result))


def _digest(calls):
    h = hashlib.sha256()
    n = 0
    for call in calls:
        h.update(_outcome(call).encode() + b"\n")
        n += 1
    return n, h.hexdigest()


def digests(workloads=workload.WORKLOADS, seeds=(1, 7), minimal=1500, ransac=100, c08=20,
            half_turn=60, half_turn_ransac=12, pure_rotation=4):
    """Lines "<group> n=<outputs> <sha256>", one per group."""
    lines = []
    solver = quest.solver
    for name in workloads:
        for seed in seeds:
            mins, rans = workload.build_inputs(quest, name, seed, seed)
            for method, k in workload.METHODS.items():
                pts = [item.points if method == "eightpt" else item.points[:k]
                       for item in mins[:minimal]]
                n, d = _digest(lambda p=p, m=method: solver.estimate_pose(p, m) for p in pts)
                lines.append(f"{name} seed={seed} {method} n={n} {d}")
            n, d = _digest(lambda it=it: solver.ransac_pose(it.points, seed=it.ransac_seed,
                                                            **workload.RANSAC_ARGS)
                           for it in rans[:ransac])
            lines.append(f"{name} seed={seed} ransac n={n} {d}")
    for method in ("quest6", "quest7"):
        n, d = _digest(lambda s=s, m=method: solver.ransac_pose(
            make_outlier_set(seed=s)[0], m, threshold=0.005, max_iters=200, seed=s)
            for s in range(c08))
        lines.append(f"c08 {method} n={n} {d}")
    for w in HALF_TURN_W:
        turn = (w, 0.0, 0.0, math.sqrt(1.0 - w * w))
        for method in ("quest6", "quest7"):
            k = solver.MINIMAL_POINTS[method]
            for sigma in (0.0, 1.0):
                sets = [make_outlier_set(seed=s, n=k + 4, outlier_fraction=0.0, sigma_px=sigma,
                                         fixed_rotation=turn)[0] for s in range(half_turn)]
                n, d = _digest(lambda p=p, m=method: solver.estimate_pose(p, m)
                               for pts in sets for p in (pts, pts[:k]))
                lines.append(f"half-turn w={w:.2f} {method} sigma={sigma:g} n={n} {d}")
            n, d = _digest(lambda s=s, m=method: solver.ransac_pose(
                make_outlier_set(seed=s, fixed_rotation=turn)[0], m, threshold=0.005,
                max_iters=200, seed=s) for s in range(half_turn_ransac))
            lines.append(f"half-turn w={w:.2f} {method} ransac n={n} {d}")
    for method in ("quest6", "quest7"):
        for sigma in (0.0, 1.0):
            n, d = _digest(lambda s=s, m=method, sigma=sigma: solver.ransac_pose(
                make_outlier_set(seed=s, sigma_px=sigma, fixed_translation=(0.0, 0.0, 0.0))[0], m,
                threshold=0.005, max_iters=200, seed=s) for s in range(pure_rotation))
            lines.append(f"pure-rotation {method} sigma={sigma:g} ransac n={n} {d}")
    return lines


def main():
    for line in digests():
        print(line, flush=True)


if __name__ == "__main__":
    main()
