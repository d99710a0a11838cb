"""Compare two checkouts' solver outputs call by call, within tolerances.

    python3 tests/compare_outputs.py PARENT CHANGE

Runs the calls of every group of tests/digest_outputs.py in each checkout,
one subprocess per checkout that imports CHECKOUT/src and builds the
inputs from this checkout's tests and perfbench, on one BLAS thread. Then
it prints one line per group: the calls compared, the calls whose outputs
differ in error type (or where only one side raised), candidate count,
q, algebraic residual, inlier mask, chirality_ok, scale_note or
ambiguous_depths, and over the calls with the same candidate count the
worst |dq|, |dt|, relative |d depth| (per depth vector, against its
largest depth; a RANSAC run whose mask moved refits other inliers, so
its depths are not compared) and relative |d t_depth_ratio|. A last "total" line
sums the counts and takes the worst of each difference.

A digest diff says only that a group moved; this says whether it moved
by rounding (zero counts, small differences) or changed (counts). A run
takes about twice as long as tests/digest_outputs.py.
"""

from __future__ import annotations

import json
import math
import os
import pickle
import subprocess
import sys
from pathlib import Path

import numpy as np

COUNTS = ("error", "count", "q", "residual", "mask", "chirality_ok", "scale_note",
          "ambiguous_depths")
WORST = ("dq", "dt", "ddepth", "dratio")


def _record(c):
    return (np.array([c.q.w, c.q.x, c.q.y, c.q.z]), c.algebraic_residual, np.asarray(c.t),
            np.asarray(c.depths_u), np.asarray(c.depths_v), c.chirality_ok, c.scale_note,
            c.t_depth_ratio, c.ambiguous_depths)


def _outcome(call, QuestError):
    """One call's result: ("raise", error type), ("ransac", candidate,
    mask) or ("pose", candidates), candidates as plain records."""
    try:
        result = call()
    except QuestError as e:
        return ("raise", type(e).__name__)
    if isinstance(result, tuple):
        cand, mask = result
        return ("ransac", [_record(cand)], np.asarray(mask))
    return ("pose", [_record(c) for c in result])


def dump(sizes: dict):
    """Every group's outcomes, [(group, [outcome, ...]), ...]."""
    import digest_outputs
    from quest.errors import QuestError
    return [(group, [_outcome(call, QuestError) for call in calls])
            for group, calls in digest_outputs.groups(**sizes)]


def run(checkout: Path, sizes: dict):
    """dump(sizes) in a subprocess that imports the library of `checkout`."""
    env = dict(os.environ, PYTHONPATH=str(Path(checkout).resolve() / "src"), OMP_NUM_THREADS="1")
    proc = subprocess.run([sys.executable, __file__, "--dump", json.dumps(sizes)], env=env,
                          capture_output=True, check=True)
    return pickle.loads(proc.stdout)


def _relative(a, b):
    scale, diff = np.abs(a).max(), np.abs(a - b).max()
    return diff / scale if scale > 0.0 else diff


def _ratio_change(a: float, b: float) -> float:
    if a == b:  # inf included
        return 0.0
    if not (math.isfinite(a) and math.isfinite(b)):
        return math.inf
    return abs(a - b) / abs(a) if a else abs(b)


def compare_group(old: list, new: list) -> dict:
    """Mismatch counts (COUNTS) and worst differences (WORST) between two
    sides' outcomes of one group."""
    out = dict.fromkeys(COUNTS, 0) | dict.fromkeys(WORST, 0.0)
    for a, b in zip(old, new, strict=True):
        if (a[0] == "raise" or b[0] == "raise") and a != b:
            out["error"] += 1
            continue
        if a[0] == "raise":
            continue
        if len(a[1]) != len(b[1]):
            out["count"] += 1
            continue
        if a[0] == "ransac" and not np.array_equal(a[2], b[2]):
            out["mask"] += 1
        flags = dict.fromkeys(("q", "residual", "chirality_ok", "scale_note", "ambiguous_depths"),
                              False)
        for (q, res, t, du, dv, ok, note, ratio, amb), (q2, res2, t2, du2, dv2, ok2, note2,
                                                        ratio2, amb2) in zip(a[1], b[1]):
            flags["q"] |= not np.array_equal(q, q2)
            flags["residual"] |= res != res2
            flags["chirality_ok"] |= ok != ok2
            flags["scale_note"] |= note != note2
            flags["ambiguous_depths"] |= amb != amb2
            out["dq"] = max(out["dq"], float(np.abs(q - q2).max()))
            out["dt"] = max(out["dt"], float(np.abs(t - t2).max()))
            if du.shape == du2.shape:  # a moved RANSAC mask (counted) refits other inliers
                out["ddepth"] = max(out["ddepth"], _relative(du, du2), _relative(dv, dv2))
            out["dratio"] = max(out["dratio"], _ratio_change(ratio, ratio2))
        for name, differs in flags.items():
            out[name] += differs
    return out


def compare(parent: Path, change: Path, **sizes) -> list:
    """One line per group, then the "total" line; `sizes` as for
    digest_outputs.groups."""
    old, new = run(parent, sizes), run(change, sizes)
    lines, total = [], dict.fromkeys(COUNTS, 0) | dict.fromkeys(WORST, 0.0)
    for (group, a), (group2, b) in zip(old, new, strict=True):
        assert group == group2
        diff = compare_group(a, b)
        for name in COUNTS:
            total[name] += diff[name]
        for name in WORST:
            total[name] = max(total[name], diff[name])
        lines.append(_line(f"{group} n={len(a)}", diff))
    lines.append(_line(f"total n={sum(len(a) for _, a in old)}", total))
    return lines


def _line(head: str, diff: dict) -> str:
    return " ".join([head] + [f"{name}={diff[name]}" for name in COUNTS]
                    + [f"{name}={diff[name]:.2g}" for name in WORST])


def main(argv):
    if argv[:1] == ["--dump"]:
        sys.stdout.buffer.write(pickle.dumps(dump(json.loads(argv[1]))))
        return
    if len(argv) != 2:
        sys.exit(__doc__)
    for line in compare(*map(Path, argv)):
        print(line, flush=True)


if __name__ == "__main__":
    main(sys.argv[1:])
