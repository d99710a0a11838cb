"""Workloads, outcome checks and the closed loop that runs them.

A workload is one scene geometry. Every run of it sends three kinds of
operation through the public entry points, one call at a time (a closed
loop with a single caller):

- minimal solves on 8-point scenes with pixel noise cycling through
  SIGMAS_PX: quest6 on the first 6 points, quest7 on the first 7 and the
  8-point method (eight_point + decompose_essential) on all 8;
- ransac_pose(quest6) on 30-point scenes with 20% uniform outliers and
  1 px noise.

Both kinds run in every workload so that every end-to-end metric exists
on every workload; their time shares are fixed (RANSAC_SHARE), so a
faster layer shows as more operations per run, not as a different mix.
Every distinct input a run reaches is checked and counted; the lists are
long enough that today's code never exhausts them within a minute. If a
faster version does, the loop cycles and the repeats only add timing
samples, and their outcomes must equal the first ones.
"""

from __future__ import annotations

import sys
import time
import traceback
from dataclasses import dataclass

import numpy as np

from scenes import Scene, make_scene, rot_error

#: Workload names; each is also the geometry of its scenes. The index
#: seeds the input streams.
WORKLOADS = ("general", "coplanar")

SIGMAS_PX = (0.0, 1.0, 2.0, 4.0)
METHODS = {"quest6": 6, "quest7": 7, "eightpt": 8}
MINIMAL_INPUTS = 3000
RANSAC_INPUTS = 200
# Every run reaches at least this many minimal scenes and RANSAC runs, so
# the tail percentiles below keep ten or more samples beyond them.
MIN_MINIMAL_SCENES = 300
MIN_RANSAC_RUNS = 40
RANSAC_POINTS = 30
RANSAC_OUTLIER_FRACTION = 0.2
RANSAC_SIGMA_PX = 1.0
RANSAC_ARGS = {"method": "quest6", "threshold": 0.005, "max_iters": 200}
# Share of the loop's wall time given to RANSAC; minimal solves get the rest.
RANSAC_SHARE = 0.6

# A returned pose is right when its closest candidate is within 0.1 * pi
# (18 degrees) of the truth: past that it is no better than a coarse guess.
ROT_BOUND = 0.1
# The per-run form of acceptance criterion 8.
RANSAC_ROT_BOUND = 0.01
RANSAC_MIN_PRECISION = 0.95
RANSAC_MIN_RECALL = 0.95
# Rotation error charged to a call that raised, as quest.bench does.
FAILURE_SCORE = 0.5
POSE = "pose"


def expected_outcome(method: str, geometry: str, sigma_px: float) -> str:
    """The right outcome of one minimal solve: POSE, or the name of the
    error the solver must raise.

    Exactly coplanar points (sigma 0) are a critical surface: quest7's
    elimination block loses rank and the 8-point design matrix drops
    below rank 8. quest6 must still solve them, which is the paper's
    claim. With noise, every method must return a pose."""
    if geometry == "coplanar" and sigma_px == 0.0:
        if method == "quest7":
            return "CriticalSurfaceError"
        if method == "eightpt":
            return "DegenerateConfigurationError"
    return POSE


@dataclass(frozen=True)
class Item:
    scene: Scene
    points: list
    ransac_seed: int = 0


@dataclass(frozen=True)
class Outcome:
    """Checked result of one operation. label names what happened (a
    returned pose or the error type) and is compared across repeats."""

    ok: bool
    rot_err: float
    label: str
    malformed: bool = False
    tp: int = 0
    fp: int = 0
    fn: int = 0


@dataclass(frozen=True)
class Op:
    kind: str  # "quest6", "quest7", "eightpt" or "ransac"
    index: int


@dataclass(frozen=True)
class Run:
    """One executed operation: start time, wall seconds and checked outcome."""

    op: Op
    start: float
    seconds: float
    outcome: Outcome


def build_inputs(quest, workload: str, seed: int, ransac_seed: int):
    """All inputs of one run, generated before any timing starts."""
    geometry = workload
    wid = WORKLOADS.index(workload)
    ss_minimal, ss_ransac = np.random.SeedSequence([seed, wid]).spawn(2)
    ransac_seeds = np.random.SeedSequence([ransac_seed, wid]).generate_state(RANSAC_INPUTS)
    corr = quest.core.Correspondence

    def item(rng, n_points, sigma, outliers, rseed=0):
        s = make_scene(rng, n_points, geometry, sigma, outliers)
        return Item(s, [corr(a, b) for a, b in zip(s.m, s.n)], int(rseed))

    rng = np.random.default_rng(ss_minimal)
    minimal = [item(rng, 8, SIGMAS_PX[i % len(SIGMAS_PX)], 0.0) for i in range(MINIMAL_INPUTS)]
    rng = np.random.default_rng(ss_ransac)
    ransac = [
        item(rng, RANSAC_POINTS, RANSAC_SIGMA_PX, RANSAC_OUTLIER_FRACTION, ransac_seeds[i])
        for i in range(RANSAC_INPUTS)
    ]
    return minimal, ransac


class Runner:
    """Calls the library through module attributes, so a traced run's
    rebinding of those attributes takes effect, and checks each result."""

    def __init__(self, quest):
        self.solver = quest.solver
        self.baseline = quest.baseline
        self.quest_error = quest.errors.QuestError
        self.crashes = 0

    def call(self, kind: str, item: Item):
        pts = item.points
        if kind == "ransac":
            return self.solver.ransac_pose(pts, seed=item.ransac_seed, **RANSAC_ARGS)
        if kind == "eightpt":
            return [self.baseline.decompose_essential(self.baseline.eight_point(pts), pts)]
        return self.solver.estimate_pose(pts[: METHODS[kind]], kind)

    def timed(self, kind: str, item: Item):
        """Run one operation; returns (start, seconds, result, error)."""
        t0 = time.perf_counter()
        try:
            result, error = self.call(kind, item), None
        except self.quest_error as e:
            result, error = None, e
        except Exception as e:  # an untyped crash is a wrong outcome, not the end of the run
            result, error = None, e
            self.crashes += 1
            if self.crashes == 1:
                traceback.print_exc(file=sys.stderr)
        return t0, time.perf_counter() - t0, result, error

    def check(self, kind: str, item: Item, result, error) -> Outcome:
        if kind == "ransac":
            return self._check_ransac(item, result, error)
        scene = item.scene
        want = expected_outcome(kind, scene.geometry, scene.sigma_px)
        if error is not None:
            name = type(error).__name__
            typed = isinstance(error, self.quest_error)
            return Outcome(typed and name == want, FAILURE_SCORE, name, malformed=not typed)
        if not result or not all(_unit_quaternion(c.q) for c in result):
            return Outcome(False, FAILURE_SCORE, POSE, malformed=True)
        err = min(rot_error(c.q.as_array(), scene.q_true) for c in result)
        return Outcome(want == POSE and err < ROT_BOUND, err, POSE)

    def _check_ransac(self, item: Item, result, error) -> Outcome:
        truth = item.scene.inlier
        n_in = int(truth.sum())
        if error is not None:
            typed = isinstance(error, self.quest_error)
            return Outcome(False, FAILURE_SCORE, type(error).__name__, malformed=not typed, fn=n_in)
        cand, mask = result
        mask = np.asarray(mask)
        if mask.dtype != bool or mask.shape != truth.shape or not _unit_quaternion(cand.q):
            return Outcome(False, FAILURE_SCORE, POSE, malformed=True, fn=n_in)
        tp = int(np.sum(mask & truth))
        fp = int(np.sum(mask & ~truth))
        fn = int(np.sum(~mask & truth))
        err = rot_error(cand.q.as_array(), item.scene.q_true)
        precision = tp / (tp + fp) if tp + fp else 0.0
        recall = tp / (tp + fn) if tp + fn else 0.0
        ok = (precision >= RANSAC_MIN_PRECISION and recall >= RANSAC_MIN_RECALL
              and err < RANSAC_ROT_BOUND)
        return Outcome(ok, err, POSE, tp=tp, fp=fp, fn=fn)


def _unit_quaternion(q) -> bool:
    a = q.as_array()
    return bool(np.all(np.isfinite(a))) and abs(float(np.linalg.norm(a)) - 1.0) < 1e-6


def schedule(minimal, ransac, seconds: float, minimums: bool):
    """Yield operations in closed-loop order until `seconds` of their wall
    time have passed (and, if asked, MIN_MINIMAL_SCENES and MIN_RANSAC_RUNS
    have run).

    The caller sends back each operation's seconds. RANSAC runs whenever its
    share of the elapsed operation time is below RANSAC_SHARE; otherwise the
    next minimal scene runs with all three methods. A minimal scene comes
    first, so even the shortest run has one solve of each method."""
    spent = {"minimal": 0.0, "ransac": 0.0}
    i_min = i_ran = 0
    while True:
        total = spent["minimal"] + spent["ransac"]
        enough = i_min >= MIN_MINIMAL_SCENES and i_ran >= MIN_RANSAC_RUNS
        if total >= seconds and (enough or not minimums):
            return
        if spent["ransac"] < RANSAC_SHARE * total:
            spent["ransac"] += yield Op("ransac", i_ran % len(ransac))
            i_ran += 1
        else:
            for kind in METHODS:
                spent["minimal"] += yield Op(kind, i_min % len(minimal))
            i_min += 1


def drive(ops, step):
    """Run step(op) -> seconds for each op of a fixed list, or of a
    schedule() generator, which is sent each op's seconds."""
    if isinstance(ops, list):
        for op in ops:
            step(op)
        return
    op = next(ops, None)
    while op is not None:
        try:
            op = ops.send(step(op))
        except StopIteration:
            op = None


def run_ops(runner: Runner, minimal, ransac, ops, tracer=None, clock=None):
    """Run ops (a list or a schedule) one at a time, each inside an op span
    when traced, sampling the reference clock between them when given.
    Returns the list of Run."""
    done = []

    def step(op):
        item = ransac[op.index] if op.kind == "ransac" else minimal[op.index]
        if tracer is not None:
            tracer.begin_op(op.kind)
        start, dt, result, error = runner.timed(op.kind, item)
        if tracer is not None:
            tracer.end_op()
        done.append(Run(op, start, dt, runner.check(op.kind, item, result, error)))
        if clock is not None:
            clock.maybe_sample()
        return dt

    drive(ops, step)
    return done


def first_pass(done):
    """Outcomes of the first run of each input, and whether every repeat
    reproduced its first outcome."""
    first = {}
    consistent = True
    for run in done:
        key = (run.op.kind, run.op.index)
        out = run.outcome
        if key not in first:
            first[key] = out
        elif (first[key].ok, first[key].label) != (out.ok, out.label):
            consistent = False
    return first, consistent


def percentile_with_tail(values, q):
    """(value at percentile q, samples beyond it)."""
    values = np.asarray(values, dtype=float)
    value = float(np.percentile(values, q))
    return value, int(np.sum(values > value))


# Tail percentiles: the highest round percentile that keeps at least ten
# samples beyond it at the minimum sample counts a run guarantees.
TAIL_PCT = {"minimal": 95.0, "ransac": 75.0}


def end_to_end(done, scale):
    """End-to-end metrics of an untraced run, {name: (value, unit, note)},
    and unbounded figures printed for information in the same form.

    Timings are wall seconds times the reference clock's per-operation
    scale; the raw wall-clock medians go to the information figures."""
    first, _ = first_pass(done)
    out, info = {}, {}

    def timings(kind):
        raw = np.array([r.seconds for r in done if r.op.kind == kind])
        scaled = np.array([r.seconds * f for r, f in zip(done, scale) if r.op.kind == kind])
        return raw, scaled

    for method in METHODS:
        raw, times = timings(method)
        outs = [o for (k, _), o in first.items() if k == method]
        tail, beyond = percentile_with_tail(times, TAIL_PCT["minimal"])
        n = len(times)
        out[f"{method}.solve_p50_ms"] = (1e3 * float(np.median(times)), "ms", f"n={n}")
        out[f"{method}.solve_tail_ms"] = (
            1e3 * tail, "ms", f"p{TAIL_PCT['minimal']:g}, n={n}, {beyond} beyond")
        info[f"{method}.wall_p50_ms"] = (1e3 * float(np.median(raw)), "ms", f"n={n}, unscaled")
        ok = sum(o.ok for o in outs)
        out[f"{method}.ok_rate"] = (ok / len(outs), "ratio", f"{ok}/{len(outs)}")
        median = (float(np.median([o.rot_err for o in outs])), "pi_rad", f"n={len(outs)}")
        (out if method == "quest6" else info)[f"{method}.rot_err_median"] = median
    raw, times = timings("ransac")
    ran = [o for (k, _), o in first.items() if k == "ransac"]
    tail, beyond = percentile_with_tail(times, TAIL_PCT["ransac"])
    out["ransac.run_p50_s"] = (float(np.median(times)), "s", f"n={len(times)}")
    out["ransac.run_tail_s"] = (tail, "s", f"p{TAIL_PCT['ransac']:g}, n={len(times)}, {beyond} beyond")
    info["ransac.wall_p50_s"] = (float(np.median(raw)), "s", f"n={len(raw)}, unscaled")
    tp = sum(o.tp for o in ran)
    fp = sum(o.fp for o in ran)
    fn = sum(o.fn for o in ran)
    out["ransac.inlier_f1"] = (2 * tp / (2 * tp + fp + fn), "ratio", f"tp={tp} fp={fp} fn={fn}")
    info["ransac.rot_err_median"] = (
        float(np.median([o.rot_err for o in ran])), "pi_rad", f"n={len(ran)}")
    ok = sum(o.ok for o in ran)
    info["ransac.ok_rate"] = (ok / len(ran), "ratio", f"{ok}/{len(ran)}")
    failed = sum(not o.ok for o in first.values())
    out["fail_rate"] = (failed / len(first), "ratio", f"{failed}/{len(first)}")
    return out, info


def failure_table(first, minimal, ransac):
    """Wrong outcomes per (method, sigma), with what happened instead."""
    rows = {}
    for (kind, idx), o in first.items():
        if kind == "ransac":
            key = ("ransac", RANSAC_SIGMA_PX)
            why = o.label if o.label != POSE else (
                "rot_err" if o.rot_err >= RANSAC_ROT_BOUND else "inlier mask")
        else:
            key = (kind, minimal[idx].scene.sigma_px)
            why = o.label if o.label != POSE else "rot_err"
        row = rows.setdefault(key, {"n": 0})
        row["n"] += 1
        if not o.ok:
            row[why] = row.get(why, 0) + 1
    return {f"{k}@{s:g}px": v for (k, s), v in sorted(rows.items())}
