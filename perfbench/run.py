#!/usr/bin/env python3
"""Benchmark of the quest pose library: minimal solves and RANSAC.

Run from the root of a checkout that holds src/quest:

    python3 perfbench/run.py --workload general --seed 1 --seconds 50 --trace 0

--trace 0 measures the end-to-end metrics with no tracing. --trace 1
replays an operation sequence three times, once plain and twice with
spans around the layer functions, and reports per-layer metrics, the
tracing overhead and a check that both traced passes counted the same
work. The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics; the lines before it print every
metric with its unit and sample count, the environment, and the wrong
outcomes per method and noise level. failed counts the calls that broke
(an exception that is not a QuestError, or a malformed result); outcomes
that are well formed but wrong are the algorithms' accuracy and go into
fail_rate and the ok_rate metrics. The full report and, for traced
runs, the spans are written under perfbench/out/.

--seed generates the scenes; --ransac-seed (default: --seed) seeds
ransac_pose's own sampling, so a claim can be checked on held-out scenes
and on held-out RANSAC draws separately.
"""

import os

# The launcher fixes the BLAS thread count before numpy loads; one thread
# is at or below any machine's core count and keeps timings repeatable.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import workload as wl  # noqa: E402
from clock import NOMINAL_S, ReferenceClock  # noqa: E402
from scenes import make_scene  # noqa: E402
from spans import Tracer, by_name, layer_metrics, quest6_coverage  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"
SETUP_REPEATS = 9
SETUP_TIMEOUT_S = 60
# The traced mode schedules this share of --seconds of plain operation
# time; each operation runs plain, traced, and traced once more.
TRACE_PLAIN_SHARE = 0.3
# Layer self times inside quest6 solves must add up to the solve time.
COVERAGE_TOLERANCE = 0.05

# Set-up as a user pays it: import quest, then the first call of each
# entry point on one small exact scene (the same for every seed).
_SETUP_CHILD = r"""
import json, sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import quest
from quest import baseline, solver
t_import = time.perf_counter() - t0
pts = [quest.Correspondence(m, n) for m, n in json.loads(sys.argv[2])]
t0 = time.perf_counter()
solver.estimate_pose(pts[:6], "quest6")
solver.estimate_pose(pts[:7], "quest7")
baseline.decompose_essential(baseline.eight_point(pts), pts)
solver.ransac_pose(pts, "quest6", threshold=0.005, max_iters=200, seed=0)
print(t_import + time.perf_counter() - t0)
"""


def fail(message, code=2):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def load_quest():
    if not (SRC / "quest" / "__init__.py").is_file():
        fail(f"no quest package under {SRC.relative_to(ROOT)}/; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import quest

    if Path(quest.__file__).resolve().parent != (SRC / "quest").resolve():
        fail(f"imported quest from {quest.__file__}, not from the checkout")
    return quest


def setup_input():
    s = make_scene(np.random.default_rng(12345), 8, "general", 0.0)
    return [[m.tolist(), n.tolist()] for m, n in zip(s.m, s.n)]


def measure_setup(clock):
    """Median of SETUP_REPEATS fresh-process set-ups in seconds, each scaled
    by the reference kernel's speed just before and after it (see clock.py);
    also returns the unscaled times."""
    arg = json.dumps(setup_input())
    scaled, raw = [], []
    for _ in range(SETUP_REPEATS):
        before = clock.reference_seconds()
        proc = subprocess.run(
            [sys.executable, "-c", _SETUP_CHILD, str(SRC), arg],
            capture_output=True, text=True, timeout=SETUP_TIMEOUT_S, cwd=ROOT,
        )
        if proc.returncode != 0:
            fail(f"set-up child failed:\n{proc.stderr}")
        raw.append(float(proc.stdout.strip().splitlines()[-1]))
        scaled.append(raw[-1] * NOMINAL_S / (0.5 * (before + clock.reference_seconds())))
    return statistics.median(scaled), raw


def warm_up(quest, runner):
    """One untimed call of each entry point, so lazy set-up in this process
    does not land in the first timed sample."""
    pts = [quest.Correspondence(m, n) for m, n in setup_input()]
    item = wl.Item(None, pts, 0)
    for kind in (*wl.METHODS, "ransac"):
        runner.call(kind, item)


def environment():
    env = {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": BLAS_THREADS,
        "machine": platform.machine(),
    }
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]
        for lib in ("blas", "lapack"):
            env[lib] = f"{deps[lib].get('name')} {deps[lib].get('version')}"
    except (TypeError, KeyError):
        env["blas"] = env["lapack"] = "unknown"
    if BLAS_THREADS > env["nproc"]:
        fail(f"BLAS threads {BLAS_THREADS} exceed nproc {env['nproc']}")
    return env


def outcome_counts(done):
    """First outcomes, whether repeats reproduced them, and the counts of
    inputs checked, wrong outcomes and broken calls (malformed results)."""
    first, consistent = wl.first_pass(done)
    attempted = len(first)
    wrong = sum(not o.ok for o in first.values())
    broken = sum(o.malformed for o in first.values())
    return first, consistent, attempted, wrong, broken


def run_plain(quest, args, minimal, ransac):
    runner = wl.Runner(quest)
    warm_up(quest, runner)
    clock = ReferenceClock()
    t0 = time.perf_counter()
    done = wl.run_ops(runner, minimal, ransac,
                      wl.schedule(minimal, ransac, args.seconds, minimums=True), clock=clock)
    wall = time.perf_counter() - t0
    first, consistent, attempted, wrong, broken = outcome_counts(done)
    scale = clock.scale([r.start for r in done], [r.seconds for r in done])
    metrics, info = wl.end_to_end(done, scale)
    info["reference_scale_median"] = (float(np.median(scale)), "ratio", "nominal / measured")
    setup_s, setup_raw = measure_setup(clock)
    metrics["setup_s"] = (setup_s, "s", f"median of {SETUP_REPEATS}, scaled")
    info["setup_wall_s"] = (statistics.median(setup_raw), "s", "unscaled: " + ", ".join(
        f"{t:.4f}" for t in setup_raw))
    metrics["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB", "ru_maxrss")
    correct = consistent and broken == 0 and runner.crashes == 0
    extra = {
        "wall_s": wall,
        "ops": len(done),
        "repeats_consistent": consistent,
        "wrong": wrong,
        "crashes": runner.crashes,
        "wrong_outcomes": wl.failure_table(first, minimal, ransac),
        "info": info,
    }
    return correct, attempted, wrong, broken, metrics, extra


def paired_pass(quest, runner, minimal, ransac, seconds):
    """Schedule operations for `seconds` of plain time and run each one
    twice back to back, plain and traced, in alternating order, so both
    timings see the same machine state. Returns (tracer, the plain Runs,
    the traced outcomes, traced seconds)."""
    tracer = Tracer()
    plain, traced = [], []
    traced_wall = 0.0

    def step(op):
        nonlocal traced_wall
        item = ransac[op.index] if op.kind == "ransac" else minimal[op.index]
        for with_spans in (False, True) if len(plain) % 2 == 0 else (True, False):
            if with_spans:
                with tracer.installed(quest):
                    tracer.begin_op(op.kind)
                    _, dt, result, error = runner.timed(op.kind, item)
                    tracer.end_op()
                traced_wall += dt
                traced.append(runner.check(op.kind, item, result, error))
            else:
                start, plain_dt, result, error = runner.timed(op.kind, item)
                plain.append(wl.Run(op, start, plain_dt, runner.check(op.kind, item, result, error)))
        return plain_dt

    wl.drive(wl.schedule(minimal, ransac, seconds, minimums=False), step)
    return tracer, plain, traced, traced_wall


def run_traced(quest, args, minimal, ransac):
    runner = wl.Runner(quest)
    warm_up(quest, runner)
    tracer, plain, traced_outcomes, traced_wall = paired_pass(
        quest, runner, minimal, ransac, TRACE_PLAIN_SHARE * args.seconds)
    plain_wall = sum(r.seconds for r in plain)
    # a second traced pass over the same operations must count the same work
    ops = [r.op for r in plain]
    tracer2 = Tracer()
    with tracer2.installed(quest):
        replayed = wl.run_ops(runner, minimal, ransac, ops, tracer2)
    counts, counts2 = tracer.counts(), tracer2.counts()
    if counts != counts2:
        diff = {str(k): (counts[k], counts2[k]) for k in set(counts) | set(counts2)
                if counts[k] != counts2[k]}
        fail(f"two traced passes over the same operations counted different work: {diff}", 3)
    labels = [(r.outcome.ok, r.outcome.label) for r in plain]
    same = (labels == [(o.ok, o.label) for o in traced_outcomes]
            and labels == [(r.outcome.ok, r.outcome.label) for r in replayed])
    coverage = quest6_coverage(tracer)
    if abs(coverage - 1.0) > COVERAGE_TOLERANCE:
        fail(f"quest6 layer self times cover {coverage:.3f} of the solve time", 3)
    metrics = {k: (v, unit, "") for k, (v, unit) in layer_metrics(tracer).items()}
    metrics["trace.overhead_ratio"] = (
        traced_wall / plain_wall, "ratio", f"{traced_wall:.3f}s / {plain_wall:.3f}s")
    metrics["trace.quest6_self_coverage"] = (coverage, "ratio", "")
    OUT.mkdir(exist_ok=True)
    spans_path = OUT / f"spans-{args.workload}.csv"
    tracer.write(spans_path)
    _, consistent, attempted, wrong, broken = outcome_counts(plain)
    correct = same and consistent and broken == 0 and runner.crashes == 0
    extra = {
        "wrong": wrong,
        "ops": len(ops),
        "spans": len(tracer.spans),
        "spans_file": str(spans_path.relative_to(ROOT)),
        "outcomes_match_untraced": same,
        "layers": by_name(tracer),
    }
    return correct, attempted, wrong, broken, metrics, extra


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--ransac-seed", type=int, default=None)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or (args.ransac_seed is not None and args.ransac_seed < 0):
        fail("seeds must be non-negative")
    if args.seconds <= 0:
        fail("--seconds must be positive")
    ransac_seed = args.seed if args.ransac_seed is None else args.ransac_seed

    quest = load_quest()
    env = environment()
    minimal, ransac = wl.build_inputs(quest, args.workload, args.seed, ransac_seed)
    run = run_traced if args.trace else run_plain
    correct, attempted, wrong, failed, metrics, extra = run(quest, args, minimal, ransac)

    print(f"env {json.dumps(env)}")
    print(f"workload {args.workload} seed {args.seed} ransac-seed {ransac_seed} "
          f"trace {args.trace}: {attempted} operations checked, {wrong} wrong outcomes, "
          f"{failed} broken calls")
    for name, (value, unit, note) in sorted(metrics.items()):
        print(f"  {name:42s} {value:12.6g} {unit:7s} {note}")
    if not args.trace:
        for name, (value, unit, note) in sorted(extra["info"].items()):
            print(f"  info {name:37s} {value:12.6g} {unit:7s} {note} (unbounded)")
        for cell, row in extra["wrong_outcomes"].items():
            print(f"  wrong {cell:18s} {row}")
    OUT.mkdir(exist_ok=True)
    report = {
        "workload": args.workload, "seed": args.seed, "ransac_seed": ransac_seed,
        "trace": args.trace, "env": env, "correct": correct, "attempted": attempted,
        "failed": failed, "metrics": {k: {"value": v, "unit": u, "note": n}
                                      for k, (v, u, n) in metrics.items()},
        **extra,
    }
    (OUT / f"report-{args.workload}-trace{args.trace}.json").write_text(
        json.dumps(report, indent=1, default=str), encoding="utf-8")
    result = {
        "correct": bool(correct),
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u, _) in sorted(metrics.items())},
    }
    print(json.dumps(result))


if __name__ == "__main__":
    main()
