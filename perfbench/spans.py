"""Spans around the library's layer functions, recorded from outside.

A traced run rebinds module attributes such as quest.solver.build_A to
wrappers that record a span (name, start, end, parent) and then restores
the originals. Callers inside the library look these names up in their
module's globals at call time, so the wrappers see every internal call.
The library itself is not changed. Spans are kept in memory and written
out when the run ends.

Layers (module.function -> span name):

- coeffs: solver.build_A -> coeffs.build_A
- solver: quest6_rotations / quest7_rotations -> solver.rotations,
  _pinv -> solver.pinv, _near_real_eigenvectors -> solver.eig,
  _quat_from_cubic_vector -> solver.extract, score_candidates ->
  solver.score, recover_translation_depths -> solver.translate,
  _apply_gauge -> solver.gauge, estimate_pose -> solver.estimate_pose,
  _polish_pose -> ransac.polish, _angular_errors -> ransac.angular_errors
- baseline: eight_point, decompose_essential

Each operation the benchmark sends is a root span named op.<kind>.
"""

from __future__ import annotations

import functools
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

# (module of quest, attribute, span name, whether to record len(result))
TARGETS = (
    ("solver", "build_A", "coeffs.build_A", False),
    ("solver", "quest6_rotations", "solver.rotations", True),
    ("solver", "quest7_rotations", "solver.rotations", True),
    ("solver", "_pinv", "solver.pinv", False),
    ("solver", "_near_real_eigenvectors", "solver.eig", False),
    ("solver", "_quat_from_cubic_vector", "solver.extract", False),
    ("solver", "score_candidates", "solver.score", False),
    ("solver", "recover_translation_depths", "solver.translate", False),
    ("solver", "_apply_gauge", "solver.gauge", False),
    ("solver", "estimate_pose", "solver.estimate_pose", True),
    ("solver", "_polish_pose", "ransac.polish", False),
    ("solver", "_angular_errors", "ransac.angular_errors", False),
    ("baseline", "eight_point", "baseline.eight_point", False),
    ("baseline", "decompose_essential", "baseline.decompose_essential", False),
)

# Span tuple fields.
NAME, START, END, PARENT, ROOT, OK, COUNT = range(7)


class Tracer:
    """Span recorder. Spans are tuples indexed by the fields above; a
    span's parent and root are indices into the same list (-1 for none)."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._op = None

    def _open(self, name):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        root = self._stack[0] if self._stack else idx
        self.spans.append((name, 0.0, 0.0, parent, root, True, -1))
        self._stack.append(idx)
        return idx

    def _close(self, idx, t0, t1, ok, count):
        self._stack.pop()
        _, _, _, parent, root, _, _ = self.spans[idx]
        self.spans[idx] = (self.spans[idx][NAME], t0, t1, parent, root, ok, count)

    def begin_op(self, kind):
        self._op = (self._open("op." + kind), time.perf_counter())

    def end_op(self):
        idx, t0 = self._op
        self._close(idx, t0, time.perf_counter(), True, -1)

    def _wrap(self, name, fn, count_result):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self._open(name)
            t0 = time.perf_counter()
            ok, count = False, -1
            try:
                result = fn(*args, **kwargs)
                ok = True
                if count_result:
                    count = len(result)
                return result
            finally:
                self._close(idx, t0, time.perf_counter(), ok, count)

        return wrapper

    @contextmanager
    def installed(self, quest):
        """Wrap the TARGETS for the duration of the block, then put the
        original functions back."""
        saved = []
        try:
            for module_name, attr, name, count_result in TARGETS:
                module = getattr(quest, module_name)
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, self._wrap(name, original, count_result))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def self_times(self):
        """Duration minus the part covered by direct children, per span."""
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s[PARENT] >= 0:
                child[s[PARENT]] += s[END] - s[START]
        return [s[END] - s[START] - c for s, c in zip(self.spans, child)]

    def counts(self):
        """Everything a traced run counts: calls per span name and root kind,
        raises, and candidate totals. Two runs of one seed must agree."""
        c = Counter()
        for s in self.spans:
            root = self.spans[s[ROOT]][NAME]
            c[(s[NAME], root, "calls")] += 1
            if not s[OK]:
                c[(s[NAME], root, "raised")] += 1
            if s[COUNT] >= 0:
                c[(s[NAME], root, "items")] += s[COUNT]
        return c

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("index,name,start_s,end_s,parent,root,ok,count\n")
            base = self.spans[0][START] if self.spans else 0.0
            for i, s in enumerate(self.spans):
                fh.write(f"{i},{s[NAME]},{s[START] - base:.9f},{s[END] - base:.9f},"
                         f"{s[PARENT]},{s[ROOT]},{int(s[OK])},{s[COUNT]}\n")


def layer_metrics(tracer: Tracer):
    """Per-layer metrics of one traced pass: {name: (value, unit)}.

    "solve" means a minimal quest6/quest7 solve the benchmark sent
    (op.quest6 / op.quest7 roots); RANSAC figures are per run (op.ransac
    roots) and shares are of the RANSAC runs' wall time. build_A's share is
    of all operations' wall time."""
    spans = tracer.spans
    selfs = tracer.self_times()
    dur = [s[END] - s[START] for s in spans]
    root_kind = [spans[s[ROOT]][NAME] for s in spans]
    quest_roots = ("op.quest6", "op.quest7")

    def total(values, name=None, roots=None, where=None):
        return sum(v for i, (s, v) in enumerate(zip(spans, values))
                   if (name is None or s[NAME] == name)
                   and (roots is None or root_kind[i] in roots)
                   and (where is None or where(i)))

    def calls(name, roots=None):
        return sum(1 for i, s in enumerate(spans)
                   if s[NAME] == name and (roots is None or root_kind[i] in roots))

    def per(num, den):
        return num / den if den else 0.0

    def under(i, name):
        p = spans[i][PARENT]
        while p >= 0:
            if spans[p][NAME] == name:
                return True
            p = spans[p][PARENT]
        return False

    ops = [i for i, s in enumerate(spans) if s[PARENT] < 0]
    op_time = sum(dur[i] for i in ops)
    solves = sum(1 for i in ops if spans[i][NAME] in quest_roots)
    runs = [i for i in ops if spans[i][NAME] == "op.ransac"]
    ransac_time = sum(dur[i] for i in runs)
    in_ransac = ("op.ransac",)
    est_in_ransac = [i for i, s in enumerate(spans)
                     if s[NAME] == "solver.estimate_pose" and root_kind[i] == "op.ransac"]
    ms = 1e3
    m = {
        "coeffs.build_A.ms_per_call": (ms * per(total(dur, "coeffs.build_A"), calls("coeffs.build_A")), "ms"),
        "coeffs.build_A.share": (per(total(selfs, "coeffs.build_A"), op_time), "ratio"),
        "coeffs.build_A.calls_per_solve": (per(calls("coeffs.build_A", quest_roots), solves), "count"),
        "solver.gauge.retries_per_solve": (per(calls("solver.gauge", quest_roots), solves), "count"),
        "solver.rotations.self_ms": (ms * per(total(selfs, "solver.rotations"), calls("solver.rotations")), "ms"),
        "solver.pinv.ms_per_call": (ms * per(total(dur, "solver.pinv"), calls("solver.pinv")), "ms"),
        "solver.eig.ms_per_call": (ms * per(total(dur, "solver.eig"), calls("solver.eig")), "ms"),
        "solver.extract.ms_per_solve": (ms * per(total(dur, "solver.extract", quest_roots), solves), "ms"),
        "solver.score.ms_per_call": (ms * per(total(dur, "solver.score"), calls("solver.score")), "ms"),
        "solver.translate.ms_per_call": (ms * per(total(dur, "solver.translate"), calls("solver.translate")), "ms"),
        "solver.translate.calls_per_solve": (per(calls("solver.translate", quest_roots), solves), "count"),
        "solver.estimate_pose.self_ms": (
            ms * per(total(selfs, "solver.estimate_pose"), calls("solver.estimate_pose")), "ms"),
        "solver.candidates.raw_per_solve": (
            per(total([max(s[COUNT], 0) for s in spans], "solver.rotations", quest_roots), solves), "count"),
        "solver.candidates.kept_per_solve": (
            per(total([max(s[COUNT], 0) for s in spans], "solver.estimate_pose", quest_roots), solves), "count"),
        "baseline.eight_point.ms_per_call": (
            ms * per(total(dur, "baseline.eight_point"), calls("baseline.eight_point")), "ms"),
        "baseline.decompose_essential.ms_per_call": (
            ms * per(total(dur, "baseline.decompose_essential"), calls("baseline.decompose_essential")), "ms"),
        "ransac.iterations_per_run": (per(len(est_in_ransac), len(runs)), "count"),
        "ransac.minimal_solve.share": (per(sum(dur[i] for i in est_in_ransac), ransac_time), "ratio"),
        "ransac.minimal_solve.fail_ratio": (
            per(sum(1 for i in est_in_ransac if not spans[i][OK]), len(est_in_ransac)), "ratio"),
        "ransac.polish.calls_per_run": (per(calls("ransac.polish", in_ransac), len(runs)), "count"),
        "ransac.polish.share": (per(total(dur, "ransac.polish", in_ransac), ransac_time), "ratio"),
        "ransac.angular_errors.calls_per_run": (
            per(calls("ransac.angular_errors", in_ransac), len(runs)), "count"),
        "ransac.consensus.share": (per(total(
            dur, "ransac.angular_errors", in_ransac, lambda i: not under(i, "ransac.polish")),
            ransac_time), "ratio"),
        "ransac.self.share": (per(sum(selfs[i] for i in runs), ransac_time), "ratio"),
    }
    return m


def quest6_coverage(tracer: Tracer):
    """Sum of the layer self times inside quest6 solves over those solves'
    wall time as the benchmark measured it (op.quest6 spans)."""
    spans = tracer.spans
    selfs = tracer.self_times()
    layers = sum(v for s, v in zip(spans, selfs)
                 if s[PARENT] >= 0 and spans[s[ROOT]][NAME] == "op.quest6")
    solve = sum(s[END] - s[START] for s in spans if s[NAME] == "op.quest6")
    return layers / solve if solve else 0.0


def by_name(tracer: Tracer):
    """Calls, total and self seconds per span name, for the written report."""
    selfs = tracer.self_times()
    agg = defaultdict(lambda: [0, 0.0, 0.0])
    for s, v in zip(tracer.spans, selfs):
        a = agg[s[NAME]]
        a[0] += 1
        a[1] += s[END] - s[START]
        a[2] += v
    return {k: {"calls": a[0], "total_s": a[1], "self_s": a[2]} for k, a in sorted(agg.items())}
