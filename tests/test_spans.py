"""The benchmark's --trace 1 wraps library functions by module attribute
(perfbench/spans.py). These tests fail when a refactor renames one of those
attributes or calls a layer in a way the rebinding cannot see."""

import importlib.util
from pathlib import Path

import quest
from conftest import make_outlier_set
from quest import baseline, solver

_SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", _SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_trace_targets_exist_and_record_every_layer(monkeypatch):
    spans = _load_spans()
    for module_name, attr, _, _ in spans.TARGETS:
        assert hasattr(getattr(quest, module_name), attr), f"quest.{module_name}.{attr}"

    exact = list(quest.generate_scene(quest.SceneConfig(n_points=12, rng_seed=5)).correspondences)
    originals = {attr: getattr(getattr(quest, m), attr) for m, attr, _, _ in spans.TARGETS}
    tracer = spans.Tracer()
    roots = {}
    with tracer.installed(quest):
        for method, n in (("quest6", 6), ("quest7", 7)):
            roots[method] = len(tracer.spans)
            solver.estimate_pose(exact[:n], method)
        baseline.decompose_essential(baseline.eight_point(exact[:8]), exact[:8])
        solver.estimate_pose(exact[:8], "eightpt")
        tracer.begin_op("ransac")
        ransac_root = len(tracer.spans) - 1
        solver.ransac_pose(exact, "quest6", max_iters=3, seed=0)
        tracer.end_op()
        blocks = []
        block = solver._block_candidates
        monkeypatch.setattr(solver, "_block_candidates",
                            lambda M, N, idx, method: blocks.append(len(idx)) or block(M, N, idx, method))
        tracer.begin_op("ransac")
        outlier_root = len(tracer.spans) - 1
        solver.ransac_pose(make_outlier_set(seed=1)[0], "quest6", seed=1)
        tracer.end_op()
    # every minimal-solve layer runs under its own name in both solvers
    for method, root in roots.items():
        assert tracer.spans[root][spans.NAME] == "solver.estimate_pose"
        under = {s[spans.NAME] for s in tracer.spans if s[spans.ROOT] == root}
        for name in ("solver.pinv", "solver.eig", "solver.extract", "solver.score",
                     "solver.translate"):
            assert name in under, (method, name)
        # one coefficient build per frame, and these exact scenes need no gauge frame
        builds = [s for s in tracer.spans
                  if s[spans.ROOT] == root and s[spans.NAME] == "coeffs.build_A"]
        assert len(builds) == 1, method
    # the block-evaluated RANSAC samples reach every minimal-solve layer by
    # module attribute too
    under = {s[spans.NAME] for s in tracer.spans if s[spans.ROOT] == ransac_root}
    for name in ("solver.pinv", "solver.eig", "solver.extract", "solver.score",
                 "solver.translate"):
        assert name in under, ("ransac", name)
    # with outliers: polish runs, and every block reaches solver.translate
    names = [s[spans.NAME] for s in tracer.spans if s[spans.ROOT] == outlier_root]
    assert "ransac.polish" in names
    assert len(blocks) > 1 and names.count("solver.translate") >= len(blocks)
    recorded = {s[spans.NAME] for s in tracer.spans}
    for name in ("coeffs.build_A", "solver.rotations", "solver.pinv", "solver.eig",
                 "solver.extract", "solver.score", "solver.translate", "ransac.polish",
                 "ransac.angular_errors", "baseline.eight_point",
                 "baseline.decompose_essential"):
        assert name in recorded, name
    # the eightpt dispatch reaches the baseline through its module attributes
    eight = [s for s in tracer.spans if s[spans.NAME] == "baseline.eight_point"]
    assert any(tracer.spans[s[spans.PARENT]][spans.NAME] == "solver.estimate_pose" for s in eight)
    for m, attr, _, _ in spans.TARGETS:
        assert getattr(getattr(quest, m), attr) is originals[attr]
