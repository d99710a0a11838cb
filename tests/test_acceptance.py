"""Acceptance suite: the release gate, one test per criterion.

Each test prints a PASS/FAIL line with its measured numbers so a failed
run identifies the violated clause directly. Heavy Monte Carlo artifacts
are shared through module-scoped fixtures.

Criterion 2 requires the 7-point coplanar elimination rank to measure 20,
the exact rank of the coplanar constraint space shown in prime-field
arithmetic by tests/test_solver.py::test_exact_rank_coplanar_20_general_31.
"""

import math
import time

import numpy as np
import pytest

from quest import baseline, bench, coeffs, core, polymat, solver
from quest.bench import SceneConfig, SyntheticCamera
from quest.core import monomial_vector
from quest.errors import CriticalSurfaceError, DegeneracyError
from conftest import make_outlier_set, random_correspondence

CAM = SyntheticCamera()


def report(criterion, passed, detail):
    print(f"ACCEPTANCE {criterion}: {'PASS' if passed else 'FAIL'} - {detail}")
    return passed


# --- shared heavy runs --------------------------------------------------------

@pytest.fixture(scope="module")
def noise_sweep():
    sigmas = [0.0, 1.0, 2.0, 4.0, 5.0, 8.0]
    records = bench.run_noise_benchmark(
        ["quest6", "quest7", "eightpt"], sigmas, 100, SceneConfig(), CAM, seed=2024
    )
    return sigmas, records


def median_errors(records, method, sigma, field):
    vals = [
        getattr(r, field)
        for r in records
        if r.method == method and r.sigma_px == sigma and not r.failed
    ]
    return float(np.median(vals)) if vals else math.nan


def spearman(xs, ys):
    xs, ys = np.asarray(xs, dtype=float), np.asarray(ys, dtype=float)
    rx = np.argsort(np.argsort(xs))
    ry = np.argsort(np.argsort(ys))
    n = len(xs)
    return 1.0 - 6.0 * float(np.sum((rx - ry) ** 2)) / (n * (n**2 - 1))


def test_c01_exact_recovery_general_scenes():
    t0 = time.perf_counter()
    hits = {"quest6": 0, "quest7": 0}
    for seed in range(100):
        scene = bench.generate_scene(SceneConfig(rng_seed=1_000 + seed))
        pts = list(scene.correspondences)
        for method in hits:
            cands = solver.estimate_pose(pts[: solver.MINIMAL_POINTS[method]], method)
            if (
                core.rot_error(cands[0].q, scene.pose.q) < 1e-6
                and core.trans_error(cands[0].t, scene.pose.t) < 1e-6
            ):
                hits[method] += 1
    elapsed = time.perf_counter() - t0
    ok = hits["quest6"] >= 99 and hits["quest7"] >= 99 and elapsed < 30.0
    assert report(
        1, ok, f"quest6 {hits['quest6']}/100, quest7 {hits['quest7']}/100, {elapsed:.1f}s"
    )


def test_c02_coplanar_capability_split():
    q6_hits = 0
    q7_raises = 0
    ranks = []
    gaps_ok = 0
    eight_errs = []
    for seed in range(50):
        scene = bench.generate_scene(
            SceneConfig(geometry="coplanar", rng_seed=2_000 + seed)
        )
        pts = list(scene.correspondences)
        cands = solver.estimate_pose(pts[:6], "quest6")
        if min(core.rot_error(c.q, scene.pose.q) for c in cands) < 1e-6:
            q6_hits += 1
        try:
            solver.quest7_rotations(coeffs.build_A(pts[:7]))
        except CriticalSurfaceError as e:
            q7_raises += 1
            ranks.append(e.measured_rank)
            if e.gap >= 1e3:
                gaps_ok += 1
        try:
            cand = baseline.decompose_essential(baseline.eight_point(pts), pts)
            eight_errs.append(core.rot_error(cand.q, scene.pose.q))
        except DegeneracyError:
            eight_errs.append(0.5)  # failure to estimate, scored as uninformed
    rank_counts = {r: ranks.count(r) for r in sorted(set(ranks))}
    eight_median = float(np.median(eight_errs))
    rank_20 = sum(1 for r in ranks if r == 20)
    ok = (
        q6_hits >= 49
        and q7_raises >= 49
        and gaps_ok >= 49
        and rank_20 >= 49
        and eight_median > 0.02
    )
    assert report(
        2,
        ok,
        f"quest6 {q6_hits}/50, quest7 raises {q7_raises}/50 (gap>=1e3 in {gaps_ok}), "
        f"measured ranks {rank_counts} (exact rank 20), "
        f"eightpt median rot {eight_median:.3f}",
    )


def test_c03_coefficient_oracle_equivalence(rng):
    worst_eval = 0.0
    worst_rem = 0.0
    for _ in range(1000):
        pts = [random_correspondence(rng) for _ in range(3)]
        M = coeffs.build_triple_matrix(*pts)
        det = polymat.poly_det(M)
        for _ in range(20):
            q = rng.normal(size=4)
            q /= np.linalg.norm(q)
            sym = polymat.poly_eval(det, q)
            num = np.linalg.det(M.eval_at(q))
            worst_eval = max(worst_eval, abs(sym - num) / max(1.0, abs(sym), abs(num)))
        _, rem = polymat.poly_div_exact(det, polymat.NORM_POLY)
        worst_rem = max(worst_rem, rem)
    ok = worst_eval < 1e-8 and worst_rem < 1e-9
    assert report(3, ok, f"worst eval rel diff {worst_eval:.2e}, worst remainder {worst_rem:.2e}")


def test_c04_null_vector_and_rank():
    worst6 = worst7 = 0.0
    ranks_ok = True
    for seed in range(25):
        scene = bench.generate_scene(SceneConfig(rng_seed=4_000 + seed))
        pts = list(scene.correspondences)
        x = monomial_vector(scene.pose.q)
        A6 = coeffs.build_A(pts[:6])
        A7 = coeffs.build_A(pts[:7])
        worst6 = max(worst6, float(np.linalg.norm(A6 @ x)))
        worst7 = max(worst7, float(np.linalg.norm(A7 @ x)))
        sv = np.linalg.svd(
            A7[:, solver.QUEST7_SPLIT[1]], compute_uv=False
        )
        if int(np.sum(sv > solver._RANK_FLOOR * sv[0])) != 31:
            ranks_ok = False
    ok = worst6 < 1e-9 and worst7 < 1e-9 and ranks_ok
    assert report(
        4, ok, f"max ||A x|| 6pt {worst6:.2e}, 7pt {worst7:.2e}, rank(A2)=31 {ranks_ok}"
    )


def test_c05_rigid_motion_closure():
    worst = 0.0
    chirality_all = True
    for seed in range(25):
        scene = bench.generate_scene(SceneConfig(rng_seed=5_000 + seed))
        pts = list(scene.correspondences)
        for method in ("quest6", "quest7"):
            best = solver.estimate_pose(pts, method)[0]
            chirality_all &= best.chirality_ok
            R = core.quat_to_rotation(best.q)
            for i, c in enumerate(pts):
                res = np.linalg.norm(best.depths_u[i] * R @ c.m + best.t - best.depths_v[i] * c.n)
                worst = max(worst, res / (abs(best.depths_u[i]) + abs(best.depths_v[i])))
    ok = worst < 1e-6 and chirality_all
    assert report(5, ok, f"max relative closure residual {worst:.2e}, all depths positive {chirality_all}")


def test_c06_noise_behavior(noise_sweep):
    sigmas, records = noise_sweep
    mono_sigmas = [0.0, 1.0, 2.0, 4.0, 8.0]
    rhos = {}
    for method in ("quest6", "quest7", "eightpt"):
        medians = [median_errors(records, method, s, "rot_error") for s in mono_sigmas]
        rhos[method] = spearman(mono_sigmas, medians)
    q6_t5 = median_errors(records, "quest6", 5.0, "trans_error")
    e8_t5 = median_errors(records, "eightpt", 5.0, "trans_error")
    ok = all(r > 0.9 for r in rhos.values()) and q6_t5 <= e8_t5
    assert report(
        6,
        ok,
        f"spearman {dict((k, round(v, 3)) for k, v in rhos.items())}, "
        f"sigma=5 trans medians quest6 {q6_t5:.3f} <= eightpt {e8_t5:.3f}",
    )


def test_c07_zero_translation_scale():
    worst_ratio = 0.0
    eight_unit = True
    for seed in range(20):
        rng = np.random.default_rng(7_000 + seed)
        d = rng.normal(size=3)
        d /= np.linalg.norm(d)
        base = bench.generate_scene(SceneConfig(rng_seed=7_000 + seed))
        mean_depth = float(np.mean(np.abs(np.concatenate([base.pose.depths_u, base.pose.depths_v]))))
        scene = bench.generate_scene(
            SceneConfig(rng_seed=7_000 + seed, fixed_translation=tuple(1e-3 * mean_depth * d))
        )
        best = solver.estimate_pose(list(scene.correspondences), "quest6")[0]
        worst_ratio = max(worst_ratio, best.t_depth_ratio)
        cand8 = baseline.decompose_essential(
            baseline.eight_point(scene.correspondences), scene.correspondences
        )
        eight_unit &= abs(np.linalg.norm(cand8.t) - 1.0) < 1e-12
    ok = worst_ratio < 1e-2 and eight_unit
    assert report(
        7, ok, f"max ||t||/mean-depth {worst_ratio:.2e} (< 1e-2), eightpt ||t||=1 {eight_unit}"
    )


def test_c08_ransac_robustness():
    tp = fp = fn = 0
    rot_errs = []
    for run in range(20):
        points, mask_true, pose = make_outlier_set(seed=run)
        cand, mask = solver.ransac_pose(points, "quest6", threshold=0.005, max_iters=200, seed=run)
        tp += int(np.sum(mask & mask_true))
        fp += int(np.sum(mask & ~mask_true))
        fn += int(np.sum(~mask & mask_true))
        rot_errs.append(core.rot_error(cand.q, pose.q))
    precision = tp / (tp + fp)
    recall = tp / (tp + fn)
    ok = precision >= 0.95 and recall >= 0.95 and max(rot_errs) < 0.01
    worst = int(np.argmax(rot_errs))
    assert report(
        8,
        ok,
        f"precision {precision:.4f}, recall {recall:.4f}, "
        f"rot_err median {np.median(rot_errs):.4f} max {max(rot_errs):.4f} "
        f"(worst outlier set {worst}, slack {0.01 - rot_errs[worst]:.4f} to the 0.01 bound)",
    )


def test_c09_timing_ordering():
    _, stats = bench.run_time_benchmark(
        ["quest6", "quest7", "eightpt"], trials=1000, cfg=SceneConfig(), cam=CAM, seed=9
    )
    e = stats["eightpt"].mean_s
    q6 = stats["quest6"].mean_s
    q7 = stats["quest7"].mean_s
    ok = e < q6 and e < q7 and q6 < 0.050
    assert report(
        9,
        ok,
        f"mean solve: eightpt {e*1e3:.2f} ms < quest6 {q6*1e3:.2f} ms, "
        f"quest7 {q7*1e3:.2f} ms; quest6 < 50 ms",
    )


def test_c10_determinism(tmp_path):
    from quest import cli

    # simulate twice
    d1, d2 = tmp_path / "s1", tmp_path / "s2"
    cli.main(["simulate", str(d1), "--seed", "42"])
    cli.main(["simulate", str(d2), "--seed", "42"])
    sim_ok = (d1 / "correspondences.txt").read_bytes() == (d2 / "correspondences.txt").read_bytes()
    sim_ok &= (d1 / "pose.txt").read_bytes() == (d2 / "pose.txt").read_bytes()

    # RANSAC estimate twice (JSON carries no runtimes)
    e1, e2 = tmp_path / "e1.json", tmp_path / "e2.json"
    cli.main(["estimate", str(d1 / "correspondences.txt"), "--ransac", "--seed", "5",
              "--output", str(e1)])
    cli.main(["estimate", str(d1 / "correspondences.txt"), "--ransac", "--seed", "5",
              "--output", str(e2)])
    est_ok = e1.read_bytes() == e2.read_bytes()

    # noise bench twice, runtime column excluded
    b1, b2 = tmp_path / "b1.csv", tmp_path / "b2.csv"
    for out in (b1, b2):
        cli.main(["bench", "noise", "--methods", "quest6,eightpt", "--sigmas", "0,1",
                  "--trials", "5", "--seed", "3", "--output", str(out)])

    def strip_runtime(path):
        rows = path.read_text().splitlines()
        return [",".join(c for i, c in enumerate(r.split(",")) if i != 5) for r in rows]

    bench_ok = strip_runtime(b1) == strip_runtime(b2)
    ok = sim_ok and est_ok and bench_ok
    assert report(
        10, ok, f"simulate {sim_ok}, ransac-estimate {est_ok}, bench-noise {bench_ok}"
    )
