import dataclasses
from collections import Counter
import math

import numpy as np
import pytest
from quest import bench, solver
from quest.bench import SceneConfig, SyntheticCamera
from quest.core import quat_to_rotation
from quest.errors import InfeasibleConfigError


def test_scene_satisfies_rigid_motion_exactly():
    sc = bench.generate_scene(SceneConfig(rng_seed=0))
    R = quat_to_rotation(sc.pose.q)
    for i, c in enumerate(sc.correspondences):
        res = sc.pose.depths_u[i] * R @ c.m + sc.pose.t - sc.pose.depths_v[i] * c.n
        assert np.linalg.norm(res) < 1e-12 * sc.pose.depths_u[i]


def test_scene_depths_positive():
    for seed in range(10):
        sc = bench.generate_scene(SceneConfig(rng_seed=seed))
        assert np.all(sc.pose.depths_u > 0.1)
        assert np.all(sc.pose.depths_v > 0.1)


def test_scene_determinism():
    a = bench.generate_scene(SceneConfig(rng_seed=5))
    b = bench.generate_scene(SceneConfig(rng_seed=5))
    assert np.array_equal(a.points3d, b.points3d)
    assert a.pose.q == b.pose.q
    assert np.array_equal(a.pose.t, b.pose.t)


def test_coplanar_scene_is_planar():
    sc = bench.generate_scene(SceneConfig(geometry="coplanar", rng_seed=2))
    pts = sc.points3d - sc.points3d.mean(axis=0)
    s = np.linalg.svd(pts, compute_uv=False)
    assert s[2] < 1e-12 * s[0]


def test_zero_motion_override_gives_equal_views():
    cfg = SceneConfig(
        rng_seed=1,
        fixed_rotation=(1.0, 0.0, 0.0, 0.0),
        translation_box=((0.0, 0.0), (0.0, 0.0), (0.0, 0.0)),
    )
    sc = bench.generate_scene(cfg)
    for c in sc.correspondences:
        assert np.array_equal(c.m, c.n)


def test_infeasible_config_raises():
    cfg = SceneConfig(
        rng_seed=0,
        fixed_rotation=(1.0, 0.0, 0.0, 0.0),
        fixed_translation=(0.0, 0.0, -10.0),
    )
    with pytest.raises(InfeasibleConfigError):
        bench.generate_scene(cfg)


def test_config_validation():
    with pytest.raises(ValueError):
        SceneConfig(box_z=(-1.0, 5.0))
    with pytest.raises(ValueError):
        SceneConfig(geometry="spherical")
    with pytest.raises(ValueError):
        SyntheticCamera(fx=-1.0)


@pytest.mark.parametrize("field,value", [
    ("box_x", 5), ("box_y", (0.0, math.nan)), ("box_z", ("a", "b")), ("box_x", (True, 1.0)),
    ("box_x", (0.0, 1.0, 2.0)), ("translation_box", ((0, 1), (0, 1), 5)),
    ("translation_box", ((0, 1), (0, 1))), ("translation_box", 5), ("fixed_rotation", 5),
    ("fixed_rotation", (1, 0, 0)), ("fixed_translation", (0, 0, math.inf)),
    ("fixed_translation", (0, 0, 10 ** 400)), ("fixed_translation", "abc")])
def test_config_rejects_wrongly_shaped_values(field, value):
    with pytest.raises(ValueError, match=f"^{field} must be "):
        SceneConfig(**{field: value})


@pytest.mark.parametrize("field,value", [
    ("box_x", (3.0, 1.0)), ("box_y", (0.0, -1e-9)), ("box_z", (8.0, 4.0)),
    ("translation_box", ((0, 1), (2, 1), (0, 1)))])
def test_config_rejects_reversed_boxes(field, value):
    with pytest.raises(ValueError, match=f"^{field} must have lo <= hi"):
        SceneConfig(**{field: value})


def test_config_allows_empty_width_boxes():
    cfg = SceneConfig(box_x=(1, 1), box_z=(5, 5), translation_box=((0, 0), (-1, 1), (2, 2)))
    assert np.all(bench.generate_scene(cfg).points3d[:, [0, 2]] == (1.0, 5.0))


def test_config_stores_tuples_of_floats():
    cfg = SceneConfig(box_x=[-1, 1], box_y=np.array([-2, 2]),
                      translation_box=[[0, 1], (0, 1), np.array([0.0, 1.0])],
                      fixed_rotation=np.array([1, 0, 0, 0]), fixed_translation=[0, 0, 1])
    assert cfg.box_x == (-1.0, 1.0) and cfg.box_y == (-2.0, 2.0) and cfg.box_z == (4.0, 8.0)
    assert cfg.translation_box == ((0.0, 1.0),) * 3
    assert cfg.fixed_rotation == (1.0, 0.0, 0.0, 0.0) and cfg.fixed_translation == (0.0, 0.0, 1.0)
    for value in (cfg.box_x, cfg.box_y, *cfg.translation_box, cfg.fixed_rotation,
                  cfg.fixed_translation):
        assert type(value) is tuple and all(type(v) is float for v in value)
    assert SceneConfig().fixed_rotation is None


# --- pixel noise ------------------------------------------------------------

def test_zero_sigma_is_exact_identity():
    sc = bench.generate_scene(SceneConfig(rng_seed=3))
    out = bench.add_pixel_noise(sc.correspondences, 0.0, SyntheticCamera(), seed=1)
    for a, b in zip(out, sc.correspondences):
        assert np.array_equal(a.m, b.m)
        assert np.array_equal(a.n, b.n)


def test_noise_std_matches_sigma():
    cam = SyntheticCamera()
    # fixed small motion keeps all 25k points in front of both views
    sc = bench.generate_scene(
        SceneConfig(n_points=25000, rng_seed=4, fixed_rotation=(1.0, 0, 0, 0),
                    fixed_translation=(0.1, -0.1, 0.2))
    )
    sigma = 2.0
    noisy = bench.add_pixel_noise(sc.correspondences, sigma, cam, seed=7)
    dm = np.array([c.m[:2] - o.m[:2] for c, o in zip(noisy, sc.correspondences)])
    dn = np.array([c.n[:2] - o.n[:2] for c, o in zip(noisy, sc.correspondences)])
    px = np.concatenate([dm * cam.fx, dn * cam.fx]).ravel()
    assert px.std() == pytest.approx(sigma, rel=0.02)
    # both views must actually be perturbed
    assert np.abs(dm).max() > 0 and np.abs(dn).max() > 0


def test_noise_determinism():
    cam = SyntheticCamera()
    sc = bench.generate_scene(SceneConfig(rng_seed=3))
    a = bench.add_pixel_noise(sc.correspondences, 1.5, cam, seed=11)
    b = bench.add_pixel_noise(sc.correspondences, 1.5, cam, seed=11)
    for ca, cb in zip(a, b):
        assert np.array_equal(ca.m, cb.m) and np.array_equal(ca.n, cb.n)


def test_negative_sigma_rejected():
    sc = bench.generate_scene(SceneConfig(rng_seed=3))
    with pytest.raises(ValueError):
        bench.add_pixel_noise(sc.correspondences, -1.0, SyntheticCamera(), seed=0)


@pytest.mark.parametrize("sigma", [math.nan, math.inf])
def test_sigma_not_finite_rejected(sigma):
    sc = bench.generate_scene(SceneConfig(rng_seed=3))
    with pytest.raises(ValueError, match="^sigma must be finite and nonnegative$"):
        bench.add_pixel_noise(sc.correspondences, sigma, SyntheticCamera(), seed=0)


# --- benchmark runs ---------------------------------------------------------

def test_noise_benchmark_record_count_and_determinism():
    cfg = SceneConfig()
    cam = SyntheticCamera()
    methods = ["quest6", "eightpt"]
    a = bench.run_noise_benchmark(methods, [0.0, 1.0, 2.0], 4, cfg, cam, seed=6)
    b = bench.run_noise_benchmark(methods, [0.0, 1.0, 2.0], 4, cfg, cam, seed=6)
    assert len(a) == 2 * 3 * 4
    for ra, rb in zip(a, b):
        da = dataclasses.asdict(ra)
        db = dataclasses.asdict(rb)
        da.pop("runtime_s"), db.pop("runtime_s")
        assert (da == db) or (
            math.isnan(da["rot_error"]) and math.isnan(db["rot_error"])
            and da["failed"] == db["failed"]
        )
    for r in a:
        assert r.failed or (0.0 <= r.rot_error <= 1.0 and 0.0 <= r.trans_error <= 1.0)


def test_noiseless_quest6_benchmark_is_exact():
    records = bench.run_noise_benchmark(
        ["quest6"], [0.0], 100, SceneConfig(), SyntheticCamera(), seed=12
    )
    errs = [r.rot_error for r in records if not r.failed]
    assert len(errs) == len(records)
    assert np.mean(errs) < 1e-6


def test_zero_translation_trials_keep_their_rotation_error():
    # a pure rotation has no translation direction to score, but the
    # rotation is still estimated and scored
    records = bench.run_noise_benchmark(
        ["quest6", "eightpt"], [1.0], 5, SceneConfig(fixed_translation=(0.0, 0.0, 0.0)),
        SyntheticCamera(), seed=0
    )
    assert len(records) == 10
    for r in records:
        assert not r.failed and r.n_candidates > 0
        assert 0.0 <= r.rot_error < 0.01 and math.isnan(r.trans_error)


def test_noiseless_coplanar_eightpt_fails_structurally():
    records = bench.run_noise_benchmark(
        ["eightpt"], [0.0], 30, SceneConfig(geometry="coplanar"), SyntheticCamera(), seed=13
    )
    scored = bench.effective_rot_errors(records)
    assert np.mean(scored) > 0.02


def test_time_benchmark_shape():
    records, stats = bench.run_time_benchmark(
        ["quest6", "eightpt"], trials=20, cfg=SceneConfig(), cam=SyntheticCamera(), seed=14
    )
    assert set(stats) == {"quest6", "eightpt"}
    for st in stats.values():
        assert st.n == 20
        assert st.mean_s > 0 and st.median_s > 0
    assert len(records) == 40


def test_time_benchmark_times_every_geometry_at_every_sigma():
    # the geometry alternates with the trial's parity; each (geometry,
    # sigma) pair comes up once in every 8 trials
    records, _ = bench.run_time_benchmark(
        ["eightpt"], trials=16, cfg=SceneConfig(), cam=SyntheticCamera(), seed=14
    )
    pairs = Counter((r.trial % 2, r.sigma_px) for r in records)
    assert pairs == {(g, s): 2 for g in (0, 1) for s in bench._TIME_SIGMAS}
    # the coplanar sigma = 0 scenes are timed: the 8-point method fails there
    assert all(r.failed for r in records if r.trial % 2 and r.sigma_px == 0.0)


def test_projection_consistency_loop():
    sc = bench.generate_scene(SceneConfig(rng_seed=8))
    cands = solver.estimate_pose(list(sc.correspondences), "quest6")
    best = cands[0]
    R = quat_to_rotation(best.q)
    for i, c in enumerate(sc.correspondences):
        reproj = best.depths_u[i] * R @ c.m + best.t
        # atan2 form resolves angles far below the acos precision floor
        angle = math.atan2(np.linalg.norm(np.cross(reproj, c.n)), float(reproj @ c.n))
        assert angle < 1e-8
