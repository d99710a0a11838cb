import numpy as np
import pytest
from numpy.testing import assert_allclose

from quest import baseline, bench, core
from quest.core import quat_to_rotation
from quest.errors import (
    DegeneracyError,
    DegenerateConfigurationError,
    InsufficientPointsError,
)


def scene(seed, n=8, **kw):
    return bench.generate_scene(bench.SceneConfig(n_points=n, rng_seed=seed, **kw))


def test_epipolar_residual_noiseless():
    for seed in range(5):
        sc = scene(seed)
        E = baseline.eight_point(sc.correspondences)
        for c in sc.correspondences:
            assert abs(c.n @ E @ c.m) < 1e-10


def test_essential_invariants():
    sc = scene(1)
    E = baseline.eight_point(sc.correspondences)
    s = np.linalg.svd(E, compute_uv=False)
    assert s[0] == pytest.approx(s[1], rel=1e-9)
    assert s[2] < 1e-12 * s[0]
    assert np.linalg.norm(E) == pytest.approx(1.0, abs=1e-12)


def test_pure_translation_along_z():
    sc = scene(3, fixed_rotation=(1.0, 0, 0, 0), fixed_translation=(0.0, 0.0, 1.0))
    E = baseline.eight_point(sc.correspondences)
    # E ~ [t]_x with t = z, up to scale and sign
    pattern = np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
    pattern /= np.linalg.norm(pattern)
    if np.sum(E * pattern) < 0:
        pattern = -pattern
    assert_allclose(E, pattern, atol=1e-9)


def test_too_few_points():
    sc = scene(0, n=7)
    with pytest.raises(InsufficientPointsError):
        baseline.eight_point(sc.correspondences)


def test_coplanar_design_matrix_degenerates():
    for seed in range(5):
        sc = bench.generate_scene(bench.SceneConfig(n_points=8, geometry="coplanar", rng_seed=seed))
        with pytest.raises(DegenerateConfigurationError):
            baseline.eight_point(sc.correspondences)


def test_decompose_recovers_pose():
    for seed in range(5):
        sc = scene(seed)
        cand = baseline.decompose_essential(baseline.eight_point(sc.correspondences), sc.correspondences)
        assert core.rot_error(cand.q, sc.pose.q) < 1e-6
        assert core.trans_error(cand.t, sc.pose.t) < 1e-6
        assert np.linalg.norm(cand.t) == pytest.approx(1.0, abs=1e-12)
        assert cand.chirality_ok
        R = quat_to_rotation(cand.q)
        assert_allclose(R @ R.T, np.eye(3), atol=1e-9)
        assert np.linalg.det(R) == pytest.approx(1.0, abs=1e-9)


def test_decompose_pure_translation_gives_identity_rotation():
    sc = scene(3, fixed_rotation=(1.0, 0, 0, 0), fixed_translation=(1.0, 0.0, 0.0))
    cand = baseline.decompose_essential(baseline.eight_point(sc.correspondences), sc.correspondences)
    assert core.rot_error(cand.q, core.IDENTITY_QUATERNION) < 1e-6
    assert core.trans_error(cand.t, [1.0, 0.0, 0.0]) < 1e-6


def test_translation_always_unit_norm():
    for seed in range(3):
        sc = scene(seed, fixed_translation=(0.001, 0.0, 0.0))
        cand = baseline.decompose_essential(baseline.eight_point(sc.correspondences), sc.correspondences)
        assert np.linalg.norm(cand.t) == pytest.approx(1.0, abs=1e-12)


def test_coplanar_failure_with_noise_returns_garbage():
    # under noise the rank test passes but the estimate is structurally
    # wrong; this is the regime the noise benchmark records
    cam = bench.SyntheticCamera()
    errs = []
    for seed in range(10):
        sc = bench.generate_scene(bench.SceneConfig(n_points=8, geometry="coplanar", rng_seed=seed))
        noisy = bench.add_pixel_noise(sc.correspondences, 1.0, cam, seed)
        try:
            cand = baseline.decompose_essential(baseline.eight_point(noisy), noisy)
            errs.append(core.rot_error(cand.q, sc.pose.q))
        except DegeneracyError:
            errs.append(0.5)
    assert np.median(errs) > 0.02
