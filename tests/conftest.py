import numpy as np
import pytest
from hypothesis import settings

from quest import bench, core

# the suite is a release gate: keep property tests reproducible run-to-run
settings.register_profile("deterministic", derandomize=True)
settings.load_profile("deterministic")


def random_correspondence(rng):
    """One synthetic match with coordinates in the usual normalized range."""
    m = np.array([rng.uniform(-2, 2), rng.uniform(-2, 2), 1.0])
    n = np.array([rng.uniform(-2, 2), rng.uniform(-2, 2), 1.0])
    return core.Correspondence(m, n)


def make_outlier_set(seed, n=30, outlier_fraction=0.2, sigma_px=1.0, **scene_kw):
    """Noisy scene with uniform outliers; returns (points, true inlier mask,
    true pose). scene_kw passes further SceneConfig fields."""
    cam = bench.SyntheticCamera()
    scene = bench.generate_scene(bench.SceneConfig(n_points=n, rng_seed=seed, **scene_kw))
    noisy = bench.add_pixel_noise(scene.correspondences, sigma_px, cam, seed + 10_000)
    rng = np.random.default_rng(seed + 20_000)
    out_idx = rng.choice(n, size=int(round(outlier_fraction * n)), replace=False)
    points = list(noisy)
    for i in out_idx:
        px = rng.uniform(0, cam.width, 2)
        py = rng.uniform(0, cam.height, 2)
        points[i] = core.Correspondence(
            [(px[0] - cam.cx) / cam.fx, (py[0] - cam.cy) / cam.fy, 1.0],
            [(px[1] - cam.cx) / cam.fx, (py[1] - cam.cy) / cam.fy, 1.0],
        )
    mask_true = np.ones(n, dtype=bool)
    mask_true[out_idx] = False
    return points, mask_true, scene.pose


@pytest.fixture
def rng():
    return np.random.default_rng(0)
