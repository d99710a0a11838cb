"""Synthetic scenes, pixel-noise injection, and Monte Carlo benchmarks.

Scenes are sampled as uniform 3D points in a box in front of the camera
(or on a random bounded plane for the coplanar case), moved by a uniform
random rotation quaternion and a uniform random translation, and projected
into both views. Noise is specified in pixels and converted through a
configurable synthetic camera, since the estimation itself runs in
normalized image coordinates.

Every randomized routine is deterministic given its seed; per-trial seeds
are derived by hashing (master seed, sigma index, trial index) so trials
are independent and order-insensitive.
"""

from __future__ import annotations

import math
import numbers
import sys
import time
from dataclasses import dataclass, replace

import numpy as np

from .core import (Correspondence, Pose, Quaternion, _rays, quat_to_rotation, rot_error,
                   trans_error)
from .errors import InfeasibleConfigError, QuestError
from .solver import MINIMAL_POINTS, estimate_pose

_MIN_DEPTH = 0.1
_MAX_REJECTIONS = 1000


def _floats(value, *shape):
    """value as tuples of floats nested to `shape` (say 3, 2 for three
    pairs), or None unless it holds finite real numbers other than bools in
    that shape. The bound also rejects an int beyond the float range."""
    try:
        items = tuple(value)
    except TypeError:
        return None
    if len(items) != shape[0]:
        return None
    if len(shape) > 1:
        items = tuple(_floats(v, *shape[1:]) for v in items)
        return None if None in items else items
    if not all(isinstance(v, numbers.Real) and not isinstance(v, (bool, np.bool_))
               and abs(v) <= sys.float_info.max for v in items):
        return None
    return tuple(float(v) for v in items)


# SceneConfig's numeric fields: shape (for _floats) and what it must be.
_SHAPES = (("box_x", (2,), "a (lo, hi) pair of"), ("box_y", (2,), "a (lo, hi) pair of"),
           ("box_z", (2,), "a (lo, hi) pair of"),
           ("translation_box", (3, 2), "three (lo, hi) pairs of"),
           ("fixed_rotation", (4,), "None or 4"), ("fixed_translation", (3,), "None or 3"))


@dataclass(frozen=True)
class SceneConfig:
    """Scene sampling parameters.

    box_* give the extents of the 3D point parallelepiped (box_z is the
    distance range along the optical axis and must stay positive);
    translation_box bounds the camera translation. fixed_rotation /
    fixed_translation override the random pose when set, e.g. to build
    zero-motion or zero-translation scenes. Each box is a (lo, hi) pair of
    finite numbers with lo <= hi and translation_box three of them; a fixed
    rotation holds 4 and a fixed translation 3. All are stored as tuples of
    floats."""

    n_points: int = 8
    geometry: str = "general"
    box_x: tuple = (-2.0, 2.0)
    box_y: tuple = (-2.0, 2.0)
    box_z: tuple = (4.0, 8.0)
    translation_box: tuple = ((-1.0, 1.0), (-1.0, 1.0), (-1.0, 1.0))
    rng_seed: int = 0
    fixed_rotation: tuple | None = None
    fixed_translation: tuple | None = None

    def __post_init__(self):
        if self.geometry not in ("general", "coplanar"):
            raise ValueError(f"unknown geometry {self.geometry!r}")
        for name, shape, what in _SHAPES:
            value = getattr(self, name)
            if value is None and what.startswith("None"):
                continue
            floats = _floats(value, *shape)
            if floats is None:
                raise ValueError(f"{name} must be {what} finite numbers, got {value!r}")
            object.__setattr__(self, name, floats)
        for name in ("box_x", "box_y", "box_z", "translation_box"):
            pairs = np.reshape(getattr(self, name), (-1, 2))
            if (pairs[:, 0] > pairs[:, 1]).any():
                raise ValueError(f"{name} must have lo <= hi in each pair, got {getattr(self, name)!r}")
        if self.box_z[0] <= 0.0:
            raise ValueError("scene box must lie strictly in front of the camera")
        if self.n_points < 1:
            raise ValueError("n_points must be positive")


@dataclass(frozen=True)
class SyntheticCamera:
    """Pinhole intrinsics used to convert pixel noise into normalized
    coordinates."""

    fx: float = 500.0
    fy: float = 500.0
    cx: float = 320.0
    cy: float = 240.0
    width: int = 640
    height: int = 480

    def __post_init__(self):
        if self.fx <= 0.0 or self.fy <= 0.0:
            raise ValueError("focal lengths must be positive")

    def K(self) -> np.ndarray:
        return np.array([[self.fx, 0.0, self.cx], [0.0, self.fy, self.cy], [0.0, 0.0, 1.0]])


@dataclass(frozen=True, eq=False)
class SyntheticScene:
    points3d: np.ndarray
    pose: Pose
    correspondences: tuple


@dataclass(frozen=True)
class BenchRecord:
    """One (method, noise level, trial) outcome. Failed trials carry NaN
    errors; successful ones have both errors in [0, 1], except that the
    translation error is NaN when the true translation is zero (its
    direction is undefined)."""

    method: str
    sigma_px: float
    trial: int
    rot_error: float
    trans_error: float
    runtime_s: float
    n_candidates: int
    failed: bool


@dataclass(frozen=True)
class TimingStats:
    mean_s: float
    median_s: float
    n: int
    n_failed: int


def _derived_seeds(master: int, *key: int):
    """Scene and noise seeds for one trial."""
    ss = np.random.SeedSequence([int(master)] + [int(k) for k in key])
    return [int(s) for s in ss.generate_state(2, dtype=np.uint64)]


def _sample_unit_quaternion(rng) -> Quaternion:
    v = rng.normal(size=4)
    while np.linalg.norm(v) < 1e-12:
        v = rng.normal(size=4)
    return Quaternion.from_array(v / np.linalg.norm(v)).canonical()


def _orthonormal_basis_of_plane(normal: np.ndarray):
    pick = np.array([1.0, 0.0, 0.0]) if abs(normal[0]) < 0.9 else np.array([0.0, 1.0, 0.0])
    e1 = np.cross(normal, pick)
    e1 /= np.linalg.norm(e1)
    e2 = np.cross(normal, e1)
    return e1, e2


def generate_scene(cfg: SceneConfig) -> SyntheticScene:
    """Sample a scene and its exact two-view projections.

    Scenes where any point has depth <= 0.1 in either view are rejected
    and resampled (up to 1000 times). The returned correspondences satisfy
    the rigid motion constraint with the returned pose to machine
    precision by construction."""
    rng = np.random.default_rng(cfg.rng_seed)
    center = np.array(
        [
            0.5 * (cfg.box_x[0] + cfg.box_x[1]),
            0.5 * (cfg.box_y[0] + cfg.box_y[1]),
            0.5 * (cfg.box_z[0] + cfg.box_z[1]),
        ]
    )
    for _ in range(_MAX_REJECTIONS):
        if cfg.fixed_rotation is not None:
            q = Quaternion.from_array(cfg.fixed_rotation).normalized().canonical()
        else:
            q = _sample_unit_quaternion(rng)
        if cfg.fixed_translation is not None:
            t = np.asarray(cfg.fixed_translation, dtype=float)
        else:
            t = np.array([rng.uniform(lo, hi) for lo, hi in cfg.translation_box])

        if cfg.geometry == "general":
            pts = np.column_stack(
                [
                    rng.uniform(cfg.box_x[0], cfg.box_x[1], cfg.n_points),
                    rng.uniform(cfg.box_y[0], cfg.box_y[1], cfg.n_points),
                    rng.uniform(cfg.box_z[0], cfg.box_z[1], cfg.n_points),
                ]
            )
        else:
            normal = rng.normal(size=3)
            normal /= np.linalg.norm(normal)
            e1, e2 = _orthonormal_basis_of_plane(normal)
            a = rng.uniform(cfg.box_x[0], cfg.box_x[1], cfg.n_points)
            b = rng.uniform(cfg.box_y[0], cfg.box_y[1], cfg.n_points)
            pts = center[None, :] + a[:, None] * e1[None, :] + b[:, None] * e2[None, :]

        u = pts[:, 2]
        if np.any(u <= _MIN_DEPTH):
            continue
        pts2 = pts @ quat_to_rotation(q).T + t[None, :]
        v = pts2[:, 2]
        if np.any(v <= _MIN_DEPTH):
            continue
        corr = tuple(
            Correspondence(pts[i] / u[i], pts2[i] / v[i]) for i in range(cfg.n_points)
        )
        return SyntheticScene(
            points3d=pts,
            pose=Pose(q=q, t=t, depths_u=u, depths_v=v),
            correspondences=corr,
        )
    raise InfeasibleConfigError(
        f"scene sampling failed {_MAX_REJECTIONS} times; check box/translation extents"
    )


def add_pixel_noise(correspondences, sigma: float, cam: SyntheticCamera, seed: int):
    """Add i.i.d. zero-mean Gaussian pixel noise to all image coordinates in
    both views. sigma = 0 returns the input unchanged (exactly)."""
    if not (math.isfinite(sigma) and sigma >= 0.0):
        raise ValueError("sigma must be finite and nonnegative")
    correspondences = list(correspondences)
    if sigma == 0.0:
        return correspondences
    rng = np.random.default_rng(seed)
    out = []
    for arr in _rays(correspondences):
        px = arr[:, 0] * cam.fx + cam.cx + rng.normal(0.0, sigma, len(arr))
        py = arr[:, 1] * cam.fy + cam.cy + rng.normal(0.0, sigma, len(arr))
        out.append(np.column_stack([(px - cam.cx) / cam.fx, (py - cam.cy) / cam.fy, np.ones(len(arr))]))
    return [Correspondence(m, n) for m, n in zip(out[0], out[1])]


def _run_trial(method: str, sigma: float, trial: int, points, pose: Pose) -> BenchRecord:
    """Time one solve on the method's minimal point count and score it.

    A QuestError becomes a failed record. Benchmark-only selection: the
    candidate closest to ground truth in the rotation metric is scored,
    sidestepping the noise-sensitive chirality ranking so that curves
    measure the solver, not the disambiguation."""
    t0 = time.perf_counter()
    try:
        cands = estimate_pose(points[: MINIMAL_POINTS[method]], method)
    except QuestError:
        return BenchRecord(method, sigma, trial, math.nan, math.nan,
                           time.perf_counter() - t0, 0, True)
    runtime = time.perf_counter() - t0
    best = min(cands, key=lambda c: rot_error(c.q, pose.q))
    try:
        te = trans_error(best.t, pose.t) if np.linalg.norm(pose.t) > 0.0 else math.nan
    except ValueError:
        return BenchRecord(method, sigma, trial, math.nan, math.nan, runtime, len(cands), True)
    return BenchRecord(method, sigma, trial, rot_error(best.q, pose.q), te, runtime,
                       len(cands), False)


def run_noise_benchmark(methods, sigmas, trials_per_sigma: int, cfg: SceneConfig,
                        cam: SyntheticCamera, seed: int = 0):
    """Error-vs-noise sweep: one scene per (sigma, trial), shared across
    methods, each method fed its minimal point count. Failures become
    records with the failed flag set rather than exceptions."""
    records = []
    for si, sigma in enumerate(sigmas):
        for trial in range(trials_per_sigma):
            scene_seed, noise_seed = _derived_seeds(seed, si, trial)
            scene = generate_scene(replace(cfg, rng_seed=scene_seed))
            noisy = add_pixel_noise(scene.correspondences, sigma, cam, noise_seed)
            for method in methods:
                records.append(_run_trial(method, sigma, trial, noisy, scene.pose))
    return records


_TIME_SIGMAS = (0.0, 1.0, 2.0, 5.0)
_TIME_WARMUP = 10


def run_time_benchmark(methods, trials: int, cfg: SceneConfig, cam: SyntheticCamera,
                       seed: int = 0):
    """Wall-clock per solve over a mix of general/coplanar scenes and noise
    levels: the geometry alternates trial by trial and the noise level
    steps through _TIME_SIGMAS every second trial, so every (geometry,
    sigma) pair comes up once in 8 trials. The first _TIME_WARMUP trials
    are run but discarded. Returns (records, {method: TimingStats}); failed
    solves still count toward the timing statistics, since a failed
    attempt costs real time."""
    records = []
    for trial in range(_TIME_WARMUP + trials):
        geometry = "general" if trial % 2 == 0 else "coplanar"
        sigma = _TIME_SIGMAS[trial // 2 % len(_TIME_SIGMAS)]
        scene_seed, noise_seed = _derived_seeds(seed, 9999, trial)
        scene = generate_scene(replace(cfg, rng_seed=scene_seed, geometry=geometry))
        noisy = add_pixel_noise(scene.correspondences, sigma, cam, noise_seed)
        for method in methods:
            rec = _run_trial(method, sigma, trial - _TIME_WARMUP, noisy, scene.pose)
            if trial >= _TIME_WARMUP:
                records.append(rec)
    stats = {}
    for method in methods:
        times = np.array([r.runtime_s for r in records if r.method == method])
        failed = sum(1 for r in records if r.method == method and r.failed)
        stats[method] = TimingStats(
            mean_s=float(times.mean()),
            median_s=float(np.median(times)),
            n=len(times),
            n_failed=failed,
        )
    return records, stats


def effective_rot_errors(records) -> np.ndarray:
    """Rotation errors with failed trials scored as 0.5.

    A method that raises instead of estimating has still failed to recover
    the pose; 0.5 is the expected error of an uninformed guess, which
    keeps structural failures visible in medians without excluding them."""
    return np.array([0.5 if r.failed else r.rot_error for r in records])
