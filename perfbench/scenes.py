"""Seeded scene generation for the benchmark, independent of quest.bench.

The recipe mirrors the library's synthetic scenes (points in a box in
front of the camera or on a random plane through its centre, a uniform
random rotation, a uniform translation, pixel noise through a 500 px
pinhole camera) but lives here, so edits to quest.bench cannot change
the workloads. Ground truth stays on the benchmark side; the program
receives only the correspondences.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

FOCAL = 500.0
CX, CY = 320.0, 240.0
WIDTH, HEIGHT = 640, 480
_BOX_XY = (-2.0, 2.0)
_BOX_Z = (4.0, 8.0)
_MIN_DEPTH = 0.1


@dataclass(frozen=True)
class Scene:
    """Correspondences as (n, 3) homogeneous normalized arrays plus truth."""

    m: np.ndarray
    n: np.ndarray
    q_true: np.ndarray
    sigma_px: float
    geometry: str
    inlier: np.ndarray


def rotation(q) -> np.ndarray:
    w, x, y, z = q
    return np.array(
        [
            [w * w + x * x - y * y - z * z, 2 * (x * y - w * z), 2 * (x * z + w * y)],
            [2 * (x * y + w * z), w * w - x * x + y * y - z * z, 2 * (y * z - w * x)],
            [2 * (x * z - w * y), 2 * (y * z + w * x), w * w - x * x - y * y + z * z],
        ]
    )


def rot_error(q, q_true) -> float:
    """arccos(|<q, q_true>|) / pi in [0, 1], via the chord so it stays exact
    near 0; the same definition as the library's rot_error."""
    a = np.asarray(q, dtype=float)
    b = np.asarray(q_true, dtype=float)
    chord = min(float(np.linalg.norm(a - b)), float(np.linalg.norm(a + b)))
    return 2.0 * float(np.arcsin(min(1.0, 0.5 * chord))) / np.pi


def _plane_basis(normal):
    pick = np.array([1.0, 0.0, 0.0]) if abs(normal[0]) < 0.9 else np.array([0.0, 1.0, 0.0])
    e1 = np.cross(normal, pick)
    e1 /= np.linalg.norm(e1)
    return e1, np.cross(normal, e1)


def _noisy(rays, sigma_px, rng):
    if sigma_px == 0.0:
        return rays
    out = rays.copy()
    out[:, :2] += rng.normal(0.0, sigma_px / FOCAL, (len(rays), 2))
    return out


def make_scene(rng, n_points, geometry, sigma_px, outlier_fraction=0.0) -> Scene:
    """One scene with exact projections, then pixel noise, then uniform
    outliers replacing a random subset of the matches."""
    lo, hi = _BOX_XY
    center = np.array([0.0, 0.0, 0.5 * sum(_BOX_Z)])
    while True:
        q = rng.normal(size=4)
        q /= np.linalg.norm(q)
        if q[0] < 0.0:
            q = -q
        t = rng.uniform(-1.0, 1.0, 3)
        if geometry == "general":
            pts = np.column_stack(
                [rng.uniform(lo, hi, n_points), rng.uniform(lo, hi, n_points),
                 rng.uniform(*_BOX_Z, n_points)]
            )
        else:
            normal = rng.normal(size=3)
            e1, e2 = _plane_basis(normal / np.linalg.norm(normal))
            a = rng.uniform(lo, hi, n_points)
            b = rng.uniform(lo, hi, n_points)
            pts = center + a[:, None] * e1 + b[:, None] * e2
        pts2 = pts @ rotation(q).T + t
        if pts[:, 2].min() > _MIN_DEPTH and pts2[:, 2].min() > _MIN_DEPTH:
            break
    m = _noisy(pts / pts[:, 2:3], sigma_px, rng)
    n = _noisy(pts2 / pts2[:, 2:3], sigma_px, rng)
    inlier = np.ones(n_points, dtype=bool)
    n_out = int(round(outlier_fraction * n_points))
    if n_out:
        idx = rng.choice(n_points, size=n_out, replace=False)
        inlier[idx] = False
        for rays in (m, n):
            rays[idx, 0] = (rng.uniform(0, WIDTH, n_out) - CX) / FOCAL
            rays[idx, 1] = (rng.uniform(0, HEIGHT, n_out) - CY) / FOCAL
    return Scene(m, n, q, sigma_px, geometry, inlier)
