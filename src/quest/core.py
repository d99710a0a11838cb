"""Foundational types and metrics for two-view pose estimation.

Conventions used throughout the package:

- Quaternions are Hamilton quaternions stored as (w, x, y, z) with unit
  norm and the canonical sign w >= 0, so each rotation has one
  representative despite the q / -q double cover.
- Image points are homogeneous normalized coordinates (x, y, 1), i.e.
  pixel coordinates mapped through the inverse calibration matrix.
- The rigid motion constraint per matched point is
  u * R @ m + t = v * n, with u, v the point depths in the two views.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import InvalidCalibrationError

_CANONICAL_EPS = 1e-12


@dataclass(frozen=True)
class Quaternion:
    """Unit rotation quaternion (w, x, y, z)."""

    w: float
    x: float
    y: float
    z: float

    def as_array(self) -> np.ndarray:
        return np.array([self.w, self.x, self.y, self.z], dtype=float)

    @staticmethod
    def from_array(arr) -> "Quaternion":
        w, x, y, z = (float(v) for v in arr)
        return Quaternion(w, x, y, z)

    def norm(self) -> float:
        return math.sqrt(self.w**2 + self.x**2 + self.y**2 + self.z**2)

    def normalized(self) -> "Quaternion":
        n = self.norm()
        if n < _CANONICAL_EPS:
            raise ValueError("cannot normalize a zero quaternion")
        return Quaternion(self.w / n, self.x / n, self.y / n, self.z / n)

    def canonical(self) -> "Quaternion":
        """Fix the sign ambiguity: w >= 0, and if w ~ 0 the first nonzero
        of (x, y, z) is made nonnegative. Idempotent; never changes the
        rotation."""
        comps = (self.w, self.x, self.y, self.z)
        for c in comps:
            if abs(c) > _CANONICAL_EPS:
                if c < 0.0:
                    return Quaternion(-self.w, -self.x, -self.y, -self.z)
                return self
        return self

    def conjugate(self) -> "Quaternion":
        return Quaternion(self.w, -self.x, -self.y, -self.z)

    def __mul__(self, other: "Quaternion") -> "Quaternion":
        """Hamilton product, so quat_to_rotation(a * b) = R(a) @ R(b)."""
        w1, x1, y1, z1 = self.w, self.x, self.y, self.z
        w2, x2, y2, z2 = other.w, other.x, other.y, other.z
        return Quaternion(
            w1 * w2 - x1 * x2 - y1 * y2 - z1 * z2,
            w1 * x2 + x1 * w2 + y1 * z2 - z1 * y2,
            w1 * y2 - x1 * z2 + y1 * w2 + z1 * x2,
            w1 * z2 + x1 * y2 - y1 * x2 + z1 * w2,
        )


IDENTITY_QUATERNION = Quaternion(1.0, 0.0, 0.0, 0.0)


def _frozen_vector(values, size) -> np.ndarray:
    arr = np.asarray(values, dtype=float).reshape(size)
    arr = arr.copy()
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True, eq=False, slots=True)
class Correspondence:
    """One matched feature point: homogeneous normalized coordinates in the
    first view (m) and second view (n), last entry exactly 1. Slotted,
    since callers hold many of them (RANSAC sets, benchmark inputs)."""

    m: np.ndarray
    n: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "m", _frozen_vector(self.m, 3))
        object.__setattr__(self, "n", _frozen_vector(self.n, 3))
        if self.m[2] != 1.0 or self.n[2] != 1.0:
            raise ValueError("correspondence vectors must have last entry 1")
        if not (np.isfinite(self.m).all() and np.isfinite(self.n).all()):
            raise ValueError("correspondence contains NaN/Inf")


@dataclass(frozen=True, eq=False)
class Pose:
    """Rotation, translation, and per-point depths sharing one scale factor.

    A physically feasible pose has all depths strictly positive (points in
    front of both cameras)."""

    q: Quaternion
    t: np.ndarray
    depths_u: np.ndarray
    depths_v: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "t", _frozen_vector(self.t, 3))
        object.__setattr__(self, "depths_u", _frozen_vector(self.depths_u, -1))
        object.__setattr__(self, "depths_v", _frozen_vector(self.depths_v, -1))


@dataclass(frozen=True, eq=False)
class PoseCandidate:
    """One ranked pose hypothesis.

    algebraic_residual is ||A @ x(q)|| on unit-norm rows; chirality_ok
    means every recovered depth is strictly positive. t_depth_ratio is
    ||t|| relative to the mean absolute depth before normalization (it
    vanishes for a camera that only rotates), scale_note records which
    normalization was applied, and ambiguous_depths flags a non-isolated
    smallest singular value in the depth recovery (small-parallax regime).
    """

    q: Quaternion
    algebraic_residual: float
    t: np.ndarray | None = None
    depths_u: np.ndarray | None = None
    depths_v: np.ndarray | None = None
    chirality_ok: bool = False
    scale_note: str = ""
    t_depth_ratio: float = math.nan
    ambiguous_depths: bool = False


def _rays(points):
    """The first- and second-view rays (k, 3) of the list of matches `points`."""
    return np.array([c.m for c in points]), np.array([c.n for c in points])


def triangulate_uv(R: np.ndarray, t: np.ndarray, M: np.ndarray, N: np.ndarray):
    """Least-squares (u, v) per point for u * R @ m - v * n = -t.

    M and N hold the first- and second-view rays, shape (k, 3), or one
    set of rays per pose, shape (..., k, 3). R (..., 3, 3) and t (..., 3)
    may carry a leading pose axis; a pose is solved against the shared
    rays or its own. Vectorized 2x2 normal equations; returns u, v of
    shape (..., k) and the reprojected second-view rays u * R @ m + t,
    shape (..., k, 3). A pair whose rays are parallel under R (a zero
    determinant) has no depths: u = v = 0 there, so it passes no
    chirality test. The right-hand sides a.t and N.t are matmuls, so a
    stacked call gives each pose the bits of a single-pose call."""
    a = M @ np.swapaxes(R, -1, -2)
    nn = np.einsum("...ij,...ij->...i", N, N)
    aa = np.einsum("...ij,...ij->...i", a, a)
    an = np.einsum("...ij,...ij->...i", a, N)
    rhs_u = -(a @ t[..., None])[..., 0]
    rhs_v = (N @ t[..., None])[..., 0]
    det = aa * nn - an * an
    parallel = np.abs(det) < 1e-300
    det = np.where(parallel, 1.0, det)
    u = np.where(parallel, 0.0, (rhs_u * nn + an * rhs_v) / det)
    v = np.where(parallel, 0.0, (an * rhs_u + aa * rhs_v) / det)
    reproj = u[..., None] * a + t[..., None, :]
    return u, v, reproj


# ---------------------------------------------------------------------------
# Monomial index
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def monomials_of_degree(degree: int) -> tuple:
    """All exponent tuples (a, b, c, d) with a+b+c+d = degree, in descending
    lexicographic order. Degree 4 yields the canonical 35-monomial column
    order used by the coefficient matrix: index 0 is w^4, then w^3 x,
    w^3 y, w^3 z, ..."""
    exps = [
        (a, b, c, degree - a - b - c)
        for a in range(degree, -1, -1)
        for b in range(degree - a, -1, -1)
        for c in range(degree - a - b, -1, -1)
    ]
    return tuple(sorted(exps, reverse=True))


@lru_cache(maxsize=None)
def monomial_positions(degree: int) -> dict:
    """Exponent tuple -> column index for the given degree."""
    return {e: i for i, e in enumerate(monomials_of_degree(degree))}


@lru_cache(maxsize=None)
def _exponent_array(degree: int) -> np.ndarray:
    return np.array(monomials_of_degree(degree), dtype=float)


def monomial_vector(q: Quaternion, degree: int = 4) -> np.ndarray:
    """Evaluate every degree-`degree` monomial at q, in canonical order."""
    base = q.as_array()[None, :]
    return np.prod(base ** _exponent_array(degree), axis=1)


# ---------------------------------------------------------------------------
# Rotations
# ---------------------------------------------------------------------------


def quat_to_rotation(q: Quaternion) -> np.ndarray:
    """3x3 rotation matrix of a unit quaternion (Hamilton convention).

    Raises ValueError if q deviates from unit norm by more than 1e-9.
    quat_to_rotation(q) == quat_to_rotation(-q)."""
    if abs(q.norm() - 1.0) > 1e-9:
        raise ValueError(f"quaternion norm {q.norm()!r} is not 1 within 1e-9")
    return np.array(_rotation_entries(q.w, q.x, q.y, q.z)).reshape(3, 3)


def _rotation_entries(w, x, y, z) -> tuple:
    """The nine entries, row-major, of the rotation matrix of the unit
    quaternion (w, x, y, z): of one on floats, of a stack on arrays."""
    return (w * w + x * x - y * y - z * z, 2 * (x * y - w * z), 2 * (x * z + w * y),
            2 * (x * y + w * z), w * w - x * x + y * y - z * z, 2 * (y * z - w * x),
            2 * (x * z - w * y), 2 * (y * z + w * x), w * w - x * x - y * y + z * z)


def quat_from_rotation(R) -> Quaternion:
    """Extract the canonical unit quaternion from a rotation matrix, with
    plain float components.

    Shepperd-style: branch on the largest of the trace and the diagonal
    entries so the division is always well conditioned. Raises ValueError
    unless R is a finite 3x3 array."""
    R = np.asarray(R, dtype=float)
    if R.shape != (3, 3):
        raise ValueError("rotation matrix must be 3x3")
    (r00, r01, r02), (r10, r11, r12), (r20, r21, r22) = rows = R.tolist()
    if not all(map(math.isfinite, rows[0] + rows[1] + rows[2])):
        raise ValueError("rotation matrix contains NaN/Inf")
    tr = r00 + r11 + r22
    choices = (r00, r11, r22, tr)
    i = choices.index(max(choices))  # the first of equal maxima
    if i == 3:
        s = math.sqrt(1.0 + tr) * 2.0
        q = (0.25 * s, (r21 - r12) / s, (r02 - r20) / s, (r10 - r01) / s)
    elif i == 0:
        s = math.sqrt(1.0 + r00 - r11 - r22) * 2.0
        q = ((r21 - r12) / s, 0.25 * s, (r01 + r10) / s, (r02 + r20) / s)
    elif i == 1:
        s = math.sqrt(1.0 - r00 + r11 - r22) * 2.0
        q = ((r02 - r20) / s, (r01 + r10) / s, 0.25 * s, (r12 + r21) / s)
    else:
        s = math.sqrt(1.0 - r00 - r11 + r22) * 2.0
        q = ((r10 - r01) / s, (r02 + r20) / s, (r12 + r21) / s, 0.25 * s)
    return Quaternion(*q).normalized().canonical()


# ---------------------------------------------------------------------------
# Error metrics
# ---------------------------------------------------------------------------


def rot_error(q: Quaternion, q_star: Quaternion) -> float:
    """Rotation error in [0, 1]: arccos(|dot(q, q*)|) / pi.

    The absolute value folds the q / -q double cover, so the metric is 0
    for any two representations of the same rotation. Evaluated through
    the chord length (arccos(d) = 2 arcsin(||a - b|| / 2) on unit
    vectors), which stays exact near 0 where arccos loses ~8 digits."""
    a, b = q.as_array(), q_star.as_array()
    chord = min(float(np.linalg.norm(a - b)), float(np.linalg.norm(a + b)))
    return 2.0 * math.asin(min(1.0, 0.5 * chord)) / math.pi


def trans_error(t, t_star) -> float:
    """Translation direction error in [0, 1]: angle between the unit
    vectors, divided by pi. Scale invariant; raises on zero-norm input
    (the direction of a ~zero translation is undefined). Chord-based
    evaluation, as in rot_error."""
    t = np.asarray(t, dtype=float)
    t_star = np.asarray(t_star, dtype=float)
    nt, ns = np.linalg.norm(t), np.linalg.norm(t_star)
    if nt == 0.0 or ns == 0.0:
        raise ValueError("translation direction undefined for zero-norm vector")
    chord = float(np.linalg.norm(t / nt - t_star / ns))
    return 2.0 * math.asin(min(1.0, 0.5 * chord)) / math.pi


def normalize_pixels(pixel, K) -> np.ndarray:
    """Map a pixel coordinate through the inverse calibration matrix onto
    the z = 1 plane. Returns a 3-vector with last entry exactly 1."""
    K = np.asarray(K, dtype=float)
    pixel = np.asarray(pixel, dtype=float).reshape(2)
    if abs(np.linalg.det(K)) < 1e-12:
        raise InvalidCalibrationError("calibration matrix is singular")
    v = np.linalg.solve(K, np.array([pixel[0], pixel[1], 1.0]))
    if v[2] == 0.0:
        raise InvalidCalibrationError("point maps to infinity under K^-1")
    return v / v[2]
