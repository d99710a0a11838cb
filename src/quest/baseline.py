"""8-point essential-matrix baseline.

Solves the epipolar constraint n^T E m = 0 linearly from 8 or more
correspondences, projects onto the essential manifold, and picks the
(R, t) decomposition that places the most points in front of both
cameras. The translation carries no scale information: it is always
returned with unit norm. The method breaks down structurally when the
points lie on a critical surface (e.g. a plane): the design matrix loses
rank at zero noise, and under noise the estimate passes the rank test but
is wrong. eight_point returns E as a plain 3x3 array, which
decompose_essential takes.
"""

from __future__ import annotations

import math

import numpy as np

from .core import PoseCandidate, _rays, quat_from_rotation, triangulate_uv
from .errors import ChiralityFailureError, DegenerateConfigurationError, InsufficientPointsError

_W = np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
# the translation's sign per hypothesis (R1, t), (R1, -t), (R2, t), (R2, -t)
_SIGNS = np.array([[1.0], [-1.0], [1.0], [-1.0]])


def _hartley_normalization(rays: np.ndarray) -> np.ndarray:
    """Similarity transform taking the rays' 2D points to centroid 0 and
    RMS radius sqrt(2). Conditioning step; without it the linear solve is
    needlessly noise-fragile. The scalars are Python floats summed in the
    order of numpy's mean over the rows: the centroid row by row, the
    squared radii by numpy's pairwise sum."""
    rows = rays.tolist()
    cx, cy, _ = rows[0]
    for x, y, _ in rows[1:]:
        cx += x
        cy += y
    cx /= len(rows)
    cy /= len(rows)
    sq = np.add.reduce([(x - cx) * (x - cx) + (y - cy) * (y - cy) for x, y, _ in rows])
    rms = math.sqrt(sq / len(rows))
    s = math.sqrt(2.0) / rms if rms > 0.0 else 1.0
    return np.array([[s, 0.0, -s * cx], [0.0, s, -s * cy], [0.0, 0.0, 1.0]])


def _det3(a) -> float:
    """Determinant of the 3x3 nested list a by cofactors."""
    (a00, a01, a02), (a10, a11, a12), (a20, a21, a22) = a
    return (a00 * (a11 * a22 - a12 * a21) - a01 * (a10 * a22 - a12 * a20)
            + a02 * (a10 * a21 - a11 * a20))


def eight_point(points) -> np.ndarray:
    """Linear essential-matrix estimate from >= 8 correspondences: a 3x3
    array with the (s, s, 0) singular-value structure enforced and unit
    Frobenius norm.

    Raises DegenerateConfigurationError when the design matrix has rank
    below 8 (the null space is not unique) - the expected outcome for
    exactly coplanar points at zero noise."""
    points = list(points)
    if len(points) < 8:
        raise InsufficientPointsError(f"need at least 8 correspondences, got {len(points)}")
    M, N = _rays(points)
    T1 = _hartley_normalization(M)
    T2 = _hartley_normalization(N)
    Mh = M @ T1.T
    Nh = N @ T2.T
    # row i is the outer product n_i m_i^T, read row-major
    design = (Nh[:, :, None] * Mh[:, None, :]).reshape(-1, 9)
    _, svals, Vt = np.linalg.svd(design)
    if svals[7] <= 1e-10 * svals[0]:
        raise DegenerateConfigurationError(
            "epipolar design matrix has rank < 8; the correspondences do not "
            "determine a unique essential matrix (coplanar points?)"
        )
    E = T2.T @ Vt[-1].reshape(3, 3) @ T1
    U, s, Vt = np.linalg.svd(E)
    sbar = 0.5 * (s[0] + s[1])
    E = (U * [sbar, sbar, 0.0]) @ Vt
    return E / np.linalg.norm(E)


def decompose_essential(E: np.ndarray, points) -> PoseCandidate:
    """Pose from an essential matrix: four (R, +-t) hypotheses, resolved by
    majority positive-depth voting over the triangulated points.

    The returned candidate has unit-norm translation (the essential matrix
    carries no translation scale); algebraic_residual is the largest
    epipolar residual |n^T E m| over the input points. Raises ValueError
    when E is not a finite 3x3 array and InsufficientPointsError for an
    empty match list."""
    points = list(points)
    if not points:
        raise InsufficientPointsError("need at least 1 correspondence, got 0")
    E = np.asarray(E, dtype=float)
    # LAPACK's SVD may not return on an infinite entry, so test before it
    if E.shape != (3, 3) or not np.isfinite(E).all():
        raise ValueError("essential matrix must be a finite 3x3 array")
    U, _, Vt = np.linalg.svd(E)
    # U and Vt are orthogonal: their determinants are +-1, so the sign of
    # the cofactor sum is exact
    if _det3(U.tolist()) < 0:
        U = -U
    if _det3(Vt.tolist()) < 0:
        Vt = -Vt
    M, N = _rays(points)
    # hypotheses (R1, t), (R1, -t), (R2, t), (R2, -t), scored in one call;
    # the first of equal votes wins
    R1, R2 = U @ _W @ Vt, U @ _W.T @ Vt
    Rs = np.array([R1, R1, R2, R2])
    ts = U[:, 2] * _SIGNS
    us, vs, _ = triangulate_uv(Rs, ts, M, N)
    votes = (np.minimum(us, vs) > 0.0).sum(axis=1).tolist()
    pos = max(votes)
    best = votes.index(pos)
    if pos <= len(points) // 2:
        raise ChiralityFailureError(
            f"no decomposition places a majority of points in front of both cameras "
            f"(best {pos}/{len(points)})"
        )
    t, u, v = ts[best], us[best], vs[best]
    residual = float(np.max(np.abs(np.einsum("ij,jk,ik->i", N, E, M))))
    t_norm = np.linalg.norm(t)
    # np.mean's own sum and division, without its wrapper
    depth_scale = np.add.reduce(np.abs(np.concatenate([u, v]))) / (2 * len(points))
    return PoseCandidate(
        q=quat_from_rotation(Rs[best]),
        algebraic_residual=residual,
        t=t / t_norm,
        depths_u=u,
        depths_v=v,
        chirality_ok=pos == len(points),
        scale_note="unit-translation",
        t_depth_ratio=float(t_norm / depth_scale),
    )
