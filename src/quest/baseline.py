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

import numpy as np

from .core import PoseCandidate, _rays, quat_from_rotation, triangulate_uv
from .errors import ChiralityFailureError, DegenerateConfigurationError, InsufficientPointsError


def _hartley_normalization(xy: np.ndarray) -> np.ndarray:
    """Similarity transform taking the 2D points to centroid 0 and RMS
    radius sqrt(2). Conditioning step; without it the linear solve is
    needlessly noise-fragile."""
    centroid = xy.mean(axis=0)
    rms = np.sqrt(np.mean(np.sum((xy - centroid) ** 2, axis=1)))
    s = np.sqrt(2.0) / rms if rms > 0.0 else 1.0
    return np.array(
        [[s, 0.0, -s * centroid[0]], [0.0, s, -s * centroid[1]], [0.0, 0.0, 1.0]]
    )


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
    T1 = _hartley_normalization(M[:, :2])
    T2 = _hartley_normalization(N[:, :2])
    Mh = M @ T1.T
    Nh = N @ T2.T
    design = np.stack(
        [
            Nh[:, 0] * Mh[:, 0], Nh[:, 0] * Mh[:, 1], Nh[:, 0] * Mh[:, 2],
            Nh[:, 1] * Mh[:, 0], Nh[:, 1] * Mh[:, 1], Nh[:, 1] * Mh[:, 2],
            Nh[:, 2] * Mh[:, 0], Nh[:, 2] * Mh[:, 1], Nh[:, 2] * Mh[:, 2],
        ],
        axis=1,
    )
    _, svals, Vt = np.linalg.svd(design)
    if svals[7] <= 1e-10 * svals[0]:
        raise DegenerateConfigurationError(
            "epipolar design matrix has rank < 8; the correspondences do not "
            "determine a unique essential matrix (coplanar points?)"
        )
    E = Vt[-1].reshape(3, 3)
    E = T2.T @ E @ T1
    U, s, Vt = np.linalg.svd(E)
    sbar = 0.5 * (s[0] + s[1])
    E = U @ np.diag([sbar, sbar, 0.0]) @ Vt
    return E / np.linalg.norm(E)


def decompose_essential(E: np.ndarray, points) -> PoseCandidate:
    """Pose from an essential matrix: four (R, +-t) hypotheses, resolved by
    majority positive-depth voting over the triangulated points.

    The returned candidate has unit-norm translation (the essential matrix
    carries no translation scale); algebraic_residual is the largest
    epipolar residual |n^T E m| over the input points."""
    points = list(points)
    U, _, Vt = np.linalg.svd(E)
    if np.linalg.det(U) < 0:
        U = -U
    if np.linalg.det(Vt) < 0:
        Vt = -Vt
    W = np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
    t_unit = U[:, 2]
    M, N = _rays(points)
    # hypotheses (R1, t), (R1, -t), (R2, t), (R2, -t), scored in one call;
    # argmax keeps the first of equal votes
    R1, R2 = U @ W @ Vt, U @ W.T @ Vt
    Rs = np.stack([R1, R1, R2, R2])
    ts = np.stack([t_unit, -t_unit, t_unit, -t_unit])
    us, vs, _ = triangulate_uv(Rs, ts, M, N)
    votes = np.sum((us > 0.0) & (vs > 0.0), axis=1)
    best = int(np.argmax(votes))
    pos, R, t, u, v = int(votes[best]), Rs[best], ts[best], us[best], vs[best]
    if pos <= len(points) // 2:
        raise ChiralityFailureError(
            f"no decomposition places a majority of points in front of both cameras "
            f"(best {pos}/{len(points)})"
        )
    residual = float(np.max(np.abs(np.einsum("ij,jk,ik->i", N, E, M))))
    return PoseCandidate(
        q=quat_from_rotation(R),
        algebraic_residual=residual,
        t=t / np.linalg.norm(t),
        depths_u=u,
        depths_v=v,
        chirality_ok=bool(np.all(u > 0.0) and np.all(v > 0.0)),
        scale_note="unit-translation",
        t_depth_ratio=float(np.linalg.norm(t) / np.mean(np.abs(np.concatenate([u, v])))),
    )
