"""Rotation, translation, and depth recovery from the coefficient matrix.

The 35-monomial system A @ x = 0 is turned into an ordinary eigenvalue
problem by splitting the monomials into a block x1 that is eliminated
through the pseudo-inverse of the complementary columns:

- 7 points (A is 35x35): x1 is the four monomials w^4, w^3 x, w^3 y,
  w^3 z. The rows of -pinv(A2) @ A1 belonging to w x^3, x^4, x^3 y, x^3 z
  form a 4x4 matrix whose eigenvectors are the quaternions themselves,
  with eigenvalue x^3 / w^3.
- 6 points (A is 20x35): x1 is the twenty monomials containing w. With
  v = x1 / w, the relation x * v = w * B @ v holds for a 20x20 matrix B
  whose rows are unit selectors when x * v stays inside x1 and rows of
  -pinv(A2) @ A1 otherwise; eigenvectors deliver the cubes of the
  quaternion components, with eigenvalue x / w.

Translation and both views' depths then come from the null vector of the
stacked rigid-motion system, and candidates are ranked by the algebraic
residual ||A @ x(q)|| with chirality (all depths positive) used to demote
mirrored solutions.

MINIMAL_POINTS is the one method table; estimate_pose also dispatches the
8-point essential-matrix baseline ("eightpt") so every caller shares it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from . import baseline
from .coeffs import CoefficientMatrix, build_A
from .core import (
    Correspondence,
    PoseCandidate,
    Quaternion,
    monomial_positions,
    monomial_vector,
    monomials_of_degree,
    quat_from_rotation,
    quat_to_rotation,
    triangulate_uv,
)
from .errors import (
    CriticalSurfaceError,
    DegeneracyError,
    DegenerateConfigurationError,
    InsufficientPointsError,
    NoSolutionError,
    RobustFailureError,
)

_DEG3 = monomials_of_degree(3)
_DEG4 = monomials_of_degree(4)
_POS3 = monomial_positions(3)

_PINV_RCOND = 1e-10
# Rank is measured at the float noise floor of these unit-norm-row
# matrices: exact zeros land near 1e-14 relative, while the smallest
# genuine singular value of a solvable scene stays above ~2e-12.
# Regularizing the pseudo-inverse (harmless) and declaring a structural
# rank collapse (fatal) need different tolerances.
_RANK_FLOOR = 1e-12
_IMAG_RATIO = 1e-6

#: Minimal point count per pose method: the only method table.
MINIMAL_POINTS = {"quest6": 6, "quest7": 7, "eightpt": 8}


@dataclass(frozen=True)
class SplitSpec:
    """A monomial split x = (x1, x2) together with the eigenvalue label."""

    x1_indices: tuple
    x2_indices: tuple
    eigen_label: str

    def __post_init__(self):
        combined = sorted(self.x1_indices + self.x2_indices)
        if combined != list(range(len(_DEG4))):
            raise ValueError("split must partition the 35 monomials")


def split_for_quest7() -> SplitSpec:
    return SplitSpec(tuple(range(4)), tuple(range(4, 35)), "x^3/w^3")


def split_for_quest6() -> SplitSpec:
    x1 = tuple(i for i, e in enumerate(_DEG4) if e[0] >= 1)
    x2 = tuple(i for i, e in enumerate(_DEG4) if e[0] == 0)
    return SplitSpec(x1, x2, "x/w")


class TranslationResult(NamedTuple):
    t: np.ndarray
    depths_u: np.ndarray
    depths_v: np.ndarray
    chirality_ok: bool
    t_depth_ratio: float
    ambiguous_depths: bool
    scale_note: str


def _pinv(mat: np.ndarray) -> np.ndarray:
    return np.linalg.pinv(mat, rcond=_PINV_RCOND)


def _near_real_eigenvectors(B: np.ndarray):
    """Eigenvectors of a real matrix that are real up to a complex phase.

    Each eigenvector is rotated so its largest component is real positive;
    vectors whose imaginary part stays below _IMAG_RATIO of the real part
    are accepted. If fewer than 2 survive (noise can push a real pair
    slightly complex), the real parts of all phase-aligned vectors are
    returned instead."""
    _, vecs = np.linalg.eig(B)
    aligned = []
    kept = []
    for i in range(vecs.shape[1]):
        v = vecs[:, i]
        k = int(np.argmax(np.abs(v)))
        phase = v[k] / abs(v[k])
        v = v / phase
        aligned.append(v.real)
        if np.linalg.norm(v.imag) <= _IMAG_RATIO * np.linalg.norm(v.real):
            kept.append(v.real)
    if len(kept) < 2:
        kept = aligned
    return kept


def _canonical_unit(q: Quaternion) -> Quaternion:
    return q.normalized().canonical()


def quest7_rotations(A: CoefficientMatrix):
    """Rotation candidates (at most 4) from a 7-point coefficient matrix.

    Raises CriticalSurfaceError when the 31-column elimination block loses
    rank, which is the structural signature of points on a critical
    surface (it collapses to rank 20 for coplanar scenes); the 6-point
    solver still works there."""
    if A.n_points != 7 or A.A.shape != (35, 35):
        raise ValueError("quest7 requires the 35x35 matrix built from exactly 7 points")
    split = split_for_quest7()
    A1 = A.A[:, split.x1_indices]
    A2 = A.A[:, split.x2_indices]
    svals = np.linalg.svd(A2, compute_uv=False)
    # conservative solvability cut: anything the pseudo-inverse would
    # regularize away is treated as unsolved here, so the caller can retry
    # under a gauge rotation; the reported rank uses the noise floor,
    # which is the honest count of nonzero singular values
    decide_rank = int(np.sum(svals > _PINV_RCOND * svals[0]))
    if decide_rank < 31:
        rank = int(np.sum(svals > _RANK_FLOOR * svals[0]))
        gap = (
            svals[decide_rank - 1] / svals[decide_rank]
            if svals[decide_rank] > 0.0
            else math.inf
        )
        raise CriticalSurfaceError(
            f"elimination block rank {rank} (effective rank {decide_rank} < 31, "
            f"singular-value gap {gap:.2e}); points may lie on a critical "
            "surface - the 6-point solver handles coplanar scenes",
            measured_rank=rank,
            gap=gap,
        )
    bbar = -_pinv(A2) @ A1
    x2_monos = [_DEG4[i] for i in split.x2_indices]
    picks = [x2_monos.index(e) for e in [(1, 3, 0, 0), (0, 4, 0, 0), (0, 3, 1, 0), (0, 3, 0, 1)]]
    B = bbar[picks, :]
    out = []
    for v in _near_real_eigenvectors(B):
        if np.linalg.norm(v) < 1e-12:
            continue
        out.append(_canonical_unit(Quaternion.from_array(v)))
    return out


def _quat_from_cubic_vector(v: np.ndarray) -> Quaternion | None:
    """Quaternion from an eigenvector holding the 20 degree-3 monomials.

    Component magnitudes come from cube roots of the w^3, x^3, y^3, z^3
    entries; signs come from the mixed monomials anchored at the largest
    cube entry (numerically larger when a component is small), falling
    back to the cube entry's own sign."""
    scale = np.abs(v).max()
    if scale < 1e-12:
        return None
    cube_idx = [_POS3[e] for e in [(3, 0, 0, 0), (0, 3, 0, 0), (0, 0, 3, 0), (0, 0, 0, 3)]]
    cubes = v[cube_idx]
    anchor = int(np.argmax(np.abs(cubes)))
    if cubes[anchor] < 0.0:
        v = -v
        cubes = -cubes
    mags = np.cbrt(np.abs(cubes))
    comps = np.zeros(4)
    comps[anchor] = mags[anchor]
    # exponent of the anchor^2 * other monomial, e.g. w^2 x for anchor w
    for other in range(4):
        if other == anchor:
            continue
        exp = [0, 0, 0, 0]
        exp[anchor] = 2
        exp[other] = 1
        mixed = v[_POS3[tuple(exp)]]
        sign_source = mixed if abs(mixed) > 1e-12 * scale else cubes[other]
        comps[other] = math.copysign(mags[other], sign_source) if sign_source != 0.0 else 0.0
    q = Quaternion.from_array(comps)
    if q.norm() < 1e-12:
        return None
    return _canonical_unit(q)


def quest6_rotations(A: CoefficientMatrix):
    """Rotation candidates (at most 20) from a 6-point coefficient matrix."""
    if A.n_points != 6 or A.A.shape != (20, 35):
        raise ValueError("quest6 requires the 20x35 matrix built from exactly 6 points")
    split = split_for_quest6()
    A1 = A.A[:, split.x1_indices]
    A2 = A.A[:, split.x2_indices]
    svals = np.linalg.svd(A2, compute_uv=False)
    if svals[-1] <= _PINV_RCOND * svals[0]:
        raise DegenerateConfigurationError(
            "6-point elimination block lost rank; the correspondences do not "
            "constrain the rotation (near-180-degree motion or degenerate points)"
        )
    bbar = -_pinv(A2) @ A1
    x2_monos = [_DEG4[i] for i in split.x2_indices]
    x2_pos = {e: i for i, e in enumerate(x2_monos)}
    B = np.zeros((20, 20))
    for r, e3 in enumerate(_DEG3):
        g = (e3[0], e3[1] + 1, e3[2], e3[3])
        if g[0] >= 1:
            B[r, _POS3[(g[0] - 1, g[1], g[2], g[3])]] = 1.0
        else:
            B[r, :] = bbar[x2_pos[g], :]
    out = []
    for v in _near_real_eigenvectors(B):
        q = _quat_from_cubic_vector(v)
        if q is not None:
            out.append(q)
    return out


def score_candidates(A: CoefficientMatrix, qs):
    """Rank rotation candidates by ||A @ x(q)|| ascending, keep the best 4.

    The residual vanishes exactly when q solves every polynomial row, so
    on noiseless data it singles out the mathematically feasible
    candidates; near-duplicates (same rotation) are collapsed first."""
    if not qs:
        raise NoSolutionError("no rotation candidates to score")
    unique = []
    for q in qs:
        if all(abs(float(np.dot(q.as_array(), u.as_array()))) < 1.0 - 1e-9 for u in unique):
            unique.append(q)
    scored = [
        PoseCandidate(q=q, algebraic_residual=float(np.linalg.norm(A.A @ monomial_vector(q))))
        for q in unique
    ]
    scored.sort(key=lambda c: c.algebraic_residual)
    return scored[:4]


def recover_translation_depths(q: Quaternion, points) -> TranslationResult:
    """Translation and per-point depths for a fixed rotation.

    The rigid-motion constraints of all k points stack into a
    3k x (2k + 3) system whose null vector holds (t, u1, v1, ..., uk, vk);
    the rightmost singular vector recovers them up to one common scale.
    The global sign is flipped so most depths are positive, then the
    result is scaled to ||t|| = 1 unless the translation is negligible
    against the depths, in which case the mean absolute depth is scaled
    to 1 (so a near-zero translation stays near zero)."""
    points = list(points)
    k = len(points)
    if k < 2:
        raise InsufficientPointsError("need at least 2 points to recover translation")
    R = quat_to_rotation(q)
    M = np.array([c.m for c in points])
    N = np.array([c.n for c in points])
    C = np.zeros((3 * k, 2 * k + 3))
    blocks = C.reshape(k, 3, 2 * k + 3)  # point i's three rows
    i = np.arange(k)
    blocks[:, :, 0:3] = np.eye(3)
    # a stacked matrix-vector product: R @ M.T would round differently
    blocks[i, :, 3 + 2 * i] = (R @ M[:, :, None])[:, :, 0]
    blocks[i, :, 4 + 2 * i] = -N
    _, svals, Vt = np.linalg.svd(C, full_matrices=True)
    y = Vt[-1]
    # With fewer rows than columns the trailing singular values are exact zeros.
    padded = np.concatenate([svals, np.zeros(Vt.shape[0] - svals.shape[0])])
    ambiguous = bool((padded[-2] - padded[-1]) < 1e-8 * padded[0])

    depths = y[3:]
    if np.sum(depths > 0.0) < np.sum(depths < 0.0):
        y = -y
        depths = y[3:]
    chirality_ok = bool(np.all(depths > 0.0))
    t = y[:3]
    t_norm = float(np.linalg.norm(t))
    mean_depth = float(np.mean(np.abs(depths)))
    ratio = t_norm / mean_depth if mean_depth > 0.0 else math.inf
    if t_norm > 1e-8 * mean_depth:
        y = y / t_norm
        note = "unit-translation"
    else:
        y = y / mean_depth if mean_depth > 0.0 else y
        note = "unit-mean-depth"
    return TranslationResult(
        t=y[:3],
        depths_u=y[3::2],
        depths_v=y[4::2],
        chirality_ok=chirality_ok,
        t_depth_ratio=ratio,
        ambiguous_depths=ambiguous,
        scale_note=note,
    )


# Fixed gauge rotations used to move the solve away from the x/w
# singularity at w ~ 0 (a 180-degree relative rotation). Tried in order;
# axes are spread out so at least one composition has |w| well above 0.
_GAUGE_QUATERNIONS = (
    Quaternion(0.5, 0.5, 0.5, 0.5),
    Quaternion(0.5, -0.5, 0.5, -0.5),
    Quaternion(math.sqrt(0.5), math.sqrt(0.5), 0.0, 0.0),
)


def _apply_gauge(points, g: Quaternion):
    """Rotate the second view by g and re-normalize, or None when a rotated
    ray becomes parallel to the image plane."""
    Rg = quat_to_rotation(g)
    out = []
    for c in points:
        n2 = Rg @ c.n
        if abs(n2[2]) < 1e-9:
            return None
        out.append(Correspondence(c.m, n2 / n2[2]))
    return out


def _rank_candidates(cands):
    return sorted(cands, key=lambda c: (not c.chirality_ok, c.algebraic_residual))


def _rotation_candidates(points, method):
    A = build_A(points[: MINIMAL_POINTS[method]])
    qs = quest6_rotations(A) if method == "quest6" else quest7_rotations(A)
    return A, qs


def _finish_candidates(A, qs, points):
    """Score rotations on A, recover translation/depths on all points, and
    rank with chirality failures demoted below every passing candidate."""
    filled = [
        replace(cand, **recover_translation_depths(cand.q, points)._asdict())
        for cand in score_candidates(A, qs)
    ]
    return _rank_candidates(filled)


def estimate_pose(points, method: str = "quest6"):
    """Full pose estimation: ranked PoseCandidates, best first, at most 4.

    Rotation uses the minimal subset with lowest indices; translation,
    depths and chirality use all points. Candidates failing chirality are
    demoted below every passing one but kept, since pixel noise can flip
    the test on the true solution. If the solve collapses or every
    candidate has |w| < 0.1 (the eigenvalue parameterization degenerates
    at w = 0), the second view is rotated by a fixed gauge rotation and
    the rotation solve is repeated there; the recovered rotations are
    composed back into the original frame before translation, chirality,
    and ranking.

    method "eightpt" is the essential-matrix baseline on all points: one
    candidate, decompose_essential(eight_point(points), points)."""
    points = list(points)
    if method not in MINIMAL_POINTS:
        raise ValueError(f"unknown method {method!r}")
    if len(points) < MINIMAL_POINTS[method]:
        raise InsufficientPointsError(
            f"{method} needs at least {MINIMAL_POINTS[method]} points, got {len(points)}"
        )
    if method == "eightpt":
        return [baseline.decompose_essential(baseline.eight_point(points), points)]

    first_error = None
    cands = []
    A = None
    try:
        A, qs = _rotation_candidates(points, method)
        cands = _finish_candidates(A, qs, points)
    except DegeneracyError as e:
        first_error = e

    if cands and any(abs(c.q.w) >= 0.1 for c in cands):
        return cands

    for g in _GAUGE_QUATERNIONS:
        gauged = _apply_gauge(points, g)
        if gauged is None:
            continue
        try:
            _, gauged_qs = _rotation_candidates(gauged, method)
        except DegeneracyError as e:
            if first_error is None:
                first_error = e
            continue
        # the w-degeneracy test lives in the gauged frame
        if not gauged_qs or all(abs(q.w) < 0.1 for q in gauged_qs):
            continue
        g_inv = g.conjugate()
        composed = [_canonical_unit(g_inv * q) for q in gauged_qs]
        if A is None:
            A = build_A(points[: MINIMAL_POINTS[method]])
        try:
            return _finish_candidates(A, composed, points)
        except DegeneracyError as e:
            if first_error is None:
                first_error = e
            continue

    if cands:
        return cands
    raise first_error if first_error is not None else NoSolutionError("no candidates found")


def _angular_errors(R: np.ndarray, t: np.ndarray, M: np.ndarray, N: np.ndarray):
    """Angle (radians) between each second-view ray and its reprojection,
    with the triangulated depths u, v. R and t may carry a leading pose
    axis (see triangulate_uv); the outputs then have shape (..., k)."""
    u, v, reproj = triangulate_uv(R, t, M, N)
    num = np.einsum("...ij,ij->...i", reproj, N)
    den = np.linalg.norm(reproj, axis=-1) * np.linalg.norm(N, axis=1)
    den = np.where(den == 0.0, 1e-300, den)
    return np.arccos(np.clip(num / den, -1.0, 1.0)), u, v


def _consensus(R: np.ndarray, t: np.ndarray, M: np.ndarray, N: np.ndarray, threshold: float):
    """Angular errors and the inlier mask of a pose: a point is an inlier
    when its error is below `threshold` and it triangulates in front of
    both cameras (u > 0 and v > 0). The depth test rejects the mirrored
    (twisted-pair) pose, whose angles can match the true pose's."""
    errs, u, v = _angular_errors(R, t, M, N)
    return errs, (errs < threshold) & (u > 0.0) & (v > 0.0)


def _rotation_exp(delta: np.ndarray) -> np.ndarray:
    """Rotation matrix of an axis-angle increment (Rodrigues)."""
    theta = np.linalg.norm(delta)
    if theta < 1e-14:
        return np.eye(3)
    k = delta / theta
    K = np.array([[0.0, -k[2], k[1]], [k[2], 0.0, -k[0]], [-k[1], k[0], 0.0]])
    return np.eye(3) + math.sin(theta) * K + (1.0 - math.cos(theta)) * (K @ K)


# Forward-difference step of the polish Jacobian, and the three rotation
# increments and translation offsets it perturbs a pose by.
_H = 1e-7
_DR = np.stack([_rotation_exp(_H * e) for e in np.eye(3)])
_DT = _H * np.eye(3)


def _polish_pose(R0: np.ndarray, t0: np.ndarray, M: np.ndarray, N: np.ndarray, iters: int = 8):
    """Levenberg-Marquardt on the angular reprojection errors of the rays
    M, N over the rotation and the translation direction (the translation
    scale does not affect the angles, so t stays on the unit sphere).
    The forward-difference Jacobian comes from one stacked evaluation of
    the six perturbed poses. Deterministic."""
    R = np.array(R0, dtype=float)
    t = np.asarray(t0, dtype=float)
    t = t / np.linalg.norm(t)
    f, _, _ = _angular_errors(R, t, M, N)
    cost = float(f @ f)
    lam = 1e-4
    for _ in range(iters):
        Rs = np.concatenate([_DR @ R, [R] * 3])
        ts = np.concatenate([[t] * 3, t + _DT])
        fs, _, _ = _angular_errors(Rs, ts, M, N)
        # J in C order, as a column-filled array would be: a transposed
        # view sends J.T @ f and J.T @ J to other BLAS kernels, whose
        # results differ in the last bits
        J = np.ascontiguousarray(((fs - f) / _H).T)
        g = J.T @ f
        H = J.T @ J + lam * np.eye(6)
        try:
            step = np.linalg.solve(H, -g)
        except np.linalg.LinAlgError:
            break
        R_new = _rotation_exp(step[:3]) @ R
        t_new = t + step[3:]
        t_new = t_new / np.linalg.norm(t_new)
        f_new, _, _ = _angular_errors(R_new, t_new, M, N)
        cost_new = float(f_new @ f_new)
        if cost_new < cost:
            R, t, f, cost = R_new, t_new, f_new, cost_new
            lam = max(lam * 0.3, 1e-10)
        else:
            lam *= 10.0
    return R, t


def ransac_pose(points, method: str = "quest6", threshold: float = 0.005,
                max_iters: int = 200, seed: int = 0):
    """Robust pose estimation; returns (PoseCandidate, boolean inlier mask).

    Repeatedly samples a minimal subset, estimates candidate poses, and
    counts as inliers the correspondences whose angular reprojection error
    is below `threshold` (radians) and that triangulate in front of both
    cameras (positive depth in each view). Each candidate that clears a
    minimal inlier set is locally polished on its provisional inliers (LM
    on the same angular metric, re-masked with the same test after each
    round), which lets the true-pose basin reach its full consensus
    instead of being limited by minimal-sample noise. The candidate with
    the most inliers wins (ties: lower mean angular error over its
    inliers); translation and depths are refit on the winning inliers.
    Deterministic for a fixed seed; the iteration count shrinks adaptively
    once a large consensus is found. Only the quaternion methods sample;
    "eightpt" raises ValueError."""
    points = list(points)
    if method == "eightpt" or method not in MINIMAL_POINTS:
        raise ValueError(f"RANSAC sampling is only defined for quest6/quest7, not {method!r}")
    minimal = MINIMAL_POINTS[method]
    if len(points) < minimal:
        raise InsufficientPointsError(f"need at least {minimal} points")
    if threshold <= 0.0:
        raise ValueError("threshold must be positive")
    rng = np.random.default_rng(seed)
    n = len(points)
    M = np.array([c.m for c in points])
    N = np.array([c.n for c in points])

    best = None  # ((count, -mean_err), R, t, mask)
    needed = max_iters
    it = 0
    while it < min(needed, max_iters):
        it += 1
        sample_idx = rng.choice(n, size=minimal, replace=False)
        sample = [points[i] for i in sample_idx]
        try:
            cands = estimate_pose(sample, method)
        except DegeneracyError:
            continue
        for cand in cands:
            if cand.t is None or float(np.linalg.norm(cand.t)) == 0.0:
                continue
            R = quat_to_rotation(cand.q)
            t = np.asarray(cand.t, dtype=float)
            errs, mask = _consensus(R, t, M, N, threshold)
            if int(mask.sum()) < minimal:
                continue
            for _ in range(2):
                R, t = _polish_pose(R, t, M[mask], N[mask])
                errs, new_mask = _consensus(R, t, M, N, threshold)
                stable = bool((new_mask == mask).all())
                mask = new_mask
                if stable or int(mask.sum()) < minimal:
                    break
            count = int(mask.sum())
            if count < minimal:
                continue
            key = (count, -float(errs[mask].mean()))
            if best is None or key > best[0]:
                best = (key, R, t, mask)
                inlier_ratio = count / n
                if inlier_ratio >= 1.0:
                    needed = it
                else:
                    denom = math.log1p(-min(inlier_ratio**minimal, 1.0 - 1e-12))
                    needed = min(max_iters, math.ceil(math.log(1e-6) / denom))
    if best is None:
        raise RobustFailureError("no pose candidate reached a minimal inlier set")
    _, R, t, mask = best
    q = _canonical_unit(quat_from_rotation(R))
    inliers = [p for p, keep in zip(points, mask) if keep]
    tr = recover_translation_depths(q, inliers)
    # residual reported on the minimal-subset matrix of the inlier set
    residual = float(np.linalg.norm(build_A(inliers[:minimal]).A @ monomial_vector(q)))
    return PoseCandidate(q=q, algebraic_residual=residual, **tr._asdict()), mask
