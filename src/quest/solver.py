"""Rotation, translation, and depth recovery from the coefficient matrix.

The 35-monomial system A @ x = 0 is turned into an ordinary eigenvalue
problem by splitting the monomials into a block x1 that is eliminated
through the pseudo-inverse of the complementary columns (QUEST6_SPLIT,
QUEST7_SPLIT):

- 7 points (A is 35x35): x1 is the four monomials w^4, w^3 x, w^3 y,
  w^3 z. The rows of -pinv(A2) @ A1 belonging to w x^3, x^4, x^3 y, x^3 z
  form a 4x4 matrix whose eigenvectors are the quaternions themselves,
  with eigenvalue x^3 / w^3.
- 6 points (A is 20x35): x1 is the twenty monomials containing w. With
  v = x1 / w, the relation x * v = w * B @ v holds for a 20x20 matrix B
  whose rows are unit selectors when x * v stays inside x1 and rows of
  -pinv(A2) @ A1 otherwise; eigenvectors hold the degree-3 monomials
  of q, with eigenvalue x / w.

Every step works on whole arrays and keeps the bits of a per-vector loop.
Both methods take their rank test and pseudo-inverse from one SVD of A2,
and fill B from index tables built at import.
Eigenvector selection, quaternion extraction and scoring act on a stack
of eigenvector matrices at once, with a mask of each matrix's
candidates, and translation treats all candidates as one stack.

Translation and both views' depths come from the null vector of the
stacked rigid-motion system C, taken from one stacked eigh of C^T C; a
candidate whose null space is not isolated takes the SVD of C.
Candidates are ranked by the algebraic residual ||A @ x(q)|| with
chirality (all depths positive) used to demote mirrored solutions.

A is the plain C(n, 3) x 35 array of build_A; the solvers check only its
shape. estimate_pose builds one per frame, a gauge frame's from rotated
ray arrays; the original A scores every frame's candidates, and the kept
ones are translated in one call. The elimination, B-fill, eigen
solve, extraction and scoring take a leading sample axis: estimate_pose
runs them on a stack of one, and ransac_pose on a block of minimal
samples at once, whose candidates stay arrays from the eigen solve to
the hypotheses. RANSAC needs a hypothesis's translation only to score
consensus, so a block's candidates take theirs from the epipolar
constraint on their own sample's rays, one stacked k x 3 SVD for the
whole block. They stay in each sample's scoring order, unranked, since
the winner is picked by inlier count and mean error alone. A candidate
whose sample leaves only t = 0 is a rotation-only hypothesis
(_hypotheses); the others are polished in lockstep on the sine of
each ray's angle to its epipolar plane, which needs no triangulation
and comes from two per-ray tables of Kronecker products, and one that
this polish leaves below a minimal inlier set is dropped. The polish
carries each pose's cost, gradient and Gauss-Newton matrix as one Gram
matrix of its residual rows. The winner is refit with the full
rigid-motion system.

MINIMAL_POINTS is the one method table; estimate_pose also dispatches the
8-point essential-matrix baseline ("eightpt") so every caller shares it.
"""

from __future__ import annotations

import math
import operator

import numpy as np

from . import baseline
from .coeffs import _rows, _triples, build_A
from .core import (
    _CANONICAL_EPS,
    IDENTITY_QUATERNION,
    Correspondence,
    PoseCandidate,
    Quaternion,
    monomial_positions,
    monomials_of_degree,
    quat_from_rotation,
    quat_to_rotation,
    triangulate_uv,
    _rays,
    _rotation_entries,
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
# _POW_INDEX[m, c] picks component c's power in degree-4 monomial m from
# the powers 0..4 of each component (_POWERS, on components repeated 5x).
_POWERS = np.tile(np.arange(5.0), 4)
_POW_INDEX = 5 * np.arange(4) + np.array(_DEG4)

_PINV_RCOND = 1e-10
# Rank is measured at the float noise floor of these unit-norm-row
# matrices: exact zeros land near 1e-14 relative, while the smallest
# genuine singular value of a solvable scene stays above ~2e-12.
# Regularizing the pseudo-inverse (harmless) and declaring a structural
# rank collapse (fatal) need different tolerances.
_RANK_FLOOR = 1e-12

#: Minimal point count per pose method: the only method table.
MINIMAL_POINTS = {"quest6": 6, "quest7": 7, "eightpt": 8}

#: Monomial splits (x1 indices, x2 indices) into the 35 degree-4 columns:
#: x1 is eliminated through the pseudo-inverse of the x2 columns.
QUEST7_SPLIT = (tuple(range(4)), tuple(range(4, 35)))
QUEST6_SPLIT = (
    tuple(i for i, e in enumerate(_DEG4) if e[0] >= 1),
    tuple(i for i, e in enumerate(_DEG4) if e[0] == 0),
)


def _x2_rows(split, monomials):
    """Rows of -pinv(A2) @ A1 (one per x2 monomial) holding `monomials`."""
    x2 = [_DEG4[i] for i in split[1]]
    return np.array([x2.index(e) for e in monomials])


# quest7's B: the rows of w x^3, x^4, x^3 y, x^3 z.
_QUEST7_ROWS = _x2_rows(QUEST7_SPLIT, [(1, 3, 0, 0), (0, 4, 0, 0), (0, 3, 1, 0), (0, 3, 0, 1)])
# quest6's B: row r is x times the degree-3 monomial r. With a factor w it
# is a unit selector of that monomial divided by w; otherwise a row of
# -pinv(A2) @ A1.
_X_TIMES = [(e[0], e[1] + 1, e[2], e[3]) for e in _DEG3]
_SELECTOR_ROWS = np.array([r for r, g in enumerate(_X_TIMES) if g[0] >= 1])
_SELECTOR_COLS = np.array([_POS3[(g[0] - 1,) + g[1:]] for g in _X_TIMES if g[0] >= 1])
_BBAR_ROWS = np.array([r for r, g in enumerate(_X_TIMES) if g[0] == 0])
_BBAR_SOURCE = _x2_rows(QUEST6_SPLIT, [g for g in _X_TIMES if g[0] == 0])
# Quaternion extraction from degree-3 monomials: _MIXED[a, o] is the
# position of a^2 * o, so its diagonal holds w^3, x^3, y^3, z^3.
_MIXED = np.array([[_POS3[tuple(2 * (i == a) + (i == o) for i in range(4))] for o in range(4)]
                   for a in range(4)])
_CUBES = _MIXED.diagonal()
# A component below 1e-3 of the anchor (its cube below _CUBE_RATIO of the
# anchor's) is read linearly: a cube root amplifies a near-zero cube's rounding.
_CUBE_RATIO = 1e-9


def _row_norms(X: np.ndarray) -> np.ndarray:
    """Euclidean norm of each row of X (..., rows, cols), with the bits
    np.linalg.norm gives that row alone: a stacked matmul runs the same
    BLAS dot per row, while norm(axis=...) would sum in another order."""
    rows = np.ascontiguousarray(X).reshape(-1, X.shape[-1])
    return np.sqrt((rows[:, None, :] @ rows[:, :, None])[:, 0, 0]).reshape(X.shape[:-1])


def _pinv(mat: np.ndarray):
    """Pseudo-inverse and singular values of mat (..., rows, cols) from one
    stacked SVD. The formula and cutoff are numpy.linalg.pinv's at rcond
    _PINV_RCOND, so each matrix keeps its bits; the singular values serve
    the caller's rank test."""
    u, s, vt = np.linalg.svd(mat, full_matrices=False)
    large = s > _PINV_RCOND * s[..., :1]
    inv = np.divide(1.0, s, where=large, out=np.zeros_like(s))
    return np.swapaxes(vt, -1, -2) @ (inv[..., :, None] * np.swapaxes(u, -1, -2)), s


def _near_real_eigenvectors(B: np.ndarray):
    """Eigenvectors of each real matrix in the stack B (S x k x k) from one
    stacked call: the real parts V (S x k x k) of LAPACK's vectors, as
    columns, and a mask (S x k) that keeps those whose eigenvalue has an
    imaginary part of exactly 0, or all of a matrix with none (noise can
    push a real pair slightly complex); extraction ignores a column's sign.
    The name is kept for perfbench/spans.py, which traces it as solver.eig."""
    vals, vecs = np.linalg.eig(B)
    kept = vals.imag == 0.0
    return vecs.real, kept | ~kept.any(axis=1)[:, None]


def _quat_from_cubic_vector(V: np.ndarray, kept: np.ndarray):
    """Canonical unit quaternions (L, 4) from the kept columns of the
    eigenvector matrices V (S, 4 or 20, k), and the mask (S, k) of the L
    columns that give one, in row-major order.

    Columns of 4 entries are the quaternions themselves (quest7). Columns
    of 20 entries hold the degree-3 monomials (quest6): with a the
    component of the largest |cube|, component o is cbrt(|o^3|) with the
    sign of the entry a^2 o, or a^2 o / cbrt(|a^3|)^2 when |o^3| is below
    _CUBE_RATIO |a^3|. Columns that vanish are skipped. The norm squares
    with libm pow as Python's ** does (np.float_power, not numpy's x*x) and
    sums in Quaternion.norm's order, for Quaternion.normalized's bits."""
    cols = V.transpose(0, 2, 1)[kept]
    if V.shape[1] == 20:
        at = np.arange(len(cols))
        cubes = np.abs(cols[:, _CUBES])
        anchor = cubes.argmax(axis=1)
        mags = np.cbrt(cubes)
        peak, root = cubes[at, anchor][:, None], mags[at, anchor][:, None]
        mixed = cols[at[:, None], _MIXED[anchor]]  # a^2 o; a^3 at the anchor
        linear = np.divide(mixed, root * root, out=np.zeros_like(mixed), where=root > 0.0)
        comps = np.where(cubes >= _CUBE_RATIO * peak, np.copysign(mags, mixed), linear)
        # a vanishing column gets zero components, which the norm test drops
        cols = np.where(np.abs(cols).max(axis=1)[:, None] >= 1e-12, comps, 0.0)
    sq = np.float_power(cols, 2.0)
    norms = np.sqrt(((sq[:, 0] + sq[:, 1]) + sq[:, 2]) + sq[:, 3])
    good = norms >= 1e-12
    U = cols[good] / norms[good, None]
    live = np.zeros(kept.shape, dtype=bool)
    live[kept] = good
    # canonical sign: the first component beyond _CANONICAL_EPS is positive
    lead = U[np.arange(len(U)), (np.abs(U) > _CANONICAL_EPS).argmax(axis=1)]
    return np.where(lead[:, None] < 0.0, -U, U), live


def _canonical_unit(q: Quaternion) -> Quaternion:
    return q.normalized().canonical()


def _rank_error(svals: np.ndarray, method: str):
    """The DegeneracyError of an elimination block whose singular values
    svals (descending) fail the rank rule of _rotation_stack."""
    if method == "quest6":
        return DegenerateConfigurationError(
            "6-point elimination block lost rank; the correspondences do not "
            "constrain the rotation (near-180-degree motion or degenerate points)")
    # the pseudo-inverse's cutoff decides (a gauge frame may still solve);
    # the reported rank is the count of singular values above the noise floor
    decide_rank = int(np.count_nonzero(svals > _PINV_RCOND * svals[0]))
    rank = int(np.count_nonzero(svals > _RANK_FLOOR * svals[0]))
    gap = svals[decide_rank - 1] / svals[decide_rank] if svals[decide_rank] > 0.0 else math.inf
    return CriticalSurfaceError(
        f"elimination block rank {rank} (effective rank {decide_rank} < 31, "
        f"singular-value gap {gap:.2e}); points may lie on a critical "
        "surface - the 6-point solver handles coplanar scenes", measured_rank=rank, gap=gap)


def _rotation_stack(A: np.ndarray, method: str):
    """Rotation candidates of each coefficient matrix in the stack A
    (S x rows x 35): unit quaternions and their mask as
    _quat_from_cubic_vector gives them, and per matrix None or the
    DegeneracyError its rank test raises (it gets no candidates).

    Both methods share one elimination: one stacked SVD of the x2 block
    gives the pseudo-inverse and the rank test, and only the B-fill
    differs. The rank test asks for the smallest singular value above the
    pseudo-inverse's cutoff and the largest above _RANK_FLOOR: A's rows
    have unit norm, so a block of rounding noise fails however its
    singular values compare with each other. The B-fills, eigen solves
    and extractions run as stacked calls over the whole stack; a stack in
    which every matrix fails stops before them."""
    x1, x2 = QUEST6_SPLIT if method == "quest6" else QUEST7_SPLIT
    pinv, svals = _pinv(A[:, :, x2])
    ok = (svals[:, -1] > _PINV_RCOND * svals[:, 0]) & (svals[:, 0] > _RANK_FLOOR)
    failed = [None if k else _rank_error(s, method) for k, s in zip(ok.tolist(), svals)]
    if not ok.any():
        return np.zeros((0, 4)), np.zeros((len(A), len(x1)), dtype=bool), failed
    X1 = -pinv @ A[:, :, x1]
    if method == "quest6":
        B = np.zeros((len(A), 20, 20))
        B[:, _SELECTOR_ROWS, _SELECTOR_COLS] = 1.0
        B[:, _BBAR_ROWS] = X1[:, _BBAR_SOURCE]
    else:
        B = X1[:, _QUEST7_ROWS]
    V, kept = _near_real_eigenvectors(B)
    return (*_quat_from_cubic_vector(V, kept & ok[:, None]), failed)


def _rotations(A: np.ndarray, method: str):
    """Rotation candidates of one coefficient matrix: a stack of one."""
    n = MINIMAL_POINTS[method]
    rows = math.comb(n, 3)
    if A.shape != (rows, 35):
        raise ValueError(f"{method} requires the {rows}x35 matrix built from exactly {n} points")
    U, _, (error,) = _rotation_stack(A[None], method)
    if error is not None:
        raise error
    return [Quaternion(*q) for q in U.tolist()]


def _rotation_matrices(Q: np.ndarray) -> np.ndarray:
    """quat_to_rotation of each unit quaternion in Q (..., 4), bit for bit."""
    entries = _rotation_entries(*np.moveaxis(Q, -1, 0))
    return np.stack(entries, axis=-1).reshape(Q.shape[:-1] + (3, 3))


def quest7_rotations(A: np.ndarray):
    """Rotation candidates (at most 4) from a 7-point coefficient matrix.

    Raises CriticalSurfaceError when the 31-column elimination block loses
    rank, which is the structural signature of points on a critical
    surface (it collapses to rank 20 for coplanar scenes); the 6-point
    solver still works there. The rank test reads the singular values of
    the same SVD that gives the pseudo-inverse, as in quest6."""
    return _rotations(A, "quest7")


def quest6_rotations(A: np.ndarray):
    """Rotation candidates (at most 20) from a 6-point coefficient matrix.

    Identical views (zero motion) make every row w times a cubic, so the
    elimination block of the w-free monomials is zero and loses rank;
    the identity, whose monomial vector is the first unit vector, then
    solves every row and is the one candidate."""
    try:
        return _rotations(A, "quest6")
    except DegenerateConfigurationError:
        if np.linalg.norm(A[:, 0]) > _RANK_FLOOR:
            raise
        return [IDENTITY_QUATERNION]


def score_candidates(A: np.ndarray, qs, live=None):
    """Rank rotation candidates by ||A @ x(q)|| ascending, keep the best 4.

    The residual vanishes exactly when q solves every polynomial row, so
    on noiseless data it singles out the mathematically feasible
    candidates. Near-duplicates (same rotation, |<q, u>| >= 1 - 1e-9) are
    collapsed first, keeping the earliest; the ranking sort is stable.

    For one matrix A and a list qs of Quaternions, returns the ranked
    PoseCandidates. For a stack A (S, rows, 35), qs (S, k, 4) and live
    (S, k) marking the candidates, returns per sample the positions in k
    of the best 4, their residuals and which of them are filled, each
    (S, min(k, 4)), with the bits of each sample's own call."""
    if A.shape[-1] != 35:
        raise ValueError(f"score_candidates requires 35 monomial columns, got shape {A.shape}")
    single = live is None
    if single and not qs:
        raise NoSolutionError("no rotation candidates to score")
    Q = np.array([[[q.w, q.x, q.y, q.z] for q in qs]]) if single else qs
    A, live = (A[None], np.ones(Q.shape[:2], dtype=bool)) if single else (A, live)
    dup = np.abs(Q @ Q.swapaxes(1, 2)) >= 1.0 - 1e-9
    keep = live
    if np.count_nonzero(dup) > np.count_nonzero(live):  # not only each with itself
        earlier = np.tril(dup, -1) & live[:, None, :]
        keep = live & ~earlier.any(axis=2)
        # a duplicate only of dropped candidates is kept: loop over those samples
        for s in np.flatnonzero((earlier & ~keep[:, None, :]).any(axis=(1, 2))):
            for i in np.flatnonzero(live[s]):
                keep[s, i] = not (earlier[s, i] & keep[s]).any()
    X = np.zeros(keep.shape + (35,))
    # a monomial multiplies its 4 component powers in np.prod's order
    F = (Q[keep].repeat(5, axis=1) ** _POWERS)[:, _POW_INDEX]
    X[keep] = F[..., 0] * F[..., 1] * F[..., 2] * F[..., 3]
    residuals = _row_norms((A[:, None] @ X[..., None])[..., 0])
    order = np.where(keep, residuals, np.inf).argsort(axis=1, kind="stable")[:, :4]
    at = np.arange(len(Q))[:, None]
    residuals, valid = residuals[at, order], keep[at, order]
    if not single:
        return order, residuals, valid
    return [PoseCandidate(q=qs[i], algebraic_residual=r)
            for i, r in zip(order[valid].tolist(), residuals[valid].tolist())]


# The eigenvector of C^T C's smallest eigenvalue is off by up to about
# eps ||C||^2 / gap (Golub & Van Loan, Matrix Computations, 8.6): a
# candidate whose two smallest eigenvalues lie within this fraction of
# the largest one takes the SVD of C instead.
_GRAM_GAP = 1e-6


def recover_translation_depths(cands, points):
    """The candidates with translation and per-point depths filled in.

    For each candidate's rotation the rigid-motion constraints of all k
    points stack into a 3k x (2k + 3) system C whose null vector holds
    (t, u1, v1, ..., uk, vk) up to one common scale. It is the
    eigenvector of the smallest eigenvalue of C^T C, unless the two
    smallest eigenvalues are closer than _GRAM_GAP of the largest (pure
    rotation, small parallax, a near-double minimum); such a candidate
    takes the rightmost singular vector of C. The depths are ambiguous
    when the two smallest singular values of C differ by less than 1e-8
    of the largest. The global sign is flipped so most depths are
    positive (on a tie, their sum), then the result is scaled to ||t|| = 1
    unless the translation is negligible against the depths, in which case
    the mean absolute depth is scaled to 1, so a near-zero t stays near zero.
    All candidates' systems are solved as one stack on the list of matches
    `points`, and each candidate gets the bits it would get alone."""
    # rays indexed (point, 1, xyz), broadcast over the candidates
    M, N = (rays.reshape(-1, 1, 3) for rays in _rays(list(points)))
    k = len(M)
    if k < 2:
        raise InsufficientPointsError("need at least 2 points to recover translation")
    R = np.array([quat_to_rotation(c.q) for c in cands]).reshape(-1, 3, 3)  # [] gives no rows
    C = np.zeros((len(cands), 3 * k, 2 * k + 3))
    blocks = C.reshape(len(cands), k, 3, 2 * k + 3)  # point i's three rows
    i = np.arange(k)
    blocks[:, :, :, 0:3] = np.eye(3)
    # indexed (point, candidate, row); a stacked matrix-vector product,
    # since R @ M.T would round differently
    blocks[:, i, :, 3 + 2 * i] = (R @ M[..., None])[..., 0]
    blocks[:, i, :, 4 + 2 * i] = -N
    # eigenpairs of C^T C, ascending: the null vector is the first one's
    lam, V = np.linalg.eigh(C.swapaxes(1, 2) @ C)
    Y = V[:, :, 0]
    svals = np.sqrt(np.maximum(lam[:, ::-1], 0.0))  # C's, descending
    close = np.flatnonzero(lam[:, 1] - lam[:, 0] < _GRAM_GAP * lam[:, -1])
    if len(close):
        # k = 2 needs the full Vt for its null vector
        _, s, Vt = np.linalg.svd(C[close], full_matrices=True)
        Y[close] = Vt[:, -1]
        # With fewer rows than columns the trailing singular values are exact zeros.
        svals[close] = 0.0
        svals[close, :s.shape[1]] = s
    ambiguous = (svals[:, -2] - svals[:, -1]) < 1e-8 * svals[:, 0]

    votes = np.sign(Y[:, 3:]).sum(axis=1)  # positive minus negative depths
    negate = np.where(votes != 0.0, votes, Y[:, 3:].sum(axis=1)) < 0.0
    Y = np.where(negate[:, None], -Y, Y)
    depths = Y[:, 3:]
    chirality_ok = np.all(depths > 0.0, axis=1)
    t_norm = _row_norms(Y[:, :3])
    mean_depth = np.mean(np.abs(depths), axis=1)
    ratio = np.divide(t_norm, mean_depth, out=np.full_like(t_norm, math.inf),
                      where=mean_depth > 0.0)
    unit_t = t_norm > 1e-8 * mean_depth
    Y = Y / np.where(unit_t, t_norm, np.where(mean_depth > 0.0, mean_depth, 1.0))[:, None]
    return [
        PoseCandidate(q=cand.q, algebraic_residual=cand.algebraic_residual, t=y[:3],
                      depths_u=y[3::2], depths_v=y[4::2], chirality_ok=ok,
                      scale_note="unit-translation" if unit else "unit-mean-depth",
                      t_depth_ratio=r, ambiguous_depths=amb)
        for cand, y, ok, r, amb, unit in zip(cands, Y, chirality_ok.tolist(), ratio.tolist(),
                                             ambiguous.tolist(), unit_t.tolist())
    ]


# A frame has solved once a candidate has |w| >= _MIN_W: the eigenvalue
# parameterization (eigenvalues x^3 / w^3 or x / w) degenerates at w = 0,
# a 180-degree relative rotation, so candidates near it are unreliable.
_MIN_W = 0.1

# Fixed gauge rotations used to move the solve away from the x/w
# singularity at w ~ 0. Tried in order; axes are spread out so at least
# one composition has |w| well above 0.
_GAUGE_QUATERNIONS = (
    Quaternion(0.5, 0.5, 0.5, 0.5),
    Quaternion(0.5, -0.5, 0.5, -0.5),
    Quaternion(math.sqrt(0.5), math.sqrt(0.5), 0.0, 0.0),
)


def _apply_gauge(N: np.ndarray, g: Quaternion):
    """The rays N (k, 3) rotated by g, each rounded as R @ n rounds it, and
    re-normalized; None when one becomes parallel to the image plane."""
    rotated = (quat_to_rotation(g) @ N[..., None])[..., 0]
    if (np.abs(rotated[:, 2]) < 1e-9).any():
        return None
    return rotated / rotated[:, 2:]


def estimate_pose(points, method: str = "quest6"):
    """Full pose estimation: ranked PoseCandidates, best first, at most 4.

    Rotation uses the minimal subset with lowest indices; translation,
    depths and chirality use all points. Candidates failing chirality are
    demoted below every passing one but kept, since pixel noise can flip
    the test on the true solution. If the solve collapses or no scored
    candidate has |w| >= _MIN_W, gauge frames rotate the minimal subset's
    second-view rays by fixed rotations until one yields a candidate with
    |w| >= _MIN_W; its rotations are composed back and scored on the
    original frame's A (a degenerate triple there raises before any gauge
    frame). The surviving candidates get translation, depths and
    chirality in one call.

    method "eightpt" is the essential-matrix baseline on all points: one
    candidate, decompose_essential(eight_point(points), points)."""
    points = list(points)
    if method not in MINIMAL_POINTS:
        raise ValueError(f"unknown method {method!r}")
    minimal = MINIMAL_POINTS[method]
    if len(points) < minimal:
        raise InsufficientPointsError(
            f"{method} needs at least {minimal} points, got {len(points)}"
        )
    if method == "eightpt":
        return [baseline.decompose_essential(baseline.eight_point(points), points)]

    rotations = quest6_rotations if method == "quest6" else quest7_rotations
    A = build_A(points[:minimal])
    try:
        cands = score_candidates(A, rotations(A))
    except DegeneracyError as e:
        # A gauge frame keeps rank(A), and rank(A2) >= rank(A) - 4 (A2 drops
        # the four x1 columns): a lower elimination rank reaches 31 in no frame.
        if isinstance(e, CriticalSurfaceError) and e.measured_rank + len(QUEST7_SPLIT[0]) < 31:
            raise
        cands, first_error = [], e

    if not any(abs(c.q.w) >= _MIN_W for c in cands):
        M, N = _rays(points[:minimal])
        for g in _GAUGE_QUATERNIONS:
            gauged = _apply_gauge(N, g)
            if gauged is None:
                continue
            rows = _rows(M, gauged, _triples(minimal))
            if not rows.any(axis=1).all():  # a row vanished
                continue
            try:
                gauged_qs = rotations(rows)
            except DegeneracyError:
                continue
            # the w-degeneracy test lives in the gauged frame
            if any(abs(q.w) >= _MIN_W for q in gauged_qs):
                cands = score_candidates(A, [_canonical_unit(g.conjugate() * q) for q in gauged_qs])
                break
    if not cands:  # the first frame raised and no gauge frame solved
        raise first_error
    cands = recover_translation_depths(cands, points)
    return sorted(cands, key=lambda c: (not c.chirality_ok, c.algebraic_residual))


def _angular_errors(R: np.ndarray, t: np.ndarray, M: np.ndarray, N: np.ndarray):
    """Angle (radians) between each second-view ray and its reprojection,
    with the triangulated depths u, v. R and t may carry a leading pose
    axis (see triangulate_uv); the outputs then have shape (..., k).

    A pair without depths (u = v = 0: rays parallel under R, or t = 0)
    gets error pi, so consensus counts it as an outlier by both of its
    tests."""
    u, v, reproj = triangulate_uv(R, t, M, N)
    num = np.einsum("...ij,ij->...i", reproj, N)
    # np.linalg.norm's formula
    den = np.sqrt(np.add.reduce(reproj * reproj, -1)) * np.linalg.norm(N, axis=1)
    den = np.where(den == 0.0, 1e-300, den)
    errs = np.arccos(np.minimum(np.maximum(num / den, -1.0), 1.0))  # np.clip, unwrapped
    return np.where((u == 0.0) & (v == 0.0), np.pi, errs), u, v


def _consensus(R: np.ndarray, t: np.ndarray, M: np.ndarray, N: np.ndarray, threshold: float):
    """Angular errors and the inlier mask of a pose: a point is an inlier
    when its error is below `threshold` and it triangulates in front of
    both cameras (u > 0 and v > 0). The depth test rejects the mirrored
    (twisted-pair) pose, whose angles can match the true pose's."""
    errs, u, v = _angular_errors(R, t, M, N)
    return errs, (errs < threshold) & (u > 0.0) & (v > 0.0)


_EYE3, _EYE6 = np.eye(3), np.eye(6)
# k @ _SKEW is the cross-product matrix of k (k x v = K @ v), row-major.
_SKEW = np.array([[0, 0, 0, 0, 0, -1, 0, 1, 0],
                  [0, 0, 1, 0, 0, 0, -1, 0, 0],
                  [0, -1, 0, 1, 0, 0, 0, 0, 0]], dtype=float)


def _rotation_exp(delta: np.ndarray) -> np.ndarray:
    """Rotation matrices (..., 3, 3) of axis-angle increments (..., 3)
    (Rodrigues); an increment below 1e-14 gives the identity."""
    theta = _row_norms(delta)[..., None, None]
    small = theta < 1e-14
    K = (delta / np.where(small, 1.0, theta)[..., 0] @ _SKEW).reshape(delta.shape + (3,))
    R = _EYE3 + np.sin(theta) * K + (1.0 - np.cos(theta)) * (K @ K)
    return np.where(small, _EYE3, R)


# Forward-difference step of the polish Jacobian, and the three rotation
# increments it perturbs a pose by.
_H = 1e-7
_DR = _rotation_exp(_H * _EYE3)
# The seven poses of one polish evaluation, a pose and its six
# perturbations, as rotation factors (R_s = _STEP_R[s] @ R) and
# translation offsets (t_s = t + _STEP_T[s]).
_STEP_R = np.concatenate([_EYE3[None], _DR, np.repeat(_EYE3[None], 3, axis=0)])
_STEP_T = np.concatenate([np.zeros((4, 3)), _H * _EYE3])
# Scales the Gram matrix of the rows [f; f_1 - f; ...; f_6 - f] to
# [[f . f, (J^T f)^T], [J^T f, J^T J]], J the forward-difference Jacobian.
_ROW_SCALE = np.r_[1.0, np.full(6, 1.0 / _H)]
_GRAM_SCALE = np.outer(_ROW_SCALE, _ROW_SCALE)
# Levenberg-Marquardt rounds per polish.
_POLISH_ITERS = 8
# Sine of the angle between R m and n at or below which a point has no
# parallax under R: its epipolar row is rounding noise.
_PARALLAX_FLOOR = 1e-8


def _epipolar_tables(M: np.ndarray, N: np.ndarray):
    """The per-ray tables of _epipolar_errors for the rays M, N (k, 3):
    K and L (9, k), whose column i is n_i (x) m_i (a row of the eight-point
    design matrix, Hartley 1997) and |n_i|^2 m_i (x) m_i."""
    Mt, Nt = M.T, N.T
    K = (Nt[:, None] * Mt[None]).reshape(9, -1)
    L = (Mt[:, None] * Mt[None]).reshape(9, -1) * np.einsum("ij,ij->i", N, N)
    return K, L


def _epipolar_errors(R: np.ndarray, t: np.ndarray, K: np.ndarray, L: np.ndarray) -> np.ndarray:
    """Sine of the angle between each second-view ray n_i and its epipolar
    plane under the poses (R, t) (..., 3, 3), (..., 3): shape (..., k),
    n_i . (E m_i) / (|E m_i| |n_i|) with E = [t]x R, and 0 where E m_i = 0.
    K and L are _epipolar_tables of the rays: both terms are linear in a
    pose's matrices, n_i . (E m_i) = vec(E) . (n_i (x) m_i) and
    |E m_i|^2 |n_i|^2 = vec(E^T E) . (|n_i|^2 m_i (x) m_i), so a stack of
    poses takes two products with the tables and no triangulation. The
    sine is signed, scale-free in t, and blind to depth signs and to t
    wherever n_i is parallel to R m_i."""
    E = (t @ _SKEW).reshape(t.shape[:-1] + (3, 3)) @ R
    num = E.reshape(E.shape[:-2] + (9,)) @ K
    # a copied transpose: numpy's A^T @ A path (syrk) is slower on small stacks
    sq = (np.ascontiguousarray(np.swapaxes(E, -1, -2)) @ E).reshape(E.shape[:-2] + (9,)) @ L
    # rounding can take sq to or below 0 where E m_i vanishes
    return num / np.sqrt(np.where(sq > 0.0, sq, np.inf))


def _gram(R: np.ndarray, t: np.ndarray, W: np.ndarray, tables):
    """The LM state of the poses (R, t) (P, 3, 3), (P, 3): per pose the
    Gram matrix (7, 7) of its rows [f; f_1 - f; ...; f_6 - f] scaled by
    _GRAM_SCALE, which holds the cost f . f at [0, 0], J^T f below it and
    J^T J beside that. f is the epipolar sine (_epipolar_errors, on the
    rays' _epipolar_tables `tables`) of the pose and f_s those of its
    three rotation increments and three translation offsets (_STEP_R,
    _STEP_T), zero on the rays its weights W (P, n) leave out; one call
    of it evaluates all seven poses of every pose."""
    Rs, ts = _STEP_R @ R[:, None], t[:, None] + _STEP_T
    F = np.where(W[:, None], _epipolar_errors(Rs, ts, *tables), 0.0)
    F[:, 1:] -= F[:, :1]
    # a copied transpose, as in _epipolar_errors
    return (F @ np.ascontiguousarray(np.swapaxes(F, -1, -2))) * _GRAM_SCALE


def _lm_steps(H: np.ndarray, rhs: np.ndarray, live: np.ndarray):
    """Solutions of the systems H (P, 6, 6) x = rhs (P, 6) flagged `live`,
    from one stacked solve of all, with zero steps for the rest; and the
    flags left live. When the stacked solve meets a singular matrix, each
    live system is solved on its own, and a singular one is no longer live."""
    try:
        return np.where(live[:, None], np.linalg.solve(H, rhs[..., None])[..., 0], 0.0), live
    except np.linalg.LinAlgError:
        step, live = np.zeros_like(rhs), live.copy()
        for p in np.flatnonzero(live):
            try:
                step[p] = np.linalg.solve(H[p:p + 1], rhs[p:p + 1, :, None])[0, :, 0]
            except np.linalg.LinAlgError:
                live[p] = False
    return step, live


def _polish_pose(R0: np.ndarray, t0: np.ndarray, M: np.ndarray, N: np.ndarray, W: np.ndarray):
    """Levenberg-Marquardt over the rotation and the translation direction
    (the residual does not see the translation scale, so t stays on the
    unit sphere) for a stack of poses R0 (P, 3, 3), t0 (P, 3) in lockstep,
    on the rays M, N. W (P, n) holds each pose's 0/1 ray weights: a pose
    fits only the rays it weights. The residual is the sine of each ray's
    angle to its epipolar plane (_epipolar_errors), which needs no
    triangulation and comes from per-ray tables built once per call. It
    cannot see t on a ray with n parallel to R m, so RANSAC does not
    polish a rotation-only hypothesis (_hypotheses).

    Each pose keeps its own damping and its own accept/reject decisions,
    and a pose whose damped system turns singular stops where it is. The
    LM state of a pose is (R, t, G), G the Gram matrix of its residual and
    forward differences (_gram), which holds the cost, J^T f and J^T J. A
    round evaluates every trial pose together with its six perturbations
    in one residual call and one stacked product: an accepted trial
    brings its G to the next round, and a rejected one leaves the current
    G in place. Each pose gets the bits it would get in a stack of one.
    Deterministic."""
    R = np.array(R0, dtype=float)
    t = np.asarray(t0, dtype=float)
    t = t / _row_norms(t)[:, None]
    tables = _epipolar_tables(M, N)
    G = _gram(R, t, W, tables)
    lam = np.full(len(R), 1e-4)
    live = np.ones(len(R), dtype=bool)
    for _ in range(_POLISH_ITERS):
        step, live = _lm_steps(G[:, 1:, 1:] + lam[:, None, None] * _EYE6, -G[:, 1:, 0], live)
        if not live.any():
            break
        R_new = _rotation_exp(step[:, :3]) @ R
        t_new = t + step[:, 3:]
        t_new = t_new / _row_norms(t_new)[:, None]
        G_new = _gram(R_new, t_new, W, tables)
        better = live & (G_new[:, 0, 0] < G[:, 0, 0])
        R = np.where(better[:, None, None], R_new, R)
        t = np.where(better[:, None], t_new, t)
        G = np.where(better[:, None, None], G_new, G)
        lam = np.where(better, np.maximum(lam * 0.3, 1e-10), lam * 10.0)
    return R, t


def _epipolar_translations(q: np.ndarray, R: np.ndarray, M: np.ndarray, N: np.ndarray):
    """Hypothesis-grade unit translations (C, 3) of the rotations R
    (C, 3, 3) of the quaternions q (C, 4), each on its own sample's first-
    and second-view rays M, N (C, k, 3), and which candidates are
    rotation-only (C,).

    For a fixed rotation R the epipolar constraint t . (R m_i x n_i) = 0
    makes t the null vector of the k x 3 matrix of those rows, each scaled
    to unit length; one stacked SVD solves them all. The sign puts most of
    the sample's depths (triangulate_uv) in front of the cameras.

    A point whose rays R m_i and n_i are parallel to within
    _PARALLAX_FLOOR has no parallax: its row is rounding noise, yet it
    still pins t, since at finite depth it lies on the baseline and t runs
    along its ray. A candidate with one such point takes
    recover_translation_depths on its sample instead, which finds that t.
    Two such points leave only t = 0, a camera that only rotates: the
    candidate is rotation-only and gets t = 0. Each candidate gets the
    bits it would get alone."""
    a = M @ np.swapaxes(R, -1, -2)  # R m_i, indexed (candidate, point, xyz)
    rows = np.cross(a, N)
    lengths = _row_norms(rows)
    parallax = lengths > _PARALLAX_FLOOR * _row_norms(a) * _row_norms(N)
    unit = np.divide(rows, lengths[..., None], out=np.zeros_like(rows), where=parallax[..., None])
    t = np.linalg.svd(unit, full_matrices=False)[2][:, -1]
    u, v, _ = triangulate_uv(R, t, M, N)
    # more negative depths than positive ones: the sign flips
    t *= np.where(np.sign(u).sum(axis=1) + np.sign(v).sum(axis=1) < 0.0, -1.0, 1.0)[:, None]
    flat = (~parallax).sum(axis=1)  # points without parallax
    for c in np.flatnonzero(flat == 1):
        (full,) = recover_translation_depths(
            [PoseCandidate(q=Quaternion(*q[c].tolist()), algebraic_residual=0.0)],
            map(Correspondence, M[c], N[c]))
        t[c] = full.t
    still = flat >= 2
    t[still] = 0.0
    return t, still


def _block_candidates(M: np.ndarray, N: np.ndarray, idx: np.ndarray, method: str):
    """Per minimal sample (a row of idx into the rays M, N), its candidates
    in scoring order with hypothesis-grade translations
    (_epipolar_translations): arrays of their samples (ascending), unit
    quaternions, rotation matrices, translations and rotation-only flags.
    One coefficient build, rotation solve, scoring call and translation
    call serve the block. A sample whose rank test failed, or none of
    whose candidates has |w| >= _MIN_W, takes estimate_pose's candidates,
    none of them rotation-only; one where that raises, or with a vanished
    coefficient row (a repeated match, say), gets none.
    A sample's rows and solve do not depend on the other samples of its
    block, so the block drops such a sample and solves the rest together."""
    A = _rows(M, N, idx[:, _triples(idx.shape[1])].reshape(-1, 3)).reshape(len(idx), -1, 35)
    whole = np.flatnonzero(A.any(axis=2).all(axis=1))  # no row vanished
    A = A[whole]
    U, live, _ = _rotation_stack(A, method)
    Q = np.zeros(live.shape + (4,))
    Q[live] = U
    order, _, valid = score_candidates(A, Q, live)
    at = np.nonzero(valid)[0]
    q = Q[at, order[valid]]
    sample = whole[at]
    R = _rotation_matrices(q)
    cands = sample, q, R, *_epipolar_translations(q, R, M[idx[sample]], N[idx[sample]])
    unsolved = whole[~np.isin(whole, sample[np.abs(q[:, 0]) >= _MIN_W])]
    if not len(unsolved):
        return cands
    parts = [tuple(a[~np.isin(sample, unsolved)] for a in cands)]
    for s in unsolved.tolist():
        try:
            pose = estimate_pose(map(Correspondence, M[idx[s]], N[idx[s]]), method)
        except DegeneracyError:
            continue
        qs = np.array([[c.q.w, c.q.x, c.q.y, c.q.z] for c in pose])
        parts.append((np.full(len(pose), s), qs, _rotation_matrices(qs),
                      np.array([c.t for c in pose]), np.zeros(len(pose), dtype=bool)))
    cands = tuple(map(np.concatenate, zip(*parts)))
    order = np.argsort(cands[0], kind="stable")
    return tuple(a[order] for a in cands)


def _hypotheses(cands, M: np.ndarray, N: np.ndarray, threshold: float, minimal: int):
    """The hypotheses of a block's candidates (_block_candidates), in
    order, leaving out those whose consensus falls below `minimal`
    inliers before or after polish: arrays of their samples, R, t, angular
    errors and inlier masks.

    A rotation-only candidate keeps t = 0 and is not polished, since the
    epipolar residual cannot see its rays: its errors are the angles
    between n_i and R m_i, arctan2(|R m_i x n_i|, R m_i . n_i), and its
    inliers those below `threshold`, with no depth test. Any other
    candidate with t = 0 triangulates u = v = 0 at every match, so
    consensus finds no inlier for it. The rest are polished on their
    provisional inliers with the epipolar residual and re-masked with the
    same test, once more if the mask changed and still holds `minimal`
    points; a pass that leaves fewer drops the candidate. Every candidate
    goes through one stacked _consensus call; each pass is one stacked
    _polish_pose call and one _consensus call over the candidates it
    covers."""
    sample, _, R, t, still = cands
    R, t = R.copy(), t.copy()  # polished in place
    errs, masks = _consensus(R, t, M, N, threshold)
    if still.any():
        a = M @ np.swapaxes(R[still], -1, -2)  # R m_i
        errs[still] = np.arctan2(_row_norms(np.cross(a, N)), np.einsum("...ij,ij->...i", a, N))
        masks[still] = errs[still] < threshold
    kept = masks.sum(axis=1) >= minimal
    todo = np.flatnonzero(kept & ~still)
    for _ in range(2):
        if not len(todo):
            break
        W = masks[todo]
        R[todo], t[todo] = _polish_pose(R[todo], t[todo], M, N, W)
        errs[todo], masks[todo] = _consensus(R[todo], t[todo], M, N, threshold)
        todo = todo[(masks[todo] != W).any(axis=1) & (masks[todo].sum(axis=1) >= minimal)]
    kept &= masks.sum(axis=1) >= minimal
    return sample[kept], R[kept], t[kept], errs[kept], masks[kept]


def ransac_pose(points, method: str = "quest6", threshold: float = 0.005,
                max_iters: int = 200, seed: int = 0):
    """Robust pose estimation; returns (PoseCandidate, boolean inlier mask).

    Repeatedly samples a minimal subset, estimates candidate poses, and
    counts as inliers the correspondences whose angular reprojection error
    is below `threshold` (radians) and that triangulate in front of both
    cameras (positive depth in each view). Each candidate that clears a
    minimal inlier set is locally polished on its provisional inliers and
    re-masked with the same test after each pass, which lets the true-pose
    basin reach its full consensus instead of being limited by
    minimal-sample noise (in the spirit of LO-RANSAC's local
    optimisation, Chum, Matas & Kittler 2003). The polish is LM on a
    triangulation-free residual, the sine of each ray's angle to its
    epipolar plane under E = [t]x R; a pass whose re-mask falls below a
    minimal inlier set drops the candidate. A candidate whose sample
    leaves only t = 0 (a camera that only rotates) is scored as a
    rotation instead, unpolished (_hypotheses). The candidate with the
    most inliers wins (ties: lower mean angular error over its inliers);
    translation and depths are refit on the winning inliers.
    Deterministic for a fixed seed; the iteration count shrinks
    adaptively once a large consensus is found. Only the quaternion
    methods sample; "eightpt" raises ValueError.

    Samples are drawn and solved in blocks, as arrays (_block_candidates):
    one coefficient build, rotation solve, scoring call, epipolar
    translation call (consensus needs no more) and consensus call per
    block, then at most two lockstep polish passes over its hypotheses,
    each one polish call and one consensus call over the hypotheses
    it covers. The samples are then walked in order as
    one-at-a-time sampling would: the same draws, stop and winner, and
    each hypothesis polished as it would be alone. No run whose consensus
    falls short of all n matches stops before the stop for a consensus of
    n - 1, its floor. Each block holds the larger of twice the samples
    walked before it and what is left of the floor, and no more than the
    current stop allows: the first block is the floor, and the later ones
    double. A run whose first sample explains every match, which only
    outlier-free input gives, still solves the whole first block. Past
    the stop a run solves at most twice the samples it walked before its
    last block, unless a sample of the first block explains every
    match."""
    points = list(points)
    if method == "eightpt" or method not in MINIMAL_POINTS:
        raise ValueError(f"RANSAC sampling is only defined for quest6/quest7, not {method!r}")
    minimal = MINIMAL_POINTS[method]
    if len(points) < minimal:
        raise InsufficientPointsError(f"need at least {minimal} points")
    if isinstance(threshold, (bool, np.bool_)) or not 0.0 < threshold < math.inf:
        raise ValueError(f"threshold must be positive and finite, got {threshold!r}")
    try:
        if isinstance(max_iters, (bool, np.bool_)):
            raise TypeError
        max_iters = operator.index(max_iters)
    except TypeError:
        raise ValueError(f"max_iters must be an integer, got {max_iters!r}") from None
    if max_iters < 1:
        raise ValueError(f"max_iters must be at least 1, got {max_iters}")
    rng = np.random.default_rng(seed)
    n = len(points)
    M, N = _rays(points)

    def stop(count):
        # samples after which an all-inlier sample at this consensus would
        # be missed with probability below 1e-6 (Fischler & Bolles 1981)
        # if its chance were (count / n)**minimal, the chance with
        # replacement. Samples are drawn without replacement, where the
        # chance is the smaller prod((count - i) / (n - i)), so the miss
        # chance at this stop is higher: for n = 30 and quest6, 7e-6 at a
        # consensus of 24 (stop 46) and 6e-4 at 15 (stop 878 before
        # max_iters caps it); 5e-7 at the floor, 29 (stop 9)
        denom = math.log1p(-min((count / n)**minimal, 1.0 - 1e-12))
        return min(max_iters, math.ceil(math.log(1e-6) / denom))

    floor = stop(n - 1)
    best = None  # ((count, -mean_err), R, t, mask, sample)
    needed = max_iters
    it = 0
    while it < needed:
        size = min(needed - it, max(2 * it, floor - it))
        idx = np.array([rng.choice(n, size=minimal, replace=False) for _ in range(size)])
        owner, Rs, ts, errs, masks = _hypotheses(_block_candidates(M, N, idx, method), M, N,
                                                 threshold, minimal)
        bounds = np.searchsorted(owner, np.arange(len(idx) + 1)).tolist()
        for s, sample in enumerate(idx):
            if it >= needed:
                break
            it += 1
            for h in range(bounds[s], bounds[s + 1]):
                count = int(masks[h].sum())
                key = (count, -float(errs[h][masks[h]].mean()))
                if best is None or key > best[0]:
                    best = (key, Rs[h], ts[h], masks[h], sample)
                    needed = it if count == n else stop(count)
    if best is None:
        raise RobustFailureError("no pose candidate reached a minimal inlier set")
    _, R, t, mask, sample = best
    q = _canonical_unit(quat_from_rotation(R))
    inliers = [p for p, keep in zip(points, mask) if keep]
    # residual reported on the minimal-subset matrix of the inlier set; a
    # repeated match among its first points leaves a degenerate triple, and
    # the winning hypothesis's own sample serves instead
    try:
        A = build_A(inliers[:minimal])
    except DegeneracyError:
        A = build_A([points[i] for i in sample])
    (cand,) = recover_translation_depths(score_candidates(A, [q]), inliers)
    return cand, mask
