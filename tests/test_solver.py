import ast
import math
import warnings
from collections import Counter
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quest import baseline, bench, coeffs, core, solver
from quest.core import Quaternion, monomial_vector, quat_to_rotation
from quest.errors import (
    CriticalSurfaceError,
    DegeneracyError,
    DegenerateTripleError,
    InsufficientPointsError,
    NoSolutionError,
    RobustFailureError,
)
import record_goldens
from conftest import make_outlier_set


def scene(seed, n=8, **kw):
    return bench.generate_scene(bench.SceneConfig(n_points=n, rng_seed=seed, **kw))


def unit_quaternions():
    return (
        st.tuples(*[st.floats(-1, 1) for _ in range(4)])
        .filter(lambda v: sum(c * c for c in v) > 1e-2)
        .map(lambda v: Quaternion(*v).normalized().canonical())
    )


# --- splits -----------------------------------------------------------------

def test_split_seven():
    x1, x2 = solver.QUEST7_SPLIT
    assert x1 == (0, 1, 2, 3)
    assert len(x2) == 31
    assert sorted(x1 + x2) == list(range(35))


def test_split_six_is_w_monomials():
    x1, x2 = solver.QUEST6_SPLIT
    monos = core.monomials_of_degree(4)
    assert len(x1) == 20
    assert all(monos[i][0] >= 1 for i in x1)
    assert all(monos[i][0] == 0 for i in x2)


def test_split_must_partition():
    for x1, x2 in (solver.QUEST6_SPLIT, solver.QUEST7_SPLIT):
        assert sorted(x1 + x2) == list(range(35))


def test_six_point_selector_row_split():
    # multiplying v (degree-3 monomials) by x lands back in x1 for exactly
    # the 10 monomials containing w, and in x2 for the 10 without
    deg3 = core.monomials_of_degree(3)
    in_x1 = sum(1 for e in deg3 if e[0] >= 1)
    assert in_x1 == 10
    assert len(deg3) - in_x1 == 10


# --- cubic-vector extraction ------------------------------------------------

@settings(max_examples=150)
@given(unit_quaternions(), st.floats(-3, 3).filter(lambda s: abs(s) > 1e-3))
def test_quaternion_recovery_from_cubic_monomials(q, scale):
    v = scale * core.monomial_vector(q, degree=3)
    (got,) = solver._quat_from_cubic_vector(v[:, None])
    assert core.rot_error(got, q) < 1e-7


def test_pinv_is_numpy_pinv_with_its_singular_values():
    rng = np.random.default_rng(505)
    for shape in ((20, 15), (35, 31)):
        for near_rank_loss in (False, True):
            A = rng.normal(size=shape)
            if near_rank_loss:
                A[:, -1] = A[:, 1] + 1e-12 * A[:, 0]
            pinv, svals = solver._pinv(A)
            assert np.array_equal(pinv, np.linalg.pinv(A, rcond=solver._PINV_RCOND))
            assert np.array_equal(svals, np.linalg.svd(A, full_matrices=False)[1])
            # a stack gives each matrix the bits of its own call
            stack = np.stack([rng.normal(size=shape), A, rng.normal(size=shape)])
            pinvs, svals_stack = solver._pinv(stack)
            assert np.array_equal(pinvs[1], pinv)
            assert np.array_equal(svals_stack[1], svals)


def _reference_near_real_eigenvectors(B):
    # one eigenvector at a time: the oracle for the whole-matrix version
    _, vecs = np.linalg.eig(B)
    aligned = []
    kept = []
    for i in range(vecs.shape[1]):
        v = vecs[:, i]
        k = int(np.argmax(np.abs(v)))
        phase = v[k] / abs(v[k])
        v = v / phase
        aligned.append(v.real)
        if np.linalg.norm(v.imag) <= solver._IMAG_RATIO * np.linalg.norm(v.real):
            kept.append(v.real)
    if len(kept) < 2:
        kept = aligned
    return kept


def _reference_quat_from_cubic_vector(v):
    scale = np.abs(v).max()
    if scale < 1e-12:
        return None
    pos3 = core.monomial_positions(3)
    cube_idx = [pos3[e] for e in [(3, 0, 0, 0), (0, 3, 0, 0), (0, 0, 3, 0), (0, 0, 0, 3)]]
    cubes = v[cube_idx]
    anchor = int(np.argmax(np.abs(cubes)))
    if cubes[anchor] < 0.0:
        v = -v
        cubes = -cubes
    mags = np.cbrt(np.abs(cubes))
    comps = np.zeros(4)
    comps[anchor] = mags[anchor]
    for other in range(4):
        if other == anchor:
            continue
        exp = [0, 0, 0, 0]
        exp[anchor] = 2
        exp[other] = 1
        mixed = v[pos3[tuple(exp)]]
        sign_source = mixed if abs(mixed) > 1e-12 * scale else cubes[other]
        comps[other] = math.copysign(mags[other], sign_source) if sign_source != 0.0 else 0.0
    q = Quaternion.from_array(comps)
    if q.norm() < 1e-12:
        return None
    return q.normalized().canonical()


def _eigen_test_matrix(rng, case):
    """20x20 matrices whose eigenvectors are: 0 all real (the cubic
    monomials of random rotations), 1 a mix of real vectors and complex
    pairs, 2 only complex pairs (no vector kept, so all are returned)."""
    if case == 0:
        qs = rng.normal(size=(20, 4))
        P = np.column_stack([monomial_vector(Quaternion.from_array(q / np.linalg.norm(q)), 3)
                             for q in qs])
        return P @ np.diag(rng.normal(size=20)) @ np.linalg.inv(P)
    if case == 1:
        return rng.normal(size=(20, 20))
    blocks = np.zeros((20, 20))
    for b in range(10):
        a, w = rng.normal(), rng.uniform(0.5, 2.0)
        blocks[2 * b:2 * b + 2, 2 * b:2 * b + 2] = [[a, -w], [w, a]]
    P = rng.normal(size=(20, 20))
    return P @ blocks @ np.linalg.inv(P)


def test_whole_matrix_extraction_matches_per_vector_reference():
    rng = np.random.default_rng(606)
    mixed = 0
    Bs = [_eigen_test_matrix(rng, trial % 3) for trial in range(200)]
    # one stacked eigen solve gives each matrix the bits of its own call
    stacked = solver._near_real_eigenvectors(np.stack(Bs))
    for trial, B in enumerate(Bs):
        ref = _reference_near_real_eigenvectors(B)
        (V,) = solver._near_real_eigenvectors(B[None])
        assert np.array_equal(V, np.column_stack(ref))
        assert np.array_equal(stacked[trial], V)
        ref_qs = [q for q in map(_reference_quat_from_cubic_vector, ref) if q is not None]
        assert solver._quat_from_cubic_vector(V) == ref_qs
        # all 20 kept (real), some kept (mixed), or none kept (all returned)
        assert V.shape[1] == 20 if trial % 3 != 1 else 2 <= V.shape[1] <= 20
        mixed += trial % 3 == 1 and V.shape[1] < 20
        # sign fallbacks and skipped columns: zero entries, entries near
        # the 1e-12 relative cut, columns of very different scale and a
        # vanishing column
        W = np.where(rng.random(V.shape) < 0.2, 0.0, V)
        W = np.where(rng.random(V.shape) < 0.2, 1e-12 * rng.uniform(0.1, 10.0, V.shape) * W, W)
        W = W * 10.0 ** rng.uniform(-6, 6, W.shape[1])
        j = rng.integers(W.shape[1])
        W[:, j] = 1e-13 * V[:, j]
        ref_qs = [q for q in map(_reference_quat_from_cubic_vector, W.T) if q is not None]
        assert solver._quat_from_cubic_vector(W) == ref_qs
    assert mixed > 0


# --- rotation solvers -------------------------------------------------------

def test_quest6_recovers_noiseless_rotation():
    for seed in (0, 1, 2):
        sc = scene(seed, n=6)
        qs = solver.quest6_rotations(coeffs.build_A(sc.correspondences))
        assert len(qs) <= 20
        assert min(core.rot_error(q, sc.pose.q) for q in qs) < 1e-6


def test_quest6_recovers_coplanar_rotation():
    for seed in (0, 1, 2):
        sc = bench.generate_scene(
            bench.SceneConfig(n_points=6, geometry="coplanar", rng_seed=seed)
        )
        qs = solver.quest6_rotations(coeffs.build_A(sc.correspondences))
        assert min(core.rot_error(q, sc.pose.q) for q in qs) < 1e-6


def test_quest7_recovers_noiseless_rotation():
    for seed in (0, 1, 2):
        sc = scene(seed, n=7)
        qs = solver.quest7_rotations(coeffs.build_A(sc.correspondences))
        assert len(qs) <= 4
        assert min(core.rot_error(q, sc.pose.q) for q in qs) < 1e-6


def test_quest7_coplanar_raises_critical_surface():
    sc = bench.generate_scene(bench.SceneConfig(n_points=7, geometry="coplanar", rng_seed=3))
    with pytest.raises(CriticalSurfaceError) as exc:
        solver.quest7_rotations(coeffs.build_A(sc.correspondences))
    # exact rank of the coplanar constraint space, shown in exact arithmetic
    # by test_exact_rank_coplanar_20_general_31
    assert exc.value.measured_rank == 20
    assert exc.value.gap >= 1e3


def test_quest7_critical_surface_fails_before_pinv(monkeypatch):
    # the cheap failure path: singular values alone decide, in the first
    # frame and in every gauge frame
    def no_pinv(mat):
        raise AssertionError("quest7 computed a pseudo-inverse on a critical surface")

    monkeypatch.setattr(solver, "_pinv", no_pinv)
    sc = bench.generate_scene(bench.SceneConfig(n_points=7, geometry="coplanar", rng_seed=3))
    with pytest.raises(CriticalSurfaceError):
        solver.quest7_rotations(coeffs.build_A(sc.correspondences))
    with pytest.raises(CriticalSurfaceError):
        solver.estimate_pose(list(sc.correspondences), "quest7")


# --- exact rank of the 7-point constraint space ----------------------------
#
# The float path measures rank against a noise floor; this check needs no
# tolerance. Scenes are rational, every coefficient row is recovered over
# GF(p) by evaluating the triple's 6x6 determinant at 35 integer
# quaternions, dividing out w^2 + x^2 + y^2 + z^2 and interpolating, and
# ranks are taken over GF(p). A rank over GF(p) never exceeds the rank over
# the rationals and equals it for all but finitely many primes.

_P = 2**61 - 1
# (1, a, b, c) with a + b + c <= 4: unisolvent for degree-4 forms
_NODES = [(1, a, b, c) for a in range(5) for b in range(5 - a) for c in range(5 - a - b)]


def _mod_p(value):
    f = Fraction(value)
    return f.numerator * pow(f.denominator, _P - 2, _P) % _P


def _rot_quadratic(w, x, y, z):
    """Rotation matrix times w^2 + x^2 + y^2 + z^2, entrywise quadratic."""
    return [
        [w * w + x * x - y * y - z * z, 2 * (x * y - w * z), 2 * (x * z + w * y)],
        [2 * (x * y + w * z), w * w - x * x + y * y - z * z, 2 * (y * z - w * x)],
        [2 * (x * z - w * y), 2 * (y * z + w * x), w * w - x * x - y * y + z * z],
    ]


def _reduce_mod_p(rows, n_pivots=None):
    """Gauss-Jordan over GF(p) in place; returns the rank. With n_pivots
    set, only the first n_pivots columns are reduced (augmented solve)."""
    rank = 0
    for col in range(n_pivots if n_pivots is not None else len(rows[0])):
        piv = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = pow(rows[rank][col], _P - 2, _P)
        rows[rank] = [v * inv % _P for v in rows[rank]]
        for r in range(len(rows)):
            if r != rank and rows[r][col]:
                f = rows[r][col]
                rows[r] = [(a - f * b) % _P for a, b in zip(rows[r], rows[rank])]
        rank += 1
    return rank


def _det_mod_p(M):
    M = [row[:] for row in M]
    det = 1
    for c in range(len(M)):
        piv = next((r for r in range(c, len(M)) if M[r][c]), None)
        if piv is None:
            return 0
        if piv != c:
            M[c], M[piv] = M[piv], M[c]
            det = -det
        det = det * M[c][c] % _P
        inv = pow(M[c][c], _P - 2, _P)
        for r in range(c + 1, len(M)):
            if M[r][c]:
                f = M[r][c] * inv % _P
                M[r] = [(a - f * b) % _P for a, b in zip(M[r], M[c])]
    return det % _P


def _exact_coefficient_matrix(ms, ns):
    """The coefficient matrix over GF(p): one row per 3-point subset in
    lexicographic order, columns in the canonical monomial order. Rows are
    not normalized, which leaves every rank unchanged."""
    ms = [[_mod_p(v) for v in m] for m in ms]
    ns = [[_mod_p(v) for v in n] for n in ns]
    triples = list(combinations(range(len(ms)), 3))
    values = []  # values[node][triple] = det / norm at the node
    for q in _NODES:
        R = _rot_quadratic(*q)
        rm = [[sum(R[r][c] * m[c] for c in range(3)) % _P for r in range(3)] for m in ms]
        inv_norm = pow(sum(v * v for v in q), _P - 2, _P)
        row = []
        for i, j, k in triples:
            M = [[rm[i][r], -ns[i][r], -rm[j][r], ns[j][r], 0, 0] for r in range(3)]
            M += [[rm[i][r], -ns[i][r], 0, 0, -rm[k][r], ns[k][r]] for r in range(3)]
            row.append(_det_mod_p(M) * inv_norm % _P)
        values.append(row)
    monos = core.monomials_of_degree(4)
    aug = [
        [w**a * x**b * y**c * z**d % _P for (a, b, c, d) in monos] + values[r]
        for r, (w, x, y, z) in enumerate(_NODES)
    ]
    assert _reduce_mod_p(aug, n_pivots=len(monos)) == len(monos)
    return [[aug[mono][len(monos) + t] for mono in range(len(monos))] for t in range(len(triples))]


_EXACT_Q = (7, 1, -2, 3)


def _rational_scene(coplanar):
    """Seven rational correspondences under the rotation of _EXACT_Q; the
    3D points lie on the plane z = 6 + x/3 - y/4 or, for a general scene,
    are lifted off it by different amounts."""
    norm = sum(v * v for v in _EXACT_Q)
    R = [[Fraction(v, norm) for v in row] for row in _rot_quadratic(*_EXACT_Q)]
    t = [Fraction(1, 2), Fraction(-1, 3), Fraction(1, 5)]
    xy = [(-1, Fraction(1, 2)), (Fraction(1, 3), Fraction(-2, 3)), (Fraction(3, 4), 1),
          (Fraction(-1, 2), Fraction(-1, 4)), (Fraction(2, 5), Fraction(3, 7)),
          (Fraction(-3, 5), Fraction(-5, 6)), (Fraction(1, 7), Fraction(1, 9))]
    ms, ns = [], []
    for i, (x, y) in enumerate(xy):
        X = [Fraction(x), Fraction(y), 6 + Fraction(x) / 3 - Fraction(y) / 4]
        if not coplanar:
            X[2] += Fraction(i * i, 5)
        Y = [sum(R[r][c] * X[c] for c in range(3)) + t[r] for r in range(3)]
        ms.append([v / X[2] for v in X])
        ns.append([v / Y[2] for v in Y])
    return ms, ns


def _rank_of_columns(A, cols):
    return _reduce_mod_p([[row[c] for c in cols] for row in A])


@pytest.mark.parametrize("coplanar, rank", [(True, 20), (False, 31)])
def test_exact_rank_coplanar_20_general_31(coplanar, rank):
    A = _exact_coefficient_matrix(*_rational_scene(coplanar))
    # the rows are the scene's constraints: the true rotation solves them
    w, x, y, z = _EXACT_Q
    x_true = [w**a * x**b * y**c * z**d for (a, b, c, d) in core.monomials_of_degree(4)]
    assert all(sum(a * v for a, v in zip(row, x_true)) % _P == 0 for row in A)
    # both the full matrix and the 31-column block quest7 eliminates with
    assert _rank_of_columns(A, range(35)) == rank
    assert _rank_of_columns(A, solver.QUEST7_SPLIT[1]) == rank


def test_zero_motion_identity_candidate_quest6():
    sc = scene(9, fixed_rotation=(1.0, 0, 0, 0), fixed_translation=(0.0, 0.0, 0.0))
    A = coeffs.build_A(list(sc.correspondences)[:6])
    qs = solver.quest6_rotations(A)
    assert min(core.rot_error(q, core.IDENTITY_QUATERNION) for q in qs) < 1e-9
    ranked = solver.score_candidates(A, qs)
    assert core.rot_error(ranked[0].q, core.IDENTITY_QUATERNION) < 1e-9


def test_zero_motion_quest7_degenerates():
    # zero parallax decouples the per-point depth scales; the 7-point
    # elimination block collapses and the solver reports it
    sc = scene(9, fixed_rotation=(1.0, 0, 0, 0), fixed_translation=(0.0, 0.0, 0.0))
    with pytest.raises(CriticalSurfaceError):
        solver.quest7_rotations(coeffs.build_A(list(sc.correspondences)[:7]))


def test_rotation_solvers_reject_wrong_point_count():
    sc = scene(0, n=8)
    A = coeffs.build_A(sc.correspondences)
    with pytest.raises(ValueError):
        solver.quest6_rotations(A)
    with pytest.raises(ValueError):
        solver.quest7_rotations(A)


def test_x2_reconstruction_identity():
    for seed, n, (i1, i2) in ((0, 6, solver.QUEST6_SPLIT), (1, 7, solver.QUEST7_SPLIT)):
        sc = scene(seed, n=n)
        A = coeffs.build_A(sc.correspondences)
        x = monomial_vector(sc.pose.q)
        x1 = x[list(i1)]
        x2 = x[list(i2)]
        A1, A2 = A[:, i1], A[:, i2]
        recon = x2 + np.linalg.pinv(A2, rcond=1e-10) @ A1 @ x1
        assert np.linalg.norm(recon) < 1e-8


# --- scoring ----------------------------------------------------------------

def test_score_orders_ground_truth_first():
    sc = scene(2, n=6)
    A = coeffs.build_A(sc.correspondences)
    qs = solver.quest6_rotations(A)
    ranked = solver.score_candidates(A, qs)
    assert len(ranked) <= 4
    assert ranked[0].algebraic_residual < 1e-9
    assert core.rot_error(ranked[0].q, sc.pose.q) < 1e-6


def test_random_quaternion_scores_badly(rng):
    sc = scene(2, n=6)
    A = coeffs.build_A(sc.correspondences)
    for _ in range(20):
        v = rng.normal(size=4)
        q = Quaternion.from_array(v / np.linalg.norm(v))
        res = float(np.linalg.norm(A @ monomial_vector(q)))
        assert res > 1e-2


def test_score_single_candidate_passthrough():
    sc = scene(2, n=6)
    A = coeffs.build_A(sc.correspondences)
    ranked = solver.score_candidates(A, [sc.pose.q])
    assert len(ranked) == 1
    assert ranked[0].q == sc.pose.q


def test_score_empty_candidates_raises():
    sc = scene(2, n=6)
    with pytest.raises(NoSolutionError):
        solver.score_candidates(coeffs.build_A(sc.correspondences), [])


def test_score_ranking_invariant_to_row_rescaling(rng):
    # arbitrary positive per-row scalings vanish under unit normalization,
    # so candidate ranking cannot depend on them
    sc = scene(2, n=6)
    A = coeffs.build_A(sc.correspondences)
    qs = solver.quest6_rotations(A)
    scaled = A * rng.uniform(0.1, 10.0, size=(A.shape[0], 1))
    scaled /= np.linalg.norm(scaled, axis=1, keepdims=True)
    r1 = [c.q for c in solver.score_candidates(A, qs)]
    r2 = [c.q for c in solver.score_candidates(scaled, qs)]
    assert r1 == r2


# --- translation / depths ---------------------------------------------------

def translate(q, points):
    return solver.recover_translation_depths([core.PoseCandidate(q=q, algebraic_residual=0.0)], points)


def test_translation_depths_match_truth():
    sc = scene(4)
    (tr,) = translate(sc.pose.q, sc.correspondences)
    truth = np.concatenate([sc.pose.t, np.ravel(np.column_stack([sc.pose.depths_u, sc.pose.depths_v]))])
    got = np.concatenate([tr.t, np.ravel(np.column_stack([tr.depths_u, tr.depths_v]))])
    scale = truth @ got / (got @ got)
    assert np.linalg.norm(scale * got - truth) < 1e-8 * np.linalg.norm(truth)
    assert tr.chirality_ok
    assert tr.scale_note == "unit-translation"
    assert np.linalg.norm(tr.t) == pytest.approx(1.0, abs=1e-12)


def test_zero_translation_ratio():
    sc = scene(3, fixed_translation=(0.0, 0.0, 0.0))
    (tr,) = translate(sc.pose.q, sc.correspondences)
    assert tr.t_depth_ratio < 1e-6
    assert tr.scale_note == "unit-mean-depth"


def test_rigid_motion_closure():
    sc = scene(6)
    (tr,) = translate(sc.pose.q, sc.correspondences)
    R = quat_to_rotation(sc.pose.q)
    for i, c in enumerate(sc.correspondences):
        res = tr.depths_u[i] * R @ c.m + tr.t - tr.depths_v[i] * c.n
        assert np.linalg.norm(res) < 1e-6 * (abs(tr.depths_u[i]) + abs(tr.depths_v[i]))


def test_translation_needs_two_points():
    sc = scene(4)
    with pytest.raises(InsufficientPointsError):
        translate(sc.pose.q, sc.correspondences[:1])


def _reference_translation(q, points):
    # one candidate at a time: the oracle for the stacked version
    k = len(points)
    R = quat_to_rotation(q)
    M = np.array([c.m for c in points])
    N = np.array([c.n for c in points])
    C = np.zeros((3 * k, 2 * k + 3))
    blocks = C.reshape(k, 3, 2 * k + 3)
    i = np.arange(k)
    blocks[:, :, 0:3] = np.eye(3)
    blocks[i, :, 3 + 2 * i] = (R @ M[:, :, None])[:, :, 0]
    blocks[i, :, 4 + 2 * i] = -N
    _, svals, Vt = np.linalg.svd(C, full_matrices=True)
    y = Vt[-1]
    padded = np.concatenate([svals, np.zeros(Vt.shape[0] - svals.shape[0])])
    ambiguous = bool((padded[-2] - padded[-1]) < 1e-8 * padded[0])
    depths = y[3:]
    if np.sum(depths > 0.0) < np.sum(depths < 0.0):
        y = -y
        depths = y[3:]
    chirality_ok = bool(np.all(depths > 0.0))
    t_norm = float(np.linalg.norm(y[:3]))
    mean_depth = float(np.mean(np.abs(depths)))
    ratio = t_norm / mean_depth if mean_depth > 0.0 else math.inf
    if t_norm > 1e-8 * mean_depth:
        y = y / t_norm
        note = "unit-translation"
    else:
        y = y / mean_depth if mean_depth > 0.0 else y
        note = "unit-mean-depth"
    return y[:3], y[3::2], y[4::2], chirality_ok, ratio, ambiguous, note


def test_stacked_translation_matches_per_candidate_reference():
    rng = np.random.default_rng(707)
    notes = set()
    for trial in range(60):
        k = int(rng.integers(2, 31))
        fixed_t = (0.0, 0.0, 0.0) if trial % 5 == 0 else None
        sc = scene(trial, n=k, fixed_translation=fixed_t)
        qs = [sc.pose.q] + [Quaternion.from_array(rng.normal(size=4)).normalized().canonical()
                            for _ in range(int(rng.integers(0, 4)))]
        cands = [core.PoseCandidate(q=q, algebraic_residual=float(j)) for j, q in enumerate(qs)]
        got = solver.recover_translation_depths(cands, sc.correspondences)
        assert [c.q for c in got] == qs
        assert [c.algebraic_residual for c in got] == [c.algebraic_residual for c in cands]
        for c, q in zip(got, qs):
            t, du, dv, chirality_ok, ratio, ambiguous, note = _reference_translation(
                q, list(sc.correspondences))
            assert np.array_equal(c.t, t)
            assert np.array_equal(c.depths_u, du)
            assert np.array_equal(c.depths_v, dv)
            assert (c.chirality_ok, c.t_depth_ratio, c.ambiguous_depths, c.scale_note) == (
                chirality_ok, ratio, ambiguous, note)
            notes.add(note)
    assert notes == {"unit-translation", "unit-mean-depth"}


# --- estimate_pose ----------------------------------------------------------

@pytest.mark.parametrize("method", ["quest6", "quest7"])
def test_estimate_pose_noiseless(method):
    sc = scene(12)
    cands = solver.estimate_pose(list(sc.correspondences), method)
    assert 1 <= len(cands) <= 4
    assert core.rot_error(cands[0].q, sc.pose.q) < 1e-6
    assert core.trans_error(cands[0].t, sc.pose.t) < 1e-6
    assert cands[0].chirality_ok


def test_estimate_pose_coplanar_ambiguity():
    sc = bench.generate_scene(bench.SceneConfig(n_points=6, geometry="coplanar", rng_seed=1))
    cands = solver.estimate_pose(list(sc.correspondences), "quest6")
    passing = [c for c in cands if c.chirality_ok]
    assert len(passing) >= 2
    assert min(core.rot_error(c.q, sc.pose.q) for c in cands) < 1e-6


def test_chirality_failures_are_demoted():
    sc = bench.generate_scene(bench.SceneConfig(n_points=6, geometry="coplanar", rng_seed=1))
    cands = solver.estimate_pose(list(sc.correspondences), "quest6")
    flags = [c.chirality_ok for c in cands]
    assert flags == sorted(flags, reverse=True)


@pytest.mark.parametrize("method", ["quest6", "quest7"])
def test_estimate_pose_half_turn_gauge_guard(method):
    sc = scene(5, fixed_rotation=(0.0, 0.0, 0.0, 1.0))
    cands = solver.estimate_pose(list(sc.correspondences), method)
    assert core.rot_error(cands[0].q, sc.pose.q) < 1e-6
    assert core.trans_error(cands[0].t, sc.pose.t) < 1e-6


def test_gauge_retry_solves_general_scene_after_critical_surface_error():
    # An exact general 7-point scene (w = 0.89, far from the half turn)
    # whose first-frame elimination block falls below the pseudo-inverse
    # cut: smallest/largest singular value 1.2e-13 against 1e-10. A gauge
    # frame solves it, so estimate_pose must keep retrying after a
    # CriticalSurfaceError instead of passing it on.
    sc = scene(91, n=7)
    with pytest.raises(CriticalSurfaceError):
        solver.quest7_rotations(coeffs.build_A(sc.correspondences))
    cands = solver.estimate_pose(list(sc.correspondences), "quest7")
    assert core.rot_error(cands[0].q, sc.pose.q) < 1e-8
    assert core.trans_error(cands[0].t, sc.pose.t) < 1e-6


def test_gauge_rescue_builds_one_matrix_per_frame(monkeypatch):
    # the first frame's A (where quest7 raises) and the rescuing gauge
    # frame's A; the gauge candidates are scored on the first frame's A
    calls = []
    build_A = solver.build_A

    def counted(points):
        calls.append(len(points))
        return build_A(points)

    monkeypatch.setattr(solver, "build_A", counted)
    solver.estimate_pose(list(scene(91, n=7).correspondences), "quest7")
    assert calls == [7, 7]


def test_degenerate_triple_raises_before_any_gauge_frame(monkeypatch):
    def no_gauge(points, g):
        raise AssertionError("a gauge frame ran on a degenerate triple")

    monkeypatch.setattr(solver, "_apply_gauge", no_gauge)
    pts = list(scene(3).correspondences)
    pts[2] = pts[0]
    for method in ("quest6", "quest7"):
        with pytest.raises(DegenerateTripleError, match=r"\(0, 1, 2\)"):
            solver.estimate_pose(pts, method)


def test_rank_collapse_raises_before_any_gauge_frame(monkeypatch):
    # a gauge frame keeps rank(A), and the elimination block has at most
    # four columns fewer, so the coplanar rank of 20 can reach 31 in no frame
    def no_gauge(points, g):
        raise AssertionError("a gauge frame ran after a rank collapse")

    monkeypatch.setattr(solver, "_apply_gauge", no_gauge)
    sc = bench.generate_scene(bench.SceneConfig(n_points=7, geometry="coplanar", rng_seed=3))
    with pytest.raises(CriticalSurfaceError) as info:
        solver.estimate_pose(list(sc.correspondences), "quest7")
    assert info.value.measured_rank == 20


def test_estimate_pose_insufficient_points():
    sc = scene(0, n=6)
    with pytest.raises(InsufficientPointsError):
        solver.estimate_pose(list(sc.correspondences), "quest7")
    with pytest.raises(ValueError):
        solver.estimate_pose(list(sc.correspondences), "quest9")


# --- RANSAC -----------------------------------------------------------------

def test_ransac_recovers_under_outliers():
    points, mask_true, pose = make_outlier_set(seed=1)
    cand, mask = solver.ransac_pose(points, "quest6", threshold=0.005, max_iters=200, seed=1)
    assert core.rot_error(cand.q, pose.q) < 0.01
    tp = np.sum(mask & mask_true)
    assert tp / max(mask.sum(), 1) > 0.9
    assert tp / mask_true.sum() > 0.9


def test_ransac_rejects_twisted_pair():
    # on this set an angle-only consensus let the mirrored (twisted-pair)
    # pose tie the true one, with its inliers triangulating behind a camera
    points, _, pose = make_outlier_set(seed=0)
    cand, mask = solver.ransac_pose(points, "quest6", threshold=0.005, max_iters=200, seed=0)
    assert cand.chirality_ok
    assert core.rot_error(cand.q, pose.q) < 0.01
    inliers = [p for p, keep in zip(points, mask) if keep]
    M = np.array([c.m for c in inliers])
    N = np.array([c.n for c in inliers])
    u, v, _ = core.triangulate_uv(quat_to_rotation(cand.q), cand.t, M, N)
    assert np.all(u > 0.0) and np.all(v > 0.0)


# ransac_pose(make_outlier_set(seed=s), "quest6", threshold=0.005,
# max_iters=200, seed=s) as recorded when hypotheses moved to the epipolar
# translation: q (w, x, y, z), t, and the mask as one character per point.
# Both tables are printed by tests/record_goldens.py.
_RANSAC_GOLDEN = (
    (('0x1.255159d6bb5d8p-1', '0x1.6ae954d8022a9p-4', '-0x1.4f0ecf5e9c5ecp-2', '-0x1.7e14638d17895p-1'),
     ('-0x1.db5c742701a76p-2', '0x1.f89ebf759105dp-2', '0x1.78d154fc46bebp-1'),
     '011111111111101111101011101101'),
    (('0x1.b8710886527fep-3', '0x1.052e77706281fp-1', '0x1.a43aae3d3c270p-3', '-0x1.9d3d4fe751444p-1'),
     ('-0x1.e8c64dcffe0ffp-2', '-0x1.75dd50df0c5b6p-3', '0x1.b8181eeff9280p-1'),
     '101111111111011110111101111100'),
    (('0x1.273f909f078f6p-4', '-0x1.a1407329e606bp-3', '-0x1.3e208da4f09e1p-3', '-0x1.ed889c56baee4p-1'),
     ('0x1.cddca1368bf57p-3', '0x1.31f4870185f82p-1', '-0x1.89f55404be8dep-1'),
     '011111110101011111110110111111'),
    (('0x1.8df8a147fe3cdp-1', '-0x1.3c99cebd91fa0p-3', '-0x1.0259c0dcc5711p-1', '0x1.5ebb3cfb5ec75p-2'),
     ('-0x1.de90764761cbap-7', '0x1.eef970615af71p-2', '0x1.c0265498571c0p-1'),
     '111111101000111111111111101011'),
    (('0x1.94ddd8bd6b0c1p-1', '-0x1.4604b8550a252p-3', '0x1.543bb454fcb28p-2', '0x1.f493c35743297p-2'),
     ('0x1.bc3d4bb9911a2p-2', '0x1.442bd0739d14cp-1', '-0x1.4835041d2b2c6p-1'),
     '011111101011111100111011111111'),
)


@pytest.mark.parametrize("seed", range(len(_RANSAC_GOLDEN)))
def test_ransac_golden_outputs(seed):
    points, _, _ = make_outlier_set(seed=seed)
    cand, mask = solver.ransac_pose(points, "quest6", threshold=0.005, max_iters=200, seed=seed)
    q_hex, t_hex, mask_str = _RANSAC_GOLDEN[seed]
    assert (cand.q.w, cand.q.x, cand.q.y, cand.q.z) == tuple(float.fromhex(h) for h in q_hex)
    assert cand.t.tolist() == [float.fromhex(h) for h in t_hex]
    assert "".join("1" if keep else "0" for keep in mask) == mask_str


# The same call with method "quest7" on outlier sets 0 and 1.
_RANSAC_QUEST7_GOLDEN = (
    (('0x1.26bda976b23a7p-1', '0x1.7baff54f7d00ep-4', '-0x1.4c3ca1b68a63ep-2', '-0x1.7d584d1583a6ap-1'),
     ('-0x1.c86125eb62fb8p-2', '0x1.119ae26075150p-1', '0x1.6fb6d61ceacb9p-1'),
     '011111111111101101100011101101'),
    (('0x1.b4d47e5750a92p-3', '0x1.02d0f177da685p-1', '0x1.a19ff0cb98ecap-3', '-0x1.9f20c401bace9p-1'),
     ('-0x1.099a677dcb935p-1', '-0x1.d0b264a9a0511p-3', '0x1.a6059e4e38601p-1'),
     '101111111111011110111101111100'),
)


@pytest.mark.parametrize("seed", range(len(_RANSAC_QUEST7_GOLDEN)))
def test_ransac_quest7_golden_outputs(seed):
    points, _, _ = make_outlier_set(seed=seed)
    cand, mask = solver.ransac_pose(points, "quest7", threshold=0.005, max_iters=200, seed=seed)
    q_hex, t_hex, mask_str = _RANSAC_QUEST7_GOLDEN[seed]
    assert (cand.q.w, cand.q.x, cand.q.y, cand.q.z) == tuple(float.fromhex(h) for h in q_hex)
    assert cand.t.tolist() == [float.fromhex(h) for h in t_hex]
    assert "".join("1" if keep else "0" for keep in mask) == mask_str


def test_record_goldens_prints_the_tables_as_written():
    # tests/record_goldens.py re-records both tables; its literal for the
    # first outlier set parses back to the row the golden test compares
    tables = {name: (method, seeds) for name, method, seeds in record_goldens.TABLES}
    for name, table in (("_RANSAC_GOLDEN", _RANSAC_GOLDEN),
                        ("_RANSAC_QUEST7_GOLDEN", _RANSAC_QUEST7_GOLDEN)):
        method, seeds = tables[name]
        assert list(seeds) == list(range(len(table)))
        text = record_goldens.golden_table(name, method, seeds[:1])
        assert text.startswith(f"{name} = (")
        assert ast.literal_eval(text.split(" = ", 1)[1]) == table[:1]


def _sample_rays(sample, count=1):
    # a sample's first- and second-view rays, stacked `count` times
    M = np.array([c.m for c in sample])
    N = np.array([c.n for c in sample])
    return np.repeat(M[None], count, axis=0), np.repeat(N[None], count, axis=0)


def _reference_candidates(sample, method):
    # one sample's candidates by the block path's rule, one sample at a
    # time: its rotations, scored, with epipolar translations on its own
    # rays, ranked; or estimate_pose's candidates when its coefficient
    # build, rank test or scoring raises, or when no candidate has
    # |w| >= 0.1
    rotations = solver.quest6_rotations if method == "quest6" else solver.quest7_rotations
    try:
        A = coeffs.build_A(sample)
        cands = solver.score_candidates(A, rotations(A))
    except DegeneracyError:
        cands = []
    if cands:
        cands = solver._ranked(solver._epipolar_candidates(cands, *_sample_rays(sample, len(cands))))
    if any(abs(c.q.w) >= 0.1 for c in cands):
        return cands
    return solver.estimate_pose(sample, method)


def _reference_hypotheses(sample, method, M, N, threshold):
    # one sample's candidates (_reference_candidates), each scored,
    # polished as a stack of one and re-masked on its own, as ransac_pose
    # treated a sample before it polished whole blocks: (R, t, errs, mask)
    # per candidate that keeps a minimal inlier set
    minimal = solver.MINIMAL_POINTS[method]
    try:
        cands = _reference_candidates(sample, method)
    except DegeneracyError:
        return []
    out = []
    for cand in cands:
        if cand.t is None or float(np.linalg.norm(cand.t)) == 0.0:
            continue
        R = quat_to_rotation(cand.q)
        t = np.asarray(cand.t, dtype=float)
        errs, mask = solver._consensus(R, t, M, N, threshold)
        if int(mask.sum()) < minimal:
            continue
        for _ in range(2):
            (R,), (t,) = solver._polish_pose(R[None], t[None], M, N, mask[None])
            errs, new_mask = solver._consensus(R, t, M, N, threshold)
            stable = bool((new_mask == mask).all())
            mask = new_mask
            if stable or int(mask.sum()) < minimal:
                break
        if int(mask.sum()) >= minimal:
            out.append((R, t, errs, mask))
    return out


def _reference_ransac(points, method, threshold=0.005, max_iters=200, seed=0):
    # one sample at a time through _reference_hypotheses: the oracle for
    # ransac_pose. Also returns the iteration count.
    rng = np.random.default_rng(seed)
    n = len(points)
    minimal = solver.MINIMAL_POINTS[method]
    M = np.array([c.m for c in points])
    N = np.array([c.n for c in points])
    best = None
    needed = max_iters
    it = 0
    while it < min(needed, max_iters):
        it += 1
        sample = [points[i] for i in rng.choice(n, size=minimal, replace=False)]
        for R, t, errs, mask in _reference_hypotheses(sample, method, M, N, threshold):
            count = int(mask.sum())
            key = (count, -float(errs[mask].mean()))
            if best is None or key > best[0]:
                best = (key, R, t, mask, sample)
                ratio = count / n
                if ratio >= 1.0:
                    needed = it
                else:
                    denom = math.log1p(-min(ratio**minimal, 1.0 - 1e-12))
                    needed = min(max_iters, math.ceil(math.log(1e-6) / denom))
    if best is None:
        raise RobustFailureError("no pose candidate reached a minimal inlier set")
    _, R, t, mask, sample = best
    q = solver._canonical_unit(core.quat_from_rotation(R))
    inliers = [p for p, keep in zip(points, mask) if keep]
    try:
        A = coeffs.build_A(inliers[:minimal])
    except DegeneracyError:
        A = coeffs.build_A(sample)
    residual = float(np.linalg.norm(A @ monomial_vector(q)))
    (cand,) = solver.recover_translation_depths(
        [core.PoseCandidate(q=q, algebraic_residual=residual)], inliers)
    return cand, mask, it


def _assert_matches_reference(points, method, seed, monkeypatch, count=None):
    """ransac_pose against _reference_ransac, bit for bit. Every pose the
    reference polishes is polished, and any other polished pose belongs to
    a sample drawn past the stop. With `count`, solver.<count> is wrapped
    during ransac_pose only, and the list of its call outcomes (True
    returned, False raised) is returned along with the reference's
    iteration count and the drawn samples, one array per block."""
    polish = solver._polish_pose
    polished = Counter()

    def recording(R0, t0, M, N, W):
        polished.update((r.tobytes(), v.tobytes(), w.tobytes()) for r, v, w in zip(R0, t0, W))
        return polish(R0, t0, M, N, W)

    monkeypatch.setattr(solver, "_polish_pose", recording)
    ref, ref_mask, iterations = _reference_ransac(points, method, seed=seed)
    ref_polished = Counter(polished)
    polished.clear()
    drawn = []
    nested = []
    block = solver._block_candidates

    def recording_block(M, N, idx, method):
        # a block whose coefficient build raised solves each of its
        # samples again as a block of its own; those are not new draws
        if not nested:
            drawn.append(idx)
        nested.append(idx)
        try:
            return block(M, N, idx, method)
        finally:
            nested.pop()

    monkeypatch.setattr(solver, "_block_candidates", recording_block)
    calls = []
    if count is not None:
        fn = getattr(solver, count)

        def wrapper(*args):
            try:
                result = fn(*args)
            except Exception:
                calls.append(False)
                raise
            calls.append(True)
            return result

        monkeypatch.setattr(solver, count, wrapper)
    cand, mask = solver.ransac_pose(points, method, threshold=0.005, max_iters=200, seed=seed)
    assert np.array_equal(mask, ref_mask)
    assert cand.q == ref.q
    assert cand.algebraic_residual == ref.algebraic_residual
    for field in ("t", "depths_u", "depths_v"):
        assert np.array_equal(getattr(cand, field), getattr(ref, field)), field
    assert (cand.chirality_ok, cand.scale_note) == (ref.chirality_ok, ref.scale_note)
    outcomes = calls[:]
    block_polished = Counter(polished)
    assert not ref_polished - block_polished
    # the reference's polish calls on the samples drawn past the stop
    polished.clear()
    M = np.array([c.m for c in points])
    N = np.array([c.n for c in points])
    for sample in np.concatenate(drawn)[iterations:]:
        _reference_hypotheses([points[i] for i in sample], method, M, N, 0.005)
    assert not block_polished - ref_polished - polished
    return outcomes, iterations, drawn


def _duplicated_match_set():
    # outlier set 0 with a copy of its first inlier right after it
    points, mask_true, pose = make_outlier_set(seed=0)
    first = int(np.argmax(mask_true))
    points.insert(first + 1, points[first])
    return points, pose


def test_ransac_survives_a_duplicated_match():
    # the two copies lead the winning inliers, so the minimal-subset
    # matrix of the inlier set has a degenerate triple; the residual comes
    # from the winning sample instead
    points, pose = _duplicated_match_set()
    cand, mask = solver.ransac_pose(points, "quest6", threshold=0.005, max_iters=200, seed=0)
    assert mask[1] and mask[2]
    with pytest.raises(DegenerateTripleError):
        coeffs.build_A([p for p, keep in zip(points, mask) if keep][:6])
    assert core.rot_error(cand.q, pose.q) < 0.01
    assert 0.0 < cand.algebraic_residual < 1e-3


def test_ransac_block_matches_reference_on_duplicated_match(monkeypatch):
    points, _ = _duplicated_match_set()
    builds, _, _ = _assert_matches_reference(points, "quest6", 0, monkeypatch, "_rows")
    assert not all(builds)  # a block's coefficient build raised


def test_ransac_block_matches_reference_near_half_turn(monkeypatch):
    points, _, _ = make_outlier_set(seed=2, fixed_rotation=(0.0, 0.0, 0.0, 1.0))
    gauges, _, _ = _assert_matches_reference(points, "quest6", 2, monkeypatch, "_apply_gauge")
    assert gauges  # some sample fell back to estimate_pose's gauge frames


@pytest.mark.parametrize("method", ["quest6", "quest7"])
def test_ransac_block_matches_reference_on_coplanar_scene(method, monkeypatch):
    # exact coplanar inliers: an all-inlier quest7 sample fails its rank
    # test and falls back to estimate_pose, which raises
    points, _, _ = make_outlier_set(seed=0, sigma_px=0.0, geometry="coplanar")
    fallbacks, _, _ = _assert_matches_reference(points, method, 0, monkeypatch, "estimate_pose")
    assert (False in fallbacks) == (method == "quest7")


def test_ransac_block_matches_reference_when_stop_lands_mid_block(monkeypatch):
    _, iterations, drawn = _assert_matches_reference(make_outlier_set(seed=7)[0], "quest6", 7,
                                                     monkeypatch)
    # the last block's samples past the stop are solved but never walked;
    # a block holds at most one sample more than were drawn before it, so
    # no more samples are solved past the stop than were walked
    sizes = [len(idx) for idx in drawn]
    assert sizes[0] == 1 and len(sizes) > 2
    assert all(size <= sum(sizes[:j]) + 1 for j, size in enumerate(sizes))
    assert iterations < sum(sizes) <= 2 * iterations


def test_ransac_rejects_max_iters_below_one():
    points, _, _ = make_outlier_set(seed=2)
    for max_iters in (0, -3):
        with pytest.raises(ValueError, match="max_iters"):
            solver.ransac_pose(points, "quest6", max_iters=max_iters, seed=0)


def _reference_angular_errors(R, t, M, N):
    # one pose at a time, as the per-axis loop below evaluated it; a pair
    # without depths (parallel under R, or t = 0) has error pi
    a = M @ R.T
    aa = np.einsum("ij,ij->i", a, a)
    an = np.einsum("ij,ij->i", a, N)
    nn = np.einsum("ij,ij->i", N, N)
    rhs_u = -(a @ t)
    rhs_v = N @ t
    det = aa * nn - an * an
    parallel = np.abs(det) < 1e-300
    det = np.where(parallel, 1.0, det)
    u = np.where(parallel, 0.0, (rhs_u * nn + an * rhs_v) / det)
    v = np.where(parallel, 0.0, (an * rhs_u + aa * rhs_v) / det)
    reproj = u[:, None] * a + t[None, :]
    num = np.einsum("ij,ij->i", reproj, N)
    den = np.linalg.norm(reproj, axis=1) * np.linalg.norm(N, axis=1)
    den = np.where(den == 0.0, 1e-300, den)
    return np.where((u == 0.0) & (v == 0.0), np.pi, np.arccos(np.clip(num / den, -1.0, 1.0)))


def _reference_polish(R0, t0, M, N, w, iters=8):
    # Levenberg-Marquardt on one pose with a Jacobian built from seven
    # separate evaluations per iteration, summed over the rows of all rays
    # with those outside the 0/1 weights w zeroed: the oracle for the
    # stacked _polish_pose
    R = np.array(R0, dtype=float)
    t = np.asarray(t0, dtype=float)
    t = t / np.linalg.norm(t)

    def errors(R, t):
        return np.where(w, _reference_angular_errors(R, t, M, N), 0.0)

    f = errors(R, t)
    cost = float(np.einsum("i,i->", f, f))
    lam = 1e-4
    h = 1e-7
    for _ in range(iters):
        J = np.zeros((6, len(M)))
        for k in range(3):
            d = np.zeros(3)
            d[k] = h
            J[k] = (errors(solver._rotation_exp(d) @ R, t) - f) / h
            J[3 + k] = (errors(R, t + d) - f) / h
        g = np.einsum("ji,i->j", J, f)
        H = np.einsum("ji,ki->jk", J, J) + lam * np.eye(6)
        try:
            step = np.linalg.solve(H, -g)
        except np.linalg.LinAlgError:
            break
        R_new = solver._rotation_exp(step[:3]) @ R
        t_new = t + step[3:]
        t_new = t_new / np.linalg.norm(t_new)
        f_new = errors(R_new, t_new)
        cost_new = float(np.einsum("i,i->", f_new, f_new))
        if cost_new < cost:
            R, t, f, cost = R_new, t_new, f_new, cost_new
            lam = max(lam * 0.3, 1e-10)
        else:
            lam *= 10.0
    return R, t, f


def _polish_case(rng, k):
    # k noisy rays of a random scene, a fifth of them replaced by
    # outliers, and a pose near the truth
    R_true = quat_to_rotation(Quaternion(*rng.normal(size=4)).normalized())
    t_true = rng.normal(size=3)
    X = np.column_stack([rng.uniform(-2, 2, (k, 2)), rng.uniform(4, 8, k)])
    Y = X @ R_true.T + t_true
    M = X / X[:, 2:]
    N = Y / Y[:, 2:]
    N[:, :2] += rng.normal(scale=1e-3, size=(k, 2))
    out = rng.random(k) < 0.2
    N[out, :2] = rng.uniform(-1, 1, (int(out.sum()), 2))
    R0 = solver._rotation_exp(rng.normal(scale=0.05, size=3)) @ R_true
    t0 = t_true + rng.normal(scale=0.1, size=3)
    return R0, t0, M, N


def test_batched_polish_matches_per_axis_reference():
    rng = np.random.default_rng(2024)
    for case in range(60):
        k = int(rng.integers(8, 31))
        R0, t0, M, N = _polish_case(rng, k)
        w = np.ones(k, dtype=bool) if case % 3 == 0 else rng.random(k) < 0.7
        R_ref, t_ref, f_ref = _reference_polish(R0, t0, M, N, w)
        (R,), (t,) = solver._polish_pose(R0[None], t0[None], M, N, w[None])
        f, _, _ = solver._angular_errors(R, t, M, N)
        assert np.array_equal(R, R_ref)
        assert np.array_equal(t, t_ref)
        assert np.array_equal(np.where(w, f, 0.0), f_ref)


def _singular_polish_pose():
    # the identity rotation, t = (-s, s, c) and a ray along the optical
    # axis in both views: the pair is parallel, so it has no depths and
    # error pi; rotating about x or about y by the Jacobian step sends the
    # depths through mirror-image near-singular 2x2 systems that put the
    # point in front, so the error drops to ~0 and the two rotation
    # columns are equal and ~-3.1e7; with only that ray weighted, J^T J
    # swamps the damping and H has two equal rows
    s = math.sqrt(0.18)
    return np.eye(3), np.array([-s, s, math.sqrt(1.0 - 2 * s * s)]), np.array([0.0, 0.0, 1.0])


def test_polish_stack_matches_stacks_of_one():
    # each pose of a stack gets the bits of a stack of one: its own
    # damping, accept/reject decisions and singular-system fallback
    rng = np.random.default_rng(7)
    R_sing, t_sing, axis = _singular_polish_pose()
    singular_seen = 0
    for _ in range(40):
        k = int(rng.integers(8, 31))
        R0, t0, M, N = _polish_case(rng, k)
        M, N = np.vstack([axis, M]), np.vstack([axis, N])
        P = int(rng.integers(1, 10))
        Rs = solver._rotation_exp(rng.normal(scale=0.03, size=(P, 3))) @ R0
        ts = t0 + rng.normal(scale=0.05, size=(P, 3))
        # masks of different sizes, an empty one among them
        W = rng.random((P, k + 1)) < rng.uniform(0.0, 1.0, (P, 1))
        W[:, 0] = False
        if rng.random() < 0.5:
            p = int(rng.integers(P))
            Rs[p], ts[p] = R_sing, t_sing
            W[p] = False
            W[p, 0] = True
            singular_seen += 1
        R, t = solver._polish_pose(Rs, ts, M, N, W)
        for p in range(P):
            (R1,), (t1,) = solver._polish_pose(Rs[p:p + 1], ts[p:p + 1], M, N, W[p:p + 1])
            assert np.array_equal(R[p], R1)
            assert np.array_equal(t[p], t1)
    assert singular_seen


def test_polish_leaves_a_pose_with_a_singular_system_where_it_is():
    R0, t0, axis = _singular_polish_pose()
    M = np.vstack([axis, [[0.1, 0.2, 1.0], [-0.3, 0.1, 1.0]]])
    f, J = solver._errors_and_jacobian(R0[None], t0[None], M, M.copy(), np.array([[1, 0, 0]], bool))
    assert J[0, 0, 0] == J[0, 1, 0] and abs(J[0, 0, 0]) > 1e6
    H = np.einsum("pji,pki->pjk", J, J) + 1e-4 * np.eye(6)
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.solve(H, np.ones((1, 6, 1)))
    R, t = solver._polish_pose(np.stack([R0, R0]), np.stack([t0, t0]), M, M.copy(),
                               np.array([[1, 0, 0], [1, 1, 1]], bool))
    assert np.array_equal(R[0], R0)
    assert np.array_equal(t[0], t0 / np.linalg.norm(t0))
    assert not np.array_equal(R[1], R0)


def test_rotation_exp_stack_matches_single_increments():
    rng = np.random.default_rng(3)
    deltas = np.vstack([rng.normal(scale=0.1, size=(20, 3)), np.zeros((1, 3)), 1e-7 * np.eye(3)])
    stacked = solver._rotation_exp(deltas)
    for d, R in zip(deltas, stacked):
        assert np.array_equal(solver._rotation_exp(d), R)
        assert np.allclose(R @ R.T, np.eye(3), atol=1e-14)
    assert np.array_equal(stacked[-3:], solver._DR)
    assert np.array_equal(solver._rotation_exp(np.zeros(3)), np.eye(3))


def test_block_translation_is_one_call_matching_per_sample_translation(monkeypatch):
    # a block mixing noisy general samples with exactly coplanar ones
    # (whose quest7 rank test fails) and ones of a camera that only rotates
    # (whose rank tests both fail), which leave a sample no candidate; each
    # candidate's translation is the one its sample gets alone
    general = make_outlier_set(seed=4, n=12, outlier_fraction=0.0)[0]
    plane = list(scene(4, n=12, geometry="coplanar").correspondences)
    still = list(scene(5, n=12, fixed_translation=(0.0, 0.0, 0.0)).correspondences)
    points = general + plane + still
    M = np.array([c.m for c in points])
    N = np.array([c.n for c in points])
    rng = np.random.default_rng(11)
    for method in ("quest6", "quest7"):
        minimal = solver.MINIMAL_POINTS[method]
        idx = np.array([rng.choice(12, size=minimal, replace=False) + 12 * (r % 3)
                        for r in range(9)])
        calls = Counter()
        for name in ("_epipolar_candidates", "recover_translation_depths"):
            fn = getattr(solver, name)
            monkeypatch.setattr(solver, name, lambda *args, fn=fn, name=name:
                                calls.update([name]) or fn(*args))
        block = solver._block_candidates(M, N, idx, method)
        monkeypatch.undo()
        assert calls == {"_epipolar_candidates": 1}
        empty = 0
        for sample, got in zip(idx, block):
            pts = [points[i] for i in sample]
            if got is None:
                # the block leaves the sample to estimate_pose, which raises
                with pytest.raises(DegeneracyError):
                    _reference_candidates(pts, method)
                empty += 1
                continue
            want = _reference_candidates(pts, method)
            assert len(got) == len(want)
            for a, b in zip(got, want):
                assert a.q == b.q and a.algebraic_residual == b.algebraic_residual
                for field in ("t", "depths_u", "depths_v"):
                    assert np.array_equal(getattr(a, field), getattr(b, field)), field
                assert (a.chirality_ok, a.scale_note, a.t_depth_ratio, a.ambiguous_depths) == (
                    b.chirality_ok, b.scale_note, b.t_depth_ratio, b.ambiguous_depths)
        assert empty == (6 if method == "quest7" else 3)


def test_epipolar_translation_matches_full_translation_on_noiseless_scenes():
    # the top candidate of estimate_pose, whose t comes from the full
    # rigid-motion system, gets the same unit t, sign and chirality from
    # the epipolar rows of the same points
    for seed in range(40):
        pts = list(scene(seed).correspondences)
        for method in ("quest6", "quest7"):
            best = solver.estimate_pose(pts, method)[0]
            (got,) = solver._epipolar_candidates([best], *_sample_rays(pts))
            assert best.scale_note == got.scale_note == "unit-translation"
            assert np.abs(got.t - best.t).max() < 1e-9
            assert got.chirality_ok == best.chirality_ok
            assert np.abs(got.depths_u / best.depths_u - 1.0).max() < 1e-6


def test_epipolar_translation_falls_back_without_parallax():
    # under the true rotation of a camera that only rotates every point
    # has no parallax, and a candidate with even one such point takes
    # recover_translation_depths on its sample; a candidate of a moving
    # camera in the same stack keeps its epipolar t
    still = scene(3, fixed_translation=(0.0, 0.0, 0.0))
    moving = scene(4)
    pts = list(still.correspondences)
    half = pts[:4] + list(moving.correspondences)[4:]  # four points without parallax
    cands = [core.PoseCandidate(q=q, algebraic_residual=0.0)
             for q in (still.pose.q, still.pose.q, moving.pose.q)]
    rays = [_sample_rays(p) for p in (pts, half, moving.correspondences)]
    M = np.concatenate([m for m, _ in rays])
    N = np.concatenate([n for _, n in rays])
    got = solver._epipolar_candidates(cands, M, N)
    for cand, sample in zip(got[:2], (pts, half)):
        (want,) = translate(still.pose.q, sample)
        for field in ("t", "depths_u", "depths_v"):
            assert np.array_equal(getattr(cand, field), getattr(want, field)), field
        assert (cand.scale_note, cand.chirality_ok) == (want.scale_note, want.chirality_ok)
    assert got[0].scale_note == "unit-mean-depth" and np.linalg.norm(got[0].t) < 1e-8
    assert got[2].scale_note == "unit-translation"
    assert core.trans_error(got[2].t, moving.pose.t) < 1e-9


# (true positives, false positives, false negatives) of quest6 RANSAC on
# make_outlier_set(seed=s, sigma_px=sigma, fixed_translation=(0, 0, 0)),
# as the full translation of every hypothesis gave them
_PURE_ROTATION_FLOOR = {
    (0.0, 0): (24, 0, 0), (0.0, 1): (24, 0, 0), (0.0, 2): (24, 0, 0), (0.0, 3): (24, 0, 0),
    (1.0, 0): (24, 0, 0), (1.0, 1): (24, 1, 0), (1.0, 2): (23, 1, 1), (1.0, 3): (24, 1, 0),
}


@pytest.mark.parametrize("sigma, seed", sorted(_PURE_ROTATION_FLOOR))
def test_ransac_pure_rotation_keeps_precision_and_recall(sigma, seed):
    # a camera that only rotates: at sigma 0 the inliers have no parallax
    # under the true rotation, so a hypothesis holding one takes the full
    # translation; the outliers stay out as when every hypothesis took it
    points, mask_true, pose = make_outlier_set(seed=seed, sigma_px=sigma,
                                               fixed_translation=(0.0, 0.0, 0.0))
    cand, mask = solver.ransac_pose(points, "quest6", threshold=0.005, max_iters=200, seed=seed)
    tp, fp, fn = (int(np.sum(mask & mask_true)), int(np.sum(mask & ~mask_true)),
                  int(np.sum(~mask & mask_true)))
    tp0, fp0, fn0 = _PURE_ROTATION_FLOOR[sigma, seed]
    assert tp / (tp + fp) >= tp0 / (tp0 + fp0)
    assert tp / (tp + fn) >= tp0 / (tp0 + fn0)
    assert core.rot_error(cand.q, pose.q) < 0.01


def test_parallel_rays_are_outliers_with_undefined_depths():
    # ray pairs that are parallel under R have a zero triangulation
    # determinant: error pi and depths 0, with no overflow and no NaN
    rng = np.random.default_rng(5)
    R = np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])  # exact in floats
    M = np.column_stack([rng.uniform(-1, 1, (6, 2)), np.ones(6)])
    N = np.column_stack([rng.uniform(-1, 1, (6, 2)), np.ones(6)])
    N[0] = R @ M[0]  # an exactly parallel pair
    t = np.array([[0.6, 0.0, 0.8], [0.0, 0.0, 0.0]])
    with np.errstate(all="raise"):
        errs, u, v = solver._angular_errors(np.stack([R, R]), t, M, N)
        _, mask = solver._consensus(np.stack([R, R]), t, M, N, 0.005)
    assert np.all(np.isfinite(errs))
    assert errs[0, 0] == math.pi and u[0, 0] == 0.0 and v[0, 0] == 0.0
    assert not mask[:, 0].any()


def test_ransac_zero_parallax_set_raises_no_warning():
    # exact rays of a camera that only rotates: some inlier pairs are
    # exactly parallel under the winning rotation
    points = make_outlier_set(seed=0, sigma_px=0.0, fixed_translation=(0.0, 0.0, 0.0))[0]
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        cand, mask = solver.ransac_pose(points, "quest6", seed=0)
    assert np.all(np.isfinite(cand.t)) and mask.sum() >= 24


def test_ransac_outlier_free_marks_everything_inlier():
    sc = scene(77, n=30)
    cand, mask = solver.ransac_pose(list(sc.correspondences), "quest6", threshold=0.005, seed=5)
    assert mask.all()
    assert core.rot_error(cand.q, sc.pose.q) < 1e-6


def test_ransac_determinism():
    points, _, _ = make_outlier_set(seed=3)
    a = solver.ransac_pose(points, "quest6", threshold=0.005, max_iters=100, seed=9)
    b = solver.ransac_pose(points, "quest6", threshold=0.005, max_iters=100, seed=9)
    assert a[0].q == b[0].q
    assert np.array_equal(a[0].t, b[0].t)
    assert np.array_equal(a[1], b[1])


def test_ransac_failure_without_consensus():
    points, _, _ = make_outlier_set(seed=2)
    with pytest.raises(RobustFailureError):
        solver.ransac_pose(points, "quest6", threshold=1e-12, max_iters=5, seed=0)


def test_ransac_rejects_bad_threshold():
    points, _, _ = make_outlier_set(seed=2)
    with pytest.raises(ValueError):
        solver.ransac_pose(points, "quest6", threshold=0.0, seed=0)


def test_ransac_rejects_nan_threshold():
    points, _, _ = make_outlier_set(seed=2)
    with pytest.raises(ValueError, match="threshold"):
        solver.ransac_pose(points, "quest6", threshold=math.nan, seed=0)


def test_eightpt_dispatch_is_the_baseline():
    sc = scene(31, n=10)
    pts = list(sc.correspondences)
    (got,) = solver.estimate_pose(pts, "eightpt")
    want = baseline.decompose_essential(baseline.eight_point(pts), pts)
    assert got.q == want.q
    assert got.algebraic_residual == want.algebraic_residual
    for field in ("t", "depths_u", "depths_v"):
        assert np.array_equal(getattr(got, field), getattr(want, field))
    assert core.rot_error(got.q, sc.pose.q) < 1e-9


def test_ransac_rejects_eightpt():
    points, _, _ = make_outlier_set(seed=2)
    with pytest.raises(ValueError, match="quest6/quest7"):
        solver.ransac_pose(points, "eightpt", seed=0)
