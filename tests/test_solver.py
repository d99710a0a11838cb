import ast
import importlib.util
import math
import sys
import warnings
from collections import Counter
from dataclasses import replace
from fractions import Fraction
from itertools import combinations
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quest import baseline, bench, coeffs, core, solver
from quest.core import Quaternion, monomial_vector, quat_to_rotation
from quest.errors import (
    CriticalSurfaceError,
    DegeneracyError,
    DegenerateConfigurationError,
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
    (got,) = _quats(solver._quat_from_cubic_vector(v[None, :, None], np.ones((1, 1), bool))[0])
    assert core.rot_error(got, q) < 1e-7


def _quats(U):
    # the rows of a quaternion array as Quaternions
    return [Quaternion(*q) for q in U.tolist()]


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
    # one eigenvector at a time: the oracle for the whole-matrix version; a
    # real eigenvalue keeps its vector as LAPACK returns it, and a matrix
    # with no real eigenvalue keeps the real parts of all its vectors
    vals, vecs = np.linalg.eig(B)
    kept = [vecs[:, i].real for i in range(len(vals)) if vals[i].imag == 0.0]
    return kept or [vecs[:, i].real for i in range(len(vals))]


_CUBE_POSITIONS = [core.monomial_positions(3)[e]
                   for e in [(3, 0, 0, 0), (0, 3, 0, 0), (0, 0, 3, 0), (0, 0, 0, 3)]]


def _reference_quat_from_cubic_vector(v):
    # one column at a time: each component from its cube's root with the
    # sign of the anchor's a^2 o entry, or linearly from that entry when its
    # cube is below 1e-9 of the anchor's
    if np.abs(v).max() < 1e-12:
        return None
    pos3 = core.monomial_positions(3)
    cubes = np.abs(v[_CUBE_POSITIONS])
    mags = np.cbrt(cubes)
    anchor = int(np.argmax(cubes))
    comps = np.zeros(4)
    for other in range(4):
        exp = [0, 0, 0, 0]
        exp[anchor] += 2
        exp[other] += 1
        mixed = v[pos3[tuple(exp)]]  # the anchor's own cube when other == anchor
        if cubes[other] >= 1e-9 * cubes[anchor]:
            comps[other] = math.copysign(mags[other], mixed)
        else:
            comps[other] = mixed / (mags[anchor] * mags[anchor])
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
    stacked, stacked_kept = solver._near_real_eigenvectors(np.stack(Bs))
    for trial, B in enumerate(Bs):
        ref = _reference_near_real_eigenvectors(B)
        (A,), (kept,) = solver._near_real_eigenvectors(B[None])
        V = A[:, kept]
        assert np.array_equal(V, np.column_stack(ref))
        assert np.array_equal(stacked[trial], A) and np.array_equal(stacked_kept[trial], kept)
        ref_qs = [q for q in map(_reference_quat_from_cubic_vector, ref) if q is not None]
        assert _quats(solver._quat_from_cubic_vector(A[None], kept[None])[0]) == ref_qs
        # all 20 kept (real), some kept (mixed), or none kept (all returned)
        assert V.shape[1] == 20 if trial % 3 != 1 else 2 <= V.shape[1] <= 20
        mixed += trial % 3 == 1 and V.shape[1] < 20
        # both read-offs and skipped columns: zero entries, a cube just
        # above, at or just below 1e-9 of the anchor's, columns of very
        # different scale, one whose cube entries are all zero and a
        # vanishing one
        W = np.where(rng.random(V.shape) < 0.2, 0.0, V)
        at = np.arange(W.shape[1])
        cubes = W[_CUBE_POSITIONS]
        anchor = np.abs(cubes).argmax(axis=0)
        near = np.array([1.0 - 1e-6, 1.0, 1.0 + 1e-6])[rng.integers(3, size=len(at))]
        W[np.take(_CUBE_POSITIONS, (anchor + rng.integers(1, 4, len(at))) % 4), at] = (
            1e-9 * cubes[anchor, at] * near * np.where(rng.random(len(at)) < 0.5, -1.0, 1.0))
        W = W * 10.0 ** rng.uniform(-6, 6, W.shape[1])
        j, k = rng.choice(W.shape[1], size=2, replace=False)
        W[:, j] = 1e-13 * V[:, j]
        W[_CUBE_POSITIONS, k] = 0.0
        ref_qs = [q for q in map(_reference_quat_from_cubic_vector, W.T) if q is not None]
        got = solver._quat_from_cubic_vector(W[None], np.ones((1, W.shape[1]), bool))
        assert _quats(got[0]) == ref_qs
    assert mixed > 0


def test_kept_eigenvectors_are_lapacks_own():
    # alone or in a stack that mixes real spectra with complex pairs, every
    # column is the real part of LAPACK's vector, bit for bit and unscaled
    rng = np.random.default_rng(909)
    Bs = np.stack([_eigen_test_matrix(rng, c) for c in (0, 1, 2, 0)])
    V, kept = solver._near_real_eigenvectors(Bs)
    negative_peaks = 0
    for B, Vi, keep in zip(Bs, V, kept):
        vals, vecs = np.linalg.eig(B)
        real = vals.imag == 0.0
        assert np.array_equal(keep, real if real.any() else np.ones_like(real))
        assert np.array_equal(Vi, vecs.real)
        peaks = Vi[np.abs(Vi).argmax(axis=0), np.arange(Vi.shape[1])]
        negative_peaks += np.count_nonzero(peaks[real] < 0.0)
    # columns whose largest entry is negative, which a phase alignment would negate
    assert negative_peaks > 0


def test_slightly_complex_pair_is_dropped_beside_real_eigenvalues():
    # a pair 0.5 +- 1e-12 i whose eigenvectors are real to 1e-12, beside
    # the real eigenvalues 2 and -1: only the real eigenvalues' columns stay
    B = np.zeros((4, 4))
    B[0, 0] = B[1, 1] = 0.5
    B[0, 1], B[1, 0] = 1.0, -1e-24
    B[2, 2], B[3, 3] = 2.0, -1.0
    P = np.eye(4)[[2, 0, 3, 1]]
    B = P @ B @ P.T
    vals = np.linalg.eigvals(B)
    assert 0.0 < np.abs(vals.imag).max() < 1e-11
    _, (kept,) = solver._near_real_eigenvectors(B[None])
    assert np.array_equal(kept, vals.imag == 0.0) and kept.sum() == 2
    assert sorted(vals[kept].real.tolist()) == [-1.0, 2.0]


def test_extraction_ignores_column_signs():
    # a column and its negation give the same quaternion, bit for bit, for
    # quest6's 20-entry columns and quest7's 4-entry ones
    rng = np.random.default_rng(910)
    B = _eigen_test_matrix(rng, 0)
    for V in (np.linalg.eig(B)[1], rng.normal(size=(4, 12))):
        signs = np.where(rng.random(V.shape[1]) < 0.5, -1.0, 1.0)
        assert (signs < 0.0).any() and (signs > 0.0).any()
        kept = np.ones((1, V.shape[1]), dtype=bool)
        U, live = solver._quat_from_cubic_vector(V[None], kept)
        U_neg, live_neg = solver._quat_from_cubic_vector((V * signs)[None], kept)
        assert np.array_equal(U, U_neg) and np.array_equal(live, live_neg)


def _per_sample(U, live):
    # the rows of an extraction's quaternions that belong to each sample
    return np.split(U, np.cumsum(live.sum(axis=1))[:-1])


def _rotation_about(q, axis, angle):
    # q turned by `angle` about `axis`, as a unit quaternion array
    h = 0.5 * angle
    return (Quaternion(math.cos(h), *(math.sin(h) * np.asarray(axis))) * q).as_array()


def test_stacked_layers_give_each_sample_its_stack_of_one_bits():
    rng = np.random.default_rng(808)

    def similar(D):
        P = rng.normal(size=D.shape)
        return P @ D @ np.linalg.inv(P)

    def turn():
        a = rng.normal()
        return np.array([[a, -1.5], [1.5, a]])

    # eig and extraction: quest6 matrices with all-real spectra, a mix of
    # real eigenvalues and complex pairs, and only complex pairs (no real
    # eigenvalue, so all columns are kept); quest7's 4x4 matrices the same
    # three ways
    zero = np.zeros((2, 2))
    for Bs in (np.stack([_eigen_test_matrix(rng, c) for c in (0, 1, 2, 1, 0)]),
               np.stack([similar(np.diag(rng.normal(size=4))),
                         similar(np.block([[turn(), zero], [zero, np.diag(rng.normal(size=2))]])),
                         similar(np.block([[turn(), zero], [zero, turn()]])),
                         similar(np.diag(rng.normal(size=4)))])):
        real = ~np.any(np.linalg.eigvals(Bs).imag, axis=1)
        assert real.any() and not real.all()
        V, kept = solver._near_real_eigenvectors(Bs)
        assert kept[2].all() and not kept[1].all()
        U, live = solver._quat_from_cubic_vector(V, kept)
        for i, rows in enumerate(_per_sample(U, live)):
            (V1,), (kept1,) = solver._near_real_eigenvectors(Bs[i:i + 1])
            assert np.array_equal(V[i], V1) and np.array_equal(kept[i], kept1)
            U1, live1 = solver._quat_from_cubic_vector(V1[None], kept1[None])
            assert np.array_equal(rows, U1) and np.array_equal(live[i], live1[0])
    # quest7 columns are the quaternions themselves: components whose
    # Python square (libm pow) is not numpy's x * x keep the bits of
    # Quaternion(...).normalized().canonical()
    xs = [x for x in rng.uniform(-1, 1, 20000).tolist() if x**2 != x * x]
    cols = np.array([xs[i:i + 4] for i in range(0, len(xs) - 3, 4)] + [[0.0, -0.5, 0.5, 0.0]])
    U, live = solver._quat_from_cubic_vector(cols.T[None], np.ones((1, len(cols)), bool))
    assert _quats(U) == [Quaternion(*c).normalized().canonical() for c in cols.tolist()]
    # rank tests: a block of general, coplanar (quest7 fails), still
    # (both fail), half-turn and zero-motion (quest6 keeps the identity
    # alone, quest7 fails) samples through the whole rotation solve
    scenes = [scene(1), scene(2, geometry="coplanar"), scene(3, fixed_translation=(0, 0, 0)),
              scene(4, fixed_rotation=(0.0, 0.0, 0.0, 1.0)),
              scene(5, fixed_rotation=(1.0, 0.0, 0.0, 0.0), fixed_translation=(0, 0, 0))]
    for method, n in (("quest6", 6), ("quest7", 7)):
        A = np.stack([coeffs.build_A(list(sc.correspondences)[:n]) for sc in scenes])
        U, live, failed = solver._rotation_stack(A, method)
        assert any(failed) and not all(failed)
        assert (failed[4] is None) == (method == "quest6")
        if method == "quest6":
            assert _per_sample(U, live)[4].tolist() == [[1.0, 0.0, 0.0, 0.0]]
        for i, rows in enumerate(_per_sample(U, live)):
            U1, live1, (failed1,) = solver._rotation_stack(A[i:i + 1], method)
            assert np.array_equal(rows, U1) and np.array_equal(live[i], live1[0])
            assert repr(failed[i]) == repr(failed1)
    # scoring: near-duplicates (b of a; c of b but not of a, a chain whose
    # c the earliest-first rule keeps), masked-out slots and an empty sample
    A = np.stack([coeffs.build_A(list(scene(s).correspondences)[:6]) for s in range(4)])
    Q = rng.normal(size=(4, 20, 4))
    Q /= np.linalg.norm(Q, axis=2, keepdims=True)
    a = Q[1, 3]
    Q[1, 5] = _rotation_about(Quaternion(*a), (0.0, 0.0, 1.0), 6e-5)
    Q[1, 9] = _rotation_about(Quaternion(*a), (0.0, 0.0, 1.0), 1.2e-4)
    Q[2, 7] = _rotation_about(Quaternion(*Q[2, 2]), (1.0, 0.0, 0.0), 1e-6)
    live = rng.random((4, 20)) < 0.7
    live[1, [3, 5, 9]] = live[2, [2, 7]] = True
    live[3] = False
    order, residuals, valid = solver.score_candidates(A, Q, live)
    for i in range(4):
        o1, r1, v1 = solver.score_candidates(A[i:i + 1], Q[i:i + 1], live[i:i + 1])
        assert np.array_equal(order[i], o1[0]) and np.array_equal(residuals[i], r1[0])
        assert np.array_equal(valid[i], v1[0])
        if i < 3:
            qs = [Quaternion(*q) for q in Q[i][live[i]].tolist()]
            got = solver.score_candidates(A[i], qs)
            assert [c.q for c in got] == _quats(Q[i][order[i][valid[i]]])
            assert [c.algebraic_residual for c in got] == residuals[i][valid[i]].tolist()
    assert not valid[3].any()
    chain = solver.score_candidates(A[1], [Quaternion(*Q[1, j]) for j in (3, 5, 9)])
    assert {c.q for c in chain} == {Quaternion(*Q[1, 3]), Quaternion(*Q[1, 9])}


# --- rotation solvers -------------------------------------------------------

def test_quest6_recovers_noiseless_rotation():
    for seed in (0, 1, 2):
        sc = scene(seed, n=6)
        qs = solver.quest6_rotations(coeffs.build_A(sc.correspondences))
        assert len(qs) <= 20
        assert min(core.rot_error(q, sc.pose.q) for q in qs) < 1e-6


@pytest.mark.parametrize("axis", range(3))
def test_quest6_recovers_noiseless_rotations_about_a_coordinate_axis(axis):
    # two of q's components vanish; read by their cube roots they carried
    # errors of up to 4e-5 pi
    for angle in (1e-3, 0.01, 0.1, 1.0):
        for seed in (0, 1, 2):
            q = _rotation_about(core.IDENTITY_QUATERNION, np.eye(3)[axis], angle)
            sc = scene(seed, fixed_rotation=tuple(q))
            cands = solver.estimate_pose(sc.correspondences, "quest6")
            assert min(core.rot_error(c.q, sc.pose.q) for c in cands) <= 1e-10, (angle, seed)


def test_quest6_recovers_a_rotation_with_a_near_zero_component():
    # acceptance criterion 1's scene 1092: y = -1.4e-4, read linearly
    sc = scene(1092)
    assert abs(sc.pose.q.y) < 2e-4
    (best, *_) = solver.estimate_pose(sc.correspondences[:6], "quest6")
    assert core.rot_error(best.q, sc.pose.q) <= 1e-9
    assert core.trans_error(best.t, sc.pose.t) <= 1e-9


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


def test_rotation_stack_runs_one_svd_and_stops_when_every_matrix_fails(monkeypatch):
    # both methods take the rank test and the pseudo-inverse from one SVD,
    # whether the stack solves or lies on a critical surface
    calls = []
    svd = np.linalg.svd
    monkeypatch.setattr(np.linalg, "svd", lambda *a, **kw: calls.append(kw) or svd(*a, **kw))
    coplanar = bench.generate_scene(bench.SceneConfig(n_points=7, geometry="coplanar", rng_seed=3))
    blocks = [
        ("quest6", [scene(s, n=6).correspondences for s in range(3)]),
        ("quest7", [scene(0, n=7).correspondences]),
        ("quest7", [coplanar.correspondences]),
    ]
    for method, samples in blocks:
        A = np.stack([coeffs.build_A(list(c)) for c in samples])
        calls.clear()
        solver._rotation_stack(A, method)
        assert len(calls) == 1, method
    # a stack in which every matrix fails its rank test stops before the
    # eigen solve
    def no_eig(B):
        raise AssertionError("eigen solve on a stack with no solvable matrix")

    monkeypatch.setattr(solver, "_near_real_eigenvectors", no_eig)
    still = [scene(s, n=6, fixed_translation=(0, 0, 0)).correspondences for s in (3, 4)]
    U, live, failed = solver._rotation_stack(np.stack([coeffs.build_A(list(c)) for c in still]),
                                             "quest6")
    assert all(isinstance(e, DegenerateConfigurationError) for e in failed)
    assert U.shape == (0, 4) and live.shape == (2, 20) and not live.any()
    with pytest.raises(CriticalSurfaceError):
        solver.quest7_rotations(coeffs.build_A(coplanar.correspondences))


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


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_one_ulp_motion_is_zero_motion(seed):
    # second rays one ulp off the first: the quest6 elimination block is
    # rounding noise, whose singular values stand within 1e-3 of each
    # other, so only its scale tells it from a full-rank block. quest6
    # returns the identity alone, and quest7 reports the collapse
    M = np.array([c.m for c in scene(seed, n=7).correspondences])
    N = M.copy()
    N[:, :2] = np.nextafter(M[:, :2], np.inf)
    pts = [core.Correspondence(m, n) for m, n in zip(M, N)]
    sv = np.linalg.svd(coeffs.build_A(pts[:6])[:, solver.QUEST6_SPLIT[1]], compute_uv=False)
    assert sv[0] < solver._RANK_FLOOR and sv[-1] > solver._PINV_RCOND * sv[0]
    (cand,) = solver.estimate_pose(pts[:6], "quest6")
    assert cand.q == core.IDENTITY_QUATERNION
    with pytest.raises(CriticalSurfaceError):
        solver.estimate_pose(pts, "quest7")


def test_rotation_solvers_reject_wrong_point_count():
    sc = scene(0, n=8)
    A = coeffs.build_A(sc.correspondences)
    with pytest.raises(ValueError, match="quest6 requires the 20x35 matrix built from exactly 6"):
        solver.quest6_rotations(A)
    with pytest.raises(ValueError, match="quest7 requires the 35x35 matrix built from exactly 7"):
        solver.quest7_rotations(A)


@pytest.mark.parametrize("bad", [math.inf, math.nan])
def test_rotation_solvers_and_scoring_reject_a_non_finite_matrix(bad, monkeypatch):
    # refused before any SVD, which would fail on it in LAPACK, and before
    # scoring, which would rank a NaN residual
    def no_svd(*args, **kwargs):
        raise AssertionError("SVD of a non-finite matrix")

    monkeypatch.setattr(np.linalg, "svd", no_svd)
    for rotations, n in ((solver.quest6_rotations, 6), (solver.quest7_rotations, 7)):
        A = coeffs.build_A(scene(0, n=n).correspondences)
        A[3, 5] = bad
        with pytest.raises(ValueError, match="finite coefficient matrix"):
            rotations(A)
        with pytest.raises(ValueError, match="finite coefficient matrix"):
            solver.score_candidates(A, [core.IDENTITY_QUATERNION])


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


def test_score_rejects_a_matrix_without_35_monomial_columns():
    for A in (np.zeros((20, 34)), np.zeros((3, 20, 36))):
        with pytest.raises(ValueError, match="35 monomial columns"):
            solver.score_candidates(A, [core.IDENTITY_QUATERNION])


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


def _rigid_motion_matrix(q, points):
    # the 3k x (2k + 3) system of one candidate, point i's rows 3i..3i+2
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
    return C


def _svd_null_vector(C):
    # the rightmost singular vector and whether the depths are ambiguous
    _, svals, Vt = np.linalg.svd(C, full_matrices=True)
    padded = np.concatenate([svals, np.zeros(Vt.shape[0] - svals.shape[0])])
    return Vt[-1], bool((padded[-2] - padded[-1]) < 1e-8 * padded[0])


def _signed_and_scaled(y, ambiguous):
    depths = y[3:]
    votes = np.sum(depths > 0.0) - np.sum(depths < 0.0)
    if votes < 0 or (votes == 0 and np.sum(depths) < 0.0):
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


def _reference_translation(q, points):
    # one candidate at a time: the oracle for the stacked version. The
    # null vector is the eigenvector of C^T C's smallest eigenvalue, or the
    # SVD's when the two smallest eigenvalues are close
    C = _rigid_motion_matrix(q, points)
    lam, V = np.linalg.eigh(C.T @ C)
    if lam[1] - lam[0] < solver._GRAM_GAP * lam[-1]:
        return _signed_and_scaled(*_svd_null_vector(C))
    svals = np.sqrt(np.maximum(lam[::-1], 0.0))
    return _signed_and_scaled(V[:, 0], bool((svals[-2] - svals[-1]) < 1e-8 * svals[0]))


def _translation_scenes():
    # k = 2..30 points, every fifth scene with t = 0, the true rotation
    # and 0-3 random ones per scene
    rng = np.random.default_rng(707)
    for trial in range(60):
        k = int(rng.integers(2, 31))
        fixed_t = (0.0, 0.0, 0.0) if trial % 5 == 0 else None
        sc = scene(trial, n=k, fixed_translation=fixed_t)
        qs = [sc.pose.q] + [Quaternion.from_array(rng.normal(size=4)).normalized().canonical()
                            for _ in range(int(rng.integers(0, 4)))]
        yield list(sc.correspondences), qs


def test_stacked_translation_matches_per_candidate_reference():
    notes = set()
    for points, qs in _translation_scenes():
        cands = [core.PoseCandidate(q=q, algebraic_residual=float(j)) for j, q in enumerate(qs)]
        got = solver.recover_translation_depths(cands, points)
        assert [c.q for c in got] == qs
        assert [c.algebraic_residual for c in got] == [c.algebraic_residual for c in cands]
        for c, q in zip(got, qs):
            t, du, dv, chirality_ok, ratio, ambiguous, note = _reference_translation(q, points)
            assert np.array_equal(c.t, t)
            assert np.array_equal(c.depths_u, du)
            assert np.array_equal(c.depths_v, dv)
            assert (c.chirality_ok, c.t_depth_ratio, c.ambiguous_depths, c.scale_note) == (
                chirality_ok, ratio, ambiguous, note)
            notes.add(note)
    assert notes == {"unit-translation", "unit-mean-depth"}


def test_translation_matches_the_svd_of_every_candidate(monkeypatch):
    # the SVD of C for every candidate is the accuracy reference: the
    # eigenvector of C^T C may differ from it by rounding only
    svd, through_svd = np.linalg.svd, []

    def counted(a, *args, **kwargs):
        through_svd.append(len(a))
        return svd(a, *args, **kwargs)

    total = 0
    for points, qs in _translation_scenes():
        cands = [core.PoseCandidate(q=q, algebraic_residual=0.0) for q in qs]
        monkeypatch.setattr(np.linalg, "svd", counted)
        got = solver.recover_translation_depths(cands, points)
        monkeypatch.setattr(np.linalg, "svd", svd)
        total += len(cands)
        for c, q in zip(got, qs):
            t, du, dv, chirality_ok, ratio, ambiguous, note = _signed_and_scaled(
                *_svd_null_vector(_rigid_motion_matrix(q, points)))
            assert (c.chirality_ok, c.scale_note, c.ambiguous_depths) == (
                chirality_ok, note, ambiguous)
            assert np.abs(c.t - t).max() <= 1e-9
            for got_depths, depths in ((c.depths_u, du), (c.depths_v, dv)):
                assert np.abs(got_depths - depths).max() <= 1e-9 * np.abs(depths).max()
            assert abs(c.t_depth_ratio - ratio) <= 1e-9 * ratio
    # the t = 0 scenes' true rotations leave a k-dimensional null space
    assert 0 < sum(through_svd) < total


# quest6's third candidate on the benchmark's minimal input 757 (`coplanar`,
# seed 3): the two smallest eigenvalues of C^T C are 1.17e-6 and 1.46e-6 of
# the largest, close to each other but not to zero, and the eigenvector of
# the smallest put t 4.7e-9 off the SVD's. Rays as (x, y) of (x, y, 1).
_NEAR_DOUBLE_Q = ('0x1.80d5b725a4a8ap-1', '-0x1.fb4156547e7bdp-4', '0x1.1d00ee9c1a1dfp-1',
                  '0x1.53673d2cfc599p-2')
_NEAR_DOUBLE_RAYS = (
    (('0x1.39364b7604a10p-6', '0x1.3564298bcbb68p-4'),
     ('0x1.068c7ae0bd5bcp+1', '0x1.c4701222f203fp+0')),
    (('0x1.696ca3338a286p-4', '0x1.0ad90be497cacp-7'),
     ('0x1.4118bf490d06cp+1', '0x1.ea4ef6d14c840p+0')),
    (('-0x1.4b437c9b28049p-5', '-0x1.3f2f5d8b16d45p-5'),
     ('0x1.066336432f178p+1', '0x1.61943bf5ef547p+0')),
    (('0x1.a63e0b023daebp-5', '0x1.3f944d536408bp-2'),
     ('0x1.c07371808fe55p+0', '0x1.22cb36f23bd0bp+1')),
    (('-0x1.a8e78df13974ep-5', '0x1.a7aa847761d97p-6'),
     ('0x1.eb070d3a12cffp+0', '0x1.76a6a410e1b47p+0')),
    (('-0x1.0471f0fa803a7p-3', '-0x1.21eabf69a3886p-3'),
     ('0x1.f6f70ea46872dp+0', '0x1.0a157cbb18e6fp+0')),
)


def test_a_near_double_smallest_eigenvalue_takes_the_svd():
    # the gap lambda_1 - lambda_0 decides, not lambda_1 alone
    q = Quaternion(*map(float.fromhex, _NEAR_DOUBLE_Q))
    points = [core.Correspondence(np.array([*map(float.fromhex, m), 1.0]),
                                  np.array([*map(float.fromhex, n), 1.0]))
              for m, n in _NEAR_DOUBLE_RAYS]
    C = _rigid_motion_matrix(q, points)
    lam = np.linalg.eigvalsh(C.T @ C)
    assert lam[1] - lam[0] < solver._GRAM_GAP * lam[-1] <= lam[1]
    (got,) = solver.recover_translation_depths([core.PoseCandidate(q=q, algebraic_residual=0.0)],
                                               points)
    t, du, dv, chirality_ok, ratio, ambiguous, note = _signed_and_scaled(*_svd_null_vector(C))
    assert np.array_equal(got.t, t)
    assert np.array_equal(got.depths_u, du) and np.array_equal(got.depths_v, dv)
    assert (got.chirality_ok, got.t_depth_ratio, got.ambiguous_depths, got.scale_note) == (
        chirality_ok, ratio, ambiguous, note)


def _assert_tied_depth_signs_ignore_negated_vectors(monkeypatch, path):
    # negating u and vt together is as valid an SVD, and negating the
    # eigenvectors as valid an eigh; both leave the pseudo-inverse's bits
    # alone. Candidates whose depth signs split evenly must come out the
    # same, so the sum of their depths decides
    points = list(scene(1, n=6, geometry="coplanar").correspondences)
    cands = solver.estimate_pose(points, "quest6")
    assert any(np.sign(np.concatenate([c.depths_u, c.depths_v])).sum() == 0.0 for c in cands)
    svd, eigh, calls = np.linalg.svd, np.linalg.eigh, []

    def negated_svd(a, *args, **kwargs):
        calls.append(("svd", a.shape))
        u, s, vt = svd(a, *args, **kwargs)
        return -u, s, -vt

    def negated_eigh(a, *args, **kwargs):
        lam, V = eigh(a, *args, **kwargs)
        calls.append(("eigh", a.shape, bool((lam[:, 1] - lam[:, 0] >= solver._GRAM_GAP
                                             * lam[:, -1]).all())))
        return lam, -V

    monkeypatch.setattr(np.linalg, "svd", negated_svd)
    monkeypatch.setattr(np.linalg, "eigh", negated_eigh)
    again = solver.estimate_pose(points, "quest6")
    # the elimination's SVD, then the translation of every candidate, the
    # tied ones included, by the negated call of its path
    translation = [("eigh", (len(cands), 15, 15), path == "eigh")]
    if path == "svd":
        translation.append(("svd", (len(cands), 18, 15)))
    assert calls == [("svd", (1, 20, 15))] + translation
    assert len(again) == len(cands)
    for c, d in zip(cands, again):
        assert c.q == d.q and c.algebraic_residual == d.algebraic_residual
        for field in ("t", "depths_u", "depths_v"):
            assert np.array_equal(getattr(c, field), getattr(d, field))
        assert (c.chirality_ok, c.scale_note, c.t_depth_ratio, c.ambiguous_depths) == (
            d.chirality_ok, d.scale_note, d.t_depth_ratio, d.ambiguous_depths)


def test_tied_depth_signs_do_not_take_the_svd_sign(monkeypatch):
    _assert_tied_depth_signs_ignore_negated_vectors(monkeypatch, "eigh")


def test_tied_depth_signs_do_not_take_the_sign_of_the_svd_fallback(monkeypatch):
    # a gap bound of inf sends every candidate through the SVD of C
    monkeypatch.setattr(solver, "_GRAM_GAP", math.inf)
    _assert_tied_depth_signs_ignore_negated_vectors(monkeypatch, "svd")


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
    # the first frame's A (build_A, where quest7 raises) and the rescuing
    # gauge frame's A (_rows on the rotated rays); the gauge candidates are
    # scored on the first frame's A
    calls = []
    build_A, rows = solver.build_A, solver._rows

    def counted(points):
        calls.append(len(points))
        return build_A(points)

    def counted_rows(M, N, triples):
        calls.append(len(M))
        return rows(M, N, triples)

    monkeypatch.setattr(solver, "build_A", counted)
    monkeypatch.setattr(solver, "_rows", counted_rows)
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


def test_apply_gauge_rejects_a_ray_parallel_to_the_image_plane():
    g = solver._GAUGE_QUATERNIONS[0]
    v = quat_to_rotation(g).T @ np.array([1.0, 0.0, 0.0])
    N = np.array([c.n for c in scene(0).correspondences])
    N[3] = v / v[2]
    gauged = solver._apply_gauge(N[:3], g)
    assert gauged is not None and np.array_equal(gauged[:, 2], np.ones(3))
    assert solver._apply_gauge(N, g) is None


def test_gauge_frames_are_skipped_until_one_solves(monkeypatch):
    # half turn: quest6's first frame loses rank. The next frame is
    # unusable, the one after (an identity "gauge") loses rank as well,
    # and the last frame solves
    g0 = solver._GAUGE_QUATERNIONS[0]
    monkeypatch.setattr(solver, "_GAUGE_QUATERNIONS", (g0, Quaternion(1.0, 0.0, 0.0, 0.0), g0))
    apply_gauge, calls = solver._apply_gauge, []

    def gauge(points, g):
        calls.append(g)
        return None if len(calls) == 1 else apply_gauge(points, g)

    monkeypatch.setattr(solver, "_apply_gauge", gauge)
    sc = scene(5, fixed_rotation=(0.0, 0.0, 0.0, 1.0))
    cands = solver.estimate_pose(list(sc.correspondences), "quest6")
    assert len(calls) == 3
    assert core.rot_error(cands[0].q, sc.pose.q) < 1e-6


def test_first_frame_candidates_return_when_every_gauge_frame_fails(monkeypatch):
    # every rotation with |w| >= 0.1 is dropped, so the first frame keeps
    # only w-degenerate candidates and no gauge frame has a usable one
    rotations = solver.quest6_rotations
    monkeypatch.setattr(solver, "quest6_rotations",
                        lambda A: [q for q in rotations(A) if abs(q.w) < 0.1])
    w = 0.05
    sc = scene(5, fixed_rotation=(w, 0.0, 0.0, math.sqrt(1.0 - w * w)))
    pts = list(sc.correspondences)
    cands = solver.estimate_pose(pts, "quest6")
    A = coeffs.build_A(pts[:6])
    first = sorted(solver.recover_translation_depths(
        solver.score_candidates(A, solver.quest6_rotations(A)), pts),
        key=lambda c: (not c.chirality_ok, c.algebraic_residual))
    assert [c.q for c in cands] == [c.q for c in first]
    assert all(abs(c.q.w) < 0.1 for c in cands)
    assert core.rot_error(cands[0].q, sc.pose.q) < 1e-4


def test_gauge_frames_test_only_the_minimal_rays():
    # point 7 turns parallel to the image plane in every gauge frame, but
    # the rotation solve uses points 0-5 only, so it blocks no frame
    sc = scene(5, fixed_rotation=(0.0, 0.0, 0.0, 1.0))
    pts = list(sc.correspondences)
    v = quat_to_rotation(solver._GAUGE_QUATERNIONS[0]).T @ np.array([1.0, 0.0, 0.0])
    pts[7] = core.Correspondence(pts[7].m, v / v[2])
    for g in solver._GAUGE_QUATERNIONS:
        assert abs((quat_to_rotation(g) @ pts[7].n)[2]) < 1e-9
    cands = solver.estimate_pose(pts, "quest6")
    assert core.rot_error(cands[0].q, sc.pose.q) < 1e-9


def test_gauge_rescue_translates_once(monkeypatch):
    # near a half turn quest7's first frame returns candidates, all with
    # |w| < 0.1; a gauge frame rescues the solve, and only the rescued
    # candidates get a translation
    w = 0.03
    pts, _, pose = make_outlier_set(seed=47, n=11, outlier_fraction=0.0, sigma_px=0.0,
                                    fixed_rotation=(w, 0.0, 0.0, math.sqrt(1.0 - w * w)))
    A = coeffs.build_A(pts[:7])
    assert all(abs(c.q.w) < 0.1 for c in solver.score_candidates(A, solver.quest7_rotations(A)))
    translate, calls = solver.recover_translation_depths, []
    monkeypatch.setattr(solver, "recover_translation_depths",
                        lambda cands, points: calls.append(len(cands)) or translate(cands, points))
    cands = solver.estimate_pose(pts, "quest7")
    assert len(calls) == 1 and calls[0] == len(cands)
    assert core.rot_error(cands[0].q, pose.q) < 1e-8
    assert core.trans_error(cands[0].t, pose.t) < 1e-6


def test_recover_translation_depths_of_no_candidates_is_empty():
    assert solver.recover_translation_depths([], scene(0).correspondences) == []


def test_ransac_pose_insufficient_points():
    with pytest.raises(InsufficientPointsError, match="need at least 7 points"):
        solver.ransac_pose(list(scene(0, n=6).correspondences), "quest7")


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
# max_iters=200, seed=s) as recorded when the polish took its Gram form:
# q (w, x, y, z), t, and the mask as one character per point.
# Both tables are printed by tests/record_goldens.py.
_RANSAC_GOLDEN = (
    (('0x1.255121ea77649p-1', '0x1.6a87474af3d2ap-4', '-0x1.4eff7083bafb0p-2', '-0x1.7e19615c76398p-1'),
     ('-0x1.dc79574d2caf8p-2', '0x1.f86c64ce2fc52p-2', '0x1.788834dce3d22p-1'),
     '011111111111101111101011101101'),
    (('0x1.b867359d2a884p-3', '0x1.052e892fafca1p-1', '0x1.a4343e041fe48p-3', '-0x1.9d3e54f5c29f7p-1'),
     ('-0x1.e89f8078cd13fp-2', '-0x1.7679d30c536f8p-3', '0x1.b81a938015252p-1'),
     '101111111111011110111101111100'),
    (('0x1.273f85a0de281p-4', '-0x1.a1406897af4f2p-3', '-0x1.3e21935b0774ep-3', '-0x1.ed889274de137p-1'),
     ('0x1.cde1acd847c61p-3', '0x1.31f318e277437p-1', '-0x1.89f611b55b310p-1'),
     '011111110101011111110110111111'),
    (('0x1.8df988b379005p-1', '-0x1.3c9a833eab19ap-3', '-0x1.02581e58fcd21p-1', '0x1.5ebbcafd253a5p-2'),
     ('-0x1.e23e0484cc98fp-7', '0x1.eefe5cd8c7ba6p-2', '0x1.c024b97628e2ap-1'),
     '111111101000111111111111101011'),
    (('0x1.94ddd474d677fp-1', '-0x1.4604d2ef656b4p-3', '0x1.543bcb46d1fadp-2', '0x1.f493bd45b4986p-2'),
     ('0x1.bc3d5822d695ep-2', '0x1.442bc6a938b9cp-1', '-0x1.483509959a40ep-1'),
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
    (('0x1.2686c5cdbd551p-1', '0x1.7ac9ff1252addp-4', '-0x1.4c4a7fea23ee9p-2', '-0x1.7d8340aadc0e3p-1'),
     ('-0x1.c9d37dc3c190cp-2', '0x1.115a6cc4d43fcp-1', '0x1.6f73a8f0fccbap-1'),
     '011111111111101101101011101101'),
    (('0x1.b4d3b04f0425dp-3', '0x1.02d4541168893p-1', '0x1.a1a0799ba8800p-3', '-0x1.9f1eaca4ee2c5p-1'),
     ('-0x1.097028bcc11fbp-1', '-0x1.d08b6b5bf0435p-3', '0x1.a622e00fa4e67p-1'),
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


def _epipolar_candidate(cand, sample):
    # the candidate with the epipolar translation of a stack of one on the
    # sample's rays, and its rotation-only flag
    (t,), (still,) = solver._epipolar_translations(quat_to_rotation(cand.q)[None],
                                                   *_sample_rays(sample))
    return replace(cand, t=t), bool(still)


def _reference_candidates(sample, method):
    # one sample's candidates by the block path's rule, one sample at a
    # time, as (candidate, rotation-only flag): its rotations, in scoring
    # order, each with its epipolar translation on the sample's rays; or
    # estimate_pose's candidates, none rotation-only, when its coefficient
    # build, rank test or scoring raises, or when no candidate has
    # |w| >= 0.1
    rotations = solver.quest6_rotations if method == "quest6" else solver.quest7_rotations
    try:
        A = coeffs.build_A(sample)
        cands = solver.score_candidates(A, rotations(A))
    except DegeneracyError:
        cands = []
    cands = [_epipolar_candidate(c, sample) for c in cands]
    if any(abs(c.q.w) >= 0.1 for c, _ in cands):
        return cands
    return [(c, False) for c in solver.estimate_pose(sample, method)]


def _rotation_only_errors(R, M, N):
    # the angle between each n_i and R m_i, ray by ray
    a = M @ R.T
    return np.arctan2([np.linalg.norm(c) for c in np.cross(a, N)], np.einsum("ij,ij->i", a, N))


def _reference_hypotheses(sample, method, M, N, threshold):
    # one sample's candidates (_reference_candidates), each scored,
    # polished as a stack of one and re-masked on its own, as ransac_pose
    # treated a sample before it polished whole blocks: (R, t, errs, mask)
    # per candidate that keeps a minimal inlier set. A rotation-only
    # candidate keeps t = 0 and its angle-only mask, unpolished
    minimal = solver.MINIMAL_POINTS[method]
    try:
        cands = _reference_candidates(sample, method)
    except DegeneracyError:
        return []
    out = []
    for cand, still in cands:
        R = quat_to_rotation(cand.q)
        if still:
            errs = _rotation_only_errors(R, M, N)
            if int((errs < threshold).sum()) >= minimal:
                out.append((R, np.zeros(3), errs, errs < threshold))
            continue
        if cand.t is None or float(np.linalg.norm(cand.t)) == 0.0:
            continue
        t = np.asarray(cand.t, dtype=float)
        errs, mask = solver._consensus(R, t, M, N, threshold)
        if int(mask.sum()) < minimal:
            continue
        for _ in range(2):
            (R1,), (t1,) = solver._polish_pose(R[None], t[None], M, N, mask[None])
            errs, new_mask = solver._consensus(R1, t1, M, N, threshold)
            R, t = R1, t1
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


def _record_blocks(monkeypatch):
    """The list to which ransac_pose's drawn blocks are appended from now
    on, one index array per block."""
    drawn = []
    nested = []
    block = solver._block_candidates

    def recording_block(M, N, idx, method):
        # a block that calls _block_candidates again draws nothing new
        if not nested:
            drawn.append(idx)
        nested.append(idx)
        try:
            return block(M, N, idx, method)
        finally:
            nested.pop()

    monkeypatch.setattr(solver, "_block_candidates", recording_block)
    return drawn


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
    drawn = _record_blocks(monkeypatch)
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
    _, _, drawn = _assert_matches_reference(points, "quest6", 0, monkeypatch)
    # a block drew samples holding both copies, whose rows vanish: it drops
    # just those and solves its other samples as one stack
    dup = next(i for i in range(len(points)) if points[i] is points[i + 1])
    for idx in drawn:
        both = np.isin(idx, dup).any(axis=1) & np.isin(idx, dup + 1).any(axis=1)
        if both.any():
            break
    assert 0 < both.sum() < len(idx)
    stacks = []
    rotation_stack = solver._rotation_stack
    monkeypatch.setattr(solver, "_rotation_stack",
                        lambda A, method: stacks.append(len(A)) or rotation_stack(A, method))
    rays = core._rays(points)
    sample = solver._block_candidates(*rays, idx, "quest6")[0]
    assert stacks[0] == len(idx) - both.sum()
    assert not np.isin(np.flatnonzero(both), sample).any()
    assert np.isin(np.flatnonzero(~both), sample).any()
    # a block of such samples alone has no candidates
    assert all(len(a) == 0 for a in solver._block_candidates(*rays, idx[both], "quest6"))


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


@pytest.mark.parametrize("method", ["quest6", "quest7"])
def test_ransac_block_matches_reference_on_pure_rotation(method, monkeypatch):
    # exact rays of a camera that only rotates: samples whose true
    # rotation leaves two points without parallax give rotation-only
    # hypotheses
    points, _, _ = make_outlier_set(seed=0, sigma_px=0.0, fixed_translation=(0.0, 0.0, 0.0))
    flags = []
    translations = solver._epipolar_translations

    def recording(*args):
        t, still = translations(*args)
        flags.append(still)
        return t, still

    monkeypatch.setattr(solver, "_epipolar_translations", recording)
    _assert_matches_reference(points, method, 0, monkeypatch)
    assert np.concatenate(flags).any()


def _ransac_floor(n, minimal, max_iters=200):
    # the adaptive stop for a consensus of n - 1: no run short of a full
    # consensus stops earlier
    return min(max_iters, math.ceil(math.log(1e-6) / math.log1p(-((n - 1) / n)**minimal)))


def test_ransac_block_matches_reference_when_stop_lands_mid_block(monkeypatch):
    # the first outlier set whose stop falls inside its last block
    points = make_outlier_set(seed=0)[0]
    _, iterations, drawn = _assert_matches_reference(points, "quest6", 0, monkeypatch)
    # the last block's samples past the stop are solved but never walked.
    # The floor first, in one block; after that a block holds at most twice
    # the samples drawn before it, so at most twice those walked before the
    # last block are solved past the stop
    floor = _ransac_floor(len(points), 6)
    sizes = [len(idx) for idx in drawn]
    assert sizes[0] == floor and len(sizes) > 2
    assert all(size <= 2 * sum(sizes[:j]) for j, size in enumerate(sizes) if j >= 1)
    assert 0 < sum(sizes) - iterations <= 2 * sum(sizes[:-1])


@pytest.mark.parametrize("fraction", [0.0, 0.4], ids=["outlier_free", "outliers_40"])
def test_ransac_block_matches_reference_across_outlier_fractions(fraction, monkeypatch):
    # 1 px noise: an outlier-free set whose walk goes past the first block,
    # and a set of 40% outliers that walks to max_iters
    points = make_outlier_set(seed=2, outlier_fraction=fraction)[0]
    _, iterations, drawn = _assert_matches_reference(points, "quest6", 2, monkeypatch)
    assert len(drawn) > 1
    assert iterations > _ransac_floor(len(points), 6)


def _setup_scene_points(monkeypatch):
    # the benchmark's set-up scene (perfbench/run.py setup_input): 8 exact
    # points of a general scene
    spec = importlib.util.spec_from_file_location(
        "perfbench_scenes", Path(__file__).resolve().parents[1] / "perfbench" / "scenes.py")
    scenes = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, scenes)  # its dataclasses look it up
    spec.loader.exec_module(scenes)
    s = scenes.make_scene(np.random.default_rng(12345), 8, "general", 0.0)
    return [core.Correspondence(m, n) for m, n in zip(s.m, s.n)]


@pytest.mark.parametrize("setup_scene", [False, True], ids=["outlier_free_30", "setup_8"])
def test_ransac_stops_after_one_block_when_the_first_sample_explains_every_match(
        setup_scene, monkeypatch):
    # exact outlier-free input: the first block holds the floor (9 samples
    # on 30 points, 24 on 8), and the walk stops at its first sample, whose
    # consensus is every match, with the reference's pose and mask
    if setup_scene:
        points = _setup_scene_points(monkeypatch)
    else:
        points = list(scene(77, n=30).correspondences)
    _, iterations, drawn = _assert_matches_reference(points, "quest6", 0, monkeypatch)
    assert [len(idx) for idx in drawn] == [_ransac_floor(len(points), 6)]
    assert iterations == 1
    _, mask = solver.ransac_pose(points, "quest6", threshold=0.005, max_iters=200, seed=0)
    assert mask.all()


def test_ransac_c08_runs_take_at_most_five_blocks(monkeypatch):
    # the floor in one block, then blocks of twice the samples walked:
    # 9 + 18 + 54 + 119 reaches max_iters
    drawn = _record_blocks(monkeypatch)
    for run in range(20):
        start = len(drawn)
        solver.ransac_pose(make_outlier_set(seed=run)[0], "quest6", threshold=0.005,
                           max_iters=200, seed=run)
        assert len(drawn) - start <= 5, (run, [len(idx) for idx in drawn[start:]])


def test_ransac_rejects_max_iters_below_one():
    points, _, _ = make_outlier_set(seed=2)
    for max_iters in (0, -3):
        with pytest.raises(ValueError, match="max_iters"):
            solver.ransac_pose(points, "quest6", max_iters=max_iters, seed=0)


def test_ransac_max_iters_must_be_an_integer():
    points, _, _ = make_outlier_set(seed=2)
    for max_iters in (2.5, 200.0, "200", None, True, np.True_):
        with pytest.raises(ValueError, match="max_iters must be an integer"):
            solver.ransac_pose(points, "quest6", max_iters=max_iters, seed=0)
    # anything operator.index takes is an integer
    a = solver.ransac_pose(points, "quest6", max_iters=np.int64(200), seed=0)
    b = solver.ransac_pose(points, "quest6", max_iters=200, seed=0)
    assert a[0].q == b[0].q and np.array_equal(a[1], b[1])


def _reference_epipolar_errors(R, t, M, N):
    # one pose at a time: its epipolar lines E m_i, E = [t]x R, in one
    # product (per-ray products round differently), then ray by ray the
    # sine of the angle between n_i and its epipolar plane,
    # n_i . (E m_i) / (|E m_i| |n_i|), or 0 where E m_i = 0
    E = np.array([[0.0, -t[2], t[1]], [t[2], 0.0, -t[0]], [-t[1], t[0], 0.0]]) @ R
    out = np.zeros(len(M))
    for i, (line, n) in enumerate(zip(M @ E.T, N)):
        den = math.sqrt(np.einsum("j,j->", line, line)) * math.sqrt(np.add.reduce(n * n))
        out[i] = np.einsum("j,j->", line, n) / den if den else 0.0
    return out


def _reference_polish(R0, t0, M, N, w, iters=8):
    # Levenberg-Marquardt on one pose in the Gram form: the pose and its
    # six forward-difference perturbations, built one by one, go to one
    # call of the epipolar residual (7 poses -> 7 x k), the rows outside
    # the 0/1 weights w are zeroed, and the cost, J^T f and J^T J are read
    # off the Gram matrix of [f; f_1 - f; ...; f_6 - f]. Every round
    # recomputes the current pose's Gram matrix instead of carrying it,
    # and a trial is scored by the [0, 0] entry of its own: the oracle for
    # the stacked _polish_pose
    R = np.array(R0, dtype=float)
    t = np.asarray(t0, dtype=float)
    t = t / np.linalg.norm(t)
    h = 1e-7
    scale = np.r_[1.0, np.full(6, 1.0 / h)]
    tables = solver._epipolar_tables(M, N)

    def gram(R, t):
        Rs, ts = [R] * 7, [t] * 7
        for k in range(3):
            d = np.zeros(3)
            d[k] = h
            Rs[1 + k] = solver._rotation_exp(d) @ R
            ts[4 + k] = t + d
        F = np.where(w, solver._epipolar_errors(np.array(Rs), np.array(ts), *tables), 0.0)
        F[1:] -= F[0]
        return (F @ F.T.copy()) * np.outer(scale, scale)
    lam = 1e-4
    for _ in range(iters):
        G = gram(R, t)
        try:
            step = np.linalg.solve(G[1:, 1:] + lam * np.eye(6), -G[1:, 0])
        except np.linalg.LinAlgError:
            break
        R_new = solver._rotation_exp(step[:3]) @ R
        t_new = t + step[3:]
        t_new = t_new / np.linalg.norm(t_new)
        if gram(R_new, t_new)[0, 0] < G[0, 0]:
            R, t = R_new, t_new
            lam = max(lam * 0.3, 1e-10)
        else:
            lam *= 10.0
    return R, t


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
        R_ref, t_ref = _reference_polish(R0, t0, M, N, w)
        (R,), (t,) = solver._polish_pose(R0[None], t0[None], M, N, w[None])
        assert np.array_equal(R, R_ref)
        assert np.array_equal(t, t_ref)


def test_epipolar_errors_match_the_per_ray_reference():
    # the Kronecker-table residual of a stack of poses against the per-ray
    # sine; rays with E m_i = 0 give 0, not NaN: every ray when t = 0, and
    # a ray on the optical axis when R = I and t runs along that axis
    rng = np.random.default_rng(11)
    for _ in range(30):
        k = int(rng.integers(8, 31))
        R0, t0, M, N = _polish_case(rng, k)
        M[0] = (0.0, 0.0, 1.0)
        Rs = np.concatenate([solver._rotation_exp(rng.normal(scale=0.1, size=(5, 3))) @ R0,
                             [R0, np.eye(3)]])
        ts = np.concatenate([t0 + rng.normal(scale=0.1, size=(5, 3)), [np.zeros(3), M[0]]])
        got = solver._epipolar_errors(Rs[None], ts[None], *solver._epipolar_tables(M, N))[0]
        for R, t, row in zip(Rs, ts, got):
            assert np.allclose(row, _reference_epipolar_errors(R, t, M, N), rtol=0.0, atol=1e-14)
        assert np.array_equal(got[5], np.zeros(k))
        assert got[6, 0] == 0.0 and np.isfinite(got).all()


def _singular_polish_pose():
    # the identity rotation, t = (0, 0, 1) and a first-view ray m on the
    # optical axis, so E m = t x m = 0 and the ray's residual is 0. Its
    # second-view ray n = (0.5, 0.5, 1): rotating about x or about y by
    # the Jacobian step turns E m to e_x or e_y, so the residual jumps to
    # n_x / |n| or n_y / |n|, and shifting t along x or y gives -n_y / |n|
    # and n_x / |n|. J's two rotation columns are equal and ~4e6; with only
    # that ray weighted, J^T J (~1.7e13) swamps the damping and H has two
    # equal rows
    axis = np.array([0.0, 0.0, 1.0])
    return np.eye(3), axis, axis, np.array([0.5, 0.5, 1.0])


def test_polish_stack_matches_stacks_of_one():
    # each pose of a stack gets the bits of a stack of one: its own
    # damping, accept/reject decisions and singular-system fallback, which
    # leaves the singular pose where it is beside poses that move
    rng = np.random.default_rng(7)
    R_sing, t_sing, m, n = _singular_polish_pose()
    singular_seen = 0
    for _ in range(40):
        k = int(rng.integers(8, 31))
        R0, t0, M, N = _polish_case(rng, k)
        M, N = np.vstack([m, M]), np.vstack([n, N])
        P = int(rng.integers(1, 10))
        Rs = solver._rotation_exp(rng.normal(scale=0.03, size=(P, 3))) @ R0
        ts = t0 + rng.normal(scale=0.05, size=(P, 3))
        # masks of different sizes, an empty one among them
        W = rng.random((P, k + 1)) < rng.uniform(0.0, 1.0, (P, 1))
        W[:, 0] = False
        sing = int(rng.integers(P)) if rng.random() < 0.5 else None
        if sing is not None:
            Rs[sing], ts[sing] = R_sing, t_sing
            W[sing] = False
            W[sing, 0] = True
            singular_seen += 1
        R, t = solver._polish_pose(Rs, ts, M, N, W)
        if sing is not None:
            assert np.array_equal(R[sing], R_sing) and np.array_equal(t[sing], t_sing)
        for p in range(P):
            (R1,), (t1,) = solver._polish_pose(Rs[p:p + 1], ts[p:p + 1], M, N, W[p:p + 1])
            assert np.array_equal(R[p], R1)
            assert np.array_equal(t[p], t1)
    assert singular_seen


def test_polish_leaves_a_pose_with_a_singular_system_where_it_is():
    R0, t0, m, n = _singular_polish_pose()
    M = np.vstack([m, [[0.1, 0.2, 1.0], [-0.3, 0.1, 1.0]]])
    N = np.vstack([n, [[0.15, 0.1, 1.0], [-0.2, 0.3, 1.0]]])
    (G,) = solver._gram(R0[None], t0[None], np.array([[1, 0, 0]], bool),
                        solver._epipolar_tables(M, N))
    # the two rotation columns of J are equal and above 1e6: G's rows of
    # J^T J for them are equal, J^2 > 1e12
    assert np.array_equal(G[1], G[2]) and G[1, 1] > 1e12
    H = G[None, 1:, 1:] + 1e-4 * np.eye(6)
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.solve(H, np.ones((1, 6, 1)))
    # _lm_steps' fallback: the singular pose stays, the other moves as
    # it would alone
    W = np.array([[1, 0, 0], [1, 1, 1]], bool)
    R, t = solver._polish_pose(np.stack([R0, R0]), np.stack([t0, t0]), M, N, W)
    assert np.array_equal(R[0], R0) and np.array_equal(t[0], t0)
    assert not np.array_equal(R[1], R0)
    (R1,), (t1,) = solver._polish_pose(R0[None], t0[None], M, N, W[1:])
    assert np.array_equal(R[1], R1) and np.array_equal(t[1], t1)


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
    # (whose quest7 rank test fails), ones of a camera that only rotates
    # (whose rank tests both fail, so estimate_pose raises and the sample
    # gets no candidate) and ones of a half turn (which the block's frame
    # leaves without a candidate of |w| >= 0.1, and estimate_pose's gauge
    # frames rescue); each sample gets the candidates it gets alone
    general = make_outlier_set(seed=4, n=12, outlier_fraction=0.0)[0]
    plane = list(scene(4, n=12, geometry="coplanar").correspondences)
    still = list(scene(5, n=12, fixed_translation=(0.0, 0.0, 0.0)).correspondences)
    half = list(scene(6, n=12, fixed_rotation=(0.0, 0.0, 0.0, 1.0)).correspondences)
    points = general + plane + still + half
    M = np.array([c.m for c in points])
    N = np.array([c.n for c in points])
    rng = np.random.default_rng(11)
    layers = ("_near_real_eigenvectors", "_quat_from_cubic_vector", "score_candidates",
              "_epipolar_translations", "recover_translation_depths", "estimate_pose",
              "quat_to_rotation")
    for method in ("quest6", "quest7"):
        minimal = solver.MINIMAL_POINTS[method]
        idx = np.array([rng.choice(12, size=minimal, replace=False) + 12 * (r % 4)
                        for r in range(16)])
        # each call's name and the name of the traced call it runs inside
        calls = Counter()
        stack = []
        for name in layers:
            def traced(*args, fn=getattr(solver, name), name=name):
                calls.update([(name, stack[-1] if stack else None)])
                stack.append(name)
                try:
                    return fn(*args)
                finally:
                    stack.pop()
            monkeypatch.setattr(solver, name, traced)
        block = solver._block_candidates(M, N, idx, method)
        monkeypatch.undo()
        owner, q, R, t, still = block
        assert np.array_equal(owner, np.sort(owner))
        empty = rescued = 0
        for r, sample in enumerate(idx):
            pts = [points[i] for i in sample]
            mine = owner == r
            if not mine.any():
                # the block left the sample to estimate_pose, which raised
                with pytest.raises(DegeneracyError):
                    _reference_candidates(pts, method)
                empty += 1
                continue
            if r % 4 == 3:
                # rescued by the gauge frames: estimate_pose's candidates
                want = [(c, False) for c in solver.estimate_pose(pts, method)]
                rescued += 1
            else:
                want = _reference_candidates(pts, method)
            assert np.array_equal(q[mine], [[c.q.w, c.q.x, c.q.y, c.q.z] for c, _ in want])
            assert np.array_equal(R[mine], [quat_to_rotation(c.q) for c, _ in want])
            assert np.array_equal(t[mine], [c.t for c, _ in want])
            assert np.array_equal(still[mine], [flag for _, flag in want])
        assert empty == (8 if method == "quest7" else 4)
        assert rescued == 4
        # one call of each layer for the block; full translation, and the
        # rotation matrices of Quaternions, only inside the estimate_pose
        # calls that rescued a sample
        for name in layers[:4]:
            assert calls[(name, None)] == 1, name
        assert calls[("estimate_pose", None)] == empty + rescued
        assert calls[("recover_translation_depths", "estimate_pose")] == rescued
        assert {parent for name, parent in calls if name == "recover_translation_depths"} == {
            "estimate_pose"}
        assert {parent for name, parent in calls if name == "quat_to_rotation"} <= {
            "estimate_pose", "recover_translation_depths"}


def test_epipolar_translation_matches_full_translation_on_noiseless_scenes():
    # the top candidate of estimate_pose, whose t comes from the full
    # rigid-motion system, gets the same unit t and sign from the epipolar
    # rows of the same points
    for seed in range(40):
        pts = list(scene(seed).correspondences)
        M, N = _sample_rays(pts)
        for method in ("quest6", "quest7"):
            best = solver.estimate_pose(pts, method)[0]
            R = quat_to_rotation(best.q)
            (t,), (still,) = solver._epipolar_translations(R[None], M, N)
            assert best.scale_note == "unit-translation" and not still
            assert np.abs(t - best.t).max() < 1e-9
            u, _, _ = core.triangulate_uv(R, t, M[0], N[0])
            assert np.abs(u / best.depths_u - 1.0).max() < 1e-6


def test_epipolar_translation_falls_back_without_parallax():
    # under the true rotation of a camera that only rotates every point
    # has no parallax. A candidate with one such point takes its t from
    # the other points' rows, as the sample without that point gives it;
    # one with two or more is rotation-only, with t = 0; a candidate of a
    # moving camera in the same stack keeps its epipolar t
    still = scene(3, fixed_translation=(0.0, 0.0, 0.0))
    moving = scene(4)
    pts = list(still.correspondences)
    one, two = (pts[:k] + list(moving.correspondences)[k:] for k in (1, 2))
    qs = (still.pose.q, still.pose.q, still.pose.q, moving.pose.q)
    rays = [_sample_rays(p) for p in (pts, one, two, moving.correspondences)]
    M = np.concatenate([m for m, _ in rays])
    N = np.concatenate([n for _, n in rays])
    t, flags = solver._epipolar_translations(np.array([quat_to_rotation(q) for q in qs]), M, N)
    assert flags.tolist() == [True, False, True, False]
    assert not t[0].any() and not t[2].any()
    (want,), (want_still,) = solver._epipolar_translations(quat_to_rotation(still.pose.q)[None],
                                                           *_sample_rays(one[1:]))
    assert np.abs(t[1] - want).max() <= 1e-12 and not want_still
    assert core.trans_error(t[3], moving.pose.t) < 1e-9


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
    # under the true rotation, so an all-inlier sample gives a
    # rotation-only hypothesis; the outliers stay out as when every
    # hypothesis took the full translation
    points, mask_true, pose = make_outlier_set(seed=seed, sigma_px=sigma,
                                               fixed_translation=(0.0, 0.0, 0.0))
    cand, mask = solver.ransac_pose(points, "quest6", threshold=0.005, max_iters=200, seed=seed)
    tp, fp, fn = (int(np.sum(mask & mask_true)), int(np.sum(mask & ~mask_true)),
                  int(np.sum(~mask & mask_true)))
    tp0, fp0, fn0 = _PURE_ROTATION_FLOOR[sigma, seed]
    assert tp / (tp + fp) >= tp0 / (tp0 + fp0)
    assert tp / (tp + fn) >= tp0 / (tp0 + fn0)
    # exact rays: the winner is a rotation-only hypothesis, the minimal
    # solve's rotation unpolished
    assert core.rot_error(cand.q, pose.q) <= (1e-10 if sigma == 0.0 else 0.01)


def _identical_views(seed, outlier_fraction=0.0):
    return make_outlier_set(seed=seed, sigma_px=0.0, outlier_fraction=outlier_fraction,
                            fixed_rotation=(1.0, 0.0, 0.0, 0.0), fixed_translation=(0.0, 0.0, 0.0))


def test_ransac_block_solves_zero_motion_samples_as_rotation_only_identity(monkeypatch):
    # identical views: every sample's quest6 matrix fails its rank test
    # with a zero first column, and the block's rotation solve keeps the
    # identity alone, with no estimate_pose call. No point has parallax
    # under it, so each hypothesis is rotation-only, explaining every match
    points, _, _ = _identical_views(0)
    M, N = core._rays(points)
    idx = np.array([np.random.default_rng(s).choice(len(points), 6, replace=False)
                    for s in range(8)])

    def no_estimate_pose(*args):
        raise AssertionError("estimate_pose on a zero-motion sample")

    monkeypatch.setattr(solver, "estimate_pose", no_estimate_pose)
    cands = solver._block_candidates(M, N, idx, "quest6")
    sample, q, R, t, still = cands
    assert sample.tolist() == list(range(8))
    assert np.array_equal(q, np.tile([1.0, 0.0, 0.0, 0.0], (8, 1)))
    assert np.array_equal(R, np.tile(np.eye(3), (8, 1, 1)))
    assert still.all() and not t.any()
    _, _, _, errs, masks = solver._hypotheses(cands, M, N, 0.005, 6)
    assert masks.all() and errs.max() < 1e-12


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("outlier_fraction", [0.0, 0.2])
def test_ransac_solves_identical_views(seed, outlier_fraction):
    # quest6 returns the identity with the true mask; quest7's elimination
    # block collapses on every sample of identical views
    points, mask_true, _ = _identical_views(seed, outlier_fraction)
    cand, mask = solver.ransac_pose(points, "quest6", seed=seed)
    assert cand.q == core.IDENTITY_QUATERNION
    assert np.array_equal(mask, mask_true)
    with pytest.raises(RobustFailureError):
        solver.ransac_pose(points, "quest7", seed=seed)


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
    for threshold in (math.nan, math.inf, True, np.True_):
        with pytest.raises(ValueError, match="threshold"):
            solver.ransac_pose(points, "quest6", threshold=threshold, seed=0)


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


@pytest.mark.parametrize("threshold", [0.005, 4.0])
def test_consensus_drops_a_zero_translation_hypothesis(threshold):
    # a candidate with t = 0 triangulates u = v = 0 at every match, so
    # consensus finds no inlier for it even when the angle test passes
    # every match (4.0 > pi): _hypotheses needs no filter of its own, and
    # the other candidates keep what they get without it
    points = make_outlier_set(seed=2)[0]
    M = np.array([c.m for c in points])
    N = np.array([c.n for c in points])
    idx = np.random.default_rng(3).choice(len(points), size=(4, 6), replace=False)
    cands = solver._block_candidates(M, N, idx, "quest6")
    # the first candidate once more, with t = 0, as a sample of its own
    # that is not rotation-only
    extra = (np.array([len(idx)]), cands[1][:1], cands[2][:1], np.zeros((1, 3)),
             np.zeros(1, dtype=bool))
    still = tuple(np.concatenate(pair) for pair in zip(cands, extra))
    with np.errstate(all="raise"):
        got = solver._hypotheses(still, M, N, threshold, 6)
    want = solver._hypotheses(cands, M, N, threshold, 6)
    assert len(want[0]) and len(idx) not in got[0]
    for a, b in zip(got, want):
        assert np.array_equal(a, b)


def test_a_sample_without_parallax_gives_a_rotation_only_hypothesis():
    # exact rays of a camera that only rotates, then a moving camera's.
    # Four inliers and two outliers of the first set give the true
    # rotation as a candidate, under which the four inliers have no
    # parallax: it keeps t = 0, unpolished, and its inliers are the
    # matches whose angle between n and R m is below the threshold,
    # though none of them has depths. A sample of the moving camera has
    # parallax, and none of its hypotheses gets t = 0
    still, still_true, _ = make_outlier_set(seed=0, sigma_px=0.0,
                                            fixed_translation=(0.0, 0.0, 0.0))
    moving, moving_true, _ = make_outlier_set(seed=1)
    M, N = core._rays(still + moving)
    inliers, outliers = np.flatnonzero(still_true), np.flatnonzero(~still_true)
    idx = np.array([np.r_[inliers[:4], outliers[:2]], len(still) + np.flatnonzero(moving_true)[:6]])
    cands = solver._block_candidates(M, N, idx, "quest6")
    sample, _, R, t, flags = cands
    assert flags[sample == 0].sum() == 1 and not flags[sample == 1].any()
    assert not t[flags].any()
    owner, Rs, ts, errs, masks = solver._hypotheses(cands, M, N, 0.005, 6)
    zero = ~ts.any(axis=1)
    assert owner[zero].tolist() == [0] and (owner == 1).any()
    (R_still,) = R[flags]
    assert np.array_equal(Rs[zero][0], R_still)
    assert np.array_equal(errs[zero][0], _rotation_only_errors(R_still, M, N))
    assert np.array_equal(masks[zero][0], np.r_[still_true, np.zeros(len(moving), bool)])
    assert not solver._consensus(R_still, np.zeros(3), M, N, 0.005)[1].any()


def test_rotation_matrices_of_a_stack_match_quat_to_rotation_bit_for_bit():
    rng = np.random.default_rng(9)
    random = rng.normal(size=(2, 3, 4))
    random /= np.linalg.norm(random, axis=-1, keepdims=True)
    h = math.sqrt(0.5)
    zeros = np.array([[[1.0, 0.0, 0.0, 0.0], [0.0, 1.0, 0.0, 0.0], [0.0, 0.0, 0.0, -1.0]],
                      [[h, 0.0, h, 0.0], [0.5, -0.5, 0.5, -0.5], [0.0, 0.6, 0.0, 0.8]]])
    for Q in (random, zeros):
        Rs = solver._rotation_matrices(Q)
        assert Rs.shape == (2, 3, 3, 3)
        for i, j in np.ndindex(2, 3):
            want = quat_to_rotation(Quaternion(*Q[i, j].tolist()))
            assert Rs[i, j].tobytes() == want.tobytes()
