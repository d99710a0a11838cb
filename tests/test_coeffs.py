from itertools import combinations

import numpy as np
import pytest
from numpy.testing import assert_allclose

from quest import bench, core, polymat
from quest.coeffs import build_A, build_triple_matrix, coefficient_row
from quest.core import Correspondence, monomial_positions, monomial_vector, monomials_of_degree
from quest.errors import DegenerateTripleError, InsufficientPointsError
from conftest import random_correspondence

POS4 = monomial_positions(4)
POS6 = monomial_positions(6)


def reference_row(ci, cj, ck):
    """The row contract spelled out with the generic polymat operations:
    determinant, exact division by the norm polynomial, canonical layout,
    unit norm, sign fix."""
    det = polymat.poly_det(build_triple_matrix(ci, cj, ck))
    quotient, rem = polymat.poly_div_exact(det, polymat.NORM_POLY)
    assert rem < 1e-6
    row = np.zeros(35)
    for e, c in quotient.terms.items():
        row[POS4[e]] = c
    row = row / np.linalg.norm(row)
    for v in row:
        if abs(v) > 1e-12:
            if v < 0:
                row = -row
            break
    return row


def lstsq_row_oracle(ci, cj, ck):
    """Independent extraction of the degree-4 coefficients: solve the linear
    map 'multiply by the norm polynomial' from the 35 unknowns to the 84
    degree-6 coefficients in least squares."""
    det = polymat.poly_det(build_triple_matrix(ci, cj, ck))
    d6 = np.zeros(84)
    for e, c in det.terms.items():
        d6[POS6[e]] = c
    N = np.zeros((84, 35))
    for j, e4 in enumerate(monomials_of_degree(4)):
        for e2, c in polymat.NORM_POLY.terms.items():
            N[POS6[tuple(np.add(e4, e2))], j] = c
    sol, _, _, _ = np.linalg.lstsq(N, d6, rcond=None)
    row = sol / np.linalg.norm(sol)
    for v in row:
        if abs(v) > 1e-12:
            if v < 0:
                row = -row
            break
    return row


# --- build_triple_matrix ----------------------------------------------------

def test_zero_motion_null_vector():
    pts = [Correspondence([x, y, 1.0], [x, y, 1.0]) for x, y in [(0.1, 0.2), (-0.5, 0.3), (0.4, -0.6)]]
    M = build_triple_matrix(*pts)
    numeric = M.eval_at([1.0, 0.0, 0.0, 0.0])
    assert_allclose(numeric @ np.ones(6), 0.0, atol=1e-14)


def test_triple_matrix_column_structure(rng):
    M = build_triple_matrix(*[random_correspondence(rng) for _ in range(3)])
    for r in range(6):
        for c in (1, 3, 5):
            assert M[r, c].degree() <= 0
        # the top block is zero in the point-k columns and vice versa
    for c in (0, 2, 4):
        degs = [M[r, c].degree() for r in range(6)]
        assert max(degs) == 2


def test_true_depths_annihilate_synthetic_matrix():
    scene = bench.generate_scene(bench.SceneConfig(n_points=3, rng_seed=11))
    M = build_triple_matrix(*scene.correspondences)
    numeric = M.eval_at(scene.pose.q.as_array())
    u, v = scene.pose.depths_u, scene.pose.depths_v
    depth_vec = np.array([u[0], v[0], u[1], v[1], u[2], v[2]])
    assert np.linalg.norm(numeric @ depth_vec) < 1e-10 * np.linalg.norm(depth_vec)


# --- coefficient_row --------------------------------------------------------

def test_fast_row_matches_reference_path(rng):
    for _ in range(25):
        pts = [random_correspondence(rng) for _ in range(3)]
        assert_allclose(coefficient_row(*pts), reference_row(*pts), atol=1e-12)


def test_row_matches_least_squares_oracle(rng):
    for _ in range(10):
        pts = [random_correspondence(rng) for _ in range(3)]
        assert_allclose(coefficient_row(*pts), lstsq_row_oracle(*pts), atol=1e-10)


def test_row_annihilates_true_monomials():
    scene = bench.generate_scene(bench.SceneConfig(n_points=3, rng_seed=4))
    row = coefficient_row(*scene.correspondences)
    assert abs(row @ monomial_vector(scene.pose.q)) < 1e-9


def test_zero_motion_row_annihilates_identity():
    pts = [Correspondence([x, y, 1.0], [x, y, 1.0]) for x, y in [(0.3, 0.1), (-0.7, 0.4), (0.2, -0.9)]]
    row = coefficient_row(*pts)
    assert abs(row @ monomial_vector(core.IDENTITY_QUATERNION)) < 1e-12


def test_repeated_point_is_degenerate(rng):
    c = random_correspondence(rng)
    with pytest.raises(DegenerateTripleError):
        coefficient_row(c, c, random_correspondence(rng))


# --- build_A ----------------------------------------------------------------

@pytest.mark.parametrize("n,rows", [(6, 20), (7, 35), (8, 56)])
def test_matrix_shapes(n, rows):
    scene = bench.generate_scene(bench.SceneConfig(n_points=n, rng_seed=2))
    pts = list(scene.correspondences)
    A = build_A(pts)
    assert A.shape == (rows, 35)
    # one row per triple, in lexicographic (combinations) order
    for r, (i, j, k) in enumerate(combinations(range(n), 3)):
        assert np.array_equal(A[r], coefficient_row(pts[i], pts[j], pts[k]))
    assert_allclose(np.linalg.norm(A, axis=1), 1.0, atol=1e-12)


@pytest.mark.parametrize("n", [6, 7, 8])
def test_batched_rows_match_reference_path(n):
    for seed in range(3):
        pts = list(bench.generate_scene(bench.SceneConfig(n_points=n, rng_seed=seed)).correspondences)
        A = build_A(pts)
        for r, (i, j, k) in enumerate(combinations(range(n), 3)):
            assert_allclose(A[r], reference_row(pts[i], pts[j], pts[k]), atol=1e-12)


def test_coefficient_row_is_the_batched_row(rng):
    # one kernel: a triple's row does not depend on the other rows built with it
    for n in (6, 7, 8):
        pts = [random_correspondence(rng) for _ in range(n)]
        A = build_A(pts)
        for r, (i, j, k) in enumerate(combinations(range(n), 3)):
            assert np.array_equal(coefficient_row(pts[i], pts[j], pts[k]), A[r])


def test_insufficient_points_rejected():
    scene = bench.generate_scene(bench.SceneConfig(n_points=5, rng_seed=2))
    with pytest.raises(InsufficientPointsError):
        build_A(scene.correspondences)


def test_degenerate_triple_error_names_the_triple(rng):
    pts = [random_correspondence(rng) for _ in range(6)]
    pts[3] = pts[1]
    # the first lexicographic triple containing both copies is (0, 1, 3)
    with pytest.raises(DegenerateTripleError, match=r"\(0, 1, 3\)"):
        build_A(pts)


def test_row_permutation_invariance(rng):
    scene = bench.generate_scene(bench.SceneConfig(n_points=6, rng_seed=8))
    pts = list(scene.correspondences)
    A1 = build_A(pts)
    perm = [3, 0, 5, 1, 4, 2]
    A2 = build_A([pts[i] for i in perm])
    # rows are sign-canonical already, so the row sets must match exactly
    s1 = np.array(sorted(map(tuple, np.round(A1, 10))))
    s2 = np.array(sorted(map(tuple, np.round(A2, 10))))
    assert_allclose(s1, s2, atol=1e-9)


@pytest.mark.parametrize("n", [6, 7])
def test_null_vector_property(n):
    for seed in range(5):
        scene = bench.generate_scene(bench.SceneConfig(n_points=n, rng_seed=seed))
        A = build_A(scene.correspondences)
        assert np.linalg.norm(A @ monomial_vector(scene.pose.q)) < 1e-9


def test_seven_point_elimination_rank_general():
    from quest.solver import _RANK_FLOOR, QUEST7_SPLIT

    for seed in range(5):
        scene = bench.generate_scene(bench.SceneConfig(n_points=7, rng_seed=seed))
        A = build_A(scene.correspondences)
        sv = np.linalg.svd(A[:, QUEST7_SPLIT[1]], compute_uv=False)
        assert int(np.sum(sv > _RANK_FLOOR * sv[0])) == 31
