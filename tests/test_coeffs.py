from fractions import Fraction
from itertools import combinations, permutations

import numpy as np
import pytest
from numpy.testing import assert_allclose

from quest import bench, coeffs, core, polymat
from quest.coeffs import R_POLY, build_A, build_triple_matrix, coefficient_row
from quest.core import Correspondence, monomial_positions, monomial_vector, monomials_of_degree
from quest.errors import DegenerateTripleError, InsufficientPointsError
from conftest import random_correspondence

POS2 = monomial_positions(2)
POS4 = monomial_positions(4)
POS6 = monomial_positions(6)


def _canonical(row):
    """row scaled to unit norm, its first coefficient above 1e-12 positive."""
    row = row / np.linalg.norm(row)
    for v in row:
        if abs(v) > 1e-12:
            if v < 0:
                row = -row
            break
    return row


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
    return _canonical(row)


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
    return _canonical(sol)


def _poly_mul(p, q):
    out = {}
    for ea, ca in p.items():
        for eb, cb in q.items():
            e = tuple(a + b for a, b in zip(ea, eb))
            out[e] = out.get(e, 0) + ca * cb
    return out


def exact_row(ci, cj, ck):
    """The row contract in exact integer arithmetic, with none of the row
    kernel's algebra: R's entries from R_POLY, the 6x6 determinant by the
    Leibniz formula, long division by the norm polynomial with a zero
    remainder asserted, then one rounding of the quotient. The rays are
    scaled by one power of two that makes them integers, a scale the unit
    norm removes."""
    exact = [Fraction(float(v)) for c in (ci, cj, ck) for v in (*c.m, *c.n)]
    scale = 2 ** max(v.denominator.bit_length() for v in exact)
    mi, ni, mj, nj, mk, nk = (exact[s:s + 3] for s in range(0, 18, 3))
    R = [[{e: int(c) for e, c in R_POLY[r, c].terms.items()} for c in range(3)] for r in range(3)]

    def rm(m, sign):  # sign * R m, as three quadratics
        return [{e: sign * sum(int(m[c] * scale) * R[r][c].get(e, 0) for c in range(3)) for e in POS2}
                for r in range(3)]

    def const(v):
        return {(0, 0, 0, 0): int(v * scale)}

    a, b, c = rm(mi, 1), rm(mj, -1), rm(mk, -1)
    A = [[a[r], const(-ni[r]), b[r], const(nj[r]), {}, {}] for r in range(3)]
    A += [[a[r], const(-ni[r]), {}, {}, c[r], const(nk[r])] for r in range(3)]
    det = {}
    for perm in permutations(range(6)):
        entries = [A[r][col] for r, col in enumerate(perm)]
        if all(entries):
            term = {(0, 0, 0, 0): (-1) ** sum(p > q for p, q in combinations(perm, 2))}
            for entry in entries:
                term = _poly_mul(term, entry)
            for e, v in term.items():
                det[e] = det.get(e, 0) + v
    quotient = {}
    for (w, x, y, z) in monomials_of_degree(6):  # falling powers of w
        v = det.get((w, x, y, z), 0)
        if w < 2:
            assert v == 0, "the norm polynomial does not divide the determinant"
        elif v:
            quotient[(w - 2, x, y, z)] = v
            for e in ((w - 2, x + 2, y, z), (w - 2, x, y + 2, z), (w - 2, x, y, z + 2)):
                det[e] = det.get(e, 0) - v
    big = max(map(abs, quotient.values()))
    return _canonical(np.array([quotient.get(e, 0) / big for e in monomials_of_degree(4)]))


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


def test_rows_match_exact_rational_oracle():
    # the first eight 3-point scenes: a row builder that expanded the
    # degree-6 determinant and divided by the norm in floats was off by up
    # to 3.9e-14 on them
    for seed in range(8):
        pts = bench.generate_scene(bench.SceneConfig(n_points=3, rng_seed=seed)).correspondences
        assert_allclose(coefficient_row(*pts), exact_row(*pts), rtol=0, atol=1e-14)


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
    # one kernel: a triple's row does not depend on the other rows built
    # with it, nor on the pass that builds it (20 points take five passes)
    for n in (6, 7, 8, 20):
        pts = [random_correspondence(rng) for _ in range(n)]
        A = build_A(pts)
        for r, (i, j, k) in enumerate(combinations(range(n), 3)):
            assert np.array_equal(coefficient_row(pts[i], pts[j], pts[k]), A[r])


def _columns(dense):
    # the sparse maps as the row kernel applied them before it went
    # batch-last: source index and weight of each nonzero by output column,
    # and where each column starts
    col, src = np.nonzero(dense.T)
    return src, dense[src, col], np.searchsorted(col, np.arange(dense.shape[1]))


def _apply(x, cmap):
    # x @ dense by np.add.reduceat over each column's terms: the reference order
    src, weight, starts = cmap
    terms = x[:, src]
    terms *= weight
    return np.add.reduceat(terms, starts, axis=1)


@pytest.mark.parametrize("t", [1, 63, 64, 65, 255, 256, 257, 300, 600])
def test_batch_last_maps_match_reduceat_reference(t):
    # bit for bit, signed zeros included, on inputs of mixed magnitudes (so
    # the order of each sum shows) with exact +-0.0 entries and whole
    # batch columns of -0.0 and of +0.0
    rng = np.random.default_rng(t)
    for dense, gmap, counts in ((coeffs._RP, coeffs._BILINEAR, (2, 3)),
                                (coeffs._quadratic_product_map(), coeffs._MUL22, (1, 6))):
        terms = np.count_nonzero(dense, axis=0)
        assert (terms.min(), terms.max()) == counts
        x = rng.normal(size=(t, len(dense))) * 10.0 ** rng.integers(-8, 9, size=(t, len(dense)))
        x[rng.random(x.shape) < 0.2] = 0.0
        x[rng.random(x.shape) < 0.2] = -0.0
        x[t // 2] = 0.0
        x[t - 1] = -0.0
        want = _apply(x, _columns(dense))
        got = coeffs._apply_map(np.ascontiguousarray(x.T), gmap)
        assert np.ascontiguousarray(got.T).tobytes() == want.tobytes()
        assert np.signbit(want[want == 0.0]).any()


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
