import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quest.polymat import (
    NORM_POLY,
    Poly4,
    PolyMatrix,
    poly_add,
    poly_det,
    poly_div_exact,
    poly_eval,
    poly_mul,
    poly_scale,
    poly_sub,
)
from quest.coeffs import R_POLY, build_triple_matrix
from quest.core import Quaternion, quat_to_rotation
from conftest import random_correspondence

W, X, Y, Z = (Poly4.variable(i) for i in range(4))


def exponents():
    return st.tuples(*[st.integers(0, 3) for _ in range(4)])


def polys(max_terms=6):
    coeff = st.floats(-10, 10).filter(lambda c: c == 0.0 or abs(c) > 1e-6)
    return st.dictionaries(exponents(), coeff, max_size=max_terms).map(Poly4)


def points():
    return st.tuples(*[st.floats(-1, 1) for _ in range(4)])


# --- arithmetic -------------------------------------------------------------

def test_difference_of_squares():
    p = poly_mul(poly_add(W, X), poly_sub(W, X))
    assert p.terms == {(2, 0, 0, 0): 1.0, (0, 2, 0, 0): -1.0}


def test_additive_identity():
    p = Poly4({(1, 2, 0, 1): 3.5, (0, 0, 0, 0): -1.0})
    assert poly_add(p, Poly4()).terms == p.terms


@given(polys(), polys(), st.floats(-10, 10))
def test_operators_are_the_named_functions(p, q, s):
    assert (p + q).terms == poly_add(p, q).terms
    assert (p - q).terms == poly_sub(p, q).terms
    assert (p * q).terms == poly_mul(p, q).terms
    assert (2 * p).terms == (p * 2).terms == poly_scale(p, 2).terms
    scaled = np.float64(s) * p
    assert isinstance(scaled, Poly4) and scaled.terms == poly_scale(p, s).terms


def test_rotation_polynomials_evaluate_to_the_rotation_matrix(rng):
    for _ in range(50):
        q = rng.normal(size=4)
        q /= np.linalg.norm(q)
        assert np.allclose(R_POLY.eval_at(q), quat_to_rotation(Quaternion(*q)), rtol=0.0, atol=1e-14)


def test_norm_poly_squared_is_one_on_unit_quaternions(rng):
    sq = poly_mul(NORM_POLY, NORM_POLY)
    for _ in range(20):
        q = rng.normal(size=4)
        q /= np.linalg.norm(q)
        assert poly_eval(sq, q) == pytest.approx(1.0, abs=1e-12)


@given(polys(), polys(), polys())
def test_ring_axioms(p, q, r):
    left = poly_add(poly_add(p, q), r).terms
    right = poly_add(p, poly_add(q, r)).terms
    assert set(left) == set(right)
    for e in left:
        assert left[e] == pytest.approx(right[e], rel=1e-12, abs=1e-12)
    dist_l = poly_mul(p, poly_add(q, r))
    dist_r = poly_add(poly_mul(p, q), poly_mul(p, r))
    for e in set(dist_l.terms) | set(dist_r.terms):
        assert dist_l.terms.get(e, 0.0) == pytest.approx(
            dist_r.terms.get(e, 0.0), rel=1e-9, abs=1e-9
        )


@settings(max_examples=100)
@given(polys(), polys(), points())
def test_evaluation_homomorphism(p, q, v):
    lhs = poly_eval(poly_mul(p, q), v)
    rhs = poly_eval(p, v) * poly_eval(q, v)
    assert lhs == pytest.approx(rhs, rel=1e-10, abs=1e-8)


def test_degree_of_product():
    p = poly_mul(NORM_POLY, NORM_POLY)
    assert p.degree() == 4
    assert poly_mul(p, Poly4()).is_zero()


# --- determinant ------------------------------------------------------------

def test_det_identity_matrix():
    M = PolyMatrix([[Poly4.constant(1.0) if i == j else Poly4() for j in range(6)] for i in range(6)])
    assert poly_det(M).terms == {(0, 0, 0, 0): 1.0}


def test_det_diagonal_product():
    diag = [W, X, Y, Z, Poly4.constant(1.0), Poly4.constant(1.0)]
    M = PolyMatrix([[diag[i] if i == j else Poly4() for j in range(6)] for i in range(6)])
    assert poly_det(M).terms == {(1, 1, 1, 1): 1.0}


def test_det_requires_square():
    with pytest.raises(ValueError):
        poly_det(PolyMatrix([[W, X]]))


def test_det_matches_numeric_oracle(rng):
    # brute-force oracle: instantiate the matrix numerically and take a
    # plain numeric determinant
    for _ in range(20):
        M = build_triple_matrix(*[random_correspondence(rng) for _ in range(3)])
        det = poly_det(M)
        for _ in range(5):
            q = rng.normal(size=4)
            q /= np.linalg.norm(q)
            sym = poly_eval(det, q)
            num = np.linalg.det(M.eval_at(q))
            assert abs(sym - num) <= 1e-8 * max(1.0, abs(sym), abs(num))


def test_triple_determinant_is_homogeneous_degree_six(rng):
    for _ in range(10):
        M = build_triple_matrix(*[random_correspondence(rng) for _ in range(3)])
        det = poly_det(M)
        scale = det.max_coeff()
        assert all(
            sum(e) == 6 or abs(c) < 1e-9 * scale for e, c in det.terms.items()
        )


# --- division ---------------------------------------------------------------

def test_exact_factor_divides_cleanly():
    p = poly_mul(NORM_POLY, poly_sub(poly_mul(W, W), poly_mul(Z, Z)))
    quotient, rem = poly_div_exact(p, NORM_POLY)
    assert rem == 0.0
    assert quotient.terms == {(2, 0, 0, 0): 1.0, (0, 0, 0, 2): -1.0}


def test_non_multiple_leaves_remainder():
    p = poly_mul(poly_mul(W, W), poly_mul(W, W))  # w^4
    _, rem = poly_div_exact(p, NORM_POLY)
    assert rem > 0.0


def test_division_by_zero_rejected():
    with pytest.raises(ValueError):
        poly_div_exact(W, Poly4())


@settings(max_examples=50)
@given(polys(max_terms=5), polys(max_terms=3))
def test_division_identity(p, d):
    if d.is_zero() or p.is_zero():
        return
    q, rem_norm = poly_div_exact(p, d)
    # the residue p - q*d is exactly the remainder: it must be irreducible
    # by d's leading term and its relative max-norm must match the report
    residue = poly_sub(p, poly_mul(q, d))
    lead = max(d.terms, key=lambda e: (sum(e), e))
    scale = max(p.max_coeff(), 1.0)
    for e, c in residue.terms.items():
        if abs(c) > 1e-7 * scale:
            assert not all(e[i] >= lead[i] for i in range(4))
    assert residue.max_coeff() / p.max_coeff() == pytest.approx(rem_norm, abs=1e-7)


def test_triple_determinants_divide_by_norm_poly(rng):
    for _ in range(25):
        M = build_triple_matrix(*[random_correspondence(rng) for _ in range(3)])
        quotient, rem = poly_div_exact(poly_det(M), NORM_POLY)
        assert rem < 1e-9
        assert quotient.degree() <= 4
        assert len(quotient.terms) <= 35


def test_scale_by_zero_gives_zero():
    assert poly_scale(NORM_POLY, 0.0).is_zero()
