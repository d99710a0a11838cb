import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from quest import core
from quest.core import Correspondence, Quaternion, quat_from_rotation, quat_to_rotation
from quest.errors import InvalidCalibrationError

SQ2 = math.sqrt(0.5)


def unit_quaternions():
    return (
        st.tuples(*[st.floats(-1, 1) for _ in range(4)])
        .filter(lambda v: sum(c * c for c in v) > 1e-2)
        .map(lambda v: Quaternion(*v).normalized())
    )


# --- quat_to_rotation -------------------------------------------------------

def test_identity_rotation():
    assert_allclose(quat_to_rotation(Quaternion(1, 0, 0, 0)), np.eye(3))


def test_half_turn_about_z():
    assert_allclose(quat_to_rotation(Quaternion(0, 0, 0, 1)), np.diag([-1.0, -1.0, 1.0]), atol=1e-15)


def test_quarter_turn_about_z():
    R = quat_to_rotation(Quaternion(SQ2, 0, 0, SQ2))
    assert_allclose(R, [[0, -1, 0], [1, 0, 0], [0, 0, 1]], atol=1e-15)


def test_non_unit_quaternion_rejected():
    with pytest.raises(ValueError):
        quat_to_rotation(Quaternion(1.0, 0.1, 0, 0))


@settings(max_examples=100)
@given(unit_quaternions())
def test_rotation_is_orthonormal_with_unit_det(q):
    R = quat_to_rotation(q)
    assert_allclose(R @ R.T, np.eye(3), atol=1e-9)
    assert abs(np.linalg.det(R) - 1.0) < 1e-9


@given(unit_quaternions())
def test_double_cover_same_matrix(q):
    neg = Quaternion(-q.w, -q.x, -q.y, -q.z)
    assert_allclose(quat_to_rotation(q), quat_to_rotation(neg), atol=1e-15)


@settings(max_examples=100)
@given(unit_quaternions())
def test_matrix_round_trip(q):
    back = quat_from_rotation(quat_to_rotation(q))
    assert core.rot_error(q, back) < 1e-9
    # extraction returns the canonical representative
    qc = q.canonical()
    assert_allclose(back.as_array(), qc.as_array(), atol=1e-9)


@given(unit_quaternions(), unit_quaternions())
def test_hamilton_product_composes_rotations(a, b):
    assert_allclose(
        quat_to_rotation((a * b).normalized()),
        quat_to_rotation(a) @ quat_to_rotation(b),
        atol=1e-9,
    )


@pytest.mark.parametrize("q", [Quaternion(1, 0, 0, 0), Quaternion(0, 1, 0, 0),
                               Quaternion(0, 0, 1, 0), Quaternion(0, 0, 0, 1),
                               Quaternion(0.5, -0.5, 0.5, 0.5)])
def test_quat_from_rotation_returns_plain_floats(q):
    # one rotation per Shepperd branch: the trace and each diagonal entry
    back = quat_from_rotation(quat_to_rotation(q))
    assert [type(c) for c in (back.w, back.x, back.y, back.z)] == [float] * 4


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_quat_from_rotation_rejects_non_finite(bad):
    for i in range(9):
        R = np.eye(3)
        R.flat[i] = bad
        with pytest.raises(ValueError, match="NaN/Inf"):
            quat_from_rotation(R)


# --- canonicalization -------------------------------------------------------

@given(unit_quaternions())
def test_canonical_idempotent_and_rotation_preserving(q):
    c1 = q.canonical()
    assert c1.canonical() == c1
    assert_allclose(quat_to_rotation(q), quat_to_rotation(c1), atol=1e-15)
    assert c1.w >= 0.0 or abs(c1.w) <= 1e-12


def test_canonical_w_zero_uses_first_nonzero():
    q = Quaternion(0.0, -0.6, 0.0, 0.8).canonical()
    assert q.x > 0


# --- rot_error --------------------------------------------------------------

def test_rot_error_trivia():
    q = Quaternion(1, 0, 0, 0)
    assert core.rot_error(q, q) == 0.0
    assert core.rot_error(q, Quaternion(0, 0, 0, 1)) == pytest.approx(0.5)
    assert core.rot_error(q, Quaternion(-1, 0, 0, 0)) == 0.0


def test_rot_error_pseudometric(rng):
    for _ in range(200):
        qs = [Quaternion.from_array(v / np.linalg.norm(v)) for v in rng.normal(size=(3, 4))]
        a, b, c = qs
        assert core.rot_error(a, b) == pytest.approx(core.rot_error(b, a), abs=1e-12)
        assert core.rot_error(a, a) < 1e-9
        assert core.rot_error(a, c) <= core.rot_error(a, b) + core.rot_error(b, c) + 1e-9


# --- trans_error ------------------------------------------------------------

def test_trans_error_trivia():
    assert core.trans_error([0, 0, 1], [0, 0, 1]) == 0.0
    assert core.trans_error([1, 0, 0], [0, 1, 0]) == pytest.approx(0.5)
    assert core.trans_error([2, 0, 0], [1, 0, 0]) == 0.0


def test_trans_error_zero_norm_rejected():
    with pytest.raises(ValueError):
        core.trans_error([0, 0, 0], [1, 0, 0])


# --- normalize_pixels -------------------------------------------------------

def test_normalize_pixels_identity_calibration():
    assert_allclose(core.normalize_pixels([0.3, -0.7], np.eye(3)), [0.3, -0.7, 1.0])


def test_normalize_pixels_principal_point():
    K = np.array([[500.0, 0, 320], [0, 500.0, 240], [0, 0, 1]])
    assert_allclose(core.normalize_pixels([320, 240], K), [0, 0, 1])


def test_normalize_pixels_off_center():
    # K^-1 @ (820, 240, 1) = ((820-320)/500, 0, 1)
    K = np.array([[500.0, 0, 320], [0, 500.0, 240], [0, 0, 1]])
    assert_allclose(core.normalize_pixels([820, 240], K), [1, 0, 1])


def test_normalize_pixels_singular_calibration():
    with pytest.raises(InvalidCalibrationError):
        core.normalize_pixels([1, 1], np.zeros((3, 3)))


# --- monomial index ---------------------------------------------------------

def test_monomial_index_structure():
    monos = core.monomials_of_degree(4)
    assert len(monos) == 35
    assert len(set(monos)) == 35
    assert all(sum(e) == 4 for e in monos)
    assert monos[:4] == ((4, 0, 0, 0), (3, 1, 0, 0), (3, 0, 1, 0), (3, 0, 0, 1))
    assert list(monos) == sorted(monos, reverse=True)
    pos = core.monomial_positions(4)
    assert all(monos[pos[e]] == e for e in monos)


@given(unit_quaternions())
def test_monomial_vector_matches_direct_products(q):
    x = core.monomial_vector(q)
    w, xx, y, z = q.w, q.x, q.y, q.z
    pos = core.monomial_positions(4)
    assert x[pos[(4, 0, 0, 0)]] == pytest.approx(w**4, abs=1e-12)
    assert x[pos[(1, 1, 1, 1)]] == pytest.approx(w * xx * y * z, abs=1e-12)
    assert x[pos[(0, 0, 0, 4)]] == pytest.approx(z**4, abs=1e-12)


# --- value types ------------------------------------------------------------

def test_correspondence_requires_homogeneous_one():
    with pytest.raises(ValueError):
        Correspondence([1.0, 2.0, 0.9], [0.0, 0.0, 1.0])


def test_correspondence_rejects_nan():
    with pytest.raises(ValueError):
        Correspondence([np.nan, 0.0, 1.0], [0.0, 0.0, 1.0])


def test_correspondence_is_immutable():
    c = Correspondence([0.1, 0.2, 1.0], [0.3, 0.4, 1.0])
    with pytest.raises(ValueError):
        c.m[0] = 5.0
