import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from conftest import make_outlier_set
from quest import baseline, bench, core, solver
from quest.core import PoseCandidate, Quaternion, _rays, quat_to_rotation, triangulate_uv
from quest.errors import (
    ChiralityFailureError,
    DegeneracyError,
    DegenerateConfigurationError,
    InsufficientPointsError,
)


def scene(seed, n=8, **kw):
    return bench.generate_scene(bench.SceneConfig(n_points=n, rng_seed=seed, **kw))


def test_epipolar_residual_noiseless():
    for seed in range(5):
        sc = scene(seed)
        E = baseline.eight_point(sc.correspondences)
        for c in sc.correspondences:
            assert abs(c.n @ E @ c.m) < 1e-10


def test_essential_invariants():
    sc = scene(1)
    E = baseline.eight_point(sc.correspondences)
    s = np.linalg.svd(E, compute_uv=False)
    assert s[0] == pytest.approx(s[1], rel=1e-9)
    assert s[2] < 1e-12 * s[0]
    assert np.linalg.norm(E) == pytest.approx(1.0, abs=1e-12)


def test_pure_translation_along_z():
    sc = scene(3, fixed_rotation=(1.0, 0, 0, 0), fixed_translation=(0.0, 0.0, 1.0))
    E = baseline.eight_point(sc.correspondences)
    # E ~ [t]_x with t = z, up to scale and sign
    pattern = np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
    pattern /= np.linalg.norm(pattern)
    if np.sum(E * pattern) < 0:
        pattern = -pattern
    assert_allclose(E, pattern, atol=1e-9)


def test_too_few_points():
    sc = scene(0, n=7)
    with pytest.raises(InsufficientPointsError):
        baseline.eight_point(sc.correspondences)


def test_coplanar_design_matrix_degenerates():
    for seed in range(5):
        sc = bench.generate_scene(bench.SceneConfig(n_points=8, geometry="coplanar", rng_seed=seed))
        with pytest.raises(DegenerateConfigurationError):
            baseline.eight_point(sc.correspondences)


def test_decompose_recovers_pose():
    for seed in range(5):
        sc = scene(seed)
        cand = baseline.decompose_essential(baseline.eight_point(sc.correspondences), sc.correspondences)
        assert core.rot_error(cand.q, sc.pose.q) < 1e-6
        assert core.trans_error(cand.t, sc.pose.t) < 1e-6
        assert np.linalg.norm(cand.t) == pytest.approx(1.0, abs=1e-12)
        assert cand.chirality_ok
        R = quat_to_rotation(cand.q)
        assert_allclose(R @ R.T, np.eye(3), atol=1e-9)
        assert np.linalg.det(R) == pytest.approx(1.0, abs=1e-9)


def test_decompose_pure_translation_gives_identity_rotation():
    sc = scene(3, fixed_rotation=(1.0, 0, 0, 0), fixed_translation=(1.0, 0.0, 0.0))
    cand = baseline.decompose_essential(baseline.eight_point(sc.correspondences), sc.correspondences)
    assert core.rot_error(cand.q, core.IDENTITY_QUATERNION) < 1e-6
    assert core.trans_error(cand.t, [1.0, 0.0, 0.0]) < 1e-6


def test_translation_always_unit_norm():
    for seed in range(3):
        sc = scene(seed, fixed_translation=(0.001, 0.0, 0.0))
        cand = baseline.decompose_essential(baseline.eight_point(sc.correspondences), sc.correspondences)
        assert np.linalg.norm(cand.t) == pytest.approx(1.0, abs=1e-12)


def test_coplanar_failure_with_noise_returns_garbage():
    # under noise the rank test passes but the estimate is structurally
    # wrong; this is the regime the noise benchmark records
    cam = bench.SyntheticCamera()
    errs = []
    for seed in range(10):
        sc = bench.generate_scene(bench.SceneConfig(n_points=8, geometry="coplanar", rng_seed=seed))
        noisy = bench.add_pixel_noise(sc.correspondences, 1.0, cam, seed)
        try:
            cand = baseline.decompose_essential(baseline.eight_point(noisy), noisy)
            errs.append(core.rot_error(cand.q, sc.pose.q))
        except DegeneracyError:
            errs.append(0.5)
    assert np.median(errs) > 0.02



@pytest.mark.parametrize("E", [np.eye(2), np.eye(4)[:3], np.ones(9), [[1.0, 0.0], [0.0, 1.0]]])
def test_decompose_rejects_a_non_3x3_essential_matrix(E):
    with pytest.raises(ValueError, match="finite 3x3"):
        baseline.decompose_essential(E, scene(0).correspondences)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_decompose_rejects_a_non_finite_essential_matrix(bad):
    # one infinite entry is the case LAPACK's SVD may not return from
    sc = scene(0)
    E = baseline.eight_point(sc.correspondences)
    E[1, 2] = bad
    with pytest.raises(ValueError, match="finite 3x3"):
        baseline.decompose_essential(E, sc.correspondences)


def test_decompose_rejects_an_empty_match_list():
    E = baseline.eight_point(scene(0).correspondences)
    with pytest.raises(InsufficientPointsError, match="got 0"):
        baseline.decompose_essential(E, [])


def test_quaternions_carry_plain_floats():
    sc = scene(4, n=12)
    (cand,) = solver.estimate_pose(sc.correspondences, "eightpt")
    assert [type(c) for c in (cand.q.w, cand.q.x, cand.q.y, cand.q.z)] == [float] * 4
    points, _, _ = make_outlier_set(seed=1)
    cand, _ = solver.ransac_pose(points, "quest6", threshold=0.005, max_iters=200, seed=1)
    assert [type(c) for c in (cand.q.w, cand.q.x, cand.q.y, cand.q.z)] == [float] * 4

# --- the array-call implementation, kept as the bit-for-bit reference ------

def _reference_hartley_normalization(xy):
    centroid = xy.mean(axis=0)
    rms = np.sqrt(np.mean(np.sum((xy - centroid) ** 2, axis=1)))
    s = np.sqrt(2.0) / rms if rms > 0.0 else 1.0
    return np.array(
        [[s, 0.0, -s * centroid[0]], [0.0, s, -s * centroid[1]], [0.0, 0.0, 1.0]]
    )


def _reference_eight_point(points):
    points = list(points)
    if len(points) < 8:
        raise InsufficientPointsError(f"need at least 8 correspondences, got {len(points)}")
    M, N = _rays(points)
    T1 = _reference_hartley_normalization(M[:, :2])
    T2 = _reference_hartley_normalization(N[:, :2])
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


def _reference_quat_from_rotation(R):
    R = np.asarray(R, dtype=float)
    if R.shape != (3, 3):
        raise ValueError("rotation matrix must be 3x3")
    tr = R[0, 0] + R[1, 1] + R[2, 2]
    choices = [R[0, 0], R[1, 1], R[2, 2], tr]
    i = int(np.argmax(choices))
    if i == 3:
        s = math.sqrt(1.0 + tr) * 2.0
        q = (0.25 * s, (R[2, 1] - R[1, 2]) / s, (R[0, 2] - R[2, 0]) / s, (R[1, 0] - R[0, 1]) / s)
    elif i == 0:
        s = math.sqrt(1.0 + R[0, 0] - R[1, 1] - R[2, 2]) * 2.0
        q = ((R[2, 1] - R[1, 2]) / s, 0.25 * s, (R[0, 1] + R[1, 0]) / s, (R[0, 2] + R[2, 0]) / s)
    elif i == 1:
        s = math.sqrt(1.0 - R[0, 0] + R[1, 1] - R[2, 2]) * 2.0
        q = ((R[0, 2] - R[2, 0]) / s, (R[0, 1] + R[1, 0]) / s, 0.25 * s, (R[1, 2] + R[2, 1]) / s)
    else:
        s = math.sqrt(1.0 - R[0, 0] - R[1, 1] + R[2, 2]) * 2.0
        q = ((R[1, 0] - R[0, 1]) / s, (R[0, 2] + R[2, 0]) / s, (R[1, 2] + R[2, 1]) / s, 0.25 * s)
    return Quaternion(*q).normalized().canonical()


def _reference_decompose_essential(E, points):
    points = list(points)
    U, _, Vt = np.linalg.svd(E)
    if np.linalg.det(U) < 0:
        U = -U
    if np.linalg.det(Vt) < 0:
        Vt = -Vt
    W = np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
    t_unit = U[:, 2]
    M, N = _rays(points)
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
        q=_reference_quat_from_rotation(R),
        algebraic_residual=residual,
        t=t / np.linalg.norm(t),
        depths_u=u,
        depths_v=v,
        chirality_ok=bool(np.all(u > 0.0) and np.all(v > 0.0)),
        scale_note="unit-translation",
        t_depth_ratio=float(np.linalg.norm(t) / np.mean(np.abs(np.concatenate([u, v])))),
    )


def _hex(values):
    return [float.hex(float(x)) for x in np.ravel(values)]


def _candidate_bits(c):
    # every field, floats as hex so that -0.0 and 0.0 differ
    return (_hex([c.q.w, c.q.x, c.q.y, c.q.z]), float.hex(c.algebraic_residual), _hex(c.t),
            _hex(c.depths_u), _hex(c.depths_v), c.chirality_ok, c.scale_note,
            float.hex(c.t_depth_ratio), c.ambiguous_depths)


def _outcome(fn, *args):
    """fn(*args) as ("ok", bits) or ("raised", error type, message)."""
    try:
        out = fn(*args)
    except Exception as e:  # the error type and message are compared
        return ("raised", type(e), str(e))
    return ("ok", _hex(out) if isinstance(out, np.ndarray) else _candidate_bits(out))


def _solve(eight_point, decompose):
    def run(points):
        return decompose(eight_point(points), points)
    return run


def _reference_scenes():
    # general and coplanar at 0-4 px, n = 8, 12 and 30, and pure translation
    cam = bench.SyntheticCamera()
    for geometry in ("general", "coplanar"):
        for n in (8, 12, 30):
            for sigma in (0.0, 1.0, 2.0, 4.0):
                for seed in range(6):
                    sc = bench.generate_scene(
                        bench.SceneConfig(n_points=n, geometry=geometry, rng_seed=seed))
                    yield geometry, sigma, bench.add_pixel_noise(sc.correspondences, sigma, cam, seed)
    for seed in range(4):
        sc = scene(seed, n=10, fixed_rotation=(1.0, 0, 0, 0))
        yield "pure translation", 0.0, sc.correspondences


def test_eight_point_matches_the_reference_bit_for_bit():
    seen = set()
    for geometry, sigma, points in _reference_scenes():
        want = _outcome(_solve(_reference_eight_point, _reference_decompose_essential), points)
        assert _outcome(_solve(baseline.eight_point, baseline.decompose_essential), points) == want
        assert _outcome(baseline.eight_point, points) == _outcome(_reference_eight_point, points)
        seen.add((geometry, sigma, "ok" if want[0] == "ok" else want[1].__name__))
    # coplanar points at zero noise raise; noisy and pure-translation scenes solve
    assert ("coplanar", 0.0, "DegenerateConfigurationError") in seen
    assert {("general", 4.0, "ok"), ("coplanar", 4.0, "ok"), ("pure translation", 0.0, "ok")} <= seen


def test_chirality_failure_matches_the_reference():
    # an essential matrix of another scene splits the votes
    points = scene(0, n=8).correspondences
    E = baseline.eight_point(scene(9, n=8).correspondences)
    want = _outcome(_reference_decompose_essential, E, points)
    assert want[:2] == ("raised", ChiralityFailureError)
    assert _outcome(baseline.decompose_essential, E, points) == want


def test_quat_from_rotation_matches_the_reference_bit_for_bit():
    # random rotations, each Shepperd branch among them, and the rotation
    # matrices of eight_point's decompositions
    rng = np.random.default_rng(11)
    quats = [Quaternion.from_array(rng.normal(size=4)).normalized() for _ in range(200)]
    quats += [Quaternion(*v).normalized() for v in np.eye(4)]
    for q in quats:
        R = quat_to_rotation(q)
        assert _hex(core.quat_from_rotation(R).as_array()) == _hex(
            _reference_quat_from_rotation(R).as_array())
