"""Two-view relative camera pose from matched feature points.

Rotation is recovered as a unit quaternion by solving the stacked
degree-4 monomial system built from 3-point subsets; translation and the
per-point depths follow from one singular vector, sharing a common scale.
The 6-point solver works for every point configuration, including coplanar
scenes where essential-matrix methods break down; an 8-point essential
matrix baseline and a Monte Carlo benchmark harness round out the package.
"""

from .core import (
    Correspondence,
    IDENTITY_QUATERNION,
    Pose,
    PoseCandidate,
    Quaternion,
    monomial_vector,
    monomials_of_degree,
    normalize_pixels,
    quat_from_rotation,
    quat_to_rotation,
    rot_error,
    trans_error,
)
from .coeffs import build_A, coefficient_row
from .solver import (
    estimate_pose,
    quest6_rotations,
    quest7_rotations,
    ransac_pose,
    recover_translation_depths,
    score_candidates,
)
from .baseline import decompose_essential, eight_point
from .bench import (
    BenchRecord,
    SceneConfig,
    SyntheticCamera,
    add_pixel_noise,
    generate_scene,
    run_noise_benchmark,
    run_time_benchmark,
)
from . import errors

__all__ = [
    "BenchRecord",
    "Correspondence",
    "IDENTITY_QUATERNION",
    "Pose",
    "PoseCandidate",
    "Quaternion",
    "SceneConfig",
    "SyntheticCamera",
    "add_pixel_noise",
    "build_A",
    "coefficient_row",
    "decompose_essential",
    "eight_point",
    "errors",
    "estimate_pose",
    "generate_scene",
    "monomial_vector",
    "monomials_of_degree",
    "normalize_pixels",
    "quat_from_rotation",
    "quat_to_rotation",
    "quest6_rotations",
    "quest7_rotations",
    "ransac_pose",
    "recover_translation_depths",
    "rot_error",
    "run_noise_benchmark",
    "run_time_benchmark",
    "score_candidates",
    "trans_error",
]
