"""tests/compare_outputs.py: a checkout against itself, and one group's comparison."""

from pathlib import Path

import numpy as np

import compare_outputs

ROOT = Path(__file__).resolve().parents[1]


def test_a_checkout_matches_itself_in_every_group():
    sizes = dict(seeds=(1,), minimal=2, ransac=1, c08=1, half_turn=1, half_turn_ransac=1,
                 pure_rotation=1)
    lines = compare_outputs.compare(ROOT, ROOT, **sizes)
    assert len(lines) == 38 + 1  # the digest groups, then the total
    assert lines[-1].startswith("total n=")
    zeros = [f"{name}=0" for name in compare_outputs.COUNTS] + [
        f"{name}=0" for name in compare_outputs.WORST]
    for line in lines:
        assert line.split()[-len(zeros):] == zeros, line


def test_compare_group_counts_changes_and_measures_rounding():
    def record(t, ok=True):
        q = np.array([1.0, 0.0, 0.0, 0.0])
        return (q, 0.5, np.array(t), np.array([1.0, 2.0]), np.array([2.0, 4.0]), ok,
                "unit-translation", 0.25, False)

    old = [("pose", [record([0.0, 0.0, 1.0])]), ("raise", "CriticalSurfaceError"),
           ("ransac", [record([1.0, 0.0, 0.0])], np.array([True, False])),
           ("pose", [record([0.0, 1.0, 0.0])])]
    new = [("pose", [record([0.0, 1e-10, 1.0])]), ("pose", [record([0.0, 0.0, 1.0])]),
           ("ransac", [record([1.0, 0.0, 0.0], ok=False)], np.array([True, True])),
           ("pose", [])]
    diff = compare_outputs.compare_group(old, new)
    assert diff == dict(error=1, count=1, q=0, residual=0, mask=1, chirality_ok=1,
                        scale_note=0, ambiguous_depths=0, dq=0.0, dt=1e-10, ddepth=0.0,
                        dratio=0.0)
