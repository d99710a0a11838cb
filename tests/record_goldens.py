"""Print the RANSAC golden tables of test_solver.py in their literal form.

    PYTHONPATH=src python tests/record_goldens.py

The output replaces _RANSAC_GOLDEN and _RANSAC_QUEST7_GOLDEN as it
stands, when a change is meant to move ransac_pose's output; the change
then needs the evidence the ROADMAP's "Golden outputs" item asks for.
"""

from conftest import make_outlier_set
from quest import solver

# (table name, method, outlier set seeds) of each golden table
TABLES = (
    ("_RANSAC_GOLDEN", "quest6", range(5)),
    ("_RANSAC_QUEST7_GOLDEN", "quest7", range(2)),
)


def golden_row(method: str, seed: int):
    """ransac_pose on outlier set `seed` as the golden tests call it: q
    (w, x, y, z) and t as float.hex strings, and the mask as one
    character per point."""
    points, _, _ = make_outlier_set(seed=seed)
    cand, mask = solver.ransac_pose(points, method, threshold=0.005, max_iters=200, seed=seed)
    q = tuple(float(v).hex() for v in (cand.q.w, cand.q.x, cand.q.y, cand.q.z))
    t = tuple(float(v).hex() for v in cand.t)
    return q, t, "".join("1" if keep else "0" for keep in mask)


def golden_table(name: str, method: str, seeds) -> str:
    """The assignment `name = (...)` of one table, as test_solver.py spells it."""
    lines = [f"{name} = ("]
    for seed in seeds:
        q, t, mask = golden_row(method, seed)
        lines.append(f"    (({', '.join(map(repr, q))}),")
        lines.append(f"     ({', '.join(map(repr, t))}),")
        lines.append(f"     {mask!r}),")
    lines.append(")")
    return "\n".join(lines)


if __name__ == "__main__":
    print("\n\n".join(golden_table(*table) for table in TABLES))
