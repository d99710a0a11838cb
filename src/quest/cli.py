"""Command-line front end: estimate, bench, eval, simulate.

File formats:

- correspondences: text, '#' comments, one match per line as
  "x1 y1 x2 y2" (floats). Coordinates are pixels unless a comment line
  "# normalized" appears, in which case they are already normalized and
  no calibration file is needed.
- calibration: one line "fx fy cx cy skew" (pixels).
- ground-truth pose: one line "w x y z tx ty tz".
- all three text formats share one line reader: blank and '#' lines are
  skipped, and a wrong value count, an unparsable value or a NaN/Inf is
  rejected with its line number.
- estimates: JSON with ranked candidates (written by `estimate`, read by
  `eval`).
- benchmark output: CSV with one row per (method, sigma, trial) plus a
  companion *_summary.csv with per-method medians and quartiles.

Exit codes: 0 success, 1 malformed input / insufficient points / IO
problems, 2 data-dependent degeneracies (e.g. the 7-point solver on a
critical surface). Seeds default to the QUEST_SEED environment variable.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import fields

import numpy as np

from . import bench as bench_mod
from .bench import SceneConfig, SyntheticCamera, add_pixel_noise, generate_scene
from .core import Correspondence, Quaternion, normalize_pixels, rot_error, trans_error
from .errors import DegeneracyError, CriticalSurfaceError, InsufficientPointsError, QuestError
from .solver import MINIMAL_POINTS, estimate_pose, ransac_pose


class FileFormatError(Exception):
    """Malformed input file; carries the offending line number."""

    def __init__(self, path, line_no, message):
        super().__init__(f"{path}:{line_no}: {message}")


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def _read_rows(path, fields: str):
    """Returns ([(line_no, values)], normalized_flag) for a text file of
    whitespace-separated floats, one row per line laid out as `fields`.

    Blank lines and '#' comments are skipped; a '# normalized' comment sets
    the flag. A wrong value count, an unparsable value or a NaN/Inf raises
    FileFormatError naming the line."""
    rows = []
    normalized = False
    with open(path, "r", encoding="utf-8") as fh:
        for line_no, raw in enumerate(fh, start=1):
            line = raw.strip()
            if line.startswith("#"):
                normalized = normalized or line[1:].strip().lower() == "normalized"
                continue
            parts = line.split()
            if not parts:
                continue
            if len(parts) != len(fields.split()):
                raise FileFormatError(path, line_no, f"expected '{fields}', got {len(parts)} values")
            try:
                vals = [float(p) for p in parts]
            except ValueError as e:
                raise FileFormatError(path, line_no, str(e)) from e
            if not all(math.isfinite(v) for v in vals):
                raise FileFormatError(path, line_no, "NaN/Inf value")
            rows.append((line_no, vals))
    return rows, normalized


def _first_row(path, fields: str, what: str):
    rows, _ = _read_rows(path, fields)
    if not rows:
        raise FileFormatError(path, 0, f"empty {what} file")
    return rows[0]


def read_correspondence_file(path):
    """Returns (rows, normalized_flag); rows are (x1, y1, x2, y2) floats."""
    rows, normalized = _read_rows(path, "x1 y1 x2 y2")
    return [vals for _, vals in rows], normalized


def read_calibration_file(path) -> np.ndarray:
    line_no, (fx, fy, cx, cy, skew) = _first_row(path, "fx fy cx cy skew", "calibration")
    if fx <= 0 or fy <= 0:
        raise FileFormatError(path, line_no, "focal lengths must be positive")
    return np.array([[fx, skew, cx], [0.0, fy, cy], [0.0, 0.0, 1.0]])


def read_pose_file(path):
    """Returns (Quaternion, translation). Quaternion is normalized on load;
    deviations beyond 1e-3 from unit norm are rejected."""
    line_no, vals = _first_row(path, "w x y z tx ty tz", "pose")
    q = Quaternion(*vals[:4])
    if abs(q.norm() - 1.0) > 1e-3:
        raise FileFormatError(path, line_no, f"quaternion norm {q.norm():.6f} too far from 1")
    return q.normalized().canonical(), np.array(vals[4:])


def load_correspondences(corr_path, calib_path=None):
    rows, normalized = read_correspondence_file(corr_path)
    if normalized:
        return [
            Correspondence([x1, y1, 1.0], [x2, y2, 1.0]) for (x1, y1, x2, y2) in rows
        ]
    if calib_path is None:
        raise FileFormatError(corr_path, 0, "pixel input requires --calib (or a '# normalized' header)")
    K = read_calibration_file(calib_path)
    return [
        Correspondence(normalize_pixels((x1, y1), K), normalize_pixels((x2, y2), K))
        for (x1, y1, x2, y2) in rows
    ]


def _candidate_dict(c):
    return {
        "quaternion": [c.q.w, c.q.x, c.q.y, c.q.z],
        "translation": None if c.t is None else [float(v) for v in c.t],
        "depths_first": None if c.depths_u is None else [float(v) for v in c.depths_u],
        "depths_second": None if c.depths_v is None else [float(v) for v in c.depths_v],
        "residual": c.algebraic_residual,
        "chirality_ok": c.chirality_ok,
        "scale_note": c.scale_note,
        "t_depth_ratio": None if math.isnan(c.t_depth_ratio) else c.t_depth_ratio,
        "ambiguous_depths": c.ambiguous_depths,
    }


def _default_seed(value):
    if value is not None:
        return value
    env = os.environ.get("QUEST_SEED")
    return int(env) if env else 0


def cmd_estimate(args) -> int:
    points = load_correspondences(args.input, args.calib)
    result = {"method": args.method, "input": args.input}
    if args.ransac:
        seed = _default_seed(args.seed)
        cand, mask = ransac_pose(
            points, args.method, threshold=args.threshold, max_iters=args.max_iters, seed=seed
        )
        result["candidates"] = [_candidate_dict(cand)]
        result["inlier_mask"] = [bool(v) for v in mask]
        result["seed"] = seed
    else:
        cands = estimate_pose(points, args.method)
        result["candidates"] = [_candidate_dict(c) for c in cands]
    payload = json.dumps(result, indent=2)
    if args.output:
        with open(args.output, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(payload + "\n")
    else:
        print(payload)
    return 0


def write_records_csv(records, path):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("method,sigma_px,trial,rot_err,trans_err,runtime_s,failed\n")
        for r in records:
            fh.write(
                f"{r.method},{_fmt(r.sigma_px)},{r.trial},{_fmt(r.rot_error)},"
                f"{_fmt(r.trans_error)},{_fmt(r.runtime_s)},{int(r.failed)}\n"
            )


def _summary_path(path: str) -> str:
    root, ext = os.path.splitext(path)
    return f"{root}_summary{ext or '.csv'}"


def write_noise_summary(records, path):
    """Per method x sigma: median and quartiles of both errors (failed
    trials excluded from the quantiles, counted separately)."""
    keys = sorted({(r.method, r.sigma_px) for r in records})
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(
            "method,sigma_px,n,failures,rot_median,rot_q25,rot_q75,"
            "trans_median,trans_q25,trans_q75,mean_runtime_s\n"
        )
        for method, sigma in keys:
            grp = [r for r in records if r.method == method and r.sigma_px == sigma]
            ok = [r for r in grp if not r.failed]
            runtime = float(np.mean([r.runtime_s for r in grp]))
            if ok:
                rot = np.percentile([r.rot_error for r in ok], [50, 25, 75])
                trn = np.percentile([r.trans_error for r in ok], [50, 25, 75])
            else:
                rot = trn = [math.nan] * 3
            fh.write(
                f"{method},{_fmt(sigma)},{len(grp)},{len(grp) - len(ok)},"
                f"{_fmt(rot[0])},{_fmt(rot[1])},{_fmt(rot[2])},"
                f"{_fmt(trn[0])},{_fmt(trn[1])},{_fmt(trn[2])},{_fmt(runtime)}\n"
            )


def write_time_summary(stats, path):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("method,mean_runtime_s,median_runtime_s,n,failures\n")
        for method, st in stats.items():
            fh.write(
                f"{method},{_fmt(st.mean_s)},{_fmt(st.median_s)},{st.n},{st.n_failed}\n"
            )


# SceneConfig fields that a bench flag owns; --config may not set them.
_FLAG_KEYS = {"n_points": "--points", "geometry": "--geometry", "rng_seed": "--seed"}


def _scene_config_from_args(args) -> SceneConfig:
    cfg = {}
    if args.config:
        with open(args.config, "r", encoding="utf-8") as fh:
            cfg = json.load(fh)
        if not isinstance(cfg, dict):
            raise ValueError(f"the config must be a JSON object, not {type(cfg).__name__}")
        unknown = sorted(set(cfg) - {f.name for f in fields(SceneConfig)})
        if unknown:
            raise ValueError(f"the config has unknown keys {', '.join(map(repr, unknown))}")
    if args.kind == "time" and (args.geometry is not None or "geometry" in cfg):
        raise ValueError("bench time always alternates general and coplanar scenes; "
                         "drop --geometry and the config's \"geometry\" key")
    for key, flag in _FLAG_KEYS.items():
        if key in cfg:
            raise ValueError(f"the config may not set {key!r}; use {flag}")
    cfg["n_points"] = args.points
    cfg["geometry"] = args.geometry or "general"
    for key in ("box_x", "box_y", "box_z"):
        if key in cfg:
            cfg[key] = tuple(cfg[key])
    if "translation_box" in cfg:
        cfg["translation_box"] = tuple(tuple(p) for p in cfg["translation_box"])
    return SceneConfig(**cfg)


def cmd_bench(args) -> int:
    if args.trials < 1:
        raise ValueError(f"--trials must be at least 1, got {args.trials}")
    seed = _default_seed(args.seed)
    cfg = _scene_config_from_args(args)
    cam = SyntheticCamera()
    methods = args.methods.split(",")
    for m in methods:
        if m not in MINIMAL_POINTS:
            raise ValueError(f"unknown method {m!r}")
    if args.kind == "noise":
        sigmas = [float(s) for s in args.sigmas.split(",")]
        records = bench_mod.run_noise_benchmark(methods, sigmas, args.trials, cfg, cam, seed)
        write_records_csv(records, args.output)
        write_noise_summary(records, _summary_path(args.output))
    else:
        records, stats = bench_mod.run_time_benchmark(methods, args.trials, cfg, cam, seed)
        write_records_csv(records, args.output)
        write_time_summary(stats, _summary_path(args.output))
    print(f"wrote {args.output} and {_summary_path(args.output)}", file=sys.stderr)
    return 0


def cmd_eval(args) -> int:
    with open(args.estimates, "r", encoding="utf-8") as fh:
        estimates = json.load(fh)
    if not isinstance(estimates, dict):
        raise ValueError(f"the estimates must be a JSON object, not {type(estimates).__name__}")
    q_star, t_star = read_pose_file(args.ground_truth)
    out = {"candidates": [], "ground_truth": args.ground_truth}
    best_idx, best_err = None, math.inf
    for i, cand in enumerate(estimates.get("candidates", [])):
        quat = cand.get("quaternion") if isinstance(cand, dict) else None
        if not (isinstance(quat, list) and len(quat) == 4 and all(
                type(v) in (int, float) and math.isfinite(v) for v in quat)):
            raise ValueError(f"candidate {i} needs a \"quaternion\" of 4 numbers, got {quat!r}")
        q = Quaternion(*quat).normalized()
        re_ = rot_error(q, q_star)
        te = None
        if cand.get("translation") is not None and np.linalg.norm(t_star) > 0.0:
            t = np.array(cand["translation"])
            if np.linalg.norm(t) > 0.0:
                te = trans_error(t, t_star)
        out["candidates"].append({"rot_error": re_, "trans_error": te})
        if re_ < best_err:
            best_idx, best_err = i, re_
    out["best_index"] = best_idx
    payload = json.dumps(out, indent=2)
    if args.output:
        with open(args.output, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(payload + "\n")
    else:
        print(payload)
    return 0


def cmd_simulate(args) -> int:
    seed = _default_seed(args.seed)
    cfg = SceneConfig(n_points=args.points, geometry=args.geometry, rng_seed=seed)
    cam = SyntheticCamera()
    scene = generate_scene(cfg)
    corr = scene.correspondences
    if args.sigma > 0.0:
        corr = add_pixel_noise(corr, args.sigma, cam, seed + 1)
    os.makedirs(args.out_dir, exist_ok=True)
    corr_path = os.path.join(args.out_dir, "correspondences.txt")
    pose_path = os.path.join(args.out_dir, "pose.txt")
    with open(corr_path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(f"# synthetic scene: geometry={args.geometry} points={args.points} "
                 f"seed={seed} sigma_px={_fmt(args.sigma)}\n")
        fh.write("# normalized\n")
        for c in corr:
            fh.write(f"{_fmt(c.m[0])} {_fmt(c.m[1])} {_fmt(c.n[0])} {_fmt(c.n[1])}\n")
    p = scene.pose
    with open(pose_path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("# w x y z tx ty tz\n")
        fh.write(" ".join(_fmt(v) for v in [p.q.w, p.q.x, p.q.y, p.q.z, *p.t]) + "\n")
    print(f"wrote {corr_path} and {pose_path}", file=sys.stderr)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="quest", description="Two-view relative pose estimation from point matches."
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("estimate", help="estimate pose from a correspondence file")
    p.add_argument("input", help="correspondence file (pixels, or '# normalized')")
    p.add_argument("--calib", help="calibration file 'fx fy cx cy skew'")
    p.add_argument("--method", choices=list(MINIMAL_POINTS), default="quest6")
    p.add_argument("--ransac", action="store_true", help="robustify with RANSAC")
    p.add_argument("--threshold", type=float, default=0.005, help="RANSAC inlier angle (rad)")
    p.add_argument("--max-iters", type=int, default=200)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--output", help="write JSON here instead of stdout")
    p.set_defaults(func=cmd_estimate)

    p = sub.add_parser("bench", help="run a Monte Carlo benchmark, write CSV")
    p.add_argument("kind", choices=["noise", "time"])
    p.add_argument("--methods", default=",".join(MINIMAL_POINTS))
    p.add_argument("--sigmas", default="0,1,2,4,8", help="comma-separated pixel sigmas (noise kind)")
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--points", type=int, default=8)
    p.add_argument("--geometry", choices=["general", "coplanar"],
                   help="scene geometry of bench noise (default general); bench time "
                   "always alternates general and coplanar scenes")
    p.add_argument("--config", help="JSON file with SceneConfig overrides")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--output", required=True)
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("eval", help="score an estimates JSON against ground truth")
    p.add_argument("estimates")
    p.add_argument("ground_truth")
    p.add_argument("--output")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("simulate", help="dump a synthetic fixture (correspondences + pose)")
    p.add_argument("out_dir")
    p.add_argument("--points", type=int, default=8)
    p.add_argument("--geometry", choices=["general", "coplanar"], default="general")
    p.add_argument("--sigma", type=float, default=0.0, help="pixel noise stddev")
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(func=cmd_simulate)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except FileFormatError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except InsufficientPointsError as e:
        print(f"error: insufficient points: {e}", file=sys.stderr)
        return 1
    except FileNotFoundError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except CriticalSurfaceError as e:
        print(f"error: CriticalSurfaceError: {e}", file=sys.stderr)
        print("hint: quest6 handles coplanar points; retry with --method quest6", file=sys.stderr)
        return 2
    except DegeneracyError as e:
        print(f"error: {type(e).__name__}: {e}", file=sys.stderr)
        return 2
    except QuestError as e:
        print(f"error: {type(e).__name__}: {e}", file=sys.stderr)
        return 1
    except (ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
