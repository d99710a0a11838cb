import json
from pathlib import Path

import numpy as np
import pytest

from quest import cli, core, solver
from quest.core import Quaternion

FIXTURES = Path(__file__).parent / "fixtures"


def run(argv, capsys=None):
    return cli.main([str(a) for a in argv])


def read_csv_without_runtime(path):
    lines = Path(path).read_text().splitlines()
    out = []
    for line in lines:
        cols = line.split(",")
        del cols[5]  # runtime_s
        out.append(",".join(cols))
    return "\n".join(out)


# --- file parsing -----------------------------------------------------------

def test_reject_malformed_line(tmp_path):
    p = tmp_path / "c.txt"
    p.write_text("# normalized\n0.1 0.2 0.3\n")
    assert run(["estimate", p]) == 1


def test_malformed_line_number_reported(tmp_path, capsys):
    p = tmp_path / "c.txt"
    p.write_text("# normalized\n0.1 0.2 0.3 0.4\nbad line here\n")
    assert run(["estimate", p]) == 1
    assert ":3:" in capsys.readouterr().err


def test_reject_nan(tmp_path):
    p = tmp_path / "c.txt"
    p.write_text("# normalized\nnan 0.2 0.3 0.4\n")
    assert run(["estimate", p]) == 1


def test_calibration_nan_rejected_with_line(tmp_path, capsys):
    corr = tmp_path / "c.txt"
    corr.write_text("100 100 101 101\n" * 6)
    calib = tmp_path / "K.txt"
    calib.write_text("# fx fy cx cy skew\nnan 500 320 240 0\n")
    assert run(["estimate", corr, "--calib", calib]) == 1
    assert f"{calib}:2: NaN/Inf" in capsys.readouterr().err


def test_pose_nan_rejected_with_line(tmp_path, capsys):
    est = tmp_path / "est.json"
    assert run(["estimate", FIXTURES / "general" / "correspondences.txt",
                "--output", est]) == 0
    pose = tmp_path / "pose.txt"
    pose.write_text("nan 0 0 0 1 0 0\n")
    assert run(["eval", est, pose]) == 1
    assert f"{pose}:1: NaN/Inf" in capsys.readouterr().err


def test_insufficient_points_exit_code(tmp_path, capsys):
    p = tmp_path / "c.txt"
    rows = "\n".join("0.1 0.2 0.3 0.4" for _ in range(5))
    p.write_text("# normalized\n" + rows + "\n")
    assert run(["estimate", p]) == 1
    assert "insufficient" in capsys.readouterr().err.lower()


def test_pixel_input_requires_calibration(tmp_path):
    p = tmp_path / "c.txt"
    p.write_text("100 100 101 101\n" * 6)
    assert run(["estimate", p]) == 1


def test_method_specific_minimum(tmp_path, capsys):
    rows, _ = cli.read_correspondence_file(FIXTURES / "general" / "correspondences.txt")
    p = tmp_path / "six.txt"
    p.write_text("# normalized\n" + "\n".join(
        " ".join(repr(v) for v in r) for r in rows[:6]
    ) + "\n")
    assert run(["estimate", p, "--method", "quest7"]) == 1
    assert "insufficient" in capsys.readouterr().err.lower()
    assert run(["estimate", p, "--method", "quest6", "--output", tmp_path / "o.json"]) == 0


# --- fixtures shipped with the repo -----------------------------------------

def test_fixture_estimate_matches_ground_truth(tmp_path):
    out = tmp_path / "est.json"
    code = run([
        "estimate", FIXTURES / "general" / "correspondences.txt",
        "--method", "quest6", "--output", out,
    ])
    assert code == 0
    est = json.loads(out.read_text())
    q_star, t_star = cli.read_pose_file(FIXTURES / "general" / "pose.txt")
    top = est["candidates"][0]
    assert core.rot_error(Quaternion(*top["quaternion"]), q_star) < 1e-6
    assert core.trans_error(np.array(top["translation"]), t_star) < 1e-6
    assert top["chirality_ok"] is True


def test_fixture_coplanar_quest7_exits_2(tmp_path, capsys):
    code = run([
        "estimate", FIXTURES / "coplanar" / "correspondences.txt",
        "--method", "quest7", "--output", tmp_path / "x.json",
    ])
    assert code == 2
    err = capsys.readouterr().err
    assert "CriticalSurfaceError" in err
    assert "quest6" in err


def test_fixture_coplanar_quest6_succeeds(tmp_path):
    out = tmp_path / "est.json"
    assert run([
        "estimate", FIXTURES / "coplanar" / "correspondences.txt",
        "--method", "quest6", "--output", out,
    ]) == 0
    est = json.loads(out.read_text())
    q_star, _ = cli.read_pose_file(FIXTURES / "coplanar" / "pose.txt")
    best = min(
        core.rot_error(Quaternion(*c["quaternion"]), q_star) for c in est["candidates"]
    )
    assert best < 1e-6


def test_fixture_eightpt(tmp_path):
    out = tmp_path / "est.json"
    assert run([
        "estimate", FIXTURES / "general" / "correspondences.txt",
        "--method", "eightpt", "--output", out,
    ]) == 0
    est = json.loads(out.read_text())
    assert np.linalg.norm(est["candidates"][0]["translation"]) == pytest.approx(1.0)


# --- simulate / estimate / eval round trip -----------------------------------

def test_simulate_estimate_eval_round_trip(tmp_path):
    fix = tmp_path / "fix"
    assert run(["simulate", fix, "--seed", 7, "--points", 8]) == 0
    est = tmp_path / "est.json"
    assert run(["estimate", fix / "correspondences.txt", "--method", "quest7",
                "--output", est]) == 0
    ev = tmp_path / "eval.json"
    assert run(["eval", est, fix / "pose.txt", "--output", ev]) == 0
    metrics = json.loads(ev.read_text())
    best = metrics["candidates"][metrics["best_index"]]
    assert best["rot_error"] < 1e-6
    assert best["trans_error"] < 1e-6


def test_eval_metrics_bit_identical_to_library(tmp_path):
    fix = tmp_path / "fix"
    run(["simulate", fix, "--seed", 3])
    est = tmp_path / "est.json"
    run(["estimate", fix / "correspondences.txt", "--output", est])
    ev = tmp_path / "eval.json"
    run(["eval", est, fix / "pose.txt", "--output", ev])
    q_star, t_star = cli.read_pose_file(fix / "pose.txt")
    parsed = json.loads(est.read_text())
    reported = json.loads(ev.read_text())
    for cand, rep in zip(parsed["candidates"], reported["candidates"]):
        q = Quaternion(*cand["quaternion"]).normalized()
        assert rep["rot_error"] == core.rot_error(q, q_star)
        if rep["trans_error"] is not None:
            assert rep["trans_error"] == core.trans_error(np.array(cand["translation"]), t_star)


def test_eval_double_cover(tmp_path):
    gt = tmp_path / "pose.txt"
    gt.write_text("1 0 0 0  0 0 1\n")
    est = tmp_path / "est.json"
    est.write_text(json.dumps({"candidates": [
        {"quaternion": [-1.0, 0.0, 0.0, 0.0], "translation": [0.0, 0.0, 2.0]}
    ]}))
    ev = tmp_path / "eval.json"
    assert run(["eval", est, gt, "--output", ev]) == 0
    m = json.loads(ev.read_text())
    assert m["candidates"][0]["rot_error"] == 0.0
    assert m["candidates"][0]["trans_error"] == 0.0


def test_eval_missing_ground_truth(tmp_path):
    est = tmp_path / "est.json"
    est.write_text(json.dumps({"candidates": []}))
    assert run(["eval", est, tmp_path / "nope.txt"]) == 1


@pytest.mark.parametrize("estimates,message", [
    ([1, 2], "must be a JSON object, not list"),
    ({"candidates": [{"translation": [0, 0, 1]}]}, 'candidate 0 needs a "quaternion"'),
    ({"candidates": [{"quaternion": [1, 0, 0, 0]}, {"quaternion": [1, 0, 0]}]},
     'candidate 1 needs a "quaternion" of 4 numbers, got [1, 0, 0]'),
    ({"candidates": [{"quaternion": [1, "a", 0, 0]}]},
     """candidate 0 needs a "quaternion" of 4 numbers, got [1, 'a', 0, 0]"""),
    ({"candidates": [{"quaternion": [float("nan"), 0, 0, 1]}]},
     'candidate 0 needs a "quaternion" of 4 numbers, got [nan, 0, 0, 1]'),
])
def test_eval_rejects_malformed_estimates(tmp_path, capsys, estimates, message):
    est = tmp_path / "est.json"
    est.write_text(json.dumps(estimates))
    gt = tmp_path / "gt.txt"
    gt.write_text("1 0 0 0  0 0 1\n")
    assert run(["eval", est, gt]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err and "Traceback" not in err


# --- pixel-vs-normalized consistency ----------------------------------------

def test_pixel_and_normalized_inputs_agree(tmp_path):
    fix = tmp_path / "fix"
    run(["simulate", fix, "--seed", 21])
    norm_file = fix / "correspondences.txt"
    rows, _ = cli.read_correspondence_file(norm_file)
    fx = fy = 500.0
    cx, cy = 320.0, 240.0
    pix = tmp_path / "pixels.txt"
    with open(pix, "w") as fh:
        for x1, y1, x2, y2 in rows:
            fh.write(f"{fx*x1+cx!r} {fy*y1+cy!r} {fx*x2+cx!r} {fy*y2+cy!r}\n")
    calib = tmp_path / "calib.txt"
    calib.write_text("500 500 320 240 0\n")
    e1, e2 = tmp_path / "e1.json", tmp_path / "e2.json"
    assert run(["estimate", norm_file, "--output", e1]) == 0
    assert run(["estimate", pix, "--calib", calib, "--output", e2]) == 0
    q1 = Quaternion(*json.loads(e1.read_text())["candidates"][0]["quaternion"])
    q2 = Quaternion(*json.loads(e2.read_text())["candidates"][0]["quaternion"])
    assert core.rot_error(q1, q2) < 1e-9


# --- ransac and seeding -----------------------------------------------------

def test_ransac_flag_and_env_seed(tmp_path, monkeypatch):
    fix = tmp_path / "fix"
    run(["simulate", fix, "--seed", 5, "--points", 12])
    out1, out2, out3 = (tmp_path / f"o{i}.json" for i in range(3))
    assert run(["estimate", fix / "correspondences.txt", "--ransac",
                "--seed", 33, "--output", out1]) == 0
    monkeypatch.setenv("QUEST_SEED", "33")
    assert run(["estimate", fix / "correspondences.txt", "--ransac",
                "--output", out2]) == 0
    assert out1.read_text() == out2.read_text()
    parsed = json.loads(out1.read_text())
    assert all(parsed["inlier_mask"])
    monkeypatch.delenv("QUEST_SEED")
    assert run(["estimate", fix / "correspondences.txt", "--ransac",
                "--seed", 34, "--output", out3]) == 0
    assert json.loads(out3.read_text())["seed"] == 34


# --- bench ------------------------------------------------------------------

def test_bench_noise_row_count_and_determinism(tmp_path):
    out1 = tmp_path / "n1.csv"
    out2 = tmp_path / "n2.csv"
    args = ["bench", "noise", "--methods", "quest6,eightpt", "--sigmas", "0,1,2",
            "--trials", 10, "--seed", 3]
    assert run(args + ["--output", out1]) == 0
    assert run(args + ["--output", out2]) == 0
    lines = out1.read_text().splitlines()
    assert lines[0] == "method,sigma_px,trial,rot_err,trans_err,runtime_s,failed"
    assert len(lines) == 1 + 2 * 3 * 10
    assert read_csv_without_runtime(out1) == read_csv_without_runtime(out2)
    assert (tmp_path / "n1_summary.csv").exists()


def test_bench_time_summary(tmp_path):
    out = tmp_path / "t.csv"
    assert run(["bench", "time", "--methods", "quest6,eightpt", "--trials", 15,
                "--seed", 4, "--output", out]) == 0
    summary = (tmp_path / "t_summary.csv").read_text().splitlines()
    assert summary[0] == "method,mean_runtime_s,median_runtime_s,n,failures"
    rows = {line.split(",")[0]: line.split(",") for line in summary[1:]}
    assert float(rows["eightpt"][1]) < float(rows["quest6"][1])


@pytest.mark.parametrize("kind", ["noise", "time"])
@pytest.mark.parametrize("trials", [0, -3])
def test_bench_rejects_trials_below_one(tmp_path, capsys, kind, trials):
    out = tmp_path / "b.csv"
    assert run(["bench", kind, "--methods", "quest6", "--trials", trials, "--output", out]) == 1
    err = capsys.readouterr().err
    assert err == f"error: --trials must be at least 1, got {trials}\n"
    assert not out.exists() and not (tmp_path / "b_summary.csv").exists()


def test_bench_rejects_unknown_method(tmp_path):
    assert run(["bench", "noise", "--methods", "warp9", "--trials", 1,
                "--output", tmp_path / "x.csv"]) == 1


def test_bench_time_rejects_geometry(tmp_path, capsys):
    out = tmp_path / "t.csv"
    for geometry in ("general", "coplanar"):
        assert run(["bench", "time", "--methods", "quest6", "--trials", 1,
                    "--geometry", geometry, "--output", out]) == 1
        assert "always alternates general and coplanar" in capsys.readouterr().err
    assert not out.exists()


def test_bench_time_rejects_config_geometry(tmp_path, capsys):
    out = tmp_path / "t.csv"
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"geometry": "coplanar"}))
    assert run(["bench", "time", "--methods", "quest6", "--trials", 1,
                "--config", cfg, "--output", out]) == 1
    assert "always alternates general and coplanar" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("key,value,flag", [("n_points", 7, "--points"),
                                            ("geometry", "coplanar", "--geometry"),
                                            ("rng_seed", 123, "--seed")])
def test_bench_rejects_config_keys_owned_by_flags(tmp_path, capsys, key, value, flag):
    out = tmp_path / "n.csv"
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({key: value}))
    assert run(["bench", "noise", "--methods", "eightpt", "--sigmas", "0", "--trials", 1,
                "--config", cfg, "--output", out]) == 1
    err = capsys.readouterr().err
    assert repr(key) in err and flag in err
    assert not out.exists()


@pytest.mark.parametrize("config,message", [([1, 2], "must be a JSON object"),
                                            ({"foo": 1}, "unknown keys 'foo'"),
                                            ({"box_z": [4.0]}, "(lo, hi) pair")])
def test_bench_rejects_malformed_config(tmp_path, capsys, config, message):
    out = tmp_path / "n.csv"
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    assert run(["bench", "noise", "--methods", "eightpt", "--sigmas", "0", "--trials", 1,
                "--config", cfg, "--output", out]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err and "Traceback" not in err
    assert not out.exists()


def test_bench_geometry_mix_is_not_a_choice(tmp_path):
    with pytest.raises(SystemExit) as exc:
        run(["bench", "noise", "--methods", "quest6", "--trials", 1,
             "--geometry", "mix", "--output", tmp_path / "x.csv"])
    assert exc.value.code == 2


def test_ransac_with_eightpt_rejected(tmp_path):
    assert run(["estimate", FIXTURES / "general" / "correspondences.txt",
                "--method", "eightpt", "--ransac"]) == 1


def test_ransac_max_iters_below_one_rejected(tmp_path, capsys):
    assert run(["estimate", FIXTURES / "general" / "correspondences.txt",
                "--ransac", "--max-iters", 0]) == 1
    assert "max_iters" in capsys.readouterr().err


def test_ransac_nan_threshold_rejected(capsys):
    assert run(["estimate", FIXTURES / "general" / "correspondences.txt",
                "--ransac", "--threshold", "nan"]) == 1
    assert "threshold" in capsys.readouterr().err


def test_method_choices_are_the_method_table():
    sub = next(a for a in cli.build_parser()._actions if a.dest == "command")
    method = next(a for a in sub.choices["estimate"]._actions if a.dest == "method")
    assert method.choices == list(solver.MINIMAL_POINTS)


def test_csv_float_format_is_full_precision(tmp_path):
    out = tmp_path / "n.csv"
    run(["bench", "noise", "--methods", "quest6", "--sigmas", "1", "--trials", 2,
         "--seed", 9, "--output", out])
    row = out.read_text().splitlines()[1].split(",")
    val = row[3]
    assert float(val) == float(f"{float(val):.17g}")
    assert "." in val
