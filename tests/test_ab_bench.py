"""tests/ab_bench.py's summary, on canned metric dicts (no benchmark runs)."""

import ab_bench

END_TO_END = [{"name": "ransac.run_p50_s", "better": "lower"},
              {"name": "ransac.inlier_f1", "better": "higher"},
              {"name": "setup_s", "better": "lower"}]


def test_summary_reports_medians_ratio_and_pairs_won():
    parent = [{"ransac.run_p50_s": 0.10 + 0.001 * i, "ransac.inlier_f1": 0.98} for i in range(10)]
    change = [{"ransac.run_p50_s": 0.09 + 0.001 * i, "ransac.inlier_f1": 0.98 + 0.001 * (i % 2)}
              for i in range(10)]
    change[3]["ransac.run_p50_s"] = 0.2  # one pair lost
    p50, f1 = ab_bench.summary(parent, change, END_TO_END)  # setup_s is in no run: skipped
    assert p50.startswith("ransac.run_p50_s")
    assert "parent 0.1045 [0.1023, 0.1068]" in p50
    assert "change 0.0955 [0.0925, 0.09775]" in p50
    assert "0.914x" in p50 and p50.endswith("won 9/10  clear")
    # ties count for neither side; higher is better here
    assert "1.001x" in f1 and f1.endswith("won 5/10")
