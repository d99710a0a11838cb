"""tests/ransac_accuracy.py, on a few inputs of each section (a full run
takes minutes)."""

import re

import pytest
import ransac_accuracy


def test_each_section_prints_its_figures():
    quest, workload, make_outlier_set = ransac_accuracy.load(ransac_accuracy.ROOT)
    line = ransac_accuracy.workload_line(quest, workload, "coplanar", 1, count=2)
    assert re.fullmatch(r"coplanar seed=1 n=2 f1=[01]\.\d{4} rot_miss=[0-2] ok=[0-2] raised=[0-2] "
                        r"rot_median=\d\.\d{4}", line), line
    # the first two outlier sets are solved within the bound, every inlier kept
    line = ransac_accuracy.c08_line(quest, make_outlier_set, "quest6", sets=2)
    assert re.fullmatch(r"c08 quest6 precision=1\.0000 recall=1\.0000 rot_median=0\.00\d\d "
                        r"rot_max=0\.00\d\d polished_max=0\.0\d{3} raised=none", line), line
    lines = ransac_accuracy.half_turn_lines(quest, make_outlier_set, ws=(0.0, 0.1), seeds=1)
    assert [line.split(" misses=")[0] for line in lines] == [
        "half-turn w=0.00", "half-turn w=0.10", "half-turn"]
    misses = [int(re.search(r"misses=(\d)/", line).group(1)) for line in lines]
    assert misses[2] == misses[0] + misses[1] and lines[2].endswith("/2")

    lines = ransac_accuracy.pure_rotation_lines(quest, make_outlier_set, seeds=1)
    for line, sigma in zip(lines, ("0", "1"), strict=True):
        assert re.fullmatch(rf"pure-rotation sigma={sigma} seed=0 tp=\d+ fp=\d+ fn=\d+ "
                            r"rot_err=\d\.\d\de[-+]\d\d", line), line


def test_more_than_one_checkout_is_refused():
    with pytest.raises(SystemExit):
        ransac_accuracy.main(["a", "b"])
