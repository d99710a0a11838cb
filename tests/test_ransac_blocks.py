"""tests/ransac_blocks.py, on a few inputs of each kind (a full run takes
about half a minute)."""

import re

import pytest
import ransac_blocks

LINE = (r"runs=2 blocks=(\d+\.\d\d) solved=(\d+\.\d\d) walked=(\d+\.\d\d) "
        r"polish=\d+\.\d\d raised=[0-2]")


def test_each_kind_prints_its_counts():
    quest, workload, make_outlier_set = ransac_blocks.load(ransac_blocks.ROOT)
    counter = ransac_blocks.Counter(quest)
    line = ransac_blocks.class_line(counter, make_outlier_set, 0.2, 1.0, 30, sets=2)
    blocks, solved, walked = map(float, re.fullmatch(
        rf"outliers=0\.2 sigma=1 n=30 {LINE}", line).groups())
    assert 1.0 <= blocks <= walked <= solved
    line = ransac_blocks.bench_line(counter, workload, "coplanar", count=2)
    assert re.fullmatch(rf"benchmark coplanar seed=3 {LINE}", line), line
    # exact outlier-free sets: the first sample explains every match, so
    # the walk stops there, inside the first block
    line = ransac_blocks.class_line(counter, make_outlier_set, 0.0, 0.0, 30, sets=2)
    blocks, solved, walked = map(float, re.fullmatch(
        rf"outliers=0 sigma=0 n=30 {LINE}", line).groups())
    assert blocks == walked == 1.0 <= solved
    # the solver's functions are bound back after each run
    assert quest.solver._block_candidates.__module__ == "quest.solver"


def test_more_than_one_checkout_is_refused():
    with pytest.raises(SystemExit):
        ransac_blocks.main(["a", "b"])
