"""tests/digest_outputs.py, on a few inputs of each group."""

import digest_outputs


def test_digests_repeat_with_one_line_per_group():
    kw = dict(seeds=(1,), minimal=2, ransac=1, c08=1, half_turn=1, half_turn_ransac=1,
              pure_rotation=1)
    lines = digest_outputs.digests(**kw)
    assert digest_outputs.digests(**kw) == lines
    groups = [f"{w} seed=1 {kind}" for w in ("general", "coplanar")
              for kind in ("quest6", "quest7", "eightpt", "ransac")] + ["c08 quest6", "c08 quest7"]
    groups += [f"half-turn w={w} {method} {kind}" for w in ("0.00", "0.03", "0.07", "0.10")
               for method in ("quest6", "quest7") for kind in ("sigma=0", "sigma=1", "ransac")]
    groups += [f"pure-rotation {method} sigma={sigma} ransac" for method in ("quest6", "quest7")
               for sigma in (0, 1)]
    assert [line.rsplit(" ", 2)[0] for line in lines] == groups
    for line in lines:
        group, count, digest = line.rsplit(" ", 2)
        assert count == ("n=1" if "ransac" in group or "c08" in group else "n=2")
        assert len(digest) == 64 and int(digest, 16) >= 0
