"""The verdict rule of tools/bench_pairs.compare, which writes every BENCH file.

A gain needs >= 9 of 10 pair wins and a median gain above the parent's
q3 - q1; otherwise the change is "within bound" while its median is worse
than the parent's by at most the bound, and a "regression" past it.  For a
metric where higher is better, the signs flip.
"""

import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
_SPEC = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)

LOWER = {"unit": "s", "better": "lower", "bound": 0.25}
HIGHER = {"unit": "digits", "better": "higher", "bound": 0.25}

# 1.00 .. 1.09: median 1.045, inclusive quartiles 1.0225 and 1.0675
PARENT = [1.0 + 0.01 * i for i in range(10)]
SPREAD = 0.045


def _verdict(spec, parent, change):
    return bench_pairs.compare(spec, parent, change)["verdict"]


def test_gain_needs_nine_of_ten_pair_wins():
    faster = [p - 0.1 for p in PARENT]
    assert _verdict(LOWER, PARENT, faster) == "gain"
    nine = faster[:9] + [PARENT[9] + 0.01]
    result = bench_pairs.compare(LOWER, PARENT, nine)
    assert (result["change_wins"], result["change_losses"]) == (9, 1)
    assert result["verdict"] == "gain"
    eight = faster[:8] + [PARENT[8] + 0.01, PARENT[9] + 0.01]
    assert bench_pairs.compare(LOWER, PARENT, eight)["change_wins"] == 8
    assert _verdict(LOWER, PARENT, eight) == "within bound"


def test_gain_needs_a_median_gain_above_the_parent_spread():
    # ten wins each, by a median of just under and just over q3 - q1
    assert _verdict(LOWER, PARENT, [p - 0.9 * SPREAD for p in PARENT]) == "within bound"
    assert _verdict(LOWER, PARENT, [p - 1.1 * SPREAD for p in PARENT]) == "gain"


@pytest.mark.parametrize("change, verdict", [
    (5.0, "within bound"),  # 25% worse: exactly the bound
    (5.0625, "regression"),
    (3.5, "gain"),
])
def test_bound_for_lower_is_better(change, verdict):
    result = bench_pairs.compare(LOWER, [4.0] * 10, [change] * 10)
    assert result["verdict"] == verdict
    assert result["median_change_frac"] == pytest.approx((4.0 - change) / 4.0, abs=1e-4)


@pytest.mark.parametrize("change, verdict", [
    (3.0, "within bound"),  # 25% lower: exactly the bound
    (2.9375, "regression"),
    (4.5, "gain"),
    (4.0, "within bound"),  # no change is no gain
])
def test_bound_flips_for_higher_is_better(change, verdict):
    result = bench_pairs.compare(HIGHER, [4.0] * 10, [change] * 10)
    assert result["verdict"] == verdict
    assert result["median_change_frac"] == pytest.approx((change - 4.0) / 4.0, abs=1e-4)
    wins = 10 if change > 4.0 else 0
    assert result["change_wins"] == wins
