"""The verdict rule of tools/bench_pairs.compare, which writes every BENCH file.

A gain needs >= 9 of 10 pair wins and a median gain above the parent's
q3 - q1; otherwise the change is a "regression" when its median is worse
than the parent's by more than the bound, "unresolved" when either side's
spread is wider than the bound and some change run is no better than some
parent run, and "within bound" else.  For a metric where higher is better,
the signs flip.  main() refuses a claim that is no gated workload:metric of
BENCHMARK.json, and fewer than two seeds, before it runs anything.
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


# 1.0 five times and 1.5 five times: median 1.25, q1 1.0, q3 1.5, spread 0.4
WIDE = [1.0] * 5 + [1.5] * 5


@pytest.mark.parametrize("spec", [LOWER, HIGHER])
def test_spread_wider_than_the_bound_is_unresolved(spec):
    # the parent's spread hides any change within 0.4 of its median
    result = bench_pairs.compare(spec, WIDE, WIDE)
    assert result["spread_parent"] == 0.4
    assert result["verdict"] == "unresolved"
    # so does the change's own spread
    assert _verdict(spec, [1.25] * 10, WIDE) == "unresolved"
    assert _verdict(spec, WIDE, [1.25] * 10) == "unresolved"


def test_unresolved_unless_every_change_run_beats_every_parent_run():
    # ten wins by less than q3 - q1 are no gain, but all ten beat the best
    # parent run, so the spread cannot hide a loss
    assert _verdict(LOWER, WIDE, [0.99] * 10) == "within bound"
    assert _verdict(HIGHER, WIDE, [1.51] * 10) == "within bound"
    # one change run tied with the best parent run leaves it unresolved
    assert _verdict(LOWER, WIDE, [0.99] * 9 + [1.0]) == "unresolved"


def test_regression_past_the_bound_is_reported_despite_the_spread():
    assert _verdict(LOWER, WIDE, [w + 0.4 for w in WIDE]) == "regression"


class _Reached(Exception):
    """Raised in place of the first tree copy: the arguments were accepted."""


def _main_until_the_first_run(monkeypatch, tmp_path, *extra):
    def reached(*args):
        raise _Reached

    monkeypatch.setattr(bench_pairs, "copy_trees", reached)
    monkeypatch.setattr(bench_pairs, "run_once", reached)
    bench_pairs.main(["--workdir", str(tmp_path), "--out", str(tmp_path / "bench.json"),
                      *extra])


@pytest.mark.parametrize("extra", [
    ["--claim", "no_such_workload:wall_s"],
    ["--claim", "partial_sums:no_such_metric"],
    ["--claim", "partial_sums:sequences.value_calls"],  # traced, not gated
    ["--claim", "partial_sums"],
    ["--seeds", "81"],
    ["--seeds", "81-81"],
])
def test_bad_claim_or_too_few_seeds_fail_before_any_run(monkeypatch, tmp_path, extra):
    with pytest.raises(SystemExit) as exc:
        _main_until_the_first_run(monkeypatch, tmp_path, *extra)
    assert exc.value.code == 2
    assert not (tmp_path / "bench.json").exists()


@pytest.mark.parametrize("extra", [
    ["--claim", "partial_sums:wall_s", "--seeds", "81,82"],
    ["--claim", "catalog_1e6:accuracy_digits"],
])
def test_declared_claim_and_two_seeds_reach_the_runs(monkeypatch, tmp_path, extra):
    with pytest.raises(_Reached):
        _main_until_the_first_run(monkeypatch, tmp_path, *extra)
