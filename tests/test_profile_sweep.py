"""tools/profile_sweep.py: seeded cases, one line each, the same on every run."""

import importlib.util
from pathlib import Path

import pytest

from digitprod.errors import DigitprodError
from digitprod.sequences import recursion_profile

_PATH = Path(__file__).resolve().parent.parent / "tools" / "profile_sweep.py"
_SPEC = importlib.util.spec_from_file_location("profile_sweep", _PATH)
profile_sweep = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(profile_sweep)


def test_sweep_prints_the_same_line_per_case_on_two_runs(capsys):
    profile_sweep.main(["--seed", "5", "--count", "50"])
    first = capsys.readouterr().out
    profile_sweep.main(["--seed", "5", "--count", "50"])
    assert capsys.readouterr().out == first
    lines = first.splitlines()
    assert [line.split()[0] for line in lines] == [str(i) for i in range(50)]
    results = [line.split(" -> ", 1)[1] for line in lines]
    assert any(r.startswith("RecursionProfile(") for r in results)
    assert all(r.startswith("RecursionProfile(") or ": " in r for r in results)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_sweep_profiles_keep_the_values_below_the_base(seed):
    # the first 300 cases of each recorded sweep seed: every profile's head
    # holds value()'s bits for u(0), ..., u(B-1), zero signs included
    profiles = 0
    for seq, base, limit in profile_sweep.cases(seed, 300):
        try:
            prof = recursion_profile(seq, limit, base=base)
        except DigitprodError:
            continue
        profiles += 1
        assert repr(prof.head) == repr(tuple(seq.value(k) for k in range(base))), seq
    assert profiles >= 100
