"""tools/profile_sweep.py: seeded cases, one line each, the same on every run."""

import importlib.util
from pathlib import Path

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
