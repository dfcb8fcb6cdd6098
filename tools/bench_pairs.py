"""Benchmark a change against its parent in alternating pairs of runs.

    python3 tools/bench_pairs.py --parent HEAD --workdir /tmp/pairs \\
        --seeds 81-90 --out BENCH_<pr>.json --change-note "what changed" \\
        --claim catalog_1e6:wall_s

The parent tree is ``git archive``d from ``--parent``; the change is the
working tree (tracked and untracked, not ignored files).  Each side runs
every workload of ``BENCHMARK.json`` with ``perfbench/run.py --seconds S
--trace 0`` from its own copy, S being the benchmark's ``run_seconds``.  Pair i runs
the parent first when i is even and the change first when odd, and the
workloads interleave pair by pair, so slow phases of a shared host hit both
sides alike.  One traced run per side and workload follows, on the first
seed.  The JSON written to ``--out`` holds, per workload and gated metric,
every run, the median and quartiles, the pair wins and a verdict, plus the
traced per-layer metrics of both sides.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

import numpy

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")


def parse_seeds(text: str) -> list[int]:
    """``81-90`` or ``81,83,85``."""
    if "-" in text:
        lo, hi = (int(x) for x in text.split("-"))
        return list(range(lo, hi + 1))
    return [int(x) for x in text.split(",")]


def git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True,
                          text=True).stdout


def copy_trees(parent_rev: str, workdir: Path) -> dict[str, Path]:
    """Fresh copies of the parent commit and of the working tree."""
    trees = {side: workdir / side for side in SIDES}
    for tree in trees.values():
        if tree.exists():
            shutil.rmtree(tree)
        tree.mkdir(parents=True)
    archive = subprocess.run(["git", "archive", parent_rev], cwd=ROOT, check=True,
                             capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", str(trees["parent"])], input=archive, check=True)
    listed = git("ls-files", "-z", "--cached", "--others", "--exclude-standard")
    for name in filter(None, listed.split("\0")):
        src, dst = ROOT / name, trees["change"] / name
        if src.is_file():
            dst.parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(src, dst)
    return trees


def run_once(tree: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One ``perfbench/run.py`` run; its last stdout line is the result."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    done = subprocess.run(cmd, cwd=tree, check=True, capture_output=True, text=True, env=env)
    result = json.loads(done.stdout.strip().splitlines()[-1])
    result["failed_checks"] = [line for line in done.stdout.splitlines()
                               if line.startswith("FAIL ")]
    return result


def summarize(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "runs": [round(v, 6) for v in values]}


def spread(summary: dict) -> float:
    """(q3 - q1) / median, 0 for a zero median."""
    return (summary["q3"] - summary["q1"]) / summary["median"] if summary["median"] else 0.0


def compare(spec: dict, parent: list[float], change: list[float]) -> dict:
    """Pair wins, the median change and a verdict for one gated metric.

    A metric that is neither a gain nor a regression is "unresolved" when
    either side's spread is wider than its bound, since such runs cannot show
    that it stayed within the bound, unless every run of the change is
    better than every run of the parent.
    """
    sign = 1.0 if spec["better"] == "lower" else -1.0
    wins = sum(sign * (p - c) > 0 for p, c in zip(parent, change))
    losses = sum(sign * (p - c) < 0 for p, c in zip(parent, change))
    p, c = summarize(parent), summarize(change)
    gain = sign * (p["median"] - c["median"])
    frac = gain / p["median"] if p["median"] else 0.0
    all_better = min(sign * v for v in parent) > max(sign * v for v in change)
    if wins >= 0.9 * len(parent) and gain > p["q3"] - p["q1"]:
        verdict = "gain"
    elif frac < -spec["bound"]:
        verdict = "regression"
    elif max(spread(p), spread(c)) > spec["bound"] and not all_better:
        verdict = "unresolved"
    else:
        verdict = "within bound"
    return {
        "unit": spec["unit"], "better": spec["better"], "bound": spec["bound"],
        "parent": p, "change": c, "change_wins": wins, "change_losses": losses,
        "median_change_frac": round(frac, 4),
        "spread_parent": round(spread(p), 4),
        "spread_change": round(spread(c), 4),
        "verdict": verdict,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", default="HEAD", help="git revision of the parent tree")
    ap.add_argument("--workdir", required=True, help="directory for the two tree copies")
    ap.add_argument("--seeds", default="81-90", help="one seed per pair: 81-90 or 81,82")
    ap.add_argument("--out", required=True, help="the BENCH_<pr>.json to write")
    ap.add_argument("--change-note", default="", help="one line: what the change does")
    ap.add_argument("--claim", default=None, help="workload:metric the change claims to improve")
    args = ap.parse_args(argv)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    gated = {m["name"]: m for m in bench["end_to_end"]}
    workloads = [w["name"] for w in bench["workloads"]]
    seconds = bench["run_seconds"]
    seeds = parse_seeds(args.seeds)
    # checked before any run: the quartiles need two runs per side, and the
    # claim's verdict is read from the gated metrics of a declared workload
    if len(seeds) < 2:
        ap.error(f"--seeds needs at least 2 seeds, got {args.seeds!r}")
    if args.claim:
        claim_workload, _, claim_metric = args.claim.partition(":")
        if claim_workload not in workloads or claim_metric not in gated:
            ap.error(f"--claim {args.claim!r} is not a workload:metric of BENCHMARK.json "
                     f"(workloads {', '.join(workloads)}; metrics {', '.join(gated)})")
    trees = copy_trees(args.parent, Path(args.workdir).resolve())

    runs = {w: {side: [] for side in SIDES} for w in workloads}
    for i, seed in enumerate(seeds):
        order = SIDES if i % 2 == 0 else SIDES[::-1]
        for w in workloads:
            for side in order:
                result = run_once(trees[side], w, seed, seconds, 0)
                runs[w][side].append(result)
                print(f"pair {i} seed {seed} {w} {side}: "
                      + " ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items())
                      + f" failed={result['failed']}", flush=True)

    end_to_end, traced = {}, {}
    for w in workloads:
        per_side = runs[w]
        end_to_end[w] = {
            "pairs": len(seeds),
            "failed_checks": {s: sum(r["failed"] for r in per_side[s]) for s in SIDES},
            "attempted_checks": {s: sum(r["attempted"] for r in per_side[s]) for s in SIDES},
            "failures": {s: sorted({f for r in per_side[s] for f in r["failed_checks"]})
                         for s in SIDES},
            "metrics": {
                name: compare(spec, *[[r["metrics"][name]["value"] for r in per_side[s]]
                                      for s in SIDES])
                for name, spec in gated.items()
            },
        }
        traced_runs = {side: run_once(trees[side], w, seeds[0], seconds, 1)
                       for side in SIDES}
        traced[w] = {name: {side: traced_runs[side]["metrics"][name]["value"] for side in SIDES}
                     for name in traced_runs["parent"]["metrics"]}

    out = {
        "change": args.change_note,
        "parent_commit": git("rev-parse", args.parent).strip(),
        "machine": {"nproc": os.cpu_count(), "machine": platform.machine(),
                    "python": platform.python_version(), "numpy": numpy.__version__},
        "method": {
            "command": f"python3 perfbench/run.py --workload W --seed S "
                       f"--seconds {seconds:g} --trace 0",
            "pairs": f"{len(seeds)} per workload, seeds {args.seeds}; pair i runs parent "
                     "first when i is even, the change first when odd; each side runs "
                     "from its own copy of the tree; workloads interleave pair by pair",
            "statistics": "median and quartiles by statistics.quantiles(n=4, "
                          "method='inclusive') over the runs; spread = (q3 - q1) / median; "
                          "a gain needs >= 9/10 pair wins and a median difference larger "
                          "than the parent's q3 - q1; otherwise the change's median may be "
                          "worse than the parent's by at most the bound in BENCHMARK.json; "
                          "a metric whose spread on either side exceeds its bound is "
                          "unresolved unless every change run beats every parent run",
            "traced": f"python3 perfbench/run.py --workload W --seed {seeds[0]} "
                      f"--seconds {seconds:g} --trace 1, one run per side; values "
                      "are per workload call",
            "script": "tools/bench_pairs.py",
        },
        "end_to_end": end_to_end,
        "traced_split": traced,
    }
    if args.claim:
        out["claim"] = {
            "metric": claim_metric, "workload": claim_workload,
            "verdict": end_to_end[claim_workload]["metrics"][claim_metric]["verdict"]}
    Path(args.out).write_text(json.dumps(out, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
