"""Run one digitprod benchmark workload and print its metrics.

    python3 perfbench/run.py --workload catalog_1e6 --seed 1 --seconds 55 --trace 0

Run from the repository root; the program is imported from ``src/``.  With
``--trace 0`` the last line of stdout is a JSON object holding the end-to-end
metrics, with ``--trace 1`` the per-layer metrics of a traced run.  The lines
before it name every metric with its unit, every failed check, and the
provenance needed to replay the run.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_SAMPLES = 16  # fresh interpreters timed, spread evenly over the timed calls


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=15.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="import the program, build the inputs and exit (times setup_s)")
    return p.parse_args(argv)


def setup_seconds(workload: str, seed: int) -> float:
    """Time from a fresh interpreter to the imported CLI with inputs built."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
           "--seed", str(seed), "--setup-only"]
    t0 = time.perf_counter()
    # no timeout: with one, the wait polls in steps of up to 50 ms
    subprocess.run(cmd, cwd=ROOT, check=True, stdout=subprocess.DEVNULL)
    return time.perf_counter() - t0


def timed_call(wl, inputs, k: int, tracer=None):
    """One workload call: wall time, output (an exception stands for a failed
    call) and, when traced, the span reductions of the call."""
    with tracer.installed() if tracer else contextlib.nullcontext():
        t0 = time.perf_counter()
        try:
            with tracer.span() if tracer else contextlib.nullcontext():
                out = wl.call(inputs, k)
        except Exception as exc:  # a raised error is a failed check
            out = exc
        wall = time.perf_counter() - t0
    return wall, out, tracer.drain() if tracer else {}


def measure(wl, inputs, seconds: float, min_calls: int, setup):
    """Timed calls until ``seconds`` have passed and ``min_calls`` are done.

    Between the calls, ``setup()`` is timed SETUP_SAMPLES times at even
    intervals, so that no phase of a shared host's speed covers all samples
    of either kind.  Returns the call walls, the outputs and the set-up times.
    """
    walls, outputs, setups = [], [], []
    start = time.perf_counter()
    end = start + seconds
    while len(walls) < min_calls or time.perf_counter() < end:
        due = (time.perf_counter() - start) * SETUP_SAMPLES / seconds
        if len(setups) < min(due, SETUP_SAMPLES):
            setups.append(setup())
        wall, out, _ = timed_call(wl, inputs, len(walls))
        walls.append(wall)
        outputs.append(out)
    while len(setups) < SETUP_SAMPLES:
        setups.append(setup())
    return walls, outputs, setups


def measure_traced(wl, inputs, seconds: float, tracer):
    """Pairs of an untraced and a traced call at the same N until ``seconds``
    have passed; returns both walls, the outputs and the summed reductions."""
    plain, traced, outputs, raw = [], [], [], defaultdict(float)
    end = time.perf_counter() + seconds
    while not traced or time.perf_counter() < end:
        k = len(traced)
        for walls, t in ((plain, None), (traced, tracer)):
            wall, out, spans = timed_call(wl, inputs, k, t)
            walls.append(wall)
            outputs.append(out)
            for key, value in spans.items():
                raw[key] += value
    return plain, traced, outputs, raw


def _rounded(xs: list[float]) -> list[float]:
    return [round(x, 4) for x in xs]


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", "--git-dir", str(ROOT / ".git"), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip() or None


def source_sha256() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "digitprod").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def provenance(args, inputs) -> dict:
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "inputs": inputs.provenance(),
        "git_commit": git_commit(), "source_sha256": source_sha256(),
        "nproc": os.cpu_count(), "python": platform.python_version(),
        "numpy": np.__version__, "machine": platform.machine(),
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "digitprod" / "__init__.py").is_file():
        print(f"error: no digitprod sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import digitprod

    if Path(digitprod.__file__).resolve().parent != SRC / "digitprod":
        print(f"error: digitprod imported from {digitprod.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    wl = workloads.WORKLOADS[args.workload]
    inputs = wl.build(args.seed)
    if args.setup_only:
        return 0

    if args.trace:
        import tracer as tracing

        wl.warm_up(inputs)
        plain, traced, outputs, raw = measure_traced(wl, inputs, args.seconds,
                                                     tracing.Tracer())
        # pairs adjacent in time share the host's speed of the moment
        overhead = statistics.median(t / p - 1 for p, t in zip(plain, traced))
        metrics = tracing.layer_metrics(raw, len(traced), overhead)
        lines = [f"untraced wall_s samples {_rounded(plain)}",
                 f"traced wall_s samples {_rounded(traced)}"]
    else:
        wl.warm_up(inputs)
        walls, outputs, setup = measure(
            wl, inputs, args.seconds, len(inputs.terms) or 1,
            lambda: setup_seconds(args.workload, args.seed))
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        # the fastest: on a shared host, contention phases lasting tens of
        # seconds slow whole stretches of a run, and contention only adds time
        metrics = {"wall_s": (min(walls), "s"),
                   "setup_s": (min(setup), "s"),
                   "peak_mem_mb": (peak_mb, "MB")}
        lines = [f"wall_s median {statistics.median(walls)!r} s, samples {_rounded(walls)}",
                 f"setup_s median {statistics.median(setup)!r} s, samples {_rounded(setup)}"]

    verdict = workloads.thread_invariance(inputs)
    checks = wl.verdict(inputs, outputs)
    verdict.extend(checks)
    attempted, failed = len(verdict.checks), len(verdict.failed)
    quality = checks.quality()
    if not args.trace:
        metrics["accuracy_digits"] = (quality["accuracy_digits"], "digits")

    for name, (value, unit) in metrics.items():
        print(f"{name} {value!r} {unit}")
    print(f"fail_frac {failed / attempted!r} frac ({failed} of {attempted} checks)")
    for name, unit in (("err_est_misses", "count"), ("err_est_slack_digits", "digits")):
        value = quality[name]
        print(f"{name} {'n/a' if value is None else repr(value)} {unit}")
    for line in lines:
        print(line)
    for c in verdict.failed:
        print(f"FAIL {c.name}: {c.detail}")
    print("provenance " + json.dumps(provenance(args, inputs), sort_keys=True))
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {n: {"value": v, "unit": u} for n, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
