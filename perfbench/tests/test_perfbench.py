"""Tests of the benchmark itself: span accounting, wrapper removal, seeding, checks."""

import json
import shutil
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

import tracer
import workloads
from digitprod import cli, identities, products, sequences
from tracer import Span, Tracer, layer_metrics, self_times, summarize

ROOT = Path(__file__).resolve().parents[2]


def _overlapping_spans():
    # root [0,10] -> evaluate [1,9] -> block on two worker threads, [2,6] and
    # [4,8]; the first block has a digits child [3,5]
    return [
        Span(1, None, "bench", "call", 0, 0.0, 10.0),
        Span(2, 1, "products", "evaluate", 0, 1.0, 9.0),
        Span(3, 2, "sequences", "block", 1, 2.0, 6.0),
        Span(4, 2, "sequences", "block", 2, 4.0, 8.0),
        Span(5, 3, "digits", "digit_stat_block", 1, 3.0, 5.0),
    ]


def test_self_time_when_spans_from_two_threads_overlap():
    share = self_times(_overlapping_spans())
    # [4,5] is shared by the digits child and the second block, [5,6] by both blocks
    assert share == pytest.approx({1: 2.0, 2: 2.0, 3: 1.5, 4: 3.0, 5: 1.5})
    assert sum(share.values()) == pytest.approx(10.0)


def test_layer_self_times_add_up_to_traced_wall():
    raw = summarize(_overlapping_spans())
    m = layer_metrics(raw, 1, overhead_frac=0.25)
    layer_total = sum(m[f"{layer}.self_s"][0] for layer in tracer.LAYERS)
    assert layer_total + m["trace.unattributed_s"][0] == pytest.approx(m["trace.wall_s"][0])
    assert m["trace.wall_s"][0] == pytest.approx(10.0)
    assert m["products.self_s"][0] == pytest.approx(2.0)
    assert m["sequences.block_s"][0] == pytest.approx(8.0)  # thread time, both blocks
    assert m["products.concurrency"][0] == pytest.approx(8.0 / 6.0)


def test_worker_thread_spans_take_the_blocked_caller_as_parent():
    t = Tracer()
    work = t.wrap(lambda: time.sleep(0.01), "sequences", "sleep")
    with t.span() as root:
        threads = [threading.Thread(target=work) for _ in range(2)]
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=10)
            assert not th.is_alive()
    blocks = [s for s in t.spans if s.name == "sleep"]
    assert len(blocks) == 2
    assert {s.parent for s in blocks} == {root.id}
    assert len({s.tid for s in blocks}) == 2


def _wrapped_names():
    mods = [m for n, m in sys.modules.items() if n == "digitprod" or n.startswith("digitprod.")]
    found = [(m.__name__, k) for m in mods for k, v in vars(m).items()
             if callable(v) and getattr(v, "__qualname__", "").endswith("traced")]
    for cls in tracer.SEQUENCE_CLASSES:
        found += [(cls.__name__, k) for k in ("block", "value")
                  if cls.__dict__[k].__qualname__.endswith("traced")]
    return found


def test_wrappers_are_removed_after_a_traced_run():
    originals = {
        "cli.verify_claim": cli.verify_claim,
        "identities.verify_claim": identities.verify_claim,
        "sequences.digit_stat_block": sequences.digit_stat_block,
        "products.recursion_profile": products.recursion_profile,
        "DigitStatPower.block": sequences.DigitStatPower.__dict__["block"],
    }
    argv = ["verify", "--claim", "woods_robbins", "--terms", "4096"]
    t = Tracer()
    with t.installed():
        assert cli.verify_claim is not originals["cli.verify_claim"]
        assert sequences.digit_stat_block is not originals["sequences.digit_stat_block"]
        with t.span():
            assert workloads.run_cli(argv).code == 0
    layers = {s.layer for s in t.spans}
    assert {"bench", "cli", "identities", "products", "sequences", "digits",
            "gammaproducts"} <= layers
    assert cli.verify_claim is originals["cli.verify_claim"]
    assert identities.verify_claim is originals["identities.verify_claim"]
    assert sequences.digit_stat_block is originals["sequences.digit_stat_block"]
    assert products.recursion_profile is originals["products.recursion_profile"]
    assert sequences.DigitStatPower.__dict__["block"] is originals["DigitStatPower.block"]
    assert _wrapped_names() == []
    recorded = len(t.spans)
    assert workloads.run_cli(argv).code == 0
    assert len(t.spans) == recorded


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_gives_same_inputs(name):
    wl = workloads.WORKLOADS[name]
    first, again, other = wl.build(3), wl.build(3), wl.build(4)
    assert first == again
    assert first.provenance() == again.provenance()
    assert first != other
    for n in first.terms:
        assert wl.nominal <= n < wl.nominal * (1 + workloads.TERMS_WINDOW)


def test_wrong_expected_claim_value_raises_fail_frac(monkeypatch):
    wl = workloads.Catalog()
    inputs = wl.build(1)
    inputs.terms = [1 << 17]
    outputs = [wl.call(inputs, 0)]
    good = wl.check(inputs, outputs)
    assert len(good.checks) == 1 + len(workloads.CLAIMS)
    monkeypatch.setitem(workloads.CLAIMS, "woods_robbins", (0.7, 1e-5))
    bad = wl.check(inputs, outputs)
    assert len(bad.failed) / len(bad.checks) > 0
    new = {c.name for c in bad.failed} - {c.name for c in good.failed}
    assert [name.rsplit("/", 1)[1] for name in new] == ["woods_robbins"]


def test_metric_lists_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    per_layer = layer_metrics({}, 1, 0.0)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {
        k: unit for k, (_, unit) in per_layer.items()}
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)


def test_refuses_to_run_without_the_program_sources(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "catalog_1e6", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert done.returncode != 0
    assert done.stdout == ""
