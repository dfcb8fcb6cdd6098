"""In-memory span tracer that times digitprod's layers from outside the package.

``Tracer.installed()`` wraps the public functions of each digitprod module
(and the ``block``/``value`` methods of the sequence classes) and patches
every name under which a digitprod module looks the original up, e.g. both
``digitprod.identities.verify_claim`` and ``digitprod.cli.verify_claim``.
Leaving the ``with`` block restores every original, so later untraced calls
run the bare code.

A span records its layer, name, thread id, start, end and parent span.  The
parent is the innermost open span on the same thread; a span opened on a
thread with no open span (a thread-pool worker) takes the innermost open span
of the thread that created the tracer, which is the caller blocked on the
pool.  Spans stay in memory until ``summarize`` reduces them.
"""

from __future__ import annotations

import functools
import itertools
import sys
import threading
import time
from collections import defaultdict
from contextlib import contextmanager

from digitprod import (
    cli,
    digits,
    gammaproducts,
    identities,
    products,
    sequences,
    summatory,
)

# module -> layer, then (function, span name) pairs: the public functions the
# workloads reach.  Scalar helpers called per value (check_base, digit_stat,
# digits_of, log_ratio_term) stay bare: their time is kept by the traced
# caller, and wrapping them would dominate the trace overhead.
FUNCTIONS = {
    cli: ("cli", [("main", "main")]),
    identities: ("identities", [
        ("catalog", "catalog"),
        ("claim_by_name", "claim_by_name"),
        ("verify_claim", "verify_claim"),
        ("verify_all", "verify_all"),
        ("estimate_qr", "estimate_qr"),
    ]),
    products: ("products", [
        ("evaluate_abel", "evaluate"),
        ("evaluate_direct", "evaluate"),
    ]),
    sequences: ("sequences", [("recursion_profile", "recursion_profile")]),
    digits: ("digits", [("digit_stat_block", "digit_stat_block")]),
    summatory: ("summatory", [
        ("partial_sum_recursive", "partial_sum_recursive"),
        ("growth_check", "growth_check"),
    ]),
    gammaproducts: ("gammaproducts", [
        ("quotient_limit", "gamma"),
        ("alternating_pair_quotient", "gamma"),
    ]),
}
SEQUENCE_CLASSES = (
    sequences.StronglyMultiplicative,
    sequences.DigitStatPower,
    sequences.PeriodicPower,
    sequences.SignedResidue,
)
LAYERS = ("cli", "identities", "products", "sequences", "digits", "summatory",
          "gammaproducts")
ROOT_LAYER = "bench"


def _count_values(span, args, kwargs, out):
    span.n = len(out)


def _count_terms(span, args, kwargs, out):
    span.n = out.terms
    # (spec, requested N): evaluations per distinct key shows repeated work
    span.key = (args[0], args[1] if len(args) > 1 else kwargs["n_terms"])


MEASURES = {"block": _count_values, "evaluate": _count_terms}


class Span:
    __slots__ = ("id", "parent", "layer", "name", "tid", "t0", "t1", "n", "key")

    def __init__(self, id, parent, layer, name, tid, t0, t1=None):
        self.id, self.parent, self.layer, self.name = id, parent, layer, name
        self.tid, self.t0, self.t1 = tid, t0, t1
        self.n = 0
        self.key = None


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._stacks: dict[int, list[Span]] = {}
        self._root_tid = threading.get_ident()
        self._patches: list[tuple[object, str, object]] = []

    def _open(self, layer: str, name: str) -> Span:
        tid = threading.get_ident()
        stack = self._stacks.setdefault(tid, [])
        parent = None
        if stack:
            parent = stack[-1].id
        elif tid != self._root_tid:
            try:
                parent = self._stacks[self._root_tid][-1].id
            except (KeyError, IndexError):
                parent = None
        span = Span(next(self._ids), parent, layer, name, tid, time.perf_counter())
        stack.append(span)
        return span

    def _close(self, span: Span) -> None:
        span.t1 = time.perf_counter()
        self._stacks[span.tid].pop()
        self.spans.append(span)

    @contextmanager
    def span(self, layer: str = ROOT_LAYER, name: str = "call"):
        sp = self._open(layer, name)
        try:
            yield sp
        finally:
            self._close(sp)

    def wrap(self, fn, layer: str, name: str):
        measure = MEASURES.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sp = self._open(layer, name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(sp)
            if measure is not None:
                measure(sp, args, kwargs, out)
            return out

        return traced

    @contextmanager
    def installed(self):
        """Wrap every traced function for the duration of the block."""
        try:
            self._install()
            yield self
        finally:
            while self._patches:
                owner, attr, original = self._patches.pop()
                setattr(owner, attr, original)

    def _install(self) -> None:
        loaded = [m for n, m in list(sys.modules.items())
                  if n == "digitprod" or n.startswith("digitprod.")]
        for module, (layer, entries) in FUNCTIONS.items():
            for attr, name in entries:
                original = getattr(module, attr)
                wrapper = self.wrap(original, layer, name)
                for mod in loaded:
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            self._patch(mod, key, wrapper)
        for cls in SEQUENCE_CLASSES:
            for attr in ("block", "value"):
                self._patch(cls, attr, self.wrap(cls.__dict__[attr], "sequences", attr))

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, wrapper)

    def drain(self) -> dict[str, float]:
        """``summarize`` the recorded spans and forget them."""
        out = summarize(self.spans)
        self.spans = []
        return out


def self_times(spans: list[Span]) -> dict[int, float]:
    """Each span's share of wall time not covered by its own active children.

    At every instant the elapsed time is split equally among the active spans
    that have no active child.  On one thread this is a span's duration minus
    the part its children cover; when spans of several threads overlap they
    share the instant, so the shares of all spans add up to the wall time the
    spans cover.
    """
    events = []
    for s in spans:
        events.append((s.t0, 1, s.id, s))
        events.append((s.t1, 0, -s.id, s))
    events.sort(key=lambda e: e[:3])
    active: set[int] = set()
    leaves: set[int] = set()
    live_children: dict[int, int] = defaultdict(int)
    linked: set[int] = set()
    share: dict[int, float] = defaultdict(float)
    last = None
    for t, opening, _, s in events:
        if leaves:
            dt = (t - last) / len(leaves)
            for leaf in leaves:
                share[leaf] += dt
        last = t
        if opening:
            active.add(s.id)
            leaves.add(s.id)
            if s.parent in active:
                linked.add(s.id)
                live_children[s.parent] += 1
                leaves.discard(s.parent)
        else:
            active.discard(s.id)
            leaves.discard(s.id)
            if s.id in linked:
                live_children[s.parent] -= 1
                if live_children[s.parent] == 0 and s.parent in active:
                    leaves.add(s.parent)
    return share


def _union_length(intervals: list[tuple[float, float]]) -> float:
    total, end = 0.0, float("-inf")
    for a, b in sorted(intervals):
        if b > end:
            total += b - max(a, end)
            end = b
    return total


def summarize(spans: list[Span]) -> dict[str, float]:
    """Raw per-call sums: layer self times, inclusive times, calls and counts.

    ``<name>.s`` is the inclusive time of the outermost spans of that name;
    ``<layer>.self_s`` the layer's share of wall time from ``self_times``.
    """
    by_id = {s.id: s for s in spans}
    share = self_times(spans)
    out: dict[str, float] = defaultdict(float)
    block_spans: dict[int, list[tuple[float, float]]] = defaultdict(list)
    keys = set()
    for s in spans:
        out[f"{s.layer}.self_s"] += share.get(s.id, 0.0)
        out[f"{s.name}.calls"] += 1
        out[f"{s.name}.n"] += s.n
        parent = by_id.get(s.parent)
        if parent is None or parent.name != s.name:
            out[f"{s.name}.s"] += s.t1 - s.t0
        if s.layer == ROOT_LAYER:
            out["wall_s"] += s.t1 - s.t0
        if s.name == "evaluate":
            keys.add(s.key)
        if s.name == "block":
            anc = parent
            while anc is not None and anc.name != "evaluate":
                anc = by_id.get(anc.parent)
            if anc is not None:
                block_spans[anc.id].append((s.t0, s.t1))
    for intervals in block_spans.values():
        out["block_in_eval.thread_s"] += sum(b - a for a, b in intervals)
        out["block_in_eval.union_s"] += _union_length(intervals)
    out["evaluate.distinct"] = len(keys)
    return out


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def layer_metrics(totals: dict[str, float], calls: int,
                  overhead_frac: float) -> dict[str, tuple[float, str]]:
    """Per-layer metrics, per workload call, from summed ``summarize`` output."""
    t = defaultdict(float, {k: v / calls for k, v in totals.items()})
    terms = t["evaluate.n"]
    return {
        "sequences.block_s": (t["block.s"], "s"),
        "sequences.block_calls": (t["block.calls"], "count"),
        "sequences.values": (t["block.n"], "count"),
        "sequences.block_ns_per_value": (1e9 * _ratio(t["block.s"], t["block.n"]), "ns"),
        "sequences.values_per_term": (_ratio(t["block.n"], terms), "ratio"),
        "sequences.profile_s": (t["recursion_profile.s"], "s"),
        "sequences.profile_calls": (t["recursion_profile.calls"], "count"),
        "sequences.value_s": (t["value.s"], "s"),
        "sequences.value_calls": (t["value.calls"], "count"),
        "sequences.self_s": (t["sequences.self_s"], "s"),
        "digits.stat_block_s": (t["digit_stat_block.s"], "s"),
        "digits.stat_share": (_ratio(t["digit_stat_block.s"], t["block.s"]), "ratio"),
        "digits.self_s": (t["digits.self_s"], "s"),
        "products.eval_s": (t["evaluate.s"], "s"),
        "products.eval_calls": (t["evaluate.calls"], "count"),
        "products.terms": (terms, "count"),
        "products.self_s": (t["products.self_s"], "s"),
        "products.self_ns_per_term": (1e9 * _ratio(t["products.self_s"], terms), "ns"),
        "products.concurrency": (_ratio(t["block_in_eval.thread_s"],
                                       t["block_in_eval.union_s"]), "ratio"),
        "identities.evals_per_distinct": (_ratio(t["evaluate.calls"],
                                                t["evaluate.distinct"]), "ratio"),
        "identities.self_s": (t["identities.self_s"], "s"),
        "identities.claims": (t["verify_claim.calls"] + t["estimate_qr.calls"], "count"),
        "summatory.recursive_s": (t["partial_sum_recursive.s"], "s"),
        "summatory.recursive_calls": (t["partial_sum_recursive.calls"], "count"),
        "summatory.us_per_query": (1e6 * _ratio(t["partial_sum_recursive.s"],
                                               t["partial_sum_recursive.calls"]), "us"),
        "summatory.growth_s": (t["growth_check.s"], "s"),
        "summatory.self_s": (t["summatory.self_s"], "s"),
        "gammaproducts.s": (t["gamma.s"], "s"),
        "gammaproducts.calls": (t["gamma.calls"], "count"),
        "gammaproducts.self_s": (t["gammaproducts.self_s"], "s"),
        "cli.self_s": (t["cli.self_s"], "s"),
        "cli.calls": (t["main.calls"], "count"),
        "trace.overhead_frac": (overhead_frac, "ratio"),
        "trace.unattributed_s": (t[f"{ROOT_LAYER}.self_s"], "s"),
        "trace.wall_s": (t["wall_s"], "s"),
    }
