"""Seeded workloads of the digitprod benchmark: inputs, timed calls and checks.

Each workload draws its inputs from ``--seed`` (truncation N within a small
window above the nominal size, partial-sum query points), hands the program
only those inputs, and checks every output against values held here, not
against the program's own verdicts.
"""

from __future__ import annotations

import cmath
import contextlib
import io
import json
import math
from dataclasses import dataclass, field

import numpy as np

from digitprod import cli, identities, products, sequences, summatory

THREADS = 2  # the thread count of every threaded workload: nproc of the reference box
TERMS_WINDOW = 0.01  # N is drawn from [nominal, nominal * (1 + TERMS_WINDOW))
TERMS_PER_RUN = 3  # distinct N per run; accuracy is the worst over all of them
WARM_TERMS = 1 << 16  # warm-up size of a CLI workload
INVARIANCE_TERMS = 1 << 20  # reduced N of the thread-invariance check (3+ blocks)
QR_TARGET = 1.5
QR_TOL = 1e-4  # acceptance criterion C7
PARTIAL_TOL = 1e-9  # |recursive - direct| <= PARTIAL_TOL * max(1, |direct|)
ORACLE_MAX = 1 << 20  # largest N with a direct-sum oracle
QUERIES_PER_SEQ = 64  # seeded queries in [B, 2**53 / B) per sequence
# seeded oracle queries per sequence: ORACLE_PER_SEQ in [B, ORACLE_MAX / 2) and
# one in [ORACLE_MAX / 2, ORACLE_MAX], where rounding error is largest, so the
# worst error of a run does not hinge on how large the drawn points happen to be
ORACLE_PER_SEQ = 3
ERR_FLOOR = 1e-16  # accuracy_digits is capped at 16
EST_FLOOR = 1e-15  # err_est slack is measured against max(true error, 1e-15)

_S3 = math.sqrt(3.0)
# closed form and tolerance of every catalog claim, independent of the program
CLAIMS = {
    "woods_robbins": (2 ** -0.5, 1e-5),
    "woods_robbins_squared": (0.5, 1e-5),
    "strong_mult_gauss_b3": (1 / 3, 1e-4),
    "zero_count_scaled_b2": (0.5, 5e-4),
    "zero_count_log_b2": (0.25, 5e-4),
    "roots_unity_sin_b5": (5 ** -0.5, 1e-4),
    "roots_unity_cos_b5": (1.0, 1e-4),
    "sigma_first_b5": (0.2, 1e-4),
    "sigma_second_b5": (1.0, 1e-4),
    "digit_sum_pow_b3": (1 / 3, 5e-4),
    "half_pow_digit_sum_b2": (0.25, 5e-4),
    "sin_digit_sum_b2": (2 ** -0.5, 1e-4),
    "cos_digit_sum_b2": (1.0, 1e-4),
    "sigma_digit_sum_first_b2": (0.5, 1e-4),
    "sigma_digit_sum_second_b2": (1.0, 1e-4),
    "theta_digit_sum_b3": (1 / 3, 5e-4),
    "sum_digits_b2": (2 ** -0.5, 1e-5),
    "sum_digits_b3": (3 ** -0.5, 1e-5),
    "sum_digits_b6": (6 ** -0.5, 1e-5),
    "digit_set_sin_b4": (4 ** (-1 / _S3), 1e-4),
    "digit_set_cos_b4": (1.0, 1e-4),
    "digit_set_parity_b5": (5 ** -0.5, 1e-5),
    "count_ones_b2": (2 ** -0.5, 1e-5),
    "count_zeros_b2": (2 ** -0.5, 1e-5),
    "eta_count_b3": (3 ** (-2 / 3), 5e-4),
    "theta_count_b3": (1.0, 5e-4),
    "alternating_b3": (3 ** -0.5, 1e-5),
    "alternating_b5": (5 ** -0.5, 1e-5),
}


@dataclass(frozen=True)
class Check:
    name: str
    ok: bool
    detail: str = ""


@dataclass
class Verdict:
    """Checks of a run, plus the true error and reported err_est of each result.

    Results are keyed by their input (N, claim or query point), so a result
    repeated by later calls of the same run counts once.
    """

    checks: list[Check] = field(default_factory=list)
    results: dict[tuple, tuple[float, float | None]] = field(default_factory=dict)

    def add(self, name: str, ok: bool, detail: str = "") -> None:
        self.checks.append(Check(name, bool(ok), detail))

    def record(self, key: tuple, err: float, err_est: float | None = None) -> None:
        self.results[key] = (err, err_est)

    def extend(self, other: "Verdict") -> None:
        self.checks += other.checks
        self.results.update(other.results)

    @property
    def failed(self) -> list[Check]:
        return [c for c in self.checks if not c.ok]

    def quality(self) -> dict[str, float | None]:
        """accuracy_digits, err_est_misses and err_est_slack_digits."""
        worst = max((err for err, _ in self.results.values()), default=1.0)
        out = {"accuracy_digits": -math.log10(max(worst, ERR_FLOOR)),
               "err_est_misses": None, "err_est_slack_digits": None}
        pairs = [(err, est) for err, est in self.results.values() if est is not None]
        if pairs:
            out["err_est_misses"] = sum(est < err for err, est in pairs)
            out["err_est_slack_digits"] = max(
                math.log10(max(est, 1e-300) / max(err, EST_FLOOR)) for err, est in pairs
            )
        return out


@dataclass
class Inputs:
    terms: list[int]
    invariance_terms: int
    queries: dict[str, list[int]] = field(default_factory=dict)
    oracle_points: dict[str, list[int]] = field(default_factory=dict)
    seqs: dict[str, object] = field(default_factory=dict, compare=False, repr=False)

    def provenance(self) -> dict:
        return {"terms": self.terms, "invariance_terms": self.invariance_terms,
                "queries": self.queries, "oracle_points": self.oracle_points}


@dataclass
class CliResult:
    argv: list[str]
    code: int | None
    payload: object
    error: str = ""


def run_cli(argv: list[str]) -> CliResult:
    """One in-process ``digitprod`` invocation; its JSON stdout is parsed."""
    buf = io.StringIO()
    try:
        with contextlib.redirect_stdout(buf):
            code = cli.main(argv)
    except Exception as exc:  # a raised error is a failed check, not a crash
        return CliResult(argv, None, None, f"{type(exc).__name__}: {exc}")
    try:
        return CliResult(argv, code, json.loads(buf.getvalue()))
    except ValueError:
        return CliResult(argv, code, None, "output is not JSON")


def _rng(workload: str, seed: int) -> np.random.Generator:
    return np.random.default_rng([int(seed), sum(map(ord, workload))])


def _log_uniform(rng, lo: int, hi: int, k: int) -> list[int]:
    """k integers in [lo, hi), log-uniformly spread."""
    xs = np.exp(rng.uniform(math.log(lo), math.log(hi), size=k))
    return [int(min(max(x, lo), hi - 1)) for x in xs]


class Workload:
    name = ""
    nominal = 0

    def build(self, seed: int) -> Inputs:
        rng = _rng(self.name, seed)
        width = max(1, int(self.nominal * TERMS_WINDOW))
        terms = [self.nominal + int(x) for x in rng.integers(0, width, TERMS_PER_RUN)]
        inputs = Inputs(terms if self.nominal else [],
                        INVARIANCE_TERMS + int(rng.integers(0, INVARIANCE_TERMS // 16)))
        self.draw_queries(rng, inputs)
        return inputs

    def draw_queries(self, rng: np.random.Generator, inputs: Inputs) -> None:
        """Add workload-specific seeded inputs."""

    def warm_up(self, inputs: Inputs) -> None:
        for argv in self.argvs(WARM_TERMS):
            run_cli(argv)

    def call(self, inputs: Inputs, k: int):
        """The k-th timed call; returns (N, results) for ``check``."""
        n = inputs.terms[k % len(inputs.terms)]
        return n, [run_cli(argv) for argv in self.argvs(n)]

    def argvs(self, n: int) -> list[list[str]]:
        raise NotImplementedError

    def check(self, inputs: Inputs, outputs: list) -> Verdict:
        raise NotImplementedError

    def verdict(self, inputs: Inputs, outputs: list) -> Verdict:
        """Checks of all calls; a call that raised (an exception) is a failure."""
        v = Verdict()
        for k, out in enumerate(outputs):
            if isinstance(out, Exception):
                v.add(f"{self.name}/call{k}", False, f"{type(out).__name__}: {out}")
        try:
            v.extend(self.check(inputs, [o for o in outputs if not isinstance(o, Exception)]))
        except Exception as exc:  # e.g. a malformed payload: a failure, not a crash
            v.add(f"{self.name}/check", False, f"{type(exc).__name__}: {exc}")
        return v


def _check_claim(v: Verdict, n: int, label: str, name: str, report: dict) -> None:
    value, tol = CLAIMS[name]
    computed = complex(report["computed"], report["computed_im"])
    err = abs(computed - value) / abs(value)
    v.add(f"{label}/{name}", err <= tol, f"rel_err={err:.3e} tol={tol:g}")
    v.record((n, name), err, float(report["err_est"]))


class Catalog(Workload):
    """verify-all: 28 claims over 19 distinct product evaluations, threaded."""

    name = "catalog_1e6"
    nominal = 10**6

    def argvs(self, n):
        return [["verify-all", "--terms", str(n), "--threads", str(THREADS),
                 "--output", "json"]]

    def check(self, inputs, outputs):
        v = Verdict()
        for n, (res,) in outputs:
            label = f"{self.name}/N={n}"
            v.add(f"{label}/exit", res.code == 0, f"exit={res.code} {res.error}")
            reports = {}
            if isinstance(res.payload, dict):
                reports = {r["name"]: r for r in res.payload.get("claims", [])}
            for claim in CLAIMS:
                if claim in reports:
                    _check_claim(v, n, label, claim, reports[claim])
                else:
                    v.add(f"{label}/{claim}", False, "missing from output")
        return v


def catalog_sequences() -> list:
    """The distinct exponent sequences of the catalog, in catalog order."""
    seqs = []
    for claim in identities.catalog():
        for part in claim.parts:
            if part.spec.seq not in seqs:
                seqs.append(part.spec.seq)
    return seqs


class PartialSums(Workload):
    """Summatory layer: recursive partial sums and growth checks, pointwise value()."""

    name = "partial_sums"

    def draw_queries(self, rng, inputs):
        for seq in catalog_sequences():
            b, key = seq.base, cli.render_spec(seq)
            inputs.seqs[key] = seq
            inputs.oracle_points[key] = (
                _log_uniform(rng, b, ORACLE_MAX // 2, ORACLE_PER_SEQ)
                + _log_uniform(rng, ORACLE_MAX // 2, ORACLE_MAX + 1, 1))
            inputs.queries[key] = (_log_uniform(rng, b, 2**53 // b, QUERIES_PER_SEQ)
                                   + inputs.oracle_points[key])

    def warm_up(self, inputs):
        self.call(inputs, 0)

    def call(self, inputs, k):
        out = []
        for key, seq in inputs.seqs.items():
            b = seq.base
            profile = sequences.recursion_profile(seq, limit=max(4096, b * (b + 1)), base=b)
            values = [summatory.partial_sum_recursive(profile, seq, q)
                      for q in inputs.queries[key]]
            checkpoints = [b**j for j in range(1, 64) if b**j < 2**53 // b]
            growth = summatory.growth_check(profile, seq, checkpoints)
            out.append((key, values, growth.passed))
        return None, out

    def check(self, inputs, outputs):
        v = Verdict()
        oracle = {key: {n: summatory.partial_sum_direct(seq, n)
                        for n in inputs.oracle_points[key]}
                  for key, seq in inputs.seqs.items()}
        for _, per_seq in outputs:
            for key, values, growth_ok in per_seq:
                v.add(f"{self.name}/{key}/growth", growth_ok)
                got = dict(zip(inputs.queries[key], values))
                v.add(f"{self.name}/{key}/finite",
                      all(cmath.isfinite(x) for x in values))
                for n, direct in oracle[key].items():
                    err = abs(got[n] - direct) / max(1.0, abs(direct))
                    v.add(f"{self.name}/{key}/N={n}", err <= PARTIAL_TOL,
                          f"recursive={got[n]!r} direct={direct!r}")
                    v.record((key, n), err)
        return v


WORKLOADS = {w.name: w for w in (Catalog(), PartialSums())}


def thread_invariance(inputs: Inputs) -> Verdict:
    """The Q and R specs of ``estimate qr`` at reduced N: their logs must be
    bit-identical on 1 and 2 threads, and Q*R must be within QR_TOL of 3/2."""
    n = inputs.invariance_terms
    v = Verdict()
    runs = (("Q", products.evaluate_abel, identities.q_product_spec()),
            ("R", products.evaluate_direct, identities.r_product_spec()))
    values = {}
    for label, evaluate, spec in runs:
        name = f"thread_invariance/N={n}/{label}"
        try:
            results = [evaluate(spec, n, threads=t) for t in (1, THREADS)]
        except Exception as exc:  # a raised error is a failed check
            v.add(name, False, f"{type(exc).__name__}: {exc}")
            continue
        logs = [r.log_value for r in results]
        v.add(name, logs[0] == logs[1], f"threads=1 {logs[0]!r} threads={THREADS} {logs[1]!r}")
        values[label] = results[-1].value.real
    if len(values) == 2:
        dev = abs(values["Q"] * values["R"] - QR_TARGET)
        v.add(f"qr/N={n}/Q*R", dev <= QR_TOL, f"|Q*R - {QR_TARGET}| = {dev:.3e}")
    return v
