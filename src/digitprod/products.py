"""Numerical evaluation of products of (B*n+k)/(B*n+k+1) factors.

A ``ProductSpec`` bundles a base B, a set of residue factors (k, multiplier,
start index) and one exponent sequence u; it denotes

    prod_k prod_{n >= start_k} ((B*n + k) / (B*n + k + 1)) ** (c_k * u(n)).

The product has one log-series,

    log P = sum_{n >= 0} u(n) * sum_k c_k * log((B*n + k) / (B*n + k + 1)),

where factor k contributes only for n >= start_k.  It is summed over blocks
from n = 0 with all logs taken of positive rationals, so complex exponents
only ever multiply real logs and no branch cuts arise.  There is one
summation path, this truncated log-series; two evaluators read it:

* ``evaluate_direct``: plain truncation, with the final block's
  contribution as an indicative error.
* ``evaluate_abel``: the same truncated sum, read through summation by
  parts.  Over [0, N) that is an exact rearrangement, so it changes no value;
  it supplies the error bound, from the boundary term F(N)*a_N with F the
  partial sums of the exponent sequence, and the tail model.  Optionally the
  tail is fitted from the sums one digit level apart (N/B and N): it
  contracts by the ratio lambda = sum(v)/B per level, with modulus
  B**(alpha - 1), or by 1/B when the partial sums stay bounded; the fitted
  tail is subtracted.

Truncation indices are rounded up to a multiple of B so every residue class
sees the same number of blocks, and capped so that B*N <= 2**53, where every
index B*n + k is still an exact float.  Block sums are reduced in a fixed order
with exact float summation, so results are bit-reproducible regardless of
the thread count.
"""

from __future__ import annotations

import cmath
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from math import fsum, log1p
from os import cpu_count

import numpy as np

from .digits import check_base
from .errors import DomainError, ValidationError
from .sequences import ExponentSeq, RecursionProfile, recursion_profile

__all__ = [
    "Factor",
    "ProductSpec",
    "EvalResult",
    "log_ratio_term",
    "evaluate_direct",
    "evaluate_abel",
    "resolve_threads",
    "map_ordered",
    "TelescopeReport",
    "telescoping_check",
    "SplitReport",
    "residue_split_check",
]

_BLOCK = 1 << 19


def _fsum_c(values) -> complex:
    vals = [complex(v) for v in values]
    return complex(fsum(v.real for v in vals), fsum(v.imag for v in vals))


def log_ratio_term(base: int, residue: int, n: int) -> float:
    """log((B*n + k) / (B*n + k + 1)), always negative, accurate for large n."""
    x = base * n + residue
    if x < 1:
        raise DomainError(f"B*n + k = {x} < 1 (base={base}, k={residue}, n={n})")
    return -log1p(1.0 / x)


def _log_ratio_block(base: int, residue: int, ns: np.ndarray) -> np.ndarray:
    # in place in one float array: the same values as
    # -log1p(1 / (B*n + k)) without its temporaries, exact while B*n < 2**53
    x = np.multiply(ns, base, dtype=np.float64)
    x += residue
    np.reciprocal(x, out=x)
    np.log1p(x, out=x)
    np.negative(x, out=x)
    return x


@dataclass(frozen=True)
class Factor:
    """One residue class k with exponent multiplier c_k and start index.

    The start index defaults to 1 for k = 0 (the n = 0 numerator vanishes)
    and 0 otherwise; explicit overrides are allowed for exotic products but
    never below 1 when k = 0.
    """

    residue: int
    multiplier: complex = 1.0
    start: int | None = None

    def __post_init__(self):
        object.__setattr__(self, "residue", int(self.residue))
        object.__setattr__(self, "multiplier", complex(self.multiplier))
        start = self.start
        if start is None:
            start = 1 if self.residue == 0 else 0
        start = int(start)
        if self.residue == 0 and start < 1:
            raise ValidationError("residue-0 factors must start at n >= 1")
        if start < 0:
            raise ValidationError(f"start must be nonnegative, got {start}")
        object.__setattr__(self, "start", start)


@dataclass(frozen=True)
class ProductSpec:
    base: int
    factors: tuple[Factor, ...]
    seq: ExponentSeq

    def __init__(self, base: int, factors, seq: ExponentSeq):
        object.__setattr__(self, "base", check_base(base))
        fs = tuple(
            f if isinstance(f, Factor) else Factor(*f) for f in factors
        )
        if not fs:
            raise ValidationError("a product needs at least one factor")
        residues = [f.residue for f in fs]
        if len(set(residues)) != len(residues):
            raise ValidationError(f"duplicate residues in {residues}")
        for f in fs:
            if not 0 <= f.residue < self.base:
                raise ValidationError(
                    f"residue {f.residue} out of range for base {self.base}"
                )
        object.__setattr__(self, "factors", fs)
        object.__setattr__(self, "seq", seq)


@dataclass(frozen=True)
class EvalResult:
    log_value: complex
    value: complex
    err_est: float
    terms: int
    method: str

    def to_json_dict(self) -> dict:
        return {
            "value_re": self.value.real,
            "value_im": self.value.imag,
            "log_re": self.log_value.real,
            "log_im": self.log_value.imag,
            "err_est": self.err_est,
            "terms": self.terms,
            "method": self.method,
        }


_MAX_INDEX = 1 << 53  # B*n + k stays exact in float64 up to here


def _round_up_terms(n_terms: int, base: int) -> int:
    # balanced truncation: same number of blocks per residue class
    n = n_terms if n_terms < base else -(-n_terms // base) * base
    if base * n > _MAX_INDEX:
        top = _MAX_INDEX // (base * base) * base
        raise ValidationError(
            f"n_terms = {n_terms} breaks the cap B*N <= 2**53 "
            f"(at most {top} for base {base})"
        )
    return n


def _block_edges(n_terms: int, snapshot: int | None) -> list[int]:
    # edge 1 keeps F(1) = u(0) among the edge carries of the error bound, and
    # a distinct trailing block keeps last-block error estimates meaningful
    edges = {0, 1, n_terms, max(1, n_terms - max(n_terms // 8, 1))}
    edges.update(range(_BLOCK, n_terms, _BLOCK))
    if snapshot is not None:
        edges.add(snapshot)
    return sorted(e for e in edges if e <= n_terms)


def resolve_threads(threads: int) -> int:
    """The worker count for a ``threads`` argument: 0 means min(8, CPUs).

    Negative counts raise ValidationError.  ``evaluate_direct``,
    ``evaluate_abel`` and ``identities.verify_all`` call this at entry, so a
    bad count fails before any series work.
    """
    threads = int(threads)
    if threads < 0:
        raise ValidationError(f"threads must be >= 0, got {threads}")
    return threads or min(8, cpu_count() or 1)


def map_ordered(fn, items, threads: int) -> list:
    """``[fn(x) for x in items]``, on a pool of ``threads`` workers when
    threads > 1 and there is more than one item; results keep input order."""
    items = list(items)
    if threads <= 1 or len(items) <= 1:
        return [fn(x) for x in items]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(fn, items))


@dataclass
class _EngineOut:
    log_at: dict[int, complex]  # truncation index -> combined log-sum
    f_edge_max: float  # max |F| over the block edges, N and the snapshot included
    last_block: complex  # final block's contribution to the log-sum


def _engine(spec: ProductSpec, n_terms: int, snapshot: int | None,
            threads: int) -> _EngineOut:
    """The log-sum sum_k c_k sum_{n in [start_k, N)} u(n) * a(n, k) from n = 0.

    Each block [s, e) contributes sum u(n) and sum_k c_k sum u(n) * a(n, k),
    where factor k skips the first start_k - s entries of the block, so the
    n = 0 term and late starts take the same path as every other n.  Exact
    carries of these give the log-sums at N and at the snapshot and the
    partial sums F of u at every block edge; edge 1 keeps F(1) = u(0) among
    them.
    """
    base, seq, factors = spec.base, spec.seq, spec.factors
    edges = _block_edges(n_terms, snapshot)

    def worker(span: tuple[int, int]):
        ns = np.arange(*span, dtype=np.int64)
        u = seq.block(ns)
        # u is float64 or complex128; the columns of its (n, 1) or (n, 2)
        # float view give the real (and imaginary) part of u . a, with no
        # complex copy of a.  Each is a product into one float buffer and a
        # pairwise sum, not a BLAS dot: a threaded BLAS dot leaves its own
        # worker threads spinning after each call, which took the CPU from
        # the threads of map_ordered
        uv = u.view(np.float64).reshape(len(u), -1)
        buf = np.empty(len(u))
        parts = []
        for f in factors:
            i = min(max(f.start - span[0], 0), len(u))
            a = _log_ratio_block(base, f.residue, ns[i:])
            dot = complex(*[np.multiply(a, c[i:], out=buf[i:]).sum() for c in uv.T])
            parts.append(f.multiplier * dot)
        return complex(u.sum()), _fsum_c(parts)

    results = map_ordered(worker, zip(edges, edges[1:]), threads)
    usums = [r[0] for r in results]
    logs = [r[1] for r in results]
    marks = [n_terms] if snapshot is None else [snapshot, n_terms]
    return _EngineOut(
        log_at={m: _fsum_c(logs[: edges.index(m)]) for m in marks},
        f_edge_max=max(abs(_fsum_c(usums[:i])) for i in range(len(edges))),
        last_block=logs[-1] if logs else 0j,
    )


def _boundary_scale(spec: ProductSpec, out: _EngineOut, n_terms: int) -> float:
    # max |F| times sum_k |c_k| |a(N-1, k)|; F(N) is an edge carry
    return out.f_edge_max * sum(
        abs(f.multiplier) * -log_ratio_term(spec.base, f.residue, n_terms - 1)
        for f in spec.factors
    )


def evaluate_direct(spec: ProductSpec, n_terms: int, threads: int = 1) -> EvalResult:
    """Truncate each factor's log-series at n_terms and exponentiate.

    The error estimate is the magnitude of the final block's contribution;
    for conditionally convergent exponents it is only indicative.
    """
    threads = resolve_threads(threads)
    if n_terms < 0:
        raise ValidationError(f"n_terms must be nonnegative, got {n_terms}")
    n = _round_up_terms(int(n_terms), spec.base)
    out = _engine(spec, n, None, threads=threads)
    log_value = out.log_at[n]
    return EvalResult(log_value, cmath.exp(log_value), abs(out.last_block), n, "naive")


def evaluate_abel(
    spec: ProductSpec,
    n_terms: int,
    extrapolate: bool = True,
    threads: int = 1,
) -> EvalResult:
    """Evaluate the truncated sum with a summation-by-parts error bound.

    The value at N is the direct sum; summation by parts bounds what lies
    beyond it by the boundary term F(N)*a_{N-1}.  The recursion profile is
    taken from the exponent sequence over the product's base and must have
    |sum v(k)| < B (raises ConvergenceHypothesisViolated otherwise, before any
    series work).  With ``extrapolate`` the tail is modeled as c * N**e,
    where e = alpha - 1 when |sum v(k)| > 1 and e = -1 when the partial sums
    are bounded or grow only logarithmically; the fitted tail is subtracted
    and its magnitude dominates the error estimate.
    """
    threads = resolve_threads(threads)
    base = spec.base
    if n_terms < base:
        raise ValidationError(f"n_terms must be >= base, got {n_terms}")
    n = _round_up_terms(int(n_terms), base)
    profile = recursion_profile(spec.seq, base=base)
    profile.require_unit_bounds()

    # snapshot one digit level below N: the tail contracts by the complex
    # ratio lambda = sum(v)/B per level (modulus B**(alpha-1)); when the
    # partial sums stay bounded or grow only logarithmically the tail is
    # plain c/N and lambda degenerates to 1/B
    prev = (n // (base * base)) * base
    use_extrap = extrapolate and base <= prev < n
    snapshot = prev if use_extrap else None

    out = _engine(spec, n, snapshot, threads=threads)
    log_n = out.log_at[n]

    if not use_extrap:
        err = _boundary_scale(spec, out, n)
        return EvalResult(log_n, cmath.exp(log_n), err, n, "abel")

    log_prev = out.log_at[prev]
    g_total = profile.v_total
    lam = g_total / base if abs(g_total) > 1.0 else complex(1.0 / base)
    tail = (log_n - log_prev) * (lam / (1.0 - lam))
    log_value = log_n + tail
    err = abs(tail) + _boundary_scale(spec, out, n)
    return EvalResult(log_value, cmath.exp(log_value), err, n, "abel+extrapolation")


@dataclass(frozen=True)
class TelescopeReport:
    passed: bool
    checked: int
    max_pointwise_dev: float  # sum_k a(n,k) vs log(n/(n+1)), n >= 1
    head_dev: float  # sum_{0<k<B} log(k/(k+1)) vs -log B
    weighted_dev: float  # full u-weighted merge identity

    def __bool__(self) -> bool:
        return self.passed


def telescoping_check(seq: ExponentSeq, n_limit: int, tol: float = 1e-12) -> TelescopeReport:
    """Exact finite telescoping: the B residue logs at each n merge into one.

    Checks, for n in [1, n_limit): sum_k log((Bn+k)/(Bn+k+1)) = log(n/(n+1)),
    and for n = 0 over k >= 1: the sum is -log B.  Also checks the u-weighted
    sum-level consequence.
    """
    base = seq.base
    if n_limit < 1:
        raise ValidationError(f"n_limit must be >= 1, got {n_limit}")
    u_all = seq.block(np.arange(0, base * n_limit, dtype=np.int64))
    if np.abs(u_all).max() > 1.0 + 1e-12:
        raise ValidationError("|u(n)| <= 1 is required on [0, B*n_limit)")

    head = fsum(log_ratio_term(base, k, 0) for k in range(1, base))
    head_dev = abs(head + math.log(base))

    max_dev = 0.0
    weighted_lhs_parts: list[complex] = []
    weighted_rhs_parts: list[complex] = []
    for s in range(1, n_limit, _BLOCK):
        e = min(s + _BLOCK, n_limit)
        ns = np.arange(s, e, dtype=np.int64)
        total = np.zeros(e - s, dtype=np.float64)
        for k in range(base):
            total += _log_ratio_block(base, k, ns)
        rhs = -np.log1p(1.0 / ns)
        max_dev = max(max_dev, float(np.abs(total - rhs).max()))
        un = u_all[s:e]
        weighted_lhs_parts.append(complex(np.dot(un, total)))
        weighted_rhs_parts.append(complex(np.dot(un, rhs)))
    u0 = complex(u_all[0])
    weighted_lhs = _fsum_c(weighted_lhs_parts) + u0 * head
    weighted_rhs = _fsum_c(weighted_rhs_parts) - u0 * math.log(base)
    weighted_dev = abs(weighted_lhs - weighted_rhs)

    passed = max_dev <= tol and head_dev <= tol and weighted_dev <= tol * max(
        1.0, abs(weighted_rhs)
    )
    return TelescopeReport(passed, n_limit, max_dev, head_dev, weighted_dev)


@dataclass(frozen=True)
class SplitReport:
    passed: bool
    checked: int
    split_dev: float  # regrouping by residue class, an exact rearrangement
    substitution_dev: float  # u(B*n + k) vs u(n) * v(k) on the grouped side

    def __bool__(self) -> bool:
        return self.passed


def residue_split_check(
    seq: ExponentSeq,
    n_limit: int,
    base: int | None = None,
    profile: RecursionProfile | None = None,
    tol: float = 1e-12,
) -> SplitReport:
    """Finite form of the mod-B split of sum u(m) log(m/(m+1)).

    Both sides enumerate exactly the same terms, so with exact summation the
    deviation is at float level; the recursion substitution is then checked
    on the grouped side.
    """
    b = check_base(base if base is not None else seq.base)
    if n_limit < 1:
        raise ValidationError(f"n_limit must be >= 1, got {n_limit}")
    if profile is None:
        profile = recursion_profile(
            seq, limit=max(4096, b * (b + 1), b * n_limit // 4), base=b
        )

    u_all = seq.block(np.arange(0, b * n_limit, dtype=np.int64))

    lhs_parts = []
    for s in range(1, b * n_limit, _BLOCK):
        e = min(s + _BLOCK, b * n_limit)
        ms = np.arange(s, e, dtype=np.int64)
        lhs_parts.append(complex(np.dot(u_all[s:e], -np.log1p(1.0 / ms))))
    lhs = _fsum_c(lhs_parts)

    rhs_parts = []
    sub_dev = 0.0
    for k in range(b):
        start = 1 if k == 0 else 0
        ns = np.arange(start, n_limit, dtype=np.int64)
        a = _log_ratio_block(b, k, ns)
        u_grouped = u_all[b * ns + k]
        rhs_parts.append(complex(np.dot(u_grouped, a)))
        ns_pos = ns[ns >= 1]
        dev = np.abs(u_all[b * ns_pos + k] - u_all[ns_pos] * profile.v[k])
        if dev.size:
            sub_dev = max(sub_dev, float(dev.max()))
    rhs = _fsum_c(rhs_parts)

    split_dev = abs(lhs - rhs)
    passed = split_dev <= tol * max(1.0, abs(lhs)) and sub_dev <= tol
    return SplitReport(passed, n_limit, split_dev, sub_dev)
