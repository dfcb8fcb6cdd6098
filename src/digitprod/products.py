"""Numerical evaluation of products of (B*n+k)/(B*n+k+1) factors.

A ``ProductSpec`` bundles a base B, a set of residue factors (k, multiplier,
start index) and one exponent sequence u; it denotes

    prod_k prod_{n >= start_k} ((B*n + k) / (B*n + k + 1)) ** (c_k * u(n)).

The product has one log-series,

    log P = sum_{n >= 0} u(n) * sum_k c_k * log((B*n + k) / (B*n + k + 1)),

where factor k contributes only for n >= start_k.  It is summed over blocks
from n = 0 with all logs taken of positive rationals, so complex exponents
only ever multiply real logs and no branch cuts arise.  There is one
summation path, this truncated log-series; three evaluators read it:

* ``evaluate_moments`` (behind ``verify``, ``verify-all`` and ``estimate``):
  the truncated sum below B**L0 plus the whole tail beyond it.  For n >= 1
  the digit recursion u(B*n + k) = u(n) * v(k) maps digit level L,
  [B**L, B**(L+1)), onto level L+1, which makes the moments
  sum_{n in level} u(n) n**-r of the levels a linear recursion; one R x R
  triangular solve sums them over every level from L0 on, and the order-R
  expansion of each log in 1/n turns them into the tail.  It needs ~10**3
  terms for machine precision; N is a budget, and ``err_est`` bounds the
  truncation and rounding error.
* ``evaluate_direct``: plain truncation, with the final block's
  contribution as an indicative error.  It alone needs no digit recursion.
* ``evaluate_abel``: the same truncated sum, bit for bit, with an error
  bound from summation by parts: the digit recursion bounds the partial sums
  F of the exponent sequence level by level, and with them the tail beyond
  N, in closed form.

Truncation indices are rounded up to a multiple of B so every residue class
sees the same number of blocks, and capped so that B*N <= 2**53, where every
index B*n + k is still an exact float.  Block sums are reduced in a fixed order
with exact float summation, so results are bit-reproducible regardless of
the thread count.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from math import comb, fsum, log1p
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
    "evaluate_moments",
    "resolve_threads",
    "map_ordered",
]

_BLOCK = 1 << 19


def _fsum_c(values) -> complex:
    vals = [complex(v) for v in values]
    try:
        return complex(fsum(v.real for v in vals), fsum(v.imag for v in vals))
    except (ValueError, OverflowError):  # inf - inf, or a sum past the float range
        return complex(math.nan, math.nan)


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
    err_est: float
    terms: int
    method: str

    @property
    def value(self) -> complex:
        try:
            return cmath.exp(self.log_value)
        except OverflowError:
            raise DomainError(
                f"the product overflows a float: its log is {self.log_value!r}"
            ) from None

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
_UNIT = 2.0**-53  # unit roundoff of float64


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


def _block_edges(n_terms: int) -> list[int]:
    # the n = 0 term, the largest, is a block of its own: the exact carries
    # add it once rather than every pairwise sum rounding against it (worth
    # 0.2 digits on the catalog), and a distinct trailing block keeps
    # last-block error estimates meaningful
    edges = {0, 1, n_terms, max(1, n_terms - max(n_terms // 8, 1))}
    edges.update(range(_BLOCK, n_terms, _BLOCK))
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
    # imported here: concurrent.futures loads logging, queue and traceback,
    # which a process that never fans out does not need
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(fn, items))


def _engine(spec: ProductSpec, n_terms: int, threads: int) -> tuple[complex, complex, complex]:
    """The log-sum sum_k c_k sum_{n in [start_k, N)} u(n) * a(n, k) from n = 0,
    the partial sum F(N) of u, and the final block's share of the log-sum.

    Each block [s, e) contributes sum u(n) and sum_k c_k sum u(n) * a(n, k),
    where factor k skips the first start_k - s entries of the block, so the
    n = 0 term and late starts take the same path as every other n.  Exact
    carries of these give the log-sum and F(N).
    """
    base, seq, factors = spec.base, spec.seq, spec.factors
    edges = _block_edges(n_terms)

    def worker(span: tuple[int, int]):
        ns = np.arange(*span, dtype=np.int64)
        # an overflow leaves a sum that is not finite, which evaluate_direct
        # refuses; errstate is per thread, so it is set in the worker
        with np.errstate(over="ignore", invalid="ignore"):
            u = seq.block(ns)
            # u is float64 or complex128; the columns of its (n, 1) or (n, 2)
            # float view give the real (and imaginary) part of u . a, with no
            # complex copy of a.  Each is a product into one float buffer and
            # a pairwise sum, not a BLAS dot: a threaded BLAS dot leaves its
            # own worker threads spinning after each call, which took the CPU
            # from the threads of map_ordered
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
    last = results[-1][1] if results else 0j
    return _fsum_c(r[1] for r in results), _fsum_c(r[0] for r in results), last


def _abs_log_sum(spec: ProductSpec, n_terms: int) -> float:
    """A bound on sum_k |c_k| sum_{n in [start_k, N)} |a(n, k)|: each
    |a(n, k)| <= 1/(B*n + k), bounded by its first term plus an integral."""
    base, total = spec.base, 0.0
    for f in spec.factors:
        x0 = base * f.start + f.residue
        if f.start < n_terms:
            total += abs(f.multiplier) * (
                1.0 / x0 + math.log((base * (n_terms - 1) + f.residue) / x0) / base)
    return total


def _tail_bound(spec: ProductSpec, profile: RecursionProfile, f_end: complex,
                n_terms: int) -> float:
    """Bound |sum_k c_k sum_{n >= max(N, start_k)} u(n) * a(n, k)|, |u| <= 1.

    Factor k's tail from n0 = max(N, start_k): the at most B - 1 terms below
    B*m0, m0 = ceil(n0 / B), are each at most |a(n0, k)|.  Beyond, the digit
    recursion makes it sum_{m >= m0} u(m) (S a(B*m, k) + sum_j v(j) e_j(m)),
    S = sum v, 0 <= e_j(m) = |a(B*m, k)| - |a(B*m + j, k)| <= j/(B**3 m**2),
    decreasing in m.  Summation by parts bounds each sum_{m >= m0} u(m) w(m),
    w >= 0 decreasing, by (|F(m0)| + Phi(L1)) w(m0) + sum_{L >= L1} (Phi(L+1)
    - Phi(L)) w(B**L), where B**L1 > m0 and Phi(L) >= max_{m <= B**L} |F(m)|;
    S F(m0) = F(B*m0) - F(B) + u(0) S is exact, F(B*m0) = F(N) at m0 = N/B.
    F(B*M + b) = F(B) + (F(M) - u(0)) S + u(M) G(b) (``summatory``) gives
    Phi(L+1) = max(Phi(1), A + s Phi(L)), s = |S|, the offset A = |F(B) -
    u(0) S| + max |G(b)|: Phi is constant or each jump is s times the one before, so
    with w(B**L) <= B**(-L-2) or j B**(-2L-3) the jumps sum to geometric
    series of ratio s/B or s/B**2, both below 1.
    """
    base, total = spec.base, profile.v_total
    s = abs(total)
    mu = sum(j * abs(vj) for j, vj in enumerate(profile.v))
    f, u0 = profile.head_prefix, profile.head[0]  # F(0 .. B), u(0)
    phi_1 = float(np.abs(f).max())  # numpy's modulus, which may round apart from abs()
    offset = abs(f[-1] - u0 * total) + max(map(abs, profile.v_prefix[:-1]))
    err = 0.0
    for fac in spec.factors:
        n0 = max(n_terms, fac.start)
        m0 = -(-n0 // base)
        level, phi = 1, phi_1
        while base**level <= m0:
            level, phi = level + 1, max(phi_1, offset + s * phi)
        jump = max(phi_1, offset + s * phi) - phi
        if base * m0 == n_terms:
            s_f_m0 = abs(complex(f_end - f[-1] + u0 * total))
        else:
            s_f_m0 = s * phi
        err += abs(fac.multiplier) * (
            (base * m0 - n0) * -log_ratio_term(base, fac.residue, n0)
            + (s_f_m0 + s * phi) * -log_ratio_term(base, fac.residue, base * m0)
            + s * jump / base ** (level + 2) / (1.0 - s / base)
            + mu * (2.0 * phi / (base**3 * m0 * m0)
                    + jump / base ** (2 * level + 3) / (1.0 - s / base**2)))
    return err


def evaluate_direct(spec: ProductSpec, n_terms: int, threads: int = 1) -> EvalResult:
    """Truncate each factor's log-series at n_terms and exponentiate.

    The error estimate is the magnitude of the final block's contribution;
    for conditionally convergent exponents it is only indicative.  It is the
    one evaluator that needs no digit recursion: the grammar can state
    ``base=2; exponent=periodic_pow(3,1); factors=1``, whose exponent has no
    base-2 recursion, so ``evaluate_abel`` and ``evaluate_moments`` refuse it.
    """
    threads = resolve_threads(threads)
    if n_terms < 0:
        raise ValidationError(f"n_terms must be nonnegative, got {n_terms}")
    n = _round_up_terms(int(n_terms), spec.base)
    log_sum, _, last_block = _engine(spec, n, threads=threads)
    if not cmath.isfinite(log_sum):
        raise ValidationError(f"the log-sum {log_sum!r} is not finite: a term overflows a float")
    return EvalResult(log_sum, abs(last_block), n, "naive")


def evaluate_abel(spec: ProductSpec, n_terms: int, threads: int = 1) -> EvalResult:
    """The direct sum at n_terms, with a summation-by-parts error bound.

    ``log_value`` is bit-identical to ``evaluate_direct``'s.  ``err_est``
    bounds the tail beyond N (``_tail_bound``) plus the rounding of the sum.
    The recursion profile over the product's base must have |sum v(k)| < B
    and values of modulus <= 1 (ConvergenceHypothesisViolated or
    ValidationError otherwise), and the recursion must hold for every n >= 1
    (HypothesisFailed otherwise), all before any series work.
    """
    threads = resolve_threads(threads)
    base = spec.base
    if n_terms < base:
        raise ValidationError(f"n_terms must be >= base, got {n_terms}")
    n = _round_up_terms(int(n_terms), base)
    profile = recursion_profile(spec.seq, base=base)
    log_sum, f_end, _ = _engine(spec, n, threads=threads)
    err = (_tail_bound(spec, profile, f_end, n)
           + (n.bit_length() + 20) * _UNIT * _abs_log_sum(spec, n))
    return EvalResult(log_sum, err, n, "abel")


_MOMENT_ORDER = 8  # R: the moments n**-1 .. n**-R of a digit level
_MOMENT_HEAD = 256  # the tail starts at the first level with B**L0 >= this


def _moment_level(spec: ProductSpec, n_terms: int) -> int:
    """L0: the least L >= 1 with B**L >= every factor start, raised while
    B**L0 < 256 and the B**(L0+2) terms of the next level fit the budget
    n_terms.  B**(L+1) is the least budget the method accepts."""
    base = spec.base
    first = max(f.start for f in spec.factors)
    level = 1  # the expansion in 1/n needs the tail to start at n >= B
    while base**level < first:
        level += 1
    if base ** (level + 1) > n_terms:
        started = f" with a factor starting at n = {first}" if level > 1 else ""
        raise ValidationError(
            f"n_terms = {n_terms} is below {base ** (level + 1)}, the least budget "
            f"of the moment method in base {base}{started}"
        )
    while base**level < _MOMENT_HEAD and base ** (level + 2) <= n_terms:
        level += 1
    return level


def _solve_tail(mat: list[list[complex]], rhs: list, first: complex,
                bound: bool = False) -> list:
    """x with (I - mat) x = rhs for an upper-triangular mat, by back-substitution.

    ``first`` is the first diagonal entry of I - mat, 1 - mat[0][0], which
    the caller computes without the cancellation of that difference.  With
    ``bound`` the result is the componentwise bound on |x| that follows from
    bounds on |rhs|: each step takes |mat| and the modulus of the diagonal.
    """
    x = [0.0] * len(rhs)
    for r in reversed(range(len(rhs))):
        row = zip(mat[r][r + 1:], x[r + 1:])
        diag = first if r == 0 else 1 - mat[r][r]
        if bound:
            x[r] = (rhs[r] + sum(abs(e) * xs for e, xs in row)) / abs(diag)
        else:
            x[r] = (rhs[r] + sum(e * xs for e, xs in row)) / diag
    return x


def _moments_at_level(spec: ProductSpec, v: tuple[complex, ...], level: int) -> EvalResult:
    """The log-sum as the direct sum below B**level plus a moment tail beyond.

    The head is ``evaluate_direct(spec, B**L0)``.  One block of u over the
    level [B**L0, B**(L0+1)) gives its moments T(r) = sum u(n) n**-r.  The
    recursion maps level L onto L+1 by T_{L+1}(r) = sum_i M[r, r+i] T_L(r+i)
    with M[r, r+i] = B**(-r-i) C(-r, i) m_i, m_i = sum_j v(j) j**i (0**0 = 1),
    so the moments of all levels from L0 on sum to (I - M)**-1 T.  The tail
    log-sum is sum_s W_s Tail(s): W_s = sum_k c_k (-1)**s ((k+1)**s - k**s)
    / (s B**s) is the coefficient of n**-s in log((B*n + k) / (B*n + k + 1)),
    the double expansion sum_{i+t=s} ((-1)**i / i) C(-i, t) k**t B**(-i-t)
    collected by the binomial theorem.
    """
    base, order, factors = spec.base, _MOMENT_ORDER, spec.factors
    head, top = base**level, base ** (level + 1)
    head_log = evaluate_direct(spec, head).log_value

    ns = np.arange(head, top, dtype=np.int64)
    u = spec.seq.block(ns)
    p = 1.0 / ns
    w, w_abs = u * p, np.abs(u) * p
    moments, moments_abs = [], []
    for _ in range(order):
        moments.append(complex(w.sum()))
        moments_abs.append(float(w_abs.sum()))
        w *= p
        w_abs *= p

    # rows and columns r, s = 1..R at index r-1, s-1
    m = [sum(vj * j**i for j, vj in enumerate(v)) for i in range(order)]
    mat = [[(-1) ** (s - r) * comb(s - 1, s - r) * m[s - r] / base**s if s >= r else 0j
            for s in range(1, order + 1)] for r in range(1, order + 1)]
    # 1 - m_0 / B cancels as sum v nears B; each 1 - v(j) is exact there
    first = _fsum_c(1 - vj for vj in v) / base
    # its relative rounding: u |1 - Re v(j)| in each difference (the
    # imaginary parts negate exactly), then u in the sum and in the division
    first_err = _UNIT * (fsum(abs(1 - vj.real) for vj in v) / (base * abs(first)) + 3)
    weights = [
        sum(f.multiplier * ((f.residue + 1) ** s - f.residue**s) for f in factors)
        * (-1) ** s / (s * base**s)
        for s in range(1, order + 1)
    ]
    tail_moments = _solve_tail(mat, moments, first)
    tail = _fsum_c(c * t for c, t in zip(weights, tail_moments))
    log_value = head_log + tail

    # truncation, with |u| <= 1: the Lagrange remainders of the order-R
    # expansions of log(1 + k y / B) and (1 + k y / B)**-r in y = 1/n, each
    # times sum_{n >= B**L0} n**-(R+1) <= z
    z = head**-order * (1.0 / head + 1.0 / order)
    trunc = z * sum(
        abs(f.multiplier) * ((f.residue / base) ** (order + 1)
                             + ((f.residue + 1) / base) ** (order + 1))
        for f in factors
    ) / (order + 1)
    mu = [sum(abs(vj) * j**i for j, vj in enumerate(v)) for i in range(order + 1)]
    moment_trunc = [comb(order, order + 1 - r) * mu[order + 1 - r] * z / base ** (order + 1)
                    for r in range(1, order + 1)]
    # rounding: pairwise sums of at most B**(L0+1) products with a few
    # roundings each, R more in the powers and the solve; the rounding of
    # ``first`` moves only the first tail moment, by first_err times it
    head_abs = _abs_log_sum(spec, head)
    roundings = top.bit_length() + 20
    tail_abs = _solve_tail(mat, moments_abs, first, bound=True)
    tail_err = _solve_tail(mat, moment_trunc, first, bound=True)
    err = (
        trunc
        + sum(abs(c) * e for c, e in zip(weights, tail_err))
        + roundings * _UNIT * head_abs
        + (roundings + 4 * order) * _UNIT * sum(abs(c) * t for c, t in zip(weights, tail_abs))
        + first_err * abs(weights[0] * tail_moments[0])
    )
    return EvalResult(log_value, err, top, "moments")


def evaluate_moments(spec: ProductSpec, n_terms: int) -> EvalResult:
    """Sum the head directly and the whole tail through the digit-level moments.

    ``n_terms`` is a budget: at most n_terms sequence values are summed, and
    ``terms`` reports the B**(L0+1) actually used (see ``_moment_level``).
    The recursion profile over the product's base must have |sum v(k)| < B
    and values of modulus <= 1, and the recursion must hold for every
    n >= 1 (HypothesisFailed otherwise), all before any series work.
    ``err_est`` bounds |log_value - true log|: the order-R truncation of both
    expansions plus the rounding of the sums.  It runs on one thread:
    B**(L0+1) terms are too few to split.
    """
    n_terms = int(n_terms)
    _round_up_terms(n_terms, spec.base)
    level = _moment_level(spec, n_terms)
    profile = recursion_profile(spec.seq, base=spec.base)
    return _moments_at_level(spec, profile.v, level)
