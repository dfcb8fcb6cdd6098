"""Exponent sequences: constructors, evaluation, and structural checks.

Four families are supported.  All of them evaluate pointwise to complex
numbers and in vectorized blocks for the product and summatory machinery:

* ``StronglyMultiplicative``: u(0) = 1 and u(B*n + k) = u(n) * u(k), so the
  value at n is the product of table values over the base-B digits of n.
* ``DigitStatPower``: u(n) = w ** stat(n) for a digit statistic, with
  0**0 := 1.
* ``PeriodicPower``: u(n) = omega**n for omega = exp(2*pi*i*p/q), computed
  as exp(2*pi*i*p*(n mod q)/q) so that periodicity is exact.
* ``SignedResidue``: u(n) = signs[n mod period], a plain periodic table.

``value(n)`` takes one Python int n >= 0 of any size and raises
ValidationError for n < 0.  ``block(ns)`` takes an int64 array and does not
check its sign: every caller passes a range from 0.

``recursion_profile`` extracts the data (v(0..B-1), n0) of the weak digit
recursion u(B*n + k) = u(n) * v(k) for n >= 1, verifies it on a range, and
derives the partial sums of v and the growth exponent used by the tail
models downstream.  It also certifies, from the sequence's type and
parameters alone, whether the checked range proves the recursion for every
n >= 1 (``RecursionProfile.certified``).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from math import log

import numpy as np

from .digits import DigitStat, _check_stat, _counter, check_base, digit_stat_block
from .errors import (
    ConvergenceHypothesisViolated,
    HypothesisFailed,
    NoNonzeroSeed,
    ValidationError,
)

__all__ = [
    "StronglyMultiplicative",
    "DigitStatPower",
    "PeriodicPower",
    "SignedResidue",
    "ExponentSeq",
    "thue_morse_seq",
    "RecursionProfile",
    "recursion_profile",
    "StrongMultReport",
    "verify_strong_mult",
    "recursion_deviation",
]

CHECK_TOL = 1e-12
# The longest power table a DigitStatPower keeps: 2**15 entries (512 KB of
# complex128 array, ~1.3 MB of Python complexes) cover every statistic of an
# int64 n in bases up to 4096, whose digit sum is at most 6 * 4094 (base
# 4095).  A longer table is built for the call that needs it and dropped.
_POWER_TABLE_MAX = 2**15


def _as_complex_tuple(values) -> tuple[complex, ...]:
    return tuple(complex(v) for v in values)


def _nonnegative(n) -> int:
    n = int(n)
    if n < 0:
        raise ValidationError(f"n must be nonnegative, got {n}")
    return n


def _int_power_table(
    w: complex, m_max: int, real: bool
) -> tuple[tuple[complex, ...], np.ndarray]:
    """Powers w**0 .. w**m_max by iterated multiplication (no branch cuts).

    Returns them twice: as a tuple of Python complexes for scalar lookups and
    as a read-only float64 (real) or complex128 array for fancy indexing,
    both holding the same products.  Python's float and complex products
    round as numpy's do, so the tables match a numpy scalar loop bit for bit.
    Powers that overflow become inf or nan without a warning; callers check
    finiteness where it matters.
    """
    x = w.real if real else w
    p = 1.0 if real else complex(1.0)
    powers = [p]
    for _ in range(m_max):
        p = p * x
        powers.append(p)
    array = np.array(powers, dtype=np.float64 if real else np.complex128)
    array.flags.writeable = False  # shared by every caller
    return (tuple(map(complex, powers)) if real else tuple(powers)), array


@dataclass(frozen=True)
class StronglyMultiplicative:
    """Sequence defined by a table u(1), ..., u(B-1); u(0) = 1 is implicit."""

    base: int
    values: tuple[complex, ...]

    def __init__(self, base: int, values):
        object.__setattr__(self, "base", check_base(base))
        vals = _as_complex_tuple(values)
        if len(vals) != self.base - 1:
            raise ValidationError(
                f"table needs {self.base - 1} values for base {self.base}, "
                f"got {len(vals)}"
            )
        object.__setattr__(self, "values", vals)

    @cached_property
    def is_real(self) -> bool:
        return all(v.imag == 0.0 for v in self.values)

    @cached_property
    def _table(self) -> np.ndarray:
        dtype = np.float64 if self.is_real else np.complex128
        full = np.ones(self.base, dtype=dtype)
        for k, v in enumerate(self.values, start=1):
            full[k] = v.real if self.is_real else v
        return full

    def value(self, n: int) -> complex:
        re, im = 1.0, 0.0
        n = _nonnegative(n)
        while n > 0:
            n, d = divmod(n, self.base)
            if d:
                v = self.values[d - 1]
                re, im = re * v.real - im * v.imag, re * v.imag + im * v.real
        return complex(re, im)

    def block(self, ns: np.ndarray) -> np.ndarray:
        x = np.asarray(ns, dtype=np.int64).copy()
        if self.is_real:
            out = np.ones(x.shape)
            while (x > 0).any():
                out *= self._table[x % self.base]
                x //= self.base
            return out
        # the complex product spelled out in float64 ops, as value() and
        # Python's complex product compute it: numpy's complex multiply may
        # fuse them (FMA) and round differently
        tr, ti = self._table.real, self._table.imag
        re, im = np.ones(x.shape), np.zeros(x.shape)
        while (x > 0).any():
            d = x % self.base
            re, im = re * tr[d] - im * ti[d], re * ti[d] + im * tr[d]
            x //= self.base
        out = np.empty(x.shape, dtype=np.complex128)
        out.real, out.imag = re, im
        return out


@dataclass(frozen=True)
class DigitStatPower:
    """u(n) = w ** stat(n) for a digit statistic in the sequence's base.

    The constructor checks the statistic against the base and binds its
    counter (digits._counter), so value() counts with no cache lookup.
    The powers w**0 .. w**m are kept as one cached ``(values, array)`` pair
    built by _int_power_table from one list of products: value() indexes
    ``values``, a tuple of Python complexes, and block() indexes ``array``,
    so the two agree bit for bit by construction.  A statistic beyond the
    pair builds a new one at least twice as long, up to _POWER_TABLE_MAX
    entries, and rebinds it as one attribute; a statistic beyond that builds
    a pair for its call alone, which gives the same bits since every table
    multiplies up from w**0.  A pair is never extended in place, so calls on
    other threads only ever see a whole one.  Each call indexes the pair it
    read or built, so no lock is needed: two threads that rebuild at once
    cost a rebuild, not a wrong value.
    """

    base: int
    w: complex
    stat: DigitStat

    def __init__(self, base: int, w, stat: DigitStat):
        object.__setattr__(self, "base", check_base(base))
        object.__setattr__(self, "w", complex(w))
        _check_stat(stat, self.base)
        object.__setattr__(self, "stat", stat)
        object.__setattr__(self, "_count", _counter(stat, self.base))
        object.__setattr__(self, "_powers", ((), np.empty(0)))

    @cached_property
    def is_real(self) -> bool:
        return self.w.imag == 0.0

    def _powers_up_to(self, m_max: int) -> tuple[tuple[complex, ...], np.ndarray]:
        """The pair (values, array) of powers w**0 .. w**m for some m >= m_max."""
        powers = self._powers
        if m_max >= len(powers[0]):
            if m_max >= _POWER_TABLE_MAX:
                return _int_power_table(self.w, m_max, self.is_real)
            m = min(max(m_max, 2 * len(powers[0])), _POWER_TABLE_MAX - 1)
            powers = _int_power_table(self.w, m, self.is_real)
            object.__setattr__(self, "_powers", powers)
        return powers

    def value(self, n: int) -> complex:
        m = self._count(_nonnegative(n))
        return self._powers_up_to(m)[0][m]

    def block(self, ns: np.ndarray) -> np.ndarray:
        stats = digit_stat_block(ns, self.stat, self.base)
        return self._powers_up_to(int(stats.max(initial=0)))[1][stats]


@dataclass(frozen=True)
class PeriodicPower:
    """u(n) = omega**n with omega = exp(2*pi*i*p/q)."""

    base: int
    q: int
    p: int

    def __init__(self, base: int, q: int, p: int):
        object.__setattr__(self, "base", check_base(base))
        q, p = int(q), int(p)
        if not q > p > 0:
            raise ValidationError(f"need q > p > 0, got q={q}, p={p}")
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "p", p)

    @cached_property
    def is_real(self) -> bool:
        return 2 * self.p == self.q  # omega = -1

    @cached_property
    def _table(self) -> np.ndarray:
        rs = np.arange(self.q)
        tab = np.exp(2j * np.pi * self.p * rs / self.q)
        if self.is_real:
            return np.where(rs % 2 == 0, 1.0, -1.0)
        return tab

    @cached_property
    def _values(self) -> tuple[complex, ...]:
        return tuple(map(complex, self._table))

    def value(self, n: int) -> complex:
        return self._values[_nonnegative(n) % self.q]

    def block(self, ns: np.ndarray) -> np.ndarray:
        return self._table[np.asarray(ns, dtype=np.int64) % self.q]


@dataclass(frozen=True)
class SignedResidue:
    """u(n) = signs[n mod period]; covers hand-written periodic exponents."""

    base: int
    signs: tuple[complex, ...]

    def __init__(self, base: int, signs):
        object.__setattr__(self, "base", check_base(base))
        vals = _as_complex_tuple(signs)
        if not vals:
            raise ValidationError("signs table must be nonempty")
        object.__setattr__(self, "signs", vals)

    @property
    def period(self) -> int:
        return len(self.signs)

    @cached_property
    def is_real(self) -> bool:
        return all(v.imag == 0.0 for v in self.signs)

    @cached_property
    def _table(self) -> np.ndarray:
        dtype = np.float64 if self.is_real else np.complex128
        return np.array(
            [v.real if self.is_real else v for v in self.signs], dtype=dtype
        )

    def value(self, n: int) -> complex:
        return self.signs[_nonnegative(n) % self.period]

    def block(self, ns: np.ndarray) -> np.ndarray:
        return self._table[np.asarray(ns, dtype=np.int64) % self.period]


ExponentSeq = StronglyMultiplicative | DigitStatPower | PeriodicPower | SignedResidue


def thue_morse_seq() -> DigitStatPower:
    """The +-1 sequence (-1)**(number of binary ones of n)."""
    return DigitStatPower(2, -1, DigitStat.count(1))


@dataclass(frozen=True)
class StrongMultReport:
    passed: bool
    checked: int
    max_deviation: float
    first_failure: tuple[int, int] | None  # (n, k), lexicographically first

    def __bool__(self) -> bool:
        return self.passed


def recursion_deviation(
    u: np.ndarray, v, n_first: int
) -> tuple[float, tuple[int, int, float] | None]:
    """Deviations |u(B*n + k) - u(n) * v(k)| over n >= n_first, B*n + k < len(u).

    ``u`` holds u(0), u(1), ... and ``v`` the B = len(v) multipliers.
    Returns the largest deviation (0.0 when no index fits) and the
    lexicographically first (n, k, deviation) above CHECK_TOL, or None.
    """
    base = len(v)
    ns = np.arange(n_first, (len(u) - 1) // base + 1, dtype=np.int64)
    max_dev = 0.0
    first: tuple[int, int, float] | None = None
    for k in range(base):
        idx = base * ns + k
        sel = idx < len(u)
        dev = np.abs(u[idx[sel]] - u[ns[sel]] * v[k])
        if dev.size == 0:
            continue
        max_dev = max(max_dev, float(dev.max()))
        bad = np.nonzero(dev > CHECK_TOL)[0]
        if bad.size:
            n_bad = int(ns[sel][bad[0]])
            if first is None or (n_bad, k) < first[:2]:
                first = (n_bad, k, float(dev[bad[0]]))
    return max_dev, first


def verify_strong_mult(seq: ExponentSeq, limit: int) -> StrongMultReport:
    """Check u(0) = 1 and u(B*n + k) = u(n) * u(k) for all B*n + k <= limit.

    A failing check is a report, not an error.
    """
    base = seq.base
    if limit < base:
        raise ValidationError(f"limit must be >= base, got {limit} < {base}")
    u = seq.block(np.arange(limit + 1, dtype=np.int64))
    dev0 = float(abs(u[0] - 1.0))
    max_dev, first = recursion_deviation(u, u[:base], 0)
    if dev0 > CHECK_TOL:
        first = (0, 0, dev0)  # no (n, k) comes before u(0)
    failure = first[:2] if first is not None else None
    return StrongMultReport(failure is None, limit, max(dev0, max_dev), failure)


@dataclass(frozen=True)
class RecursionProfile:
    """Verified data of the digit recursion u(B*n + k) = u(n) * v(k), n >= 1.

    ``v_prefix`` holds the partial sums (0, v(0), v(0)+v(1), ...); its last
    entry is the full sum, whose modulus must stay below ``base`` for the
    products downstream to converge.  ``alpha`` is the growth exponent of the
    partial sums of u: 1/2 when |sum v| <= 1, else log|sum v| / log base.
    ``certified`` is True when the recursion checked on [0, checked] provably
    holds for every n >= 1 (see ``recursion_profile``).
    """

    base: int
    v: tuple[complex, ...]
    n0: int
    v_prefix: tuple[complex, ...]
    alpha: float
    u_bounded: bool
    v_bounded: bool
    checked: int
    certified: bool = False

    @property
    def v_total(self) -> complex:
        return self.v_prefix[-1]

    def require_unit_bounds(self) -> None:
        if not self.u_bounded:
            raise ValidationError("sequence values exceed modulus 1")
        if not self.v_bounded:
            raise ValidationError("recursion multipliers v(k) exceed modulus 1")

    def require_certified(self) -> None:
        """Raise HypothesisFailed unless the recursion holds for every n >= 1."""
        if not self.certified:
            raise HypothesisFailed(reason=(
                f"the base-{self.base} digit recursion is checked on "
                f"[0, {self.checked}] only, and the sequence's type does not "
                "extend it to every n >= 1"
            ))


def _recursion_certified(seq: ExponentSeq, base: int, checked: int) -> bool:
    """Whether the recursion, verified on [0, checked], holds for every n >= 1.

    Digit families: when B = b**j for the sequence's base b, the low j base-b
    digits of B*n + k are those of k, so u(B*n + k) = u(n) * u(k) for a
    strongly multiplicative u, and every digit statistic is additive over
    digit levels.  Periodic families: u(B*n + k) and u(n) * v(k) both have
    the sequence's period in n, so a window holding n = 1 .. period + 1 for
    every k decides all n.
    """
    if isinstance(seq, (StronglyMultiplicative, DigitStatPower)):
        power = seq.base
        while power < base:
            power *= seq.base
        return power == base
    period = seq.q if isinstance(seq, PeriodicPower) else seq.period
    return checked >= base * (period + 1) + base - 1


def recursion_profile(
    seq: ExponentSeq,
    limit: int | None = None,
    base: int | None = None,
) -> RecursionProfile:
    """Extract and verify the digit recursion profile of ``seq``.

    ``base`` defaults to the sequence's own base but may differ (a sequence
    can satisfy the recursion in a higher base as well).  The checked window
    [0, limit] must reach base**2; ``None`` means max(4096, base*(base+1)),
    which every base accepts.  Raises
    ValidationError when a value in the window is not finite, NoNonzeroSeed
    when every candidate seed value vanishes, HypothesisFailed when the
    recursion breaks, and ConvergenceHypothesisViolated when |sum v(k)| >= base.
    The returned ``certified`` flag costs no sequence values beyond the window.
    """
    b = check_base(base if base is not None else seq.base)
    limit = max(4096, b * (b + 1)) if limit is None else int(limit)
    if limit < b * b:
        raise ValidationError(f"limit must be >= base**2, got {limit} < {b * b}")
    # reading v(0..B-1) off a seed n0 >= B needs values up to B*n0 + B - 1
    limit = max(limit, b * (b + 1))

    with np.errstate(over="ignore", invalid="ignore"):
        u = seq.block(np.arange(limit + 1, dtype=np.int64))
    not_finite = np.flatnonzero(~np.isfinite(u))
    if not_finite.size:
        n_bad = int(not_finite[0])
        raise ValidationError(
            f"sequence value at n={n_bad} is not finite (u = {u[n_bad]})"
        )

    hi = min((limit - b + 1) // b, b + 64 * b)
    n0 = None
    for cand in range(b, hi + 1):
        if abs(u[cand]) > CHECK_TOL:
            n0 = cand
            break
    if n0 is None:
        raise NoNonzeroSeed(
            f"no nonzero value in seed window [{b}, {hi}] "
            "(sequence may be 1, 0, 0, ... or the window too short)"
        )

    v = tuple(complex(u[b * n0 + k] / u[n0]) for k in range(b))

    _, first = recursion_deviation(u, v, 1)
    if first is not None:
        raise HypothesisFailed(*first)

    u_bounded = bool(np.abs(u).max() <= 1.0 + CHECK_TOL)
    v_bounded = all(abs(val) <= 1.0 + CHECK_TOL for val in v)

    prefix = [complex(0.0)]
    for val in v:
        prefix.append(prefix[-1] + val)
    total = prefix[-1]
    if abs(total) >= b - 1e-9:
        raise ConvergenceHypothesisViolated(
            f"|sum of v(k)| = {abs(total):.6g} >= base {b}; "
            "the associated products may diverge"
        )
    alpha = 0.5 if abs(total) <= 1.0 else log(abs(total)) / log(b)

    return RecursionProfile(
        base=b,
        v=v,
        n0=n0,
        v_prefix=tuple(prefix),
        alpha=float(alpha),
        u_bounded=u_bounded,
        v_bounded=v_bounded,
        checked=limit,
        certified=_recursion_certified(seq, b, limit),
    )
