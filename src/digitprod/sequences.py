"""Exponent sequences: constructors, evaluation, and structural checks.

Four families are supported.  All of them evaluate pointwise to complex
numbers and in vectorized blocks for the product and summatory machinery:

* ``StronglyMultiplicative``: u(0) = 1 and u(B*n + k) = u(n) * u(k), so the
  value at n is the product of table values over the base-B digits of n.
* ``DigitStatPower``: u(n) = w ** stat(n) for a digit statistic, with
  0**0 := 1.
* ``PeriodicPower``: u(n) = omega**n for omega = exp(2*pi*i*p/q), with p/q
  kept in lowest terms, computed as exp(2*pi*i*p*(n mod q)/q) so that
  periodicity is exact and q is the sequence's period.
* ``SignedResidue``: u(n) = signs[n mod period], a plain periodic table.

``value(n)`` takes one Python int n >= 0 of any size and raises
ValidationError for n < 0.  ``block(ns)`` takes an int64 array and does not
check its sign: every caller passes a range from 0.

``recursion_profile`` extracts the data (v(0..B-1), n0) of the weak digit
recursion u(B*n + k) = u(n) * v(k) for n >= 1, verifies it on a range, and
derives the partial sums of v and the growth exponent used by the tail
models downstream.  It returns a profile only when the checked range proves
the recursion for every n >= 1, which the sequence's type and parameters
decide (``_certifying_window``); by default it checks only the window that
does.  So every ``RecursionProfile`` is a proof, and no consumer checks it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate
from math import gcd, inf, log

import numpy as np

from .digits import (DigitStat, _stat_record, check_base, check_nonnegative,
                     digit_stat_block)
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
    "recursion_breaks",
    "recursion_deviation",
]

CHECK_TOL = 1e-12
# The longest power table a DigitStatPower keeps: 2**15 entries (512 KB of
# complex128 array, ~1.3 MB of Python complexes) cover every statistic of an
# int64 n in bases up to 4096, whose digit sum is at most 6 * 4094 (base
# 4095).  A larger statistic continues from the kept table for its call alone.
_POWER_TABLE_MAX = 2**15
_Powers = tuple[tuple[complex, ...], np.ndarray]
_NO_POWERS: _Powers = ((), np.empty(0))


def _as_complex_tuple(values) -> tuple[complex, ...]:
    return tuple(complex(v) for v in values)


def _int_power_table(
    w: complex, m_max: int, real: bool, kept: _Powers = _NO_POWERS
) -> _Powers:
    """Powers w**0 .. w**m_max by iterated multiplication (no branch cuts).

    Returns them twice: as a tuple of Python complexes for scalar lookups and
    as a read-only float64 (real) or complex128 array for fancy indexing,
    both holding the same products.  Python's float and complex products
    round as numpy's do, so the tables match a numpy scalar loop bit for bit.
    A ``kept`` pair that this function returned for the same w and real is
    continued from its last product, not rebuilt: each power is the one
    before it times w, so the result is bitwise the table built from w**0.
    Powers that overflow become inf or nan without a warning; callers check
    finiteness where it matters.
    """
    values, array = kept
    x = w.real if real else w
    p = array[-1].item() if values else (1.0 if real else complex(1.0))
    powers = [] if values else [p]
    for _ in range(m_max + 1 - len(values) - len(powers)):
        p = p * x
        powers.append(p)
    new = np.array(powers, dtype=np.float64 if real else np.complex128)
    array = np.concatenate((array, new))  # an empty float64 array takes new's dtype
    array.flags.writeable = False  # shared by every caller
    return values + (tuple(map(complex, powers)) if real else tuple(powers)), array


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
        n = check_nonnegative(n)
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
        # fuse them (FMA) and round differently.  Digits 0 are skipped, as in
        # value(): a factor 1 can still flip a zero's sign or an inf to nan
        tr, ti = self._table.real, self._table.imag
        re, im = np.ones(x.shape), np.zeros(x.shape)
        while (x > 0).any():
            d = x % self.base
            re, im = (np.where(d > 0, re * tr[d] - im * ti[d], re),
                      np.where(d > 0, re * ti[d] + im * tr[d], im))
            x //= self.base
        out = np.empty(x.shape, dtype=np.complex128)
        out.real, out.imag = re, im
        return out


@dataclass(frozen=True)
class DigitStatPower:
    """u(n) = w ** stat(n) for a digit statistic in the sequence's base.

    The constructor checks the statistic against the base and binds the
    counter of its digits._stat_record, so value() counts with no cache
    lookup.  The powers w**0 .. w**m are one chain of products, kept as one
    ``(values, array)`` pair from _int_power_table: value() indexes
    ``values``, a tuple of Python complexes, and block() indexes ``array``,
    so the two agree bit for bit.  A statistic beyond the pair continues the
    chain into a new pair at least twice as long, up to _POWER_TABLE_MAX
    entries; one beyond that continues it for its call alone, in Python
    scalars in value() and as a dropped table in block().  Each power is the
    one before it times w, so every path gives the bits of one table built
    from w**0.  The pair is rebound whole, never extended in place, and each
    call indexes the pair it read or built, so threads need no lock: two
    that grow it at once cost a rebuild, not a wrong value.
    """

    base: int
    w: complex
    stat: DigitStat

    def __init__(self, base: int, w, stat: DigitStat):
        object.__setattr__(self, "base", check_base(base))
        object.__setattr__(self, "w", complex(w))
        object.__setattr__(self, "_count", _stat_record(stat, self.base).count)
        object.__setattr__(self, "stat", stat)
        object.__setattr__(self, "_powers", _NO_POWERS)

    @cached_property
    def is_real(self) -> bool:
        return self.w.imag == 0.0

    def _kept_powers(self, m_max: int) -> _Powers:
        """The kept pair, first grown to hold w**m_max or, past the cap, to the cap."""
        powers = self._powers
        if m_max >= len(powers[0]) < _POWER_TABLE_MAX:
            m = min(max(m_max, 2 * len(powers[0])), _POWER_TABLE_MAX - 1)
            powers = _int_power_table(self.w, m, self.is_real, powers)
            object.__setattr__(self, "_powers", powers)
        return powers

    def value(self, n: int) -> complex:
        m = self._count(check_nonnegative(n))
        try:
            return self._kept_powers(m)[0][m]
        except IndexError:  # past the cap: continue the kept chain for this call
            values = self._powers[0]
            x, p = (self.w.real, values[-1].real) if self.is_real else (self.w, values[-1])
            for _ in range(m + 1 - len(values)):
                p = p * x
            return complex(p)

    def block(self, ns: np.ndarray) -> np.ndarray:
        stats = digit_stat_block(ns, self.stat, self.base)
        m = int(stats.max(initial=0))
        powers = self._kept_powers(m)
        if m >= len(powers[0]):
            powers = _int_power_table(self.w, m, self.is_real, powers)
        return powers[1][stats]


@dataclass(frozen=True)
class PeriodicPower:
    """u(n) = omega**n with omega = exp(2*pi*i*p/q), p/q in lowest terms."""

    base: int
    q: int
    p: int

    def __init__(self, base: int, q: int, p: int):
        object.__setattr__(self, "base", check_base(base))
        q, p = int(q), int(p)
        if not q > p > 0:
            raise ValidationError(f"need q > p > 0, got q={q}, p={p}")
        g = gcd(q, p)
        object.__setattr__(self, "q", q // g)
        object.__setattr__(self, "p", p // g)

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
        return self._values[check_nonnegative(n) % self.q]

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
        return self.signs[check_nonnegative(n) % self.period]

    def block(self, ns: np.ndarray) -> np.ndarray:
        return self._table[np.asarray(ns, dtype=np.int64) % self.period]


ExponentSeq = StronglyMultiplicative | DigitStatPower | PeriodicPower | SignedResidue


def thue_morse_seq() -> DigitStatPower:
    """The +-1 sequence (-1)**(number of binary ones of n)."""
    return DigitStatPower(2, -1, DigitStat.count(1))


def recursion_breaks(dev, size):
    """Whether |u(B*n + k) - u(n) * v(k)| = dev breaks the digit recursion at
    |u(n) * v(k)| = size, for floats or arrays: it must stay within
    CHECK_TOL * max(1, size), and an overflowing product (dev = inf) breaks it."""
    return (dev > CHECK_TOL) & ((dev > CHECK_TOL * size) | (dev == inf))


def recursion_deviation(
    u: np.ndarray, v, n_first: int
) -> tuple[float, tuple[int, int, float] | None]:
    """Deviations |u(B*n + k) - u(n) * v(k)| over n >= n_first, B*n + k < len(u).

    ``u`` holds u(0), u(1), ... and ``v`` the B = len(v) multipliers.
    Returns the largest deviation (0.0 when no index fits) and the
    lexicographically first (n, k, deviation) that breaks the recursion, or None.
    """
    base = len(v)
    ns = np.arange(n_first, (len(u) - 1) // base + 1, dtype=np.int64)
    max_dev = 0.0
    first: tuple[int, int, float] | None = None
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(base):
            idx = base * ns + k
            sel = idx < len(u)
            predicted = u[ns[sel]] * v[k]
            dev = np.abs(u[idx[sel]] - predicted)
            top = float(dev.max(initial=0.0))
            max_dev = max(max_dev, top)
            if top <= CHECK_TOL:  # within every bound: nothing breaks
                continue
            bad = np.flatnonzero(recursion_breaks(dev, np.abs(predicted)))
            if bad.size:
                n_bad = int(ns[sel][bad[0]])
                if first is None or (n_bad, k) < first[:2]:
                    first = (n_bad, k, float(dev[bad[0]]))
    return max_dev, first


@dataclass(frozen=True)
class RecursionProfile:
    """Verified data of the digit recursion u(B*n + k) = u(n) * v(k), n >= 1.

    The fields are what ``recursion_profile`` measured: the multipliers
    ``v``, the seed ``n0`` they were read at, and whether |u| <= 1 held on
    the checked window [0, ``checked``], which proves the recursion for
    every n >= 1.  The rest derives from ``v``, so it cannot disagree with
    it: ``v_prefix``, the partial sums (0, v(0), v(0)+v(1), ...);
    ``v_total``, their last entry, whose modulus stays below ``base`` for
    the products downstream to converge; ``alpha``, the growth exponent of
    the partial sums of u, 1/2 when |v_total| <= 1, else
    log|v_total| / log base; and ``v_bounded``.
    """

    base: int
    v: tuple[complex, ...]
    n0: int
    u_bounded: bool
    checked: int

    @cached_property
    def v_prefix(self) -> tuple[complex, ...]:
        return tuple(accumulate(self.v, initial=complex(0.0)))

    @property
    def v_total(self) -> complex:
        return self.v_prefix[-1]

    @property
    def alpha(self) -> float:
        total = abs(self.v_total)
        return 0.5 if total <= 1.0 else log(total) / log(self.base)

    @property
    def v_bounded(self) -> bool:
        return all(abs(val) <= 1.0 + CHECK_TOL for val in self.v)

    def require_unit_bounds(self) -> None:
        if not self.u_bounded:
            raise ValidationError("sequence values exceed modulus 1")
        if not self.v_bounded:
            raise ValidationError("recursion multipliers v(k) exceed modulus 1")


def _certifying_window(seq: ExponentSeq, base: int) -> int | None:
    """W such that the recursion checked on [0, W] or more holds for every n >= 1.

    Digit families: when B = b**j for the sequence's base b, the low j base-b
    digits of B*n + k are those of k, so u(B*n + k) = u(n) * u(k) for a
    strongly multiplicative u, and every digit statistic is additive over
    digit levels; the type alone proves the recursion, so W = 0.  In any
    other base it proves nothing: None.  Periodic families: u(B*n + k) and
    u(n) * v(k) both have the sequence's period in n, so a window holding
    n = 1 .. period + 1 for every k decides all n: W = B*(period + 1) + B - 1.
    """
    if isinstance(seq, (StronglyMultiplicative, DigitStatPower)):
        power = seq.base
        while power < base:
            power *= seq.base
        return 0 if power == base else None
    period = seq.q if isinstance(seq, PeriodicPower) else seq.period
    return base * (period + 1) + base - 1


def _window_values(seq: ExponentSeq, limit: int) -> np.ndarray:
    """u(0), ..., u(limit); ValidationError at the first value that is not finite."""
    with np.errstate(over="ignore", invalid="ignore"):
        u = seq.block(np.arange(limit + 1, dtype=np.int64))
    not_finite = np.flatnonzero(~np.isfinite(u))
    if not_finite.size:
        n_bad = int(not_finite[0])
        raise ValidationError(
            f"sequence value at n={n_bad} is not finite (u = {u[n_bad]})"
        )
    return u


def recursion_profile(
    seq: ExponentSeq,
    limit: int | None = None,
    base: int | None = None,
) -> RecursionProfile:
    """Extract and verify the digit recursion profile of ``seq``.

    ``base`` defaults to the sequence's own base but may differ (a sequence
    can satisfy the recursion in a higher base as well).  An explicit window
    [0, limit] must reach base**2.  ``None`` picks the least window that
    certifies the recursion (``_certifying_window``) and holds [0, B*(B+1)];
    max(4096, B*(B+1)) when that one is larger or the type certifies none.
    The seed n0 is the first n in [B, 65*B] whose value(n) is not within
    CHECK_TOL of 0 (one that is not finite counts) and, for an explicit
    window, whose multiples B*n + k, k < B, it holds; a default one grows to
    them.  The window's values are computed once: v(k) = u(B*n0 + k) / u(n0)
    is read from them and the recursion checked on all of them.  Raises
    ValidationError when one is not finite, else NoNonzeroSeed when no seed
    is found, HypothesisFailed when the recursion breaks,
    ConvergenceHypothesisViolated when |sum v(k)| >= base, and
    HypothesisFailed when the checked window does not certify the recursion.
    """
    b = check_base(base if base is not None else seq.base)
    hi = b + 64 * b  # the last seed candidate
    window = _certifying_window(seq, b)
    if limit is None:
        limit = max(4096, b * (b + 1))
        if window is not None and window <= limit:
            limit = max(window, b * (b + 1))
    else:
        limit = int(limit)
        if limit < b * b:
            raise ValidationError(f"limit must be >= base**2, got {limit} < {b * b}")
        # reading v(0..B-1) off a seed n0 >= B needs values up to B*n0 + B - 1
        limit = max(limit, b * (b + 1))
        hi = min((limit - b + 1) // b, hi)

    n0 = next((n for n in range(b, hi + 1) if not abs(seq.value(n)) <= CHECK_TOL), None)
    if n0 is None:
        _window_values(seq, limit)  # a value that is not finite is reported first
        raise NoNonzeroSeed(
            f"no nonzero value in seed window [{b}, {hi}] "
            "(sequence may be 1, 0, 0, ... or the window too short)"
        )
    limit = max(limit, b * n0 + b - 1)  # grows only a default window
    u = _window_values(seq, limit)
    with np.errstate(over="ignore"):  # a v(k) that overflows reaches the checks as inf
        v = tuple(complex(u[b * n0 + k] / u[n0]) for k in range(b))

    _, first = recursion_deviation(u, v, 1)
    if first is not None:
        raise HypothesisFailed(*first)

    profile = RecursionProfile(
        base=b,
        v=v,
        n0=n0,
        u_bounded=bool(np.abs(u).max() <= 1.0 + CHECK_TOL),
        checked=limit,
    )
    total = abs(profile.v_total)
    if total >= b - 1e-9:
        raise ConvergenceHypothesisViolated(
            f"|sum of v(k)| = {total:.6g} >= base {b}; "
            "the associated products may diverge"
        )
    if window is None or window > limit:
        raise HypothesisFailed(reason=(
            f"the base-{b} digit recursion is checked on [0, {limit}] only, "
            "and the sequence's type does not extend it to every n >= 1"
        ))
    return profile
