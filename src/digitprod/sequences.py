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
recursion u(B*n + k) = u(n) * v(k) for n >= 1, keeps the head u(0..B-1)
that the recursion does not determine, and derives the partial sums of v
and of the head and the growth exponent used downstream.  The
sequence's type and parameters decide first which window [0, W] proves the
recursion for every n >= 1 (``_certifying_window``); when none does, or
only one longer than allowed, it refuses before computing any value.  A
digit family in a power of its own base has W = 0: its type proves the
recursion, so only u(0..B-1) and the row u(B*n0 + k) that v is read from
are computed, and nothing is checked.  A periodic family's recursion is
checked on [0, W].  A ``RecursionProfile`` cannot be built with |sum v|
>= B or with values above modulus 1, so every profile is a proof of the
hypotheses the products and sums need, and no consumer checks them.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate
from math import copysign, gcd, inf, log

import numpy as np

from .digits import (DigitStat, _stat_record, check_base, check_nonnegative,
                     digit_stat_block)
from .errors import (
    ConvergenceHypothesisViolated,
    HypothesisFailed,
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
        n = check_nonnegative(n)
        if self.is_real:  # in floats, as block() multiplies its float64 table
            x = 1.0
            while n > 0:
                n, d = divmod(n, self.base)
                if d:
                    x *= self.values[d - 1].real
            return complex(x)
        re, im = 1.0, 0.0
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
        values = self._powers[0]
        if m >= len(values):
            values = self._kept_powers(m)[0]
        if m < len(values):
            return values[m]
        # past the cap: continue the kept chain for this call
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
    """u(n) = signs[n mod period]; covers hand-written periodic exponents.

    The table is kept at its least period: the shortest prefix whose
    repetition gives it, compared by repr so that zero signs are kept.
    """

    base: int
    signs: tuple[complex, ...]

    def __init__(self, base: int, signs):
        object.__setattr__(self, "base", check_base(base))
        vals = _as_complex_tuple(signs)
        if not vals:
            raise ValidationError("signs table must be nonempty")
        keys = list(map(repr, vals))
        period = next(p for p in range(1, len(keys) + 1)
                      if len(keys) % p == 0 and keys == keys[:p] * (len(keys) // p))
        object.__setattr__(self, "signs", vals[:period])

    @property
    def period(self) -> int:
        return len(self.signs)

    @cached_property
    def is_real(self) -> bool:
        # a -0.0 imaginary part is kept, so block() returns value()'s bits
        return all(v.imag == 0.0 and copysign(1.0, v.imag) > 0 for v in self.signs)

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


@dataclass(frozen=True)
class RecursionProfile:
    """Proven data of the digit recursion u(B*n + k) = u(n) * v(k), n >= 1.

    The fields are what ``recursion_profile`` read: the multipliers ``v``,
    the seed ``n0`` they were read at (the first n in [1, B) with u(n) != 0,
    or 1 when u vanishes there), and the ``head`` u(0), ..., u(B-1), which
    the recursion (n >= 1) does not determine.  Construction enforces the
    hypotheses of the products and sums built on it, so every consumer may
    rely on them: ConvergenceHypothesisViolated unless |sum v(k)| < B, and
    ValidationError unless every |u(k)|, k < B, and every |v(k)| is at most
    1 within CHECK_TOL; with |v(k)| <= 1 the head bounds every |u(n)|.  The
    rest derives from the fields, so it cannot disagree with them:
    ``head_prefix``, the partial sums F(0), ..., F(B) of u; ``v_prefix``,
    the partial sums (0, v(0), v(0)+v(1), ...); ``v_total``, their last
    entry; and ``alpha``, the growth exponent of the partial sums of u, 1/2
    when |v_total| <= 1 within CHECK_TOL, else log|v_total| / log base.
    """

    base: int
    v: tuple[complex, ...]
    n0: int
    head: tuple[complex, ...]

    def __post_init__(self):
        total = abs(self.v_total)
        if total >= self.base - 1e-9:
            raise ConvergenceHypothesisViolated(
                f"|sum of v(k)| = {total:.6g} >= base {self.base}; "
                "the associated products may diverge"
            )
        if not all(abs(x) <= 1.0 + CHECK_TOL for x in self.head):
            raise ValidationError("sequence values exceed modulus 1")
        if not all(abs(x) <= 1.0 + CHECK_TOL for x in self.v):
            raise ValidationError("recursion multipliers v(k) exceed modulus 1")

    @cached_property
    def head_prefix(self) -> tuple[complex, ...]:
        return tuple(accumulate(self.head, initial=complex(0.0)))

    @cached_property
    def v_prefix(self) -> tuple[complex, ...]:
        return tuple(accumulate(self.v, initial=complex(0.0)))

    @property
    def v_total(self) -> complex:
        return self.v_prefix[-1]

    @property
    def alpha(self) -> float:
        total = abs(self.v_total)
        return 0.5 if total <= 1.0 + CHECK_TOL else log(total) / log(self.base)


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


def _read(seq: ExponentSeq, ns: np.ndarray) -> np.ndarray:
    """seq.block(ns); ValidationError at the first value that is not finite."""
    with np.errstate(over="ignore", invalid="ignore"):
        u = seq.block(ns)
    not_finite = np.flatnonzero(~np.isfinite(u))
    if not_finite.size:
        i = not_finite[0]
        raise ValidationError(f"sequence value at n={ns[i]} is not finite (u = {u[i]})")
    return u


def recursion_profile(
    seq: ExponentSeq,
    limit: int | None = None,
    base: int | None = None,
) -> RecursionProfile:
    """Extract and prove the digit recursion profile of ``seq``.

    ``base`` defaults to the sequence's own base but may differ (a sequence
    can satisfy the recursion in a higher base as well).  Before any value
    is computed, the sequence's type decides which window [0, W] proves the
    recursion for every n >= 1 (``_certifying_window``): HypothesisFailed
    when none does, or when W is longer than the one allowed, max(4096,
    B*(B+1)) by default or max(limit, B*(B+1)) for an explicit ``limit``,
    which must reach base**2.  The seed n0 is the first n in [1, B) with
    u(n) != 0, and v(k) = u(B*n0 + k) / u(n0); when u vanishes on [1, B),
    n0 = 1 and v = 0.  The head u(0), ..., u(B-1) is kept from the same
    read.  A digit family in a power of its own base (W = 0)
    reads only u(0), ..., u(B-1) and u(B*n0 + k), k < B, and checks no
    recursion: its type proves it.  A periodic family reads [0, W], which
    holds every u(B*n0 + k), and checks the recursion on it.  Raises
    ValidationError at the first value read that is not finite and
    HypothesisFailed when the recursion breaks on [0, W]; then the
    profile's construction refuses |sum v(k)| >= base and values of the
    head or of v above modulus 1 (``RecursionProfile``).
    """
    b = check_base(base if base is not None else seq.base)
    if limit is not None:
        limit = int(limit)
        if limit < b * b:
            raise ValidationError(f"limit must be >= base**2, got {limit} < {b * b}")
    allowed = max(4096 if limit is None else limit, b * (b + 1))
    window = _certifying_window(seq, b)
    if window is None:
        raise HypothesisFailed(
            reason=f"a base-{seq.base} digit family has no digit recursion in base {b}")
    if window > allowed:
        raise HypothesisFailed(reason=(
            f"the base-{b} digit recursion can be checked on [0, {allowed}] only, "
            f"and proving it for every n >= 1 needs [0, {window}]"
        ))

    u = _read(seq, np.arange(window + 1 if window else b, dtype=np.int64))
    n0 = next((n for n in range(1, b) if u[n] != 0), None)
    if n0 is None:  # u(n) = 0 for every n >= 1, if the recursion holds
        n0, v = 1, (0j,) * b
    else:
        if window:
            row = u[b * n0:b * n0 + b]
        else:
            row = _read(seq, b * n0 + np.arange(b, dtype=np.int64))
        with np.errstate(over="ignore"):  # a v(k) that overflows reaches the checks as inf
            v = tuple(complex(x / u[n0]) for x in row)

    if window:  # n = 1 .. period + 1 for every k decides all n >= 1
        ns = np.arange(1, (window + 1) // b, dtype=np.int64)
        with np.errstate(over="ignore", invalid="ignore"):
            predicted = u[ns, None] * np.array(v)
            dev = np.abs(u[b * ns[:, None] + np.arange(b)] - predicted)
            broken = np.argwhere(recursion_breaks(dev, np.abs(predicted)))
        if broken.size:  # row-major: the lexicographically first (n, k)
            i, k = broken[0]
            raise HypothesisFailed(int(ns[i]), int(k), float(dev[i, k]))

    return RecursionProfile(base=b, v=v, n0=n0, head=_as_complex_tuple(u[:b]))
