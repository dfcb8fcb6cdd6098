"""Exact base-B digit expansions and the digit statistics built from them.

Zero is represented by the empty digit string, so every statistic is 0 at
n = 0.  Digits are kept least-significant-first; rendering most-significant
-first is an I/O concern.

Every statistic is additive over digit levels: with P = B**j,
stat(h*P + r) = stat(h) + stat of r padded to j digits, for h >= 1.  The
array form ``digit_stat_block`` uses this to build the stats of a dense range
from two cached per-level tables of P entries each, instead of one pass over
the array per digit.  The scalar form ``digit_stat`` counts one n of any
size through a counter built once per (statistic, base) pair from the same
tables (``_counter``), which ``DigitStatPower`` binds once per sequence.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .errors import ValidationError

__all__ = [
    "check_base",
    "digits_of",
    "from_digits",
    "DigitStat",
    "digit_stat",
    "digit_stat_block",
    "thue_morse",
]


def check_base(base: int) -> int:
    if not isinstance(base, (int, np.integer)) or base < 2:
        raise ValidationError(f"base must be an integer >= 2, got {base!r}")
    return int(base)


def digits_of(n: int, base: int) -> list[int]:
    """Digits of n in the given base, least significant first; 0 -> []."""
    base = check_base(base)
    if n < 0:
        raise ValidationError(f"n must be nonnegative, got {n}")
    out = []
    n = int(n)
    while n > 0:
        n, d = divmod(n, base)
        out.append(d)
    return out


def from_digits(digits: list[int], base: int) -> int:
    """Inverse of digits_of (least significant first)."""
    base = check_base(base)
    n = 0
    for d in reversed(digits):
        n = n * base + d
    return n


@dataclass(frozen=True)
class DigitStat:
    """A statistic of the digit string: a count, the digit sum, or the length.

    kind is one of "count" (occurrences of any digit in `digits`),
    "digit_sum", or "length".
    """

    kind: str
    digits: frozenset[int] = field(default_factory=frozenset)

    @staticmethod
    def count(digit: int) -> "DigitStat":
        return DigitStat("count", frozenset({int(digit)}))

    @staticmethod
    def count_set(digits) -> "DigitStat":
        js = frozenset(int(j) for j in digits)
        if not js:
            raise ValidationError("digit set must be nonempty")
        return DigitStat("count", js)

    @staticmethod
    def digit_sum() -> "DigitStat":
        return DigitStat("digit_sum")

    @staticmethod
    def length() -> "DigitStat":
        return DigitStat("length")

    def check_for_base(self, base: int) -> None:
        if self.kind == "count":
            bad = [j for j in self.digits if not 0 <= j < base]
            if bad:
                raise ValidationError(
                    f"digits {sorted(bad)} out of range for base {base}"
                )


def digit_stat(n: int, stat: DigitStat, base: int) -> int:
    """Evaluate a digit statistic at a single n >= 0, of any size.

    Checks the base, the statistic against it (_check_stat) and the sign of
    n, then counts through the (statistic, base) pair's cached counter
    (_counter), the one scalar counting path, which DigitStatPower binds
    once per sequence.  All statistics are 0 at n = 0.  Unlike
    digit_stat_block, n is not limited to int64.
    """
    base = check_base(base)
    _check_stat(stat, base)
    n = int(n)
    if n < 0:
        raise ValidationError(f"n must be nonnegative, got {n}")
    return _counter(stat, base)(n)


def _per_digit_stats(ns: np.ndarray, stat: DigitStat, base: int) -> np.ndarray:
    """digit_stat over an int64 array, one full-array pass per digit.

    Serves sparse inputs, builds the level tables and is the reference the
    level-at-a-time path is tested against.
    """
    x = np.asarray(ns, dtype=np.int64).copy()
    out = np.zeros(x.shape, dtype=np.int64)
    if stat.kind == "count":
        member = np.zeros(base, dtype=bool)
        for j in stat.digits:
            member[j] = True
        while True:
            active = x > 0
            if not active.any():
                break
            out += member[x % base] & active
            x //= base
    elif stat.kind == "digit_sum":
        while (x > 0).any():
            out += x % base
            x //= base
    elif stat.kind == "length":
        while True:
            active = x > 0
            if not active.any():
                break
            out += active
            x //= base
    else:
        raise ValidationError(f"unknown digit statistic {stat.kind!r}")
    return out


_TABLE_LIMIT = 4096
# (statistic, base) pairs whose level tables and counters stay cached.  A
# pair's tables, as arrays and as the counter's lists, take up to ~95 KB, so a
# caller cycling through many statistics (one count per digit of base 4096,
# say) keeps ~24 MB of them, not ~390 MB.
_TABLE_CACHE = 256


@lru_cache(maxsize=_TABLE_CACHE)
def _check_stat(stat: DigitStat, base: int) -> None:
    """stat.check_for_base(base), once per passing (statistic, base) pair.

    Walking a count set of 10**6 digits takes ~45 ms, which digit_stat and
    digit_stat_block would otherwise pay on every call.  A failing pair
    raises and is not cached, so it raises again on the next call.
    """
    stat.check_for_base(base)


@lru_cache(maxsize=_TABLE_CACHE)
def _level_tables(stat: DigitStat, base: int) -> tuple[int, np.ndarray, np.ndarray]:
    """(P, natural, padded) for P = B**j, the largest power of B <= 4096.

    natural[r] is stat(r); padded[r] is the stat of r written with exactly j
    digits, i.e. as the low digit level of some n >= P.  Leading zeros count
    only for `length` and for counts that include digit 0.  Both tables are
    read-only, since every caller shares them.
    """
    p, j = base, 1
    while p * base <= _TABLE_LIMIT:
        p, j = p * base, j + 1
    r = np.arange(p, dtype=np.int64)
    natural = _per_digit_stats(r, stat, base)
    if stat.kind == "length":
        padded = np.full(p, j, dtype=np.int64)
    elif stat.kind == "count" and 0 in stat.digits:
        padded = natural + (j - _per_digit_stats(r, DigitStat.length(), base))
    else:
        padded = natural
    natural.flags.writeable = False
    padded.flags.writeable = False
    return p, natural, padded


@lru_cache(maxsize=_TABLE_CACHE)
def _counter(stat: DigitStat, base: int) -> Callable[[int], int]:
    """The function n -> stat(n) for Python ints n >= 0, built once per pair.

    Bases up to 4096 close over _level_tables as lists of Python ints, which
    index several times faster than arrays and yield ints: with P = B**j,
    each divmod(n, P) adds padded[r] and the last high part adds natural[n],
    so n < 2**53 takes ~5 steps in base 2.  Larger bases, whose one-digit
    level would not fit a table, take one divmod per digit.  The counter
    checks nothing: callers have validated the base, the statistic for that
    base and n >= 0 (digit_stat on every call, DigitStatPower once in its
    constructor, where it also binds the counter so that value() skips this
    cache).  An unknown kind raises here, when the counter is built.
    """
    if base <= _TABLE_LIMIT:
        p, natural, padded = _level_tables(stat, base)
        natural, padded = natural.tolist(), padded.tolist()

        def count_levels(n: int) -> int:
            out = 0
            while n >= p:
                n, r = divmod(n, p)
                out += padded[r]
            return out + natural[n]

        return count_levels
    weight = {
        "count": stat.digits.__contains__,
        "digit_sum": lambda d: d,
        "length": lambda d: 1,
    }.get(stat.kind)
    if weight is None:
        raise ValidationError(f"unknown digit statistic {stat.kind!r}")

    def count_digits(n: int) -> int:
        out = 0
        while n > 0:
            n, d = divmod(n, base)
            out += weight(d)
        return out

    return count_digits


def _range_stats(s: int, e: int, stat: DigitStat, base: int) -> np.ndarray:
    """stat over [s, e), as an outer sum of the high digits and the low level.

    n = h*P + r has stat(n) = stat(h) + padded[r] for h >= 1, and natural[r]
    for h = 0.  The high stats recurse over about (e - s)/P values.  The
    result may be a view of a cached table when e <= P.
    """
    p, natural, padded = _level_tables(stat, base)
    if e <= p:
        return natural[s:e]
    hs, he = s // p, -(-e // p)
    grid = _range_stats(hs, he, stat, base)[:, None] + padded[None, :]
    if hs == 0:
        grid[0] = natural
    return grid.ravel()[s - hs * p : e - hs * p]


def digit_stat_block(ns: np.ndarray, stat: DigitStat, base: int) -> np.ndarray:
    """Vectorized digit_stat over an int64 array of nonnegative n.

    A dense input, one whose values span fewer than twice as many integers
    as it holds (every block, profile and check in this package), is computed
    a digit level at a time over its range and gathered at the inputs; see
    _range_stats.  Sparse inputs, and bases above 4096 (whose one-digit level
    would not fit a table), take one full-array pass per digit.  The result
    is always a new array.
    """
    base = check_base(base)
    _check_stat(stat, base)
    x = np.asarray(ns, dtype=np.int64)
    if x.size and base <= _TABLE_LIMIT:
        lo, hi = int(x.min()), int(x.max())
        if lo >= 0 and hi - lo < 2 * x.size:
            return _range_stats(lo, hi + 1, stat, base)[x - lo]
    return _per_digit_stats(x, stat, base)


def thue_morse(n: int) -> int:
    """+1 or -1 according to the parity of the number of ones in binary n."""
    if n < 0:
        raise ValidationError(f"n must be nonnegative, got {n}")
    return -1 if int(n).bit_count() % 2 else 1
