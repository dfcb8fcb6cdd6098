"""Exact base-B digit expansions and the digit statistics built from them.

Zero is represented by the empty digit string, so every statistic is 0 at
n = 0.  Digits are kept least-significant-first; rendering most-significant
-first is an I/O concern.

Every statistic is additive over digit levels: with P = B**j,
stat(h*P + r) = stat(h) + stat of r padded to j digits, for h >= 1.  The
array form ``digit_stat_block`` uses this to build the stats of a dense range
from two per-level tables of P entries each, instead of one pass over the
array per digit.  The scalar form ``digit_stat`` counts one n of any size
through a counter built from the same tables, which ``DigitStatPower`` binds
once per sequence.  Both read one cached record per (statistic, base) pair
(``_stat_record``), which checks the pair once and holds its tables and
counter.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .errors import ValidationError

__all__ = [
    "check_base",
    "check_nonnegative",
    "digits_of",
    "DigitStat",
    "digit_stat",
    "digit_stat_block",
    "thue_morse",
]


def check_base(base: int) -> int:
    if not isinstance(base, (int, np.integer)) or base < 2:
        raise ValidationError(f"base must be an integer >= 2, got {base!r}")
    return int(base)


def check_nonnegative(n) -> int:
    """n as an int, or ValidationError if it is negative."""
    n = int(n)
    if n < 0:
        raise ValidationError(f"n must be nonnegative, got {n}")
    return n


def digits_of(n: int, base: int) -> list[int]:
    """Digits of n in the given base, least significant first; 0 -> []."""
    base = check_base(base)
    n = check_nonnegative(n)
    out = []
    while n > 0:
        n, d = divmod(n, base)
        out.append(d)
    return out


@dataclass(frozen=True)
class DigitStat:
    """A statistic of the digit string: a count or the digit sum.

    kind is one of "count" (occurrences of any digit in `digits`) or
    "digit_sum".
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

    def check_for_base(self, base: int) -> None:
        if self.kind not in ("count", "digit_sum"):
            raise ValidationError(f"unknown digit statistic {self.kind!r}")
        if self.kind == "count":
            bad = [j for j in self.digits if not 0 <= j < base]
            if bad:
                raise ValidationError(
                    f"digits {sorted(bad)} out of range for base {base}"
                )


def digit_stat(n: int, stat: DigitStat, base: int) -> int:
    """Evaluate a digit statistic at a single n >= 0, of any size (not only int64).

    Counts through the counter of the pair's _stat_record, the one scalar
    counting path, which DigitStatPower binds once per sequence.  All
    statistics are 0 at n = 0.
    """
    base = check_base(base)
    count = _stat_record(stat, base).count
    return count(check_nonnegative(n))


def _digit_weight(stat: DigitStat, base: int) -> Callable[[np.ndarray], np.ndarray]:
    """The function from an int64 array of base-B digits to what each adds to stat.

    1 per digit in a count's set, the digit for the digit sum.
    """
    if stat.kind == "count":
        member = np.zeros(base, dtype=bool)
        member[list(stat.digits)] = True
        return member.__getitem__
    return lambda d: d


def _per_digit_stats(ns: np.ndarray, stat: DigitStat, base: int) -> np.ndarray:
    """digit_stat over an int64 array, one full-array pass per digit.

    Serves sparse inputs, builds the level tables and is the reference the
    level-at-a-time path is tested against.
    """
    weight = _digit_weight(stat, base)
    x = np.asarray(ns, dtype=np.int64).copy()
    out = np.zeros(x.shape, dtype=np.int64)
    while True:
        active = x > 0
        if not active.any():
            break
        out += weight(x % base) * active
        x //= base
    return out


_TABLE_LIMIT = 4096
# (statistic, base) pairs whose records stay cached.  A count's record takes
# ~130 KB (tables as arrays and as the counter's lists), so one count per
# digit of base 4096, say, keeps ~33 MB of them, not ~530 MB.
_TABLE_CACHE = 256


class _StatRecord(NamedTuple):
    """A checked (statistic, base) pair: its level tables and scalar counter.

    With P = B**j the largest power of B <= 4096, natural[r] is stat(r) and
    padded[r] the stat of r written with exactly j digits, i.e. as the low
    digit level of some n >= P; both are read-only, since every caller
    shares them.  Bases above 4096 have p = 0 and no tables.  count is the
    function n -> stat(n) for Python ints n >= 0; it checks nothing.
    """

    p: int
    natural: np.ndarray | None
    padded: np.ndarray | None
    count: Callable[[int], int]


@lru_cache(maxsize=_TABLE_CACHE)
def _stat_record(stat: DigitStat, base: int) -> _StatRecord:
    """The _StatRecord of a pair, built once after stat.check_for_base(base).

    A count set of 10**6 digits takes ~45 ms to check.  A failing pair, or an
    unknown kind, raises and is not cached.  The counter of a base up to
    4096 adds padded[r] per divmod(n, P) and natural[n] for the last high
    part (~5 steps for n < 2**53 in base 2), from lists of Python ints,
    which index several times faster than arrays.  Larger bases, whose
    one-digit level would not fit a table, take one divmod per digit.
    """
    stat.check_for_base(base)
    if base > _TABLE_LIMIT:
        weight = stat.digits.__contains__ if stat.kind == "count" else (lambda d: d)

        def count_digits(n: int) -> int:
            out = 0
            while n > 0:
                n, d = divmod(n, base)
                out += weight(d)
            return out

        return _StatRecord(0, None, None, count_digits)

    p = base
    while p * base <= _TABLE_LIMIT:
        p *= base
    r = np.arange(p, dtype=np.int64)
    natural = _per_digit_stats(r, stat, base)
    # P + r is r written with j digits under a digit 1: stat(1) + padded[r]
    padded = _per_digit_stats(p + r, stat, base) - natural[1]
    natural.flags.writeable = False
    padded.flags.writeable = False
    natural_list, padded_list = natural.tolist(), padded.tolist()

    def count_levels(n: int) -> int:
        out = 0
        while n >= p:
            n, r = divmod(n, p)
            out += padded_list[r]
        return out + natural_list[n]

    return _StatRecord(p, natural, padded, count_levels)


def _range_stats(s: int, e: int, record: _StatRecord) -> np.ndarray:
    """stat over [s, e), as an outer sum of the high digits and the low level.

    n = h*P + r has stat(n) = stat(h) + padded[r] for h >= 1, and natural[r]
    for h = 0.  The high stats recurse over about (e - s)/P values.  The
    result may be a view of a cached table when e <= P.
    """
    p, natural, padded, _ = record
    if e <= p:
        return natural[s:e]
    hs, he = s // p, -(-e // p)
    grid = _range_stats(hs, he, record)[:, None] + padded[None, :]
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
    record = _stat_record(stat, base)
    x = np.asarray(ns, dtype=np.int64)
    if x.size and record.p:
        lo, hi = int(x.min()), int(x.max())
        if lo >= 0 and hi - lo < 2 * x.size:
            return _range_stats(lo, hi + 1, record)[x - lo]
    return _per_digit_stats(x, stat, base)


def thue_morse(n: int) -> int:
    """+1 or -1 according to the parity of the number of ones in binary n."""
    return -1 if check_nonnegative(n).bit_count() % 2 else 1
