"""Partial sums F(N) = sum_{n < N} u(n): direct, recursive, and growth checks.

The recursive evaluator peels base-B digits using the identity

    F(B*M + b) = F(B) + (F(M) - u(0)) * S + u(M) * G(b),

where S is the full sum of the recursion multipliers v(k) and G(b) their
partial sum below b.  F(B), u(0) and the base case F(M), M < B, come from
the recursion profile's head u(0), ..., u(B-1), which ``recursion_profile``
read with v: the recursion constrains only n >= 1.  The pass down the
digits of N makes one divmod per digit and carries u(M) along the
prefixes, u(B*M + r) = u(M) * v(r), from the shortest, u(M) with
1 <= M < B, taken from the same head; so it makes no value() call and
costs O(log N).  G(0) = 0, so a zero digit adds no term.  The only value()
calls are the spot checks of the recursion, and ``growth_check`` sums all
its checkpoints with one set of them.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import exp, log

import numpy as np

from .digits import check_nonnegative
from .errors import ProfileMismatch, ValidationError
from .products import _BLOCK
from .sequences import ExponentSeq, RecursionProfile, recursion_breaks

__all__ = [
    "partial_sum_direct",
    "partial_sum_recursive",
    "GrowthReport",
    "growth_check",
]


def partial_sum_direct(seq: ExponentSeq, n: int) -> complex:
    """F(n) by direct summation, O(n) with vectorized blocks."""
    n = check_nonnegative(n)
    total = complex(0.0)
    for s in range(0, n, _BLOCK):
        e = min(s + _BLOCK, n)
        total += complex(seq.block(np.arange(s, e, dtype=np.int64)).sum())
    return total


def _spot_check(profile: RecursionProfile, seq: ExponentSeq, ms) -> None:
    b = profile.base
    for m in ms:
        um = seq.value(m)
        for k in (0, b - 1):
            predicted = um * profile.v[k]
            dev = abs(seq.value(b * m + k) - predicted)
            if recursion_breaks(dev, abs(predicted)):
                raise ProfileMismatch(
                    f"recursion fails at n={m}, k={k} (deviation {dev:.3e})"
                )


def _partial_sums(profile: RecursionProfile, seq: ExponentSeq, ns) -> list[complex]:
    """F(n) for each n in ``ns``, with one spot check for all."""
    ns = [check_nonnegative(n) for n in ns]
    b = profile.base
    # the recursion is spot-checked at n0, n0 + 1 and two prefixes of each n
    checked = {profile.n0, profile.n0 + 1}
    for n in ns:
        checked.update((max(1, n // b), max(1, n // (b * b))))
    _spot_check(profile, seq, checked)
    head, f_head = profile.head, profile.head_prefix  # u(0 .. B-1), F(0 .. B)
    u0, fb = head[0], f_head[-1]
    s_total = profile.v_total
    v, g = profile.v, profile.v_prefix
    sums = []
    for n in ns:
        # the digits of n below the shortest prefix m < B, one divmod each,
        # unwound from the shortest, so no recursion depth grows with them
        digits = []
        m = n
        while m >= b:
            m, r = divmod(m, b)
            digits.append(r)
        f = f_head[m]
        u = head[m]  # u(M) at the current prefix M; m >= 1 once n >= B
        for r in reversed(digits):
            f = fb + (f - u0) * s_total
            # G(0) = 0, so a zero digit adds no u(M) term.  F(B), a sum from
            # +0.0, has no -0.0 part, nor has f here, so adding the term's
            # zeros for a finite u(M) would change no bit
            if r:
                f += u * g[r]
            u *= v[r]
        sums.append(f)
    return sums


def partial_sum_recursive(
    profile: RecursionProfile, seq: ExponentSeq, n: int
) -> complex:
    """F(n) via the digit-peeling recursion; equals partial_sum_direct."""
    return _partial_sums(profile, seq, [n])[0]


def _log_abs(f: complex) -> float:
    """log|f|, also for a finite f whose modulus exceeds the float range."""
    try:
        return log(abs(f))
    except OverflowError:
        return log(abs(f * 0.5)) + log(2.0)


@dataclass(frozen=True)
class GrowthReport:
    """Empirical constants for the growth bound |F(N)| < C * N**alpha, with
    the sums F(N) and the ratios |F(N)| / N**alpha at the checkpoints."""

    alpha: float
    c_est: float
    passed: bool
    sums: tuple[complex, ...]
    ratios: tuple[float, ...]

    def __bool__(self) -> bool:
        return self.passed


def growth_check(profile: RecursionProfile, seq: ExponentSeq, checkpoints) -> GrowthReport:
    """Check |F(N)| / N**alpha stays bounded along increasing checkpoints.

    The bound is asymptotic, so the envelope is judged after the first
    quartile of checkpoints: no later ratio may exceed the early envelope by
    more than a factor 1.25.  Checkpoints start at 1: F(0) = 0 would make the
    envelope 0.
    """
    pts = [int(p) for p in checkpoints]
    if not pts or any(b <= a for a, b in zip(pts, pts[1:])):
        raise ValidationError("checkpoints must be nonempty and increasing")
    if pts[0] < 1:
        raise ValidationError(f"checkpoints must be >= 1, got {pts[0]}")
    alpha = profile.alpha
    sums = tuple(_partial_sums(profile, seq, pts))
    # in logs, since p**alpha needs p as a float and overflows past ~1.8e308.
    # alpha > 0 (below 1/2 where 1 < |sum v| < sqrt(B): 1/4 for |sum v| = 2 in
    # base 16), so a ratio is at most |F|, finite wherever |F| is
    ratios = tuple(exp(_log_abs(f) - alpha * log(p)) if f else 0.0
                   for f, p in zip(sums, pts))
    q1 = max(1, len(pts) // 4)
    early = max(ratios[:q1])
    late = max(ratios[q1:]) if len(ratios) > q1 else early
    c_est = max(late, early)
    passed = late <= 1.25 * early
    return GrowthReport(alpha=alpha, c_est=c_est, passed=passed, sums=sums, ratios=ratios)
