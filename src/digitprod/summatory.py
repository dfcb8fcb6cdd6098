"""Partial sums F(N) = sum_{n < N} u(n): direct, recursive, and growth checks.

The recursive evaluator peels base-B digits using the identity

    F(B*M + b) = F(B) + (F(M) - u(0)) * S + u(M) * G(b),

where S is the full sum of the recursion multipliers v(k) and G(b) their
partial sum below b.  F(B), u(0) and the base case F(M), M < B, come from
u(0), ..., u(B-1), read once per query: the recursion constrains only
n >= 1.  The pass down the digits of N makes one divmod per digit and one
value(M) call per nonzero digit: G(0) = 0, so a zero digit needs no u(M),
and N = B**j needs none at all.  Each value(M) call reads the digits of M,
so the cost is O(log^2 N) at most.
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


def _spot_check(profile: RecursionProfile, seq: ExponentSeq, n: int) -> None:
    b = profile.base
    for m in {profile.n0, profile.n0 + 1, max(1, n // b), max(1, n // (b * b))}:
        um = seq.value(m)
        for k in (0, b - 1):
            predicted = um * profile.v[k]
            dev = abs(seq.value(b * m + k) - predicted)
            if recursion_breaks(dev, abs(predicted)):
                raise ProfileMismatch(
                    f"recursion fails at n={m}, k={k} (deviation {dev:.3e})"
                )


def partial_sum_recursive(
    profile: RecursionProfile, seq: ExponentSeq, n: int
) -> complex:
    """F(n) via the digit-peeling recursion; equals partial_sum_direct."""
    n = check_nonnegative(n)
    b = profile.base
    _spot_check(profile, seq, n)
    head = [seq.value(k) for k in range(b)]  # u(0), ..., u(B-1)
    fb = complex(sum(head))
    s_total = profile.v_total
    g = profile.v_prefix
    # the digit prefixes n // B, n // B**2, ... down to the first one below
    # B, each with the digit it drops, one divmod each; unwound from the
    # shortest, so no recursion depth grows with the digits
    levels = []
    m = n
    while m >= b:
        m, r = divmod(m, b)
        levels.append((m, r))
    f = complex(sum(head[:m]))
    for m, r in reversed(levels):
        f = fb + (f - head[0]) * s_total
        # G(0) = 0, so a zero digit adds no u(M) term.  F(B), a sum from
        # +0.0, has no -0.0 part, nor has f here, so adding the term's zeros
        # for a finite u(M) would change no bit
        if r:
            f += seq.value(m) * g[r]
    return f


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
    sums = tuple(partial_sum_recursive(profile, seq, p) for p in pts)
    # in logs, since p**alpha needs p as a float and overflows past ~1.8e308;
    # alpha >= 1/2, so a finite F gives a finite ratio
    ratios = tuple(exp(log(abs(f)) - alpha * log(p)) if f else 0.0
                   for f, p in zip(sums, pts))
    q1 = max(1, len(pts) // 4)
    early = max(ratios[:q1])
    late = max(ratios[q1:]) if len(ratios) > q1 else early
    c_est = max(late, early)
    passed = late <= 1.25 * early
    return GrowthReport(alpha=alpha, c_est=c_est, passed=passed, sums=sums, ratios=ratios)
