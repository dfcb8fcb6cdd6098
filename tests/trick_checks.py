"""The two finite steps of the evaluation trick, checked numerically.

The trick merges the B residue factors by telescoping, then splits the sum
by residue with the digit recursion substituted.  ``telescoping_check`` and
``residue_split_check`` check each step on a finite range, each side summed
in one vectorized pass; C10 in ``test_acceptance.py`` and
``test_products.py`` run them.  ``recursion_deviation`` measures the digit
recursion over a whole range of values, the tests' reference for what
``recursion_profile`` proves from the sequence's type.
"""

import math
from dataclasses import dataclass
from math import fsum

import numpy as np

from digitprod.errors import ValidationError
from digitprod.products import _fsum_c, _log_ratio_block, log_ratio_term
from digitprod.sequences import (CHECK_TOL, ExponentSeq, recursion_breaks,
                                 recursion_profile)


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
class TelescopeReport:
    passed: bool
    checked: int
    max_pointwise_dev: float  # sum_k a(n,k) vs log(n/(n+1)), n >= 1
    head_dev: float  # sum_{0<k<B} log(k/(k+1)) vs -log B
    weighted_dev: float  # full u-weighted merge identity

    def __bool__(self) -> bool:
        return self.passed


def telescoping_check(seq: ExponentSeq, n_limit: int) -> TelescopeReport:
    """Exact finite telescoping: the B residue logs at each n merge into one.

    Checks, for n in [1, n_limit): sum_k log((Bn+k)/(Bn+k+1)) = log(n/(n+1)),
    and for n = 0 over k >= 1: the sum is -log B.  Also checks the u-weighted
    sum-level consequence, each side in one pass.  |u| <= 1 must hold on
    [0, B*n_limit) (ValidationError otherwise).
    """
    base = seq.base
    if n_limit < 1:
        raise ValidationError(f"n_limit must be >= 1, got {n_limit}")
    u_all = seq.block(np.arange(0, base * n_limit, dtype=np.int64))
    if np.abs(u_all).max() > 1.0 + CHECK_TOL:
        raise ValidationError("|u(n)| <= 1 is required on [0, B*n_limit)")

    head = fsum(log_ratio_term(base, k, 0) for k in range(1, base))
    head_dev = abs(head + math.log(base))

    ns = np.arange(1, n_limit, dtype=np.int64)
    total = sum(_log_ratio_block(base, k, ns) for k in range(base))
    rhs = _log_ratio_block(1, 0, ns)  # log(n/(n+1)), the merged factor
    un, u0 = u_all[1:n_limit], complex(u_all[0])
    weighted_lhs = complex(np.dot(un, total)) + u0 * head
    weighted_rhs = complex(np.dot(un, rhs)) - u0 * math.log(base)
    weighted_dev = abs(weighted_lhs - weighted_rhs)
    max_dev = float(np.abs(total - rhs).max(initial=0.0))

    passed = max_dev <= CHECK_TOL and head_dev <= CHECK_TOL and (
        weighted_dev <= CHECK_TOL * max(1.0, abs(weighted_rhs)))
    return TelescopeReport(passed, n_limit, max_dev, head_dev, weighted_dev)


@dataclass(frozen=True)
class SplitReport:
    passed: bool
    checked: int
    split_dev: float  # regrouping by residue class, an exact rearrangement
    substitution_dev: float  # u(B*n + k) vs u(n) * v(k) on the grouped side

    def __bool__(self) -> bool:
        return self.passed


def residue_split_check(seq: ExponentSeq, n_limit: int) -> SplitReport:
    """Finite form of the mod-B split of sum u(m) log(m/(m+1)), B = seq.base.

    Both sides enumerate the same terms m in [1, B*n_limit), each summed in
    one pass, so the deviation is at float level.  The substitution u(B*n + k)
    = u(n) * v(k) is checked over the same block, with v from
    ``recursion_profile`` at its default window, which proves the recursion
    for every n >= 1: a sequence whose recursion breaks in that window, or
    whose type does not extend the window to every n, raises HypothesisFailed.
    """
    b = seq.base
    if n_limit < 1:
        raise ValidationError(f"n_limit must be >= 1, got {n_limit}")
    profile = recursion_profile(seq)
    u_all = seq.block(np.arange(0, b * n_limit, dtype=np.int64))
    sub_dev, _ = recursion_deviation(u_all, profile.v, 1)

    lhs = complex(np.dot(u_all[1:], _log_ratio_block(1, 0, np.arange(1, b * n_limit))))
    rhs_parts = []
    for k in range(b):
        ns = np.arange(1 if k == 0 else 0, n_limit, dtype=np.int64)
        rhs_parts.append(np.dot(u_all[b * ns + k], _log_ratio_block(b, k, ns)))
    rhs = _fsum_c(rhs_parts)

    split_dev = abs(lhs - rhs)
    passed = split_dev <= CHECK_TOL * max(1.0, abs(lhs)) and sub_dev <= CHECK_TOL
    return SplitReport(passed, n_limit, split_dev, sub_dev)
