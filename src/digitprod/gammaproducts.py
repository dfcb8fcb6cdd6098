"""Gamma-function machinery: log-gamma, balanced quotients, odd-base products.

A balanced quotient prod_{n>=0} (n+a_1)...(n+a_d) / ((n+b_1)...(n+b_d)) with
sum(a) = sum(b) converges to Gamma(b_1)...Gamma(b_d) / (Gamma(a_1)...Gamma(a_d)).
That limit evaluates the alternating-exponent products over odd bases once
consecutive indices are paired into absolutely convergent factors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from math import comb, fsum, pi, sqrt

import numpy as np

from .errors import BalanceError, DomainError, ValidationError

__all__ = [
    "log_gamma",
    "GammaQuotient",
    "quotient_limit",
    "partial_quotient",
    "wallis_quotient",
    "alternating_pair_quotient",
    "OddBaseProducts",
    "odd_base_products",
    "AlternatingSideReport",
    "verify_alternating_products",
]

def log_gamma(x: float) -> float:
    """log Gamma(x) for real x > 0 (``math.lgamma``)."""
    x = float(x)
    if not x > 0.0:
        raise DomainError(f"log_gamma needs x > 0, got {x}")
    try:
        return math.lgamma(x)
    except OverflowError:
        raise DomainError(f"log_gamma({x}) overflows a float") from None


@dataclass(frozen=True)
class GammaQuotient:
    """Balanced parameter lists for prod (n+a_1)...(n+a_d)/((n+b_1)...(n+b_d)).

    Parameters must be finite and positive, with sum(a) = sum(b).
    """

    a: tuple[float, ...]
    b: tuple[float, ...]

    def __init__(self, a, b):
        ta = tuple(float(x) for x in a)
        tb = tuple(float(x) for x in b)
        if not ta or len(ta) != len(tb):
            raise ValidationError(
                f"need equally many a and b parameters, got {len(ta)} and {len(tb)}"
            )
        if not all(math.isfinite(x) and x > 0.0 for x in ta + tb):
            raise ValidationError("all quotient parameters must be finite and positive")
        try:
            sum_a, sum_b = fsum(ta), fsum(tb)
        except OverflowError:
            raise ValidationError("quotient parameter sums overflow") from None
        if abs(sum_a - sum_b) > 1e-12:
            raise BalanceError(f"parameter sums differ: {sum_a!r} vs {sum_b!r}")
        object.__setattr__(self, "a", ta)
        object.__setattr__(self, "b", tb)


def quotient_limit(q: GammaQuotient) -> float:
    """The quotient's limit Gamma(b_1)...Gamma(b_d) / (Gamma(a_1)...Gamma(a_d))."""
    return math.exp(
        fsum(log_gamma(x) for x in q.b) - fsum(log_gamma(x) for x in q.a)
    )


def partial_quotient(q: GammaQuotient, n_terms: int) -> float:
    """Finite product over n < n_terms; approaches quotient_limit at rate O(1/N)."""
    if n_terms < 0:
        raise ValidationError(f"n_terms must be nonnegative, got {n_terms}")
    if n_terms == 0:
        return 1.0
    ns = np.arange(n_terms, dtype=np.float64)
    total = np.zeros(n_terms, dtype=np.float64)
    for x in q.a:
        total += np.log(ns + x)
    for x in q.b:
        total -= np.log(ns + x)
    return math.exp(fsum(total.tolist()))


def wallis_quotient() -> GammaQuotient:
    """(n+1)^2 / ((n+1/2)(n+3/2)), whose limit is pi/2."""
    return GammaQuotient((1.0, 1.0), (0.5, 1.5))


def alternating_pair_quotient(base: int, residue: int) -> GammaQuotient:
    """Gamma form of prod_{n>=delta_k} ((B*n+k)/(B*n+k+1))**(-1)**n, B odd.

    For k >= 1, pairing n = 2m, 2m+1 gives the balanced quotient with
    numerator offsets (k, B+k+1) and denominator offsets (k+1, B+k) over
    2*B*m.  For k = 0 the product starts at n = 1, so the pairing is
    n = 2m+1, 2m+2 with offsets (B+1, 2B) over (B, 2B+1).
    """
    b, k = int(base), int(residue)
    if b % 2 == 0 or b < 3:
        raise DomainError(f"base must be odd and >= 3, got {b}")
    if not 0 <= k < b:
        raise ValidationError(f"residue {k} out of range for base {b}")
    if k >= 1:
        aa, bb = (k, b + k + 1), (k + 1, b + k)
    else:
        aa, bb = (b + 1, 2 * b), (b, 2 * b + 1)
    return GammaQuotient(
        tuple(x / (2 * b) for x in aa), tuple(x / (2 * b) for x in bb)
    )


@dataclass(frozen=True)
class OddBaseProducts:
    even_k: float  # alternating product over even residues, n >= 1
    odd_k: float  # alternating product over odd residues, n >= 1
    wallis: float  # their product, equal to pi/2


def _central_binomial_ratio(m: int) -> float:
    """C(2m, m) / 4**m.

    Below m = 1000 it is one correctly rounded integer quotient; above, where
    the exact binomial grows costly (seconds at m = 5*10**5), the asymptotic
    series (1 - x/8 + x**2/128 + 5x**3/1024 - 21x**4/32768) / sqrt(pi*m),
    x = 1/m, whose first omitted term is below 2e-18 there.
    """
    if m < 1000:
        return comb(2 * m, m) / 4**m
    x = 1.0 / m
    series = 1.0 + x * (-1 / 8 + x * (1 / 128 + x * (5 / 1024 - x * 21 / 32768)))
    return series / sqrt(pi * m)


def odd_base_products(base: int) -> OddBaseProducts:
    """Closed forms of the alternating-exponent products over an odd base.

    even_k = pi * sqrt(B) * C(B-1, (B-1)/2) / 2**B and
    odd_k = 2**(B-1) / (sqrt(B) * C(B-1, (B-1)/2)); their product is pi/2.
    """
    b = int(base)
    if b % 2 == 0 or b < 3:
        raise DomainError(f"base must be odd and >= 3, got {b}")
    m = (b - 1) // 2
    ratio = _central_binomial_ratio(m)
    even_k = pi * sqrt(b) * ratio / 2.0
    odd_k = 1.0 / (sqrt(b) * ratio)
    return OddBaseProducts(even_k, odd_k, even_k * odd_k)


@dataclass(frozen=True)
class AlternatingSideReport:
    base: int
    terms: int
    even_computed: float
    even_expected: float
    odd_computed: float
    odd_expected: float
    max_rel_err: float
    rewrite_dev: float  # odd_k vs the n >= 0 form 1/sqrt(B) with n = 0 factored out
    passed: bool

    def __bool__(self) -> bool:
        return self.passed


def verify_alternating_products(
    base: int, n_terms: int, tol: float = 1e-4
) -> AlternatingSideReport:
    """Truncate the alternating products over n >= 1 and compare to closed forms.

    Consecutive indices n = 2m-1, 2m are paired before truncation, which makes
    each side absolutely convergent.  Also checks that the odd-residue closed
    form is the n >= 0 alternating product 1/sqrt(B) with its n = 0 factor
    removed.
    """
    b = int(base)
    if b % 2 == 0 or b < 3:
        raise DomainError(f"base must be odd and >= 3, got {b}")
    if n_terms < 2 or n_terms % 2:
        raise ValidationError(f"n_terms must be even and >= 2, got {n_terms}")
    closed = odd_base_products(b)

    ms = np.arange(1, n_terms // 2 + 1, dtype=np.float64)
    sides = {}
    for parity in (0, 1):
        total = np.zeros(ms.shape, dtype=np.float64)
        for k in range(parity, b, 2):
            # exponent (-1)**n: -a(2m-1) + a(2m), absolutely convergent pairs
            total += np.log1p(1.0 / (b * (2 * ms - 1) + k)) - np.log1p(
                1.0 / (b * 2 * ms + k)
            )
        sides[parity] = math.exp(fsum(total.tolist()))

    even_c, odd_c = sides[0], sides[1]
    rel = max(
        abs(even_c - closed.even_k) / closed.even_k,
        abs(odd_c - closed.odd_k) / closed.odd_k,
    )
    # n = 0 contributes prod_{k odd} k/(k+1) = C(B-1,(B-1)/2) / 2**(B-1)
    head = math.exp(
        fsum(math.log(k / (k + 1.0)) for k in range(1, b, 2))
    )
    rewrite_dev = abs(closed.odd_k - (1.0 / sqrt(b)) / head)
    passed = rel <= tol and rewrite_dev <= 1e-12
    return AlternatingSideReport(
        base=b,
        terms=n_terms,
        even_computed=even_c,
        even_expected=closed.even_k,
        odd_computed=odd_c,
        odd_expected=closed.odd_k,
        max_rel_err=rel,
        rewrite_dev=rewrite_dev,
        passed=passed,
    )
