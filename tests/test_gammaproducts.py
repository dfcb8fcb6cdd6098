import math
from math import fsum, log1p, pi

import numpy as np
import pytest

from digitprod.errors import BalanceError, DomainError, ValidationError
from digitprod.gammaproducts import (
    GammaQuotient,
    alternating_pair_quotient,
    log_gamma,
    odd_base_products,
    partial_quotient,
    quotient_limit,
    wallis_quotient,
)


def test_log_gamma_known_values():
    assert abs(log_gamma(1.0)) <= 1e-14
    assert abs(log_gamma(0.5) - math.log(math.sqrt(pi))) <= 1e-14
    assert abs(log_gamma(6.0) - math.log(120.0)) <= 1e-13


def test_log_gamma_against_mpmath():
    # scaled error <= 2e-15 across [1e-3, 1e6], against 30-digit loggamma
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(30):
        for x in np.logspace(-3, 6, 2000):
            ref = mpmath.loggamma(mpmath.mpf(float(x)))
            err = abs(log_gamma(float(x)) - ref) / max(1, abs(ref))
            assert err <= 2e-15, (x, float(err))


def test_log_gamma_reflection():
    # Gamma(x) * Gamma(1-x) = pi / sin(pi * x)
    for x in np.linspace(0.02, 0.98, 49):
        lhs = log_gamma(float(x)) + log_gamma(float(1.0 - x))
        rhs = math.log(pi / math.sin(pi * x))
        assert abs(lhs - rhs) <= 1e-11


def test_log_gamma_domain():
    with pytest.raises(DomainError):
        log_gamma(0.0)
    with pytest.raises(DomainError):
        log_gamma(-1.5)


def test_quotient_wallis():
    w = wallis_quotient()
    assert abs(quotient_limit(w) - pi / 2) <= 1e-11


def test_quotient_identity_case():
    q = GammaQuotient((1.0, 2.0), (2.0, 1.0))
    assert abs(quotient_limit(q) - 1.0) <= 1e-14
    assert abs(partial_quotient(q, 17) - 1.0) <= 1e-14


def test_quotient_validation():
    with pytest.raises(BalanceError):
        GammaQuotient((1.0,), (1.5,))
    with pytest.raises(ValidationError):
        GammaQuotient((1.0, 1.0), (2.0,))
    with pytest.raises(ValidationError):
        GammaQuotient((-1.0,), (-1.0,))


def test_partial_quotient_examples():
    assert partial_quotient(wallis_quotient(), 0) == 1.0
    p = partial_quotient(wallis_quotient(), 10**6)
    assert abs(p - pi / 2) <= 1e-5


def test_partial_quotient_rate():
    # |partial/limit - 1| <= c / N with stable c
    w = wallis_quotient()
    limit = quotient_limit(w)
    c0 = abs(partial_quotient(w, 10**3) / limit - 1.0) * 10**3
    for n in (10**4, 10**5, 10**6):
        c = abs(partial_quotient(w, n) / limit - 1.0) * n
        assert c <= 2.0 * c0
        assert c >= 0.2 * c0


def test_quotient_overflow_raises_domain_error():
    # Gamma(1e-300) ~ 1e300 and the n = 0 factor ~ 7.5e301: neither the
    # limit nor the product of ten factors is a float
    q = GammaQuotient((150.0, 150.0), (1e-300, 300.0))
    with pytest.raises(DomainError, match="limit overflows a float: its log is 899"):
        quotient_limit(q)
    with pytest.raises(DomainError, match="partial product overflows a float: its log is 721"):
        partial_quotient(q, 10)


def test_alternating_pair_quotient_base3():
    q = alternating_pair_quotient(3, 1)
    assert q.a == (1 / 6, 5 / 6)
    assert q.b == (2 / 6, 4 / 6)
    assert abs(quotient_limit(q) - 3**-0.5) <= 1e-10


def test_alternating_pair_quotient_k0_matches_truncation():
    q = alternating_pair_quotient(3, 0)
    direct = partial_quotient(q, 10**5)
    assert abs(direct / quotient_limit(q) - 1.0) <= 1e-4


def test_odd_base_products_base3():
    ob = odd_base_products(3)
    assert abs(ob.even_k - pi * math.sqrt(3) / 4) <= 1e-12
    assert abs(ob.odd_k - 2 / math.sqrt(3)) <= 1e-12
    assert abs(ob.wallis - pi / 2) <= 1e-12


@pytest.mark.parametrize("base", [3, 5, 7, 9, 11, 61, 63])
def test_odd_base_wallis_product(base):
    ob = odd_base_products(base)
    assert abs(ob.wallis - pi / 2) <= 1e-12 * (pi / 2)


@pytest.mark.parametrize("base", [3, 5, 61, 63, 101, 1001, 2001, 10**6 + 1])
def test_odd_base_products_against_mpmath(base):
    # even_k = pi sqrt(B) C(B-1, (B-1)/2) / 2**B, odd_k = 2**(B-1) / (sqrt(B) C)
    mpmath = pytest.importorskip("mpmath")
    ob = odd_base_products(base)
    with mpmath.workdps(30):
        c = mpmath.binomial(base - 1, (base - 1) // 2)
        even = mpmath.pi * mpmath.sqrt(base) * c / mpmath.mpf(2) ** base
        odd = mpmath.mpf(2) ** (base - 1) / (mpmath.sqrt(base) * c)
        assert abs(ob.even_k - even) / even <= 2e-14
        assert abs(ob.odd_k - odd) / odd <= 2e-14


def test_odd_base_rejects_even():
    with pytest.raises(DomainError):
        odd_base_products(4)


@pytest.mark.parametrize("base", [3, 5, 61, 63, 101, 1001, 2001, 10**6 + 1])
def test_odd_k_is_the_product_from_n_0_without_its_first_factor(base):
    # prod_{n >= 0} prod_{k odd < B} ((B n + k) / (B n + k + 1))**(-1)**n
    # = 1/sqrt(B), and its n = 0 factor is prod_{k odd < B} k / (k + 1)
    head = fsum(-log1p(1 / k) for k in range(1, base, 2))
    dev = math.log(odd_base_products(base).odd_k) + head + 0.5 * math.log(base)
    assert abs(math.expm1(dev)) <= 1e-12
