"""Catalog of closed-form product identities and the verification harness.

Each ``IdentityClaim`` pairs one or more product specifications with the
value of a closed-form right-hand side: B**e, p/q or a Gamma quotient's
limit.  Complex-exponent specifications double as carriers for sine/cosine
exponent pairs: the sine product is a real part of the complex log-sum and
the cosine product an imaginary part, so one evaluation serves both members
of a pair (and their squared variants).

Every part is evaluated by ``evaluate_moments``: a direct head of at most
N terms and the whole tail from the digit-level moment recursion, so a
claim's N (``--terms``) is a budget, its value is accurate to about 1e-15 and
its ``err_est`` is a bound.  ``verify_all`` lists the distinct (spec, N) part
evaluations of the claims it checks, evaluates each once (spread over threads
with ``map_ordered``) and builds every claim's report from those results.

``estimate_qr`` computes the two classical open-valued products over the
+-1 parity-of-binary-ones exponent: Q over (2n)/(2n+1) from n >= 1, and R
over (4n+1)(4n+2)/((4n)(4n+3)).  No closed form is known for either; the
catalogued fact is Q * R = 3/2.
"""

from __future__ import annotations

import cmath
import math
import time
from dataclasses import dataclass

from .digits import DigitStat
from .errors import ValidationError
from .gammaproducts import alternating_pair_quotient, quotient_limit
from .products import (
    EvalResult,
    Factor,
    ProductSpec,
    evaluate_moments,
    map_ordered,
    resolve_threads,
)
from .sequences import DigitStatPower, ExponentSeq, PeriodicPower, thue_morse_seq

__all__ = [
    "Part",
    "IdentityClaim",
    "catalog",
    "VerifyReport",
    "verify_claim",
    "VerifySummary",
    "verify_all",
    "estimate_qr",
]

# the term budget of verify_claim and verify_all when none is given
DEFAULT_BUDGET = 10**6


@dataclass(frozen=True)
class Part:
    """One evaluated product contributing coeff * component(log) to a claim."""

    spec: ProductSpec
    coeff: complex = 1.0
    component: str = "full"  # "full" | "real" | "imag"

    def contribution(self, log_value: complex) -> complex:
        if self.component == "full":
            return self.coeff * log_value
        if self.component == "real":
            return self.coeff * log_value.real
        if self.component == "imag":
            return self.coeff * log_value.imag
        raise ValidationError(f"unknown component {self.component!r}")


# the relative tolerance of every catalog claim; ``verify --tol`` overrides it
CATALOG_TOL = 1e-12


@dataclass(frozen=True)
class IdentityClaim:
    """A closed form's value ``rhs`` for exp(sum of the parts' contributions).

    Every part is a product in one base, the claim's ``base``.
    """

    name: str
    parts: tuple[Part, ...]
    rhs: complex
    cite: str
    tol: float = CATALOG_TOL

    def __post_init__(self):
        if not (math.isfinite(self.tol) and self.tol > 0):
            raise ValidationError(f"tolerance must be finite and positive, got {self.tol}")

    @property
    def base(self) -> int:
        return self.parts[0].spec.base


def _base_power(base: int, exponent) -> complex:
    return cmath.exp(complex(exponent) * math.log(base))


def _odd_residues(base: int) -> list[int]:
    return list(range(1, base, 2))


def _unity_root(q: int, p: int = 1) -> complex:
    return cmath.exp(2j * cmath.pi * p / q)


def _roots_spec(seq: ExponentSeq, q: int) -> ProductSpec:
    """Factors k: 1 - omega**k, omega = exp(2*pi*i/q), over the residues
    0 < k < B that q does not divide, for a sequence of base B."""
    omega = _unity_root(q)
    factors = [
        Factor(k, 1 - omega**k) for k in range(1, seq.base) if k % q != 0
    ]
    return ProductSpec(seq.base, factors, seq)


def _count_root_spec(base: int, digits, q: int, p: int = 1) -> ProductSpec:
    omega = _unity_root(q, p)
    js = sorted(digits)
    factors = [Factor(k, 1 - omega) for k in js]
    stat = DigitStat.count(js[0]) if len(js) == 1 else DigitStat.count_set(js)
    return ProductSpec(base, factors, DigitStatPower(base, omega, stat))


def _zero_count_spec(base: int, z: complex, scaled: bool) -> ProductSpec:
    z = complex(z)
    if z in (0, 1) or abs(z) > 1:
        raise ValidationError("zero-count exponents need |z| <= 1, z not in {0, 1}")
    mult = (1 - z) if scaled else 1.0
    seq = DigitStatPower(base, z, DigitStat.count(0))
    return ProductSpec(base, [Factor(0, mult)], seq)


def catalog() -> list[IdentityClaim]:
    """All catalogued claims, each with relative tolerance CATALOG_TOL.

    The moment evaluator reaches about 1e-15 on every claim from the default
    budget down to N = 10**3, for every exponent class alike, so one
    tolerance serves the whole catalog with a 1000-fold margin."""
    claims: list[IdentityClaim] = []

    def add(name, parts, rhs, cite):
        claims.append(IdentityClaim(name, tuple(parts), rhs, cite))

    sqrt3 = math.sqrt(3.0)

    # the parity-of-ones prototype and its squared form
    wr_spec = ProductSpec(2, [Factor(1, 1.0)], thue_morse_seq())
    add(
        "woods_robbins",
        [Part(wr_spec)],
        _base_power(2, -0.5),
        "Woods-Robbins product over (2n+1)/(2n+2)",
    )
    add(
        "woods_robbins_squared",
        [Part(ProductSpec(2, [Factor(1, 2.0)], thue_morse_seq()))],
        complex(1 / 2),
        "squared Woods-Robbins product, multiplier 1 - u(1) = 2",
    )

    # strongly multiplicative table exponent with a complex fourth root
    i_s3 = DigitStatPower(3, 1j, DigitStat.digit_sum())
    add(
        "strong_mult_gauss_b3",
        [Part(ProductSpec(3, [Factor(1, 1 - 1j), Factor(2, 2.0)], i_s3))],
        complex(1 / 3),
        "strongly multiplicative product with i**digit_sum exponents, base 3",
    )

    # zero-count exponents (base 2, z = 1/2); the scaled product equals 1/B,
    # consistent with the unscaled log form
    add(
        "zero_count_scaled_b2",
        [Part(_zero_count_spec(2, 0.5, scaled=True))],
        complex(1 / 2),
        "zero-count product with multiplier 1 - z",
    )
    add(
        "zero_count_log_b2",
        [Part(_zero_count_spec(2, 0.5, scaled=False))],
        _base_power(2, 1.0 / (0.5 - 1.0)),
        "zero-count product, unscaled exponent, value B**(1/(z-1))",
    )

    # roots of unity with base = 1 mod q, and the squared (sigma) forms
    r5 = _roots_spec(PeriodicPower(5, 4, 1), 4)
    add(
        "roots_unity_sin_b5",
        [Part(r5, 0.5, "real")],
        _base_power(5, -0.5),
        "sine pair product over base 5, fourth roots of unity",
    )
    add(
        "roots_unity_cos_b5",
        [Part(r5, -0.5, "imag")],
        complex(1),
        "cosine pair product over base 5, fourth roots of unity",
    )
    add(
        "sigma_first_b5",
        [Part(r5, 1.0, "real")],
        complex(1 / 5),
        "squared sine pair: the +-1 square-residue exponent product",
    )
    add(
        "sigma_second_b5",
        [Part(r5, -1.0, "imag")],
        complex(1),
        "squared cosine pair: the shifted square-residue exponent product",
    )

    # z**digit_sum exponents
    zs3 = DigitStatPower(3, 0.5, DigitStat.digit_sum())
    add(
        "digit_sum_pow_b3",
        [Part(ProductSpec(3, [Factor(1, 0.5), Factor(2, 0.75)], zs3))],
        complex(1 / 3),
        "digit-sum power product with multipliers 1 - z**k, base 3",
    )
    half_s2 = DigitStatPower(2, 0.5, DigitStat.digit_sum())
    add(
        "half_pow_digit_sum_b2",
        [Part(ProductSpec(2, [Factor(1, 1.0)], half_s2))],
        complex(1 / 4),
        "squared digit-sum power product at z = 1/2, base 2",
    )

    # digit-sum roots of unity (base 2, q = 4) and the squared sigma forms
    ds2 = _roots_spec(DigitStatPower(2, _unity_root(4), DigitStat.digit_sum()), 4)
    add(
        "sin_digit_sum_b2",
        [Part(ds2, 0.5, "real")],
        _base_power(2, -0.5),
        "sine product with digit-sum phases, base 2",
    )
    add(
        "cos_digit_sum_b2",
        [Part(ds2, -0.5, "imag")],
        complex(1),
        "cosine product with digit-sum phases, base 2",
    )
    add(
        "sigma_digit_sum_first_b2",
        [Part(ds2, 1.0, "real")],
        complex(1 / 2),
        "squared sine product: square-residue exponent of the digit sum",
    )
    add(
        "sigma_digit_sum_second_b2",
        [Part(ds2, -1.0, "imag")],
        complex(1),
        "squared cosine product: shifted square-residue exponent of the digit sum",
    )

    # base-3 third roots of the digit sum: the 1/-2 pattern exponent
    ds3 = _roots_spec(DigitStatPower(3, _unity_root(3), DigitStat.digit_sum()), 3)
    add(
        "theta_digit_sum_b3",
        [Part(ds3, 1.0, "real"), Part(ds3, 1.0 / sqrt3, "imag")],
        complex(1 / 3),
        "rearranged base-3 product with the 1,1,-2 exponent pattern",
    )

    # alternating parity of the digit sum: 1/sqrt(B)
    for b in (2, 3, 6):
        seq = DigitStatPower(b, -1.0, DigitStat.digit_sum())
        spec = ProductSpec(b, [Factor(k, 1.0) for k in _odd_residues(b)], seq)
        add(
            f"sum_digits_b{b}",
            [Part(spec)],
            _base_power(b, -0.5),
            f"odd-residue product with (-1)**digit_sum exponents, base {b}",
        )

    # digit-set counting exponents
    dj4 = _count_root_spec(4, {1, 3}, 3)
    s_pi3 = math.sin(math.pi / 3.0)
    add(
        "digit_set_sin_b4",
        [Part(dj4, 1.0 / (2.0 * s_pi3), "real")],
        _base_power(4, -1.0 / (2.0 * s_pi3)),
        "digit-set {1,3} count product with third-root phases, base 4",
    )
    add(
        "digit_set_cos_b4",
        [Part(dj4, -1.0 / (2.0 * s_pi3), "imag")],
        complex(1),
        "digit-set {1,3} cosine partner, base 4",
    )
    parity_set = DigitStatPower(5, -1.0, DigitStat.count_set({1, 2}))
    add(
        "digit_set_parity_b5",
        [Part(ProductSpec(5, [Factor(1, 1.0), Factor(2, 1.0)], parity_set))],
        _base_power(5, -0.5),
        "(-1)**(count of digits 1 and 2) product, base 5",
    )

    # single-digit counts in base 2 (k = 1 is the prototype again)
    add(
        "count_ones_b2",
        [Part(wr_spec)],
        _base_power(2, -0.5),
        "single-digit count product at k = 1, base 2",
    )
    zeros2 = DigitStatPower(2, -1.0, DigitStat.count(0))
    add(
        "count_zeros_b2",
        [Part(ProductSpec(2, [Factor(0, 1.0)], zeros2))],
        _base_power(2, -0.5),
        "single-digit count product at k = 0, base 2",
    )

    # single-digit count in base 3 with third-root phases: 1/-2 and 1,0,-1
    c31 = _count_root_spec(3, {1}, 3)
    add(
        "eta_count_b3",
        [Part(c31, 2.0 / 3.0, "real")],
        _base_power(3, -2.0 / 3.0),
        "1,0,-1 exponent pattern of the digit-1 count, base 3",
    )
    add(
        "theta_count_b3",
        [Part(c31, -2.0 / sqrt3, "imag")],
        complex(1),
        "squared cosine partner with the 1,1,-2 pattern, base 3",
    )

    # periodic (-1)**n exponents over odd bases; Gamma quotient cross-check
    alt3 = ProductSpec(3, [Factor(1, 1.0)], PeriodicPower(3, 2, 1))
    add(
        "alternating_b3",
        [Part(alt3)],
        complex(quotient_limit(alternating_pair_quotient(3, 1))),
        "alternating product (3n+1)/(3n+2), equal to 1/sqrt(3)",
    )
    alt5 = ProductSpec(
        5, [Factor(1, 1.0), Factor(3, 1.0)], PeriodicPower(5, 2, 1)
    )
    add(
        "alternating_b5",
        [Part(alt5)],
        _base_power(5, -0.5),
        "alternating odd-residue product, base 5",
    )

    return claims


def claim_by_name(name: str) -> IdentityClaim:
    for c in catalog():
        if c.name == name:
            return c
    raise ValidationError(f"unknown claim {name!r}")


@dataclass(frozen=True)
class VerifyReport:
    name: str
    computed: complex
    expected: complex
    abs_err: float
    rel_err: float
    passed: bool
    tol: float
    terms: int
    seconds: float
    err_est: float

    def __bool__(self) -> bool:
        return self.passed

    def to_json_dict(self) -> dict:
        return {
            "name": self.name,
            "computed": self.computed.real,
            "computed_im": self.computed.imag,
            "expected": self.expected.real,
            "expected_im": self.expected.imag,
            "abs_err": self.abs_err,
            "rel_err": self.rel_err,
            "pass": self.passed,
            "tol": self.tol,
            "terms": self.terms,
            "seconds": self.seconds,
            "err_est": self.err_est,
        }


def _part_keys(claims: list[IdentityClaim], n_terms: int) -> list[tuple[ProductSpec, int]]:
    """The distinct (spec, N) evaluations of the claims' parts, in order."""
    n = int(n_terms)
    keys: dict[tuple[ProductSpec, int], None] = {}  # an insertion-ordered set
    for claim in claims:
        for part in claim.parts:
            keys[(part.spec, n)] = None
    return list(keys)


def _evaluate_timed(key: tuple[ProductSpec, int]) -> tuple[EvalResult, float]:
    spec, n = key
    t0 = time.perf_counter()
    result = evaluate_moments(spec, n)
    return result, time.perf_counter() - t0


def verify_claim(
    claim: IdentityClaim,
    n_terms: int = DEFAULT_BUDGET,
    results: dict | None = None,
) -> VerifyReport:
    """Evaluate a claim's parts and compare against its closed form.

    ``results`` maps (spec, N) to an (EvalResult, seconds) pair for parts
    evaluated already; without it each distinct part is evaluated here.  The
    report's ``seconds`` is the sum of its distinct parts' evaluation times.
    """
    n = int(n_terms)
    keys = _part_keys([claim], n)
    if results is None:
        results = {key: _evaluate_timed(key) for key in keys}
    total_log = complex(0.0)
    err_est = 0.0
    terms = 0
    for part in claim.parts:
        res = results[(part.spec, n)][0]
        total_log += part.contribution(res.log_value)
        err_est += abs(part.coeff) * res.err_est
        terms = max(terms, res.terms)
    computed = cmath.exp(total_log)
    expected = claim.rhs
    abs_err = abs(computed - expected)
    rel_err = abs_err / abs(expected)
    return VerifyReport(
        name=claim.name,
        computed=computed,
        expected=expected,
        abs_err=abs_err,
        rel_err=rel_err,
        passed=rel_err <= claim.tol,
        tol=claim.tol,
        terms=terms,
        seconds=sum(results[key][1] for key in keys),
        err_est=err_est,
    )


@dataclass(frozen=True)
class VerifySummary:
    reports: tuple[VerifyReport, ...]
    passed_count: int
    total: int
    worst_rel_err: float
    seconds: float

    @property
    def all_passed(self) -> bool:
        return self.passed_count == self.total

    def __bool__(self) -> bool:
        return self.all_passed


def verify_all(n_terms: int = DEFAULT_BUDGET, threads: int = 1) -> VerifySummary:
    """Verify the whole catalog.

    The distinct (spec, N) part evaluations of the claims are listed up
    front and each runs once, spread over ``threads`` workers (0 means
    min(8, CPUs)) with one thread inside each evaluation.  Reports follow the
    catalog order and are bit-identical for any thread count.
    """
    threads = resolve_threads(threads)
    claims = catalog()
    t0 = time.perf_counter()
    keys = _part_keys(claims, n_terms)
    timed = map_ordered(_evaluate_timed, keys, threads)
    results = dict(zip(keys, timed))
    reports = [verify_claim(c, n_terms, results=results) for c in claims]
    return VerifySummary(
        reports=tuple(reports),
        passed_count=sum(1 for r in reports if r.passed),
        total=len(reports),
        worst_rel_err=max((r.rel_err for r in reports), default=0.0),
        seconds=time.perf_counter() - t0,
    )


def q_product_spec() -> ProductSpec:
    """Q: the (2n)/(2n+1) product from n >= 1 with parity-of-ones exponents."""
    return ProductSpec(2, [Factor(0, 1.0, start=1)], thue_morse_seq())


def r_product_spec() -> ProductSpec:
    """R: the (4n+1)(4n+2)/((4n)(4n+3)) product from n >= 1, base-4 residues.

    The combined per-n factor makes the log-series absolutely convergent;
    residues 0 (inverted) and 2 carry it.
    """
    return ProductSpec(
        4, [Factor(0, -1.0, start=1), Factor(2, 1.0, start=1)], thue_morse_seq()
    )


def estimate_qr(n_terms: int) -> dict:
    """Estimate Q and R and check Q * R = 3/2.

    Both are evaluated by ``evaluate_moments`` with the budget n_terms: Q's
    log-series converges conditionally (bounded partial sums), R's absolutely,
    and the moment tail serves both.  No reference value exists for either
    constant alone.
    """
    if n_terms < 1000:
        raise ValidationError(f"n_terms must be >= 1000, got {n_terms}")
    q_res = evaluate_moments(q_product_spec(), n_terms)
    r_res = evaluate_moments(r_product_spec(), n_terms)
    q = q_res.value.real
    r = r_res.value.real
    return {
        "Q": q,
        "R": r,
        "product_check": q * r,
        "q_err_est": q_res.err_est,
        "r_err_est": r_res.err_est,
        "terms": max(q_res.terms, r_res.terms),
    }
