"""Numerical evaluation and verification of digit-indexed infinite products.

The library evaluates products of the form

    prod_k prod_{n >= start_k} ((B*n + k) / (B*n + k + 1)) ** (c_k * u(n))

for exponent sequences u built from base-B digit statistics, verifies a
catalog of closed-form identities for them, and evaluates the companion
Gamma-function quotients.  See the README for the CLI and the grammar.
"""

from .digits import DigitStat, digit_stat, digits_of, from_digits, thue_morse
from .errors import (
    BalanceError,
    ConvergenceHypothesisViolated,
    DigitprodError,
    DomainError,
    HypothesisFailed,
    NoNonzeroSeed,
    ParseError,
    ProfileMismatch,
    ValidationError,
)
from .gammaproducts import (
    GammaQuotient,
    alternating_pair_quotient,
    log_gamma,
    odd_base_products,
    partial_quotient,
    quotient_limit,
    verify_alternating_products,
    wallis_quotient,
)
from .identities import (
    ClosedForm,
    IdentityClaim,
    Part,
    catalog,
    claim_by_name,
    estimate_qr,
    verify_all,
    verify_claim,
)
from .products import (
    EvalResult,
    Factor,
    ProductSpec,
    evaluate_abel,
    evaluate_direct,
    evaluate_moments,
    log_ratio_term,
    residue_split_check,
    telescoping_check,
)
from .sequences import (
    DigitStatPower,
    ExponentSeq,
    PeriodicPower,
    RecursionProfile,
    SignedResidue,
    StronglyMultiplicative,
    recursion_profile,
    thue_morse_seq,
    verify_strong_mult,
)
from .summatory import growth_check, partial_sum_direct, partial_sum_recursive

__version__ = "0.1.0"
