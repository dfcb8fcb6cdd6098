"""Cross-checks of the block evaluation engine against a slow reference.

The reference computes sum_k c_k sum_{n in [start_k, N)} u(n) * a(n, k)
term by term with exact float summation, independent of the block and carry
bookkeeping in the engine.
"""

import math
from math import fsum

import pytest

from digitprod.digits import DigitStat
from digitprod.products import (
    Factor,
    ProductSpec,
    evaluate_abel,
    evaluate_direct,
    log_ratio_term,
)
from digitprod.sequences import (
    DigitStatPower,
    PeriodicPower,
    SignedResidue,
    StronglyMultiplicative,
    thue_morse_seq,
)


def reference_log(spec: ProductSpec, n_terms: int) -> complex:
    total_re, total_im = [], []
    for f in spec.factors:
        for n in range(f.start, n_terms):
            term = (
                f.multiplier
                * spec.seq.value(n)
                * log_ratio_term(spec.base, f.residue, n)
            )
            total_re.append(term.real)
            total_im.append(term.imag)
    return complex(fsum(total_re), fsum(total_im))


CASES = [
    ProductSpec(2, [Factor(1, 1.0)], thue_morse_seq()),
    ProductSpec(2, [Factor(0, 1.0, start=1), Factor(1, -2.0)], thue_morse_seq()),
    ProductSpec(
        3,
        [Factor(1, 0.5), Factor(2, 0.75)],
        DigitStatPower(3, 0.5, DigitStat.digit_sum()),
    ),
    ProductSpec(
        5,
        [Factor(k, 1 - 1j**k) for k in (1, 2, 3)],
        PeriodicPower(5, 4, 1),
    ),
    # exotic start overrides
    ProductSpec(
        4,
        [Factor(0, -1.0, start=3), Factor(2, 1.0, start=2), Factor(3, 1j, start=0)],
        thue_morse_seq(),
    ),
    ProductSpec(3, [Factor(1, 1.0)], SignedResidue(3, (1.0, -1.0))),
    ProductSpec(2, [Factor(1, 2.5j)], StronglyMultiplicative(2, (-0.5,))),
    # a start beyond N = 7 and 64 and inside the first block at N = 3000
    ProductSpec(
        3,
        [Factor(0, 1.0), Factor(1, -0.5, start=100), Factor(2, 1j, start=2)],
        DigitStatPower(3, 0.5, DigitStat.digit_sum()),
    ),
]


@pytest.mark.parametrize("spec", CASES, ids=range(len(CASES)))
@pytest.mark.parametrize("n_terms", [7, 64, 3000])
def test_direct_matches_reference(spec, n_terms):
    got = evaluate_direct(spec, n_terms)
    want = reference_log(spec, got.terms)
    assert abs(got.log_value - want) <= 1e-12 * max(1.0, abs(want))


@pytest.mark.parametrize("spec", CASES[:6], ids=range(6))
@pytest.mark.parametrize("n_terms", [8, 64, 3000])
def test_abel_partial_matches_reference(spec, n_terms):
    got = evaluate_abel(spec, n_terms)
    want = reference_log(spec, got.terms)
    assert abs(got.log_value - want) <= 1e-11 * max(1.0, abs(want))


def test_block_boundary_sizes_agree():
    # exercise spans straddling the internal block size
    spec = ProductSpec(2, [Factor(1, 1.0)], thue_morse_seq())
    for n_terms in ((1 << 19) - 2, 1 << 19, (1 << 19) + 2, (1 << 20) + 6):
        a = evaluate_abel(spec, n_terms)
        d = evaluate_direct(spec, n_terms)
        assert a.log_value == d.log_value


def test_full_complex_identity_through_engine():
    # the base-5 fourth-root product's complex log equals -log(5) exactly in
    # the limit; at 1e5 terms the engine should sit within its own estimate
    spec = ProductSpec(
        5, [Factor(k, 1 - 1j**k) for k in (1, 2, 3)], PeriodicPower(5, 4, 1)
    )
    r = evaluate_abel(spec, 10**5)
    assert abs(r.log_value - complex(-math.log(5), 0.0)) <= max(r.err_est, 1e-9)
