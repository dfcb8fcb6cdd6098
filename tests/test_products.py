import math
import os
import time

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from digitprod.digits import DigitStat, thue_morse
from digitprod.errors import (ConvergenceHypothesisViolated, DomainError, HypothesisFailed,
                              ValidationError)
from digitprod import products
from digitprod.identities import catalog
from digitprod.products import (
    Factor,
    ProductSpec,
    evaluate_abel,
    evaluate_direct,
    log_ratio_term,
    resolve_threads,
)
from digitprod.sequences import (
    DigitStatPower,
    PeriodicPower,
    SignedResidue,
    StronglyMultiplicative,
    recursion_profile,
    thue_morse_seq,
)
from trick_checks import recursion_deviation, residue_split_check, telescoping_check

SQRT2_INV = 2**-0.5


def woods_robbins_spec():
    return ProductSpec(2, [Factor(1, 1.0)], thue_morse_seq())


def test_log_ratio_term_examples():
    assert abs(log_ratio_term(2, 1, 0) - math.log(0.5)) <= 1e-16
    assert abs(log_ratio_term(3, 0, 1) - math.log(0.75)) <= 1e-16
    with pytest.raises(DomainError):
        log_ratio_term(2, 0, 0)


@given(st.integers(min_value=1, max_value=10**9), st.integers(min_value=2, max_value=10))
def test_log_ratio_term_bound(n, base):
    for k in range(base):
        val = log_ratio_term(base, k, n)
        assert val < 0
        assert abs(val) < 1.0 / (base * n + k)


def test_naive_two_terms_by_hand():
    r = evaluate_direct(woods_robbins_spec(), 2)
    expected = math.log(0.5) - math.log(0.75)
    assert abs(r.log_value - expected) <= 1e-15
    assert r.method == "naive"


def test_naive_empty_sum():
    spec = ProductSpec(2, [Factor(0, 1.0, start=1)], thue_morse_seq())
    r = evaluate_direct(spec, 1)
    assert r.log_value == 0
    assert r.value == 1


def test_naive_woods_robbins_at_1e6():
    r = evaluate_direct(woods_robbins_spec(), 10**6)
    assert abs(r.value.real - SQRT2_INV) <= 5e-6


def test_monotone_partial_sums_for_unit_exponent():
    ones = StronglyMultiplicative(2, (1.0,))
    spec = ProductSpec(2, [Factor(1, 1.0)], ones)
    logs = [evaluate_direct(spec, n).log_value.real for n in (10, 100, 1000)]
    assert logs[0] > logs[1] > logs[2]


def test_abel_requires_convergence_guard():
    diverging = DigitStatPower(2, -1.0, DigitStat.count_set({0, 1}))
    spec = ProductSpec(2, [Factor(0, 1.0), Factor(1, 1.0)], diverging)
    with pytest.raises(ConvergenceHypothesisViolated):
        evaluate_abel(spec, 10**4)


def test_abel_rejects_unbounded_table():
    seq = StronglyMultiplicative(2, (-2.0,))
    spec = ProductSpec(2, [Factor(1, 1.0)], seq)
    with pytest.raises(ValidationError):
        evaluate_abel(spec, 10**4)


@pytest.mark.slow
def test_abel_woods_robbins_at_1e7():
    r = evaluate_abel(woods_robbins_spec(), 10**7)
    assert abs(r.value.real - SQRT2_INV) <= 1e-6
    assert r.method == "abel"


@pytest.mark.slow
def test_abel_half_power_digit_sum_at_1e7():
    seq = DigitStatPower(2, 0.5, DigitStat.digit_sum())
    spec = ProductSpec(2, [Factor(1, 1.0)], seq)
    r = evaluate_abel(spec, 10**7)
    assert abs(r.value.real - 0.25) <= 5e-4


def _distinct_catalog_specs():
    seen = {}
    for claim in catalog():
        for i, part in enumerate(claim.parts):
            seen.setdefault(part.spec, f"{claim.name}-{i}")
    return list(seen.items())


# the catalog's specs and one complex-multiplier product outside it
SUM_SPECS = _distinct_catalog_specs() + [(
    ProductSpec(5, [Factor(k, 1 - 1j**k) for k in (1, 2, 3)], PeriodicPower(5, 4, 1)),
    "fourth_roots_b5",
)]


@pytest.mark.parametrize(
    "spec", [s for s, _ in SUM_SPECS], ids=[name for _, name in SUM_SPECS]
)
def test_abel_without_extrapolation_matches_naive_partial(spec):
    # both evaluators read the same truncated sum: equal to the last bit
    for n in (10**4, 10**5):
        a = evaluate_abel(spec, n)
        d = evaluate_direct(spec, n)
        assert a.method == "abel"
        assert a.log_value == d.log_value, n


def test_abel_error_bound_keeps_f_at_one():
    # Thue-Morse F vanishes at every even index and sum v = 0, so the tail
    # bound rests on Phi(1) = |F(1)| = |u(0)| = 1 alone: sum_j j |v(j)| = 1
    # times 2 Phi(1) / (B**3 m0**2) with m0 = N/B, plus the rounding bound
    spec = woods_robbins_spec()
    n = (1 << 20) + 2
    r = evaluate_abel(spec, n)
    assert r.terms == n
    rounding = (n.bit_length() + 20) * 2.0**-53 * products._abs_log_sum(spec, n)
    assert r.err_est == pytest.approx(2 / (8 * (n // 2) ** 2) + rounding, rel=1e-12)


def test_abel_bound_near_the_guard_is_finite_and_fast():
    # |sum v| = 2 - 1e-6: the level sums are geometric series of ratio
    # 1 - 5e-7, summed in closed form rather than term by term
    spec = ProductSpec(2, [Factor(1, 1.0)], StronglyMultiplicative(2, (0.999999,)))
    t0 = time.perf_counter()
    r = evaluate_abel(spec, 10**5)
    assert time.perf_counter() - t0 < 1.0
    assert math.isfinite(r.err_est) and r.err_est > 0


def test_eval_result_value_is_exp_of_log():
    r = evaluate_abel(woods_robbins_spec(), 10**4)
    import cmath

    assert r.value == cmath.exp(r.log_value)
    assert r.err_est >= 0
    assert r.terms == 10**4


def test_terms_round_up_to_base_multiple():
    spec = ProductSpec(
        3, [Factor(1, 1.0), Factor(2, 1.0)], DigitStatPower(3, -1.0, DigitStat.digit_sum())
    )
    r = evaluate_direct(spec, 10**4 + 1)
    assert r.terms % 3 == 0
    assert r.terms >= 10**4 + 1


def test_thue_morse_tail_is_order_one_over_n():
    spec = woods_robbins_spec()
    deltas = []
    for n in (10**4, 10**5):
        a = evaluate_abel(spec, n)
        b = evaluate_abel(spec, 2 * n)
        deltas.append(abs(a.log_value - b.log_value) * n)
    assert max(deltas) < 10.0


def test_telescoping_identities_by_hand():
    # base 2, n = 3: log(6/7) + log(7/8) = log(3/4)
    lhs = log_ratio_term(2, 0, 3) + log_ratio_term(2, 1, 3)
    assert abs(lhs - math.log(0.75)) <= 1e-15
    # base 5, n = 0 over k = 1..4: product of k/(k+1) is 1/5
    total = sum(log_ratio_term(5, k, 0) for k in range(1, 5))
    assert abs(total + math.log(5)) <= 1e-14


@pytest.mark.parametrize("base", [2, 3, 5, 7, 10])
def test_telescoping_check(base):
    seq = DigitStatPower(base, -1.0, DigitStat.digit_sum())
    rep = telescoping_check(seq, 10**4)
    assert rep.passed
    assert rep.max_pointwise_dev <= 1e-12


def test_telescoping_requires_unit_bound():
    seq = StronglyMultiplicative(2, (3.0,))
    with pytest.raises(ValidationError):
        telescoping_check(seq, 100)


def test_residue_split_thue_morse():
    rep = residue_split_check(thue_morse_seq(), 512)
    assert rep.passed
    assert rep.split_dev <= 1e-12
    assert rep.substitution_dev <= 1e-12


def test_residue_split_minimal():
    rep = residue_split_check(thue_morse_seq(), 1)
    assert rep.passed


def test_residue_split_digit_sum_base3():
    seq = DigitStatPower(3, -1.0, DigitStat.digit_sum())
    rep = residue_split_check(seq, 729)
    assert rep.passed


def test_residue_split_refuses_a_window_that_does_not_certify():
    # Thue-Morse repeated with period 8192: u(2n + k) = u(n) v(k) holds on
    # the default window [0, 4096], which does not prove it for every n, and
    # first breaks where 2n + k wraps
    seq = SignedResidue(2, [thue_morse(n) for n in range(8192)])
    with pytest.raises(HypothesisFailed):
        residue_split_check(seq, 3 * 8192)
    u = seq.block(np.arange(2 * 3 * 8192, dtype=np.int64))
    sub_dev, first = recursion_deviation(u, recursion_profile(thue_morse_seq()).v, 1)
    assert sub_dev == 2.0
    assert first[0] == 4096


@pytest.mark.parametrize("n_limit", [1, 2**19 + 5])
def test_trick_checks_at_the_range_ends(n_limit):
    # n_limit = 1 leaves every range empty; 2**19 + 5 spans more than one
    # engine block in a single pass
    merge = telescoping_check(thue_morse_seq(), n_limit)
    split = residue_split_check(thue_morse_seq(), n_limit)
    assert merge.passed and split.passed
    assert merge.checked == split.checked == n_limit


def test_factor_validation():
    with pytest.raises(ValidationError):
        Factor(0, 1.0, start=0)  # the n = 0 numerator would vanish
    with pytest.raises(ValidationError):
        ProductSpec(2, [], thue_morse_seq())
    with pytest.raises(ValidationError):
        ProductSpec(2, [Factor(1), Factor(1)], thue_morse_seq())
    with pytest.raises(ValidationError):
        ProductSpec(2, [Factor(5)], thue_morse_seq())


def test_negative_threads_refused_before_series_work(monkeypatch):
    def no_series_work(*args, **kwargs):
        raise AssertionError("series work started")

    monkeypatch.setattr(products, "_engine", no_series_work)
    monkeypatch.setattr(products, "recursion_profile", no_series_work)
    spec = woods_robbins_spec()
    with pytest.raises(ValidationError, match="threads"):
        evaluate_direct(spec, 10**6, threads=-1)
    with pytest.raises(ValidationError, match="threads"):
        evaluate_abel(spec, 10**6, threads=-1)


def test_resolve_threads():
    assert resolve_threads(3) == 3
    assert resolve_threads(0) == min(8, os.cpu_count() or 1)
    with pytest.raises(ValidationError):
        resolve_threads(-1)


def test_threads_do_not_change_bits():
    # above 2**20 terms: several full blocks and the trailing block
    spec = ProductSpec(5, [Factor(k, 1 - 1j**k) for k in (1, 2, 3)], PeriodicPower(5, 4, 1))
    n = (1 << 21) + 7
    for evaluate in (evaluate_direct, evaluate_abel):
        r1, r4 = evaluate(spec, n, threads=1), evaluate(spec, n, threads=4)
        assert r1.log_value == r4.log_value
        assert r1.err_est == r4.err_est


@pytest.mark.parametrize("base", [2, 3, 5])
def test_terms_capped_so_every_index_is_exact(base):
    spec = ProductSpec(base, [Factor(1, 1.0)], thue_morse_seq())
    n = 2**53 // base + 1
    with pytest.raises(ValidationError, match=r"2\*\*53"):
        evaluate_direct(spec, n)
    with pytest.raises(ValidationError, match=r"2\*\*53"):
        evaluate_abel(spec, n)


def test_value_overflow_raises_domain_error():
    # the log is finite; only its exponential overflows, when value is read
    result = products.EvalResult(1000.0 + 0j, 0.0, 10, "naive")
    with pytest.raises(DomainError, match=r"its log is \(1000\+0j\)"):
        result.value
    assert products.EvalResult(-1000.0 + 0j, 0.0, 10, "naive").value == 0


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("factors", [
    [(1, 1.0)], [(0, 1.0), (1, -1.0)], [(0, 1e300), (1, -1e300)]])
def test_direct_refuses_a_log_sum_that_is_not_finite(factors):
    # u(1) = 1e308 makes the sums overflow to -inf, to inf - inf or past the
    # float range, without a floating-point warning
    spec = ProductSpec(2, factors, StronglyMultiplicative(2, [1e308]))
    for threads in (1, 2):
        with pytest.raises(ValidationError, match="is not finite: a term overflows a float"):
            evaluate_direct(spec, 10**5, threads=threads)

