import dataclasses
import math
import sys
import threading
import time
from collections import Counter
from concurrent.futures import ThreadPoolExecutor

import pytest

from digitprod import identities
from digitprod.errors import ValidationError
from digitprod.identities import (
    CATALOG_TOL,
    catalog,
    claim_by_name,
    estimate_qr,
    verify_all,
    verify_claim,
)
from digitprod.identities import _zero_count_spec
from digitprod.products import evaluate_abel, evaluate_moments
from digitprod.sequences import recursion_profile


def test_catalog_size_and_names():
    claims = catalog()
    assert len(claims) >= 14
    names = [c.name for c in claims]
    assert len(set(names)) == len(names)
    assert "woods_robbins" in names


# (name, base, rhs value) of every claim, in catalog order
CATALOG = [
    ("woods_robbins", 2, 0.7071067811865476),
    ("woods_robbins_squared", 2, 0.5),
    ("strong_mult_gauss_b3", 3, 0.3333333333333333),
    ("zero_count_scaled_b2", 2, 0.5),
    ("zero_count_log_b2", 2, 0.25),
    ("roots_unity_sin_b5", 5, 0.447213595499958),
    ("roots_unity_cos_b5", 5, 1.0),
    ("sigma_first_b5", 5, 0.2),
    ("sigma_second_b5", 5, 1.0),
    ("digit_sum_pow_b3", 3, 0.3333333333333333),
    ("half_pow_digit_sum_b2", 2, 0.25),
    ("sin_digit_sum_b2", 2, 0.7071067811865476),
    ("cos_digit_sum_b2", 2, 1.0),
    ("sigma_digit_sum_first_b2", 2, 0.5),
    ("sigma_digit_sum_second_b2", 2, 1.0),
    ("theta_digit_sum_b3", 3, 0.3333333333333333),
    ("sum_digits_b2", 2, 0.7071067811865476),
    ("sum_digits_b3", 3, 0.5773502691896257),
    ("sum_digits_b6", 6, 0.408248290463863),
    ("digit_set_sin_b4", 4, 0.4491594092243593),
    ("digit_set_cos_b4", 4, 1.0),
    ("digit_set_parity_b5", 5, 0.447213595499958),
    ("count_ones_b2", 2, 0.7071067811865476),
    ("count_zeros_b2", 2, 0.7071067811865476),
    ("eta_count_b3", 3, 0.4807498567691361),
    ("theta_count_b3", 3, 1.0),
    ("alternating_b3", 3, 0.5773502691896263),
    ("alternating_b5", 5, 0.447213595499958),
]


def test_catalog_claims_are_pinned():
    claims = catalog()
    assert [c.name for c in claims] == [name for name, _, _ in CATALOG]
    for claim, (name, base, value) in zip(claims, CATALOG):
        # the claim's base is derived from its parts, so they must share it
        assert {part.spec.base for part in claim.parts} == {base}, name
        assert claim.base == base and claim.tol == CATALOG_TOL == 1e-12, name
        assert claim.rhs == pytest.approx(value, rel=1e-15, abs=0), name


def test_woods_robbins_rhs_value():
    claim = claim_by_name("woods_robbins")
    assert claim.rhs.real == pytest.approx(0.7071067811865476, abs=1e-16)


@pytest.mark.parametrize("tol", [0.0, -1e-12, math.inf, math.nan])
def test_claim_tolerance_must_be_finite_and_positive(tol):
    # an infinite tolerance would pass any claim
    claim = claim_by_name("woods_robbins")
    with pytest.raises(ValidationError, match="finite and positive"):
        dataclasses.replace(claim, tol=tol)


def test_every_claim_spec_admits_a_profile():
    for claim in catalog():
        for part in claim.parts:
            prof = recursion_profile(
                part.spec.seq,
                limit=max(4096, part.spec.base * (part.spec.base + 1)),
                base=part.spec.base,
            )
            assert abs(prof.v_total) < part.spec.base


def test_zero_count_z_guard():
    with pytest.raises(ValidationError):
        _zero_count_spec(2, 0.0, scaled=True)
    with pytest.raises(ValidationError):
        _zero_count_spec(2, 1.0, scaled=True)
    with pytest.raises(ValidationError):
        _zero_count_spec(2, 2.0, scaled=False)


def test_verify_single_claim():
    rep = verify_claim(claim_by_name("woods_robbins"), 10**5)
    assert rep.passed
    assert rep.rel_err <= 1e-5


def test_unknown_claim():
    with pytest.raises(ValidationError):
        claim_by_name("no_such_claim")


def test_verify_all_at_1e3_passes_at_tight_tolerance():
    # the moment tail leaves no truncation bias: a budget of 10**3 terms
    # meets the catalog's 1e-12 on every claim
    summary = verify_all(10**3)
    assert summary.total == 28
    assert summary.all_passed, [
        (r.name, r.rel_err) for r in summary.reports if not r.passed
    ]
    assert all(r.tol == 1e-12 and r.terms <= 1000 for r in summary.reports)


def test_verify_all_at_default_terms():
    summary = verify_all(10**6, threads=4)
    assert summary.all_passed, [
        (r.name, r.rel_err) for r in summary.reports if not r.passed
    ]
    assert summary.worst_rel_err <= 5e-4


def _count_evaluations(monkeypatch, failing_spec=None):
    calls = Counter()
    lock = threading.Lock()

    def counted(spec, n_terms, **kwargs):
        with lock:
            calls[(spec, n_terms)] += 1
        time.sleep(0.005)  # widen the window in which a second thread misses
        if spec == failing_spec:
            raise RuntimeError("evaluation failed")
        return evaluate_moments(spec, n_terms, **kwargs)

    monkeypatch.setattr(identities, "evaluate_moments", counted)
    return calls


def test_verify_all_evaluates_each_distinct_spec_once(monkeypatch):
    calls = _count_evaluations(monkeypatch)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=1) as runner:
            summary = runner.submit(verify_all, 3000, threads=4).result(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    distinct = {(part.spec, 3000) for c in catalog() for part in c.parts}
    assert summary.total == len(catalog())
    assert set(calls) == distinct
    assert set(calls.values()) == {1}


R5_CLAIMS = ("roots_unity_sin_b5", "roots_unity_cos_b5", "sigma_first_b5", "sigma_second_b5")


def test_failed_evaluation_reaches_every_claim_sharing_it(monkeypatch):
    claims = [claim_by_name(n) for n in R5_CLAIMS]
    spec = claims[0].parts[0].spec
    assert all(c.parts[0].spec == spec for c in claims)
    calls = _count_evaluations(monkeypatch, failing_spec=spec)
    with pytest.raises(RuntimeError, match="evaluation failed"):
        verify_all(3000, threads=4)
    assert calls[(spec, 3000)] == 1


def test_claims_sharing_an_evaluation_report_its_time():
    summary = verify_all(3000, threads=2)
    seconds = {r.name: r.seconds for r in summary.reports}
    assert seconds["roots_unity_sin_b5"] > 0
    assert seconds["roots_unity_sin_b5"] == seconds["sigma_first_b5"]


def test_verify_all_reports_do_not_depend_on_threads():
    runs = [verify_all(3000, threads=t).reports for t in (1, 2, 0)]
    for reports in runs[1:]:
        assert [(r.name, r.computed, r.err_est) for r in reports] == [
            (r.name, r.computed, r.err_est) for r in runs[0]
        ]


def test_err_est_conservative_on_catalog():
    # true error (vs the closed form) <= 3 * err_est for every claim
    for claim in catalog():
        rep = verify_claim(claim, 10**6)
        true_log_err = abs(
            math.log(abs(rep.computed)) - math.log(abs(rep.expected))
        )
        assert true_log_err <= 3.0 * rep.err_est + 1e-12, claim.name


def test_squared_sine_pair_matches_sigma():
    r_sin = verify_claim(claim_by_name("roots_unity_sin_b5"), 10**5)
    r_sigma = verify_claim(claim_by_name("sigma_first_b5"), 10**5)
    combined_tol = 2 * r_sin.tol + r_sigma.tol
    assert abs(r_sin.computed.real**2 - r_sigma.computed.real) <= combined_tol


def test_sum_digits_b2_equals_count_ones_b2():
    # the digit sum in base 2 counts the ones, so the two claims evaluate
    # to the same number
    a = verify_claim(claim_by_name("sum_digits_b2"), 10**5)
    b = verify_claim(claim_by_name("count_ones_b2"), 10**5)
    assert abs(a.computed - b.computed) <= 1e-9


def test_alternating_matches_sum_digits_for_odd_base():
    # over an odd base the parity of the digit sum is the parity of n
    a = verify_claim(claim_by_name("sum_digits_b3"), 10**6)
    b = verify_claim(claim_by_name("alternating_b3"), 10**6)
    assert abs(a.computed - b.computed) <= a.tol + b.tol


def test_cosine_claims_have_small_logs():
    for name in ("roots_unity_cos_b5", "cos_digit_sum_b2", "theta_count_b3"):
        claim = claim_by_name(name)
        rep = verify_claim(claim, 10**6)
        assert abs(math.log(abs(rep.computed))) <= claim.tol


def test_sigma_display_form_base5():
    # the squared sine pair in its rearranged shape, by raw summation:
    # exponents sigma(n), sigma(n)+sigma(n+1), sigma(n+1) on residues 1,2,3
    import numpy as np
    from math import fsum

    n_terms = 10**6
    sigma = np.array([1.0, 1.0, -1.0, -1.0])
    ns = np.arange(n_terms, dtype=np.int64)
    s_n, s_n1 = sigma[ns % 4], sigma[(ns + 1) % 4]
    a1 = -np.log1p(1.0 / (5 * ns + 1))
    a2 = -np.log1p(1.0 / (5 * ns + 2))
    a3 = -np.log1p(1.0 / (5 * ns + 3))
    total = fsum((s_n * a1 + (s_n + s_n1) * a2 + s_n1 * a3).tolist())
    assert abs(math.exp(total) - 0.2) * 5 <= 1e-5

    engine = verify_claim(claim_by_name("sigma_first_b5"), n_terms)
    assert abs(math.exp(total) - engine.computed.real) <= 1e-5


def test_sigma_of_digit_sum_display_form():
    import numpy as np
    from math import fsum
    from digitprod.digits import DigitStat, digit_stat_block

    n_terms = 10**6
    sigma = np.array([1.0, 1.0, -1.0, -1.0])
    ns = np.arange(n_terms, dtype=np.int64)
    u = sigma[digit_stat_block(ns, DigitStat.digit_sum(), 2) % 4]
    total = fsum((u * -np.log1p(1.0 / (2 * ns + 1))).tolist())
    assert abs(math.exp(total) - 0.5) * 2 <= 2e-4

    engine = verify_claim(claim_by_name("sigma_digit_sum_first_b2"), n_terms)
    assert abs(math.exp(total) - engine.computed.real) <= 2e-4


def test_theta_display_form_base3():
    # raw (3n+1)**t(s) (3n+2)**t(s+1) (3n+3)**t(s+2) with the 1,1,-2 pattern;
    # the per-n exponents sum to zero, so plain logs may be used directly
    import numpy as np
    from math import fsum
    from digitprod.digits import DigitStat, digit_stat_block

    n_terms = 10**6
    theta = np.array([1.0, 1.0, -2.0])
    ns = np.arange(n_terms, dtype=np.int64)
    s3 = digit_stat_block(ns, DigitStat.digit_sum(), 3)
    total = fsum(
        (
            theta[s3 % 3] * np.log(3 * ns + 1)
            + theta[(s3 + 1) % 3] * np.log(3 * ns + 2)
            + theta[(s3 + 2) % 3] * np.log(3 * ns + 3)
        ).tolist()
    )
    assert abs(math.exp(total) - 1 / 3) * 3 <= 1e-9

    engine = verify_claim(claim_by_name("theta_digit_sum_b3"), n_terms)
    assert abs(math.exp(total) - engine.computed.real) <= 1e-6


def test_eta_display_form_base3():
    import numpy as np
    from math import fsum
    from digitprod.digits import DigitStat, digit_stat_block

    n_terms = 10**6
    eta = np.array([1.0, 0.0, -1.0])
    ns = np.arange(n_terms, dtype=np.int64)
    u = eta[digit_stat_block(ns, DigitStat.count(1), 3) % 3]
    total = fsum((u * -np.log1p(1.0 / (3 * ns + 1))).tolist())
    expected = 3.0 ** (-2 / 3)
    assert abs(math.exp(total) - expected) / expected <= 5e-4

    engine = verify_claim(claim_by_name("eta_count_b3"), n_terms)
    assert abs(math.exp(total) - engine.computed.real) <= 5e-4


def test_estimate_qr():
    report = estimate_qr(10**6)
    assert report["Q"] > 0 and report["R"] > 0
    assert abs(report["product_check"] - 1.5) <= 1e-4


def test_estimate_qr_validates_terms():
    with pytest.raises(ValidationError):
        estimate_qr(10)


@pytest.mark.slow
def test_squared_prototype_from_trick():
    # the merge + split steps force the squared prototype product to 1/2
    from digitprod.products import ProductSpec, Factor
    from digitprod.sequences import thue_morse_seq

    spec = ProductSpec(2, [Factor(1, 1.0)], thue_morse_seq())
    r = evaluate_abel(spec, 10**7)
    assert abs(r.value.real**2 - 0.5) <= 2e-5
