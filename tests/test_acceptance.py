"""Acceptance criteria, one test per criterion.

Each test prints a single PASS/FAIL line (visible with ``pytest -s`` or in
captured output) and asserts the criterion at its stated tolerance.  The
heavy criteria evaluate products with a budget of 10**7 terms, which the
moment method meets with ~10**3; C3 also sums all 10**7 directly.
"""

import json
import math
import time

import numpy as np
import pytest

from digitprod.cli import main
from digitprod.digits import DigitStat, digits_of
from digitprod.errors import (
    ConvergenceHypothesisViolated,
    HypothesisFailed,
    ValidationError,
)
from digitprod.gammaproducts import (
    alternating_pair_quotient,
    odd_base_products,
    quotient_limit,
    wallis_quotient,
)
from digitprod.identities import (
    CATALOG_TOL,
    catalog,
    claim_by_name,
    estimate_qr,
    verify_claim,
)
from digitprod.products import (
    Factor,
    ProductSpec,
    evaluate_abel,
    evaluate_moments,
)
from digitprod.sequences import (
    DigitStatPower,
    PeriodicPower,
    SignedResidue,
    StronglyMultiplicative,
    recursion_profile,
    thue_morse_seq,
)
from digitprod.summatory import partial_sum_direct, partial_sum_recursive
from trick_checks import residue_split_check, telescoping_check

TERMS = 10**7


def passfail(label: str, ok: bool, **info) -> bool:
    tag = "PASS" if ok else "FAIL"
    extra = "  ".join(f"{k}={v:.3e}" if isinstance(v, float) else f"{k}={v}"
                      for k, v in info.items())
    print(f"{tag} {label:<58s} {extra}")
    return ok


def test_c01_woods_robbins_via_cli(capsys):
    t0 = time.perf_counter()
    code = main(["verify", "--claim", "woods_robbins", "--terms", str(TERMS)])
    elapsed = time.perf_counter() - t0
    out = capsys.readouterr().out
    payload = json.loads(out)
    ok = (
        code == 0
        and payload["pass"]
        and payload["rel_err"] <= 1e-5
        and elapsed <= 30.0
    )
    with capsys.disabled():
        passfail("C1 woods_robbins at 1e7", ok,
                 rel_err=payload["rel_err"], seconds=elapsed)
    assert ok


def test_c02_sum_of_digits_family(capsys):
    reports = [verify_claim(claim_by_name(f"sum_digits_b{b}"), TERMS) for b in (2, 3, 6)]
    ok = all(r.rel_err <= 1e-4 for r in reports)
    with capsys.disabled():
        for r in reports:
            passfail(f"C2 {r.name} = 1/sqrt(B)", r.rel_err <= 1e-4, rel_err=r.rel_err)
    assert ok


def test_c03_half_power_digit_sum(capsys):
    claim = claim_by_name("half_pow_digit_sum_b2")
    direct = evaluate_abel(claim.parts[0].spec, TERMS)
    direct_err = abs(direct.log_value - math.log(0.25))
    ok_direct = direct_err <= direct.err_est <= 200 * direct_err and direct.terms >= TERMS
    rep = verify_claim(claim, TERMS)
    ok_moments = rep.rel_err <= 1e-12 and rep.terms <= TERMS
    with capsys.disabled():
        passfail("C3 (1/2)**digit_sum product = 1/4, summed to 1e7", ok_direct,
                 log_err=direct_err, err_est=direct.err_est)
        passfail("C3 (1/2)**digit_sum product = 1/4, moments", ok_moments,
                 rel_err=rep.rel_err, terms=rep.terms)
    assert ok_direct and ok_moments


def test_c04_sigma_pair_base5(capsys):
    first, second = (verify_claim(claim_by_name(n), TERMS)
                     for n in ("sigma_first_b5", "sigma_second_b5"))
    ok_first = first.rel_err <= 1e-4
    log_second = abs(math.log(abs(second.computed)))
    ok_second = log_second <= 1e-4
    with capsys.disabled():
        passfail("C4 sigma pair first = 1/5", ok_first, rel_err=first.rel_err)
        passfail("C4 sigma pair second = 1 (log)", ok_second, log_err=log_second)
    assert ok_first and ok_second


def test_c05_theta_eta_base3(capsys):
    names = ["theta_digit_sum_b3", "eta_count_b3", "theta_count_b3"]
    reports = [verify_claim(claim_by_name(n), TERMS) for n in names]
    ok = all(r.rel_err <= 5e-4 for r in reports)
    with capsys.disabled():
        for r in reports:
            passfail(f"C5 {r.name}", r.rel_err <= 5e-4, rel_err=r.rel_err)
    assert ok


def test_c06_digit_set_base4(capsys):
    rep = verify_claim(claim_by_name("digit_set_sin_b4"), TERMS)
    ok = rep.rel_err <= 5e-4
    with capsys.disabled():
        passfail("C6 digit-set {1,3} base 4", ok, rel_err=rep.rel_err,
                 expected=rep.expected.real)
    assert ok


def test_c07_q_times_r(capsys):
    report = estimate_qr(TERMS)
    dev = abs(report["product_check"] - 1.5)
    ok = dev <= 1e-4
    with capsys.disabled():
        passfail("C7 Q*R = 3/2", ok, Q=report["Q"], R=report["R"], dev=dev)
    assert ok


def test_c08_gamma_side(capsys):
    wallis_err = abs(quotient_limit(wallis_quotient()) - math.pi / 2)
    ok_wallis = wallis_err <= 1e-11

    p13_err = abs(quotient_limit(alternating_pair_quotient(3, 1)) - 3**-0.5)
    ok_p13 = p13_err <= 1e-10

    ok_odd = True
    for b in (3, 5, 7, 9):
        ok_odd &= abs(odd_base_products(b).wallis - math.pi / 2) <= 1e-12
    # both base-3 sides, prod_{n >= 1} ((3n+k)/(3n+k+1))**(-1)**n over even
    # and odd k, through the moments: (-1)**n has v(k) = (-1)**k in base 3
    closed = odd_base_products(3)
    side_err = max(
        abs(evaluate_moments(ProductSpec(3, [Factor(k, 1, 1) for k in range(parity, 3, 2)],
                                         PeriodicPower(3, 2, 1)), 10**6).value.real / c - 1)
        for parity, c in ((0, closed.even_k), (1, closed.odd_k)))
    ok_side = side_err <= CATALOG_TOL

    with capsys.disabled():
        passfail("C8 Wallis quotient = pi/2", ok_wallis, abs_err=wallis_err)
        passfail("C8 base-3 pair quotient = 1/sqrt(3)", ok_p13, abs_err=p13_err)
        passfail("C8 odd-base closed forms give pi/2", ok_odd)
        passfail("C8 alternating sides at 1e6", ok_side, max_rel_err=side_err)
    assert ok_wallis and ok_p13 and ok_odd and ok_side


def _random_recursion_family(rng, count):
    out = []
    attempts = 0
    while len(out) < count and attempts < 50 * count:
        attempts += 1
        kind = int(rng.integers(0, 4))
        try:
            if kind == 0:
                b = int(rng.integers(2, 9))
                vals = []
                for _ in range(b - 1):
                    r = rng.uniform(0, 1) ** 0.5
                    phi = rng.uniform(0, 2 * np.pi)
                    vals.append(complex(r * np.cos(phi), r * np.sin(phi)))
                seq = StronglyMultiplicative(b, vals)
            elif kind == 1:
                b = int(rng.integers(2, 9))
                r = rng.uniform(0.2, 1.0)
                phi = rng.uniform(0, 2 * np.pi)
                w = complex(r * np.cos(phi), r * np.sin(phi))
                choice = int(rng.integers(0, 3))
                if choice == 0:
                    stat = DigitStat.digit_sum()
                elif choice == 1:
                    stat = DigitStat.count(int(rng.integers(0, b)))
                else:
                    js = set(
                        int(j)
                        for j in rng.choice(b, size=int(rng.integers(1, b)), replace=False)
                    )
                    stat = DigitStat.count_set(js)
                seq = DigitStatPower(b, w, stat)
            elif kind == 2:
                q = int(rng.choice([2, 3, 4, 6]))
                b = q * int(rng.integers(1, 4)) + 1  # base = 1 mod q
                p = int(rng.integers(1, q))
                seq = PeriodicPower(b, q, p)
            else:
                b = int(rng.choice([3, 5, 7, 9]))
                seq = SignedResidue(b, (1.0, -1.0))
            profile = recursion_profile(seq, 4096)
        except (ConvergenceHypothesisViolated, HypothesisFailed,
                ValidationError):
            continue
        out.append((seq, profile))
    return out


def test_c09_oracle_equivalence(capsys, rng):
    family = _random_recursion_family(rng, 50)
    assert len(family) == 50
    worst = 0.0
    for seq, profile in family:
        for n in (10**3, 10**4, 10**5):
            direct = partial_sum_direct(seq, n)
            fast = partial_sum_recursive(profile, seq, n)
            worst = max(worst, abs(direct - fast))
    ok_sums = worst <= 1e-9

    worst_factor = 0.0
    for _ in range(20):
        b = int(rng.integers(2, 9))
        vals = []
        for _ in range(b - 1):
            r = rng.uniform(0, 1) ** 0.5
            phi = rng.uniform(0, 2 * np.pi)
            vals.append(complex(r * np.cos(phi), r * np.sin(phi)))
        seq = StronglyMultiplicative(b, vals)
        u = seq.block(np.arange(0, 10**4, dtype=np.int64))
        full = (complex(1.0),) + seq.values
        for n in range(10**4):
            expected = complex(1.0)
            for d in digits_of(n, b):
                expected *= full[d]
            worst_factor = max(worst_factor, abs(u[n] - expected))
    ok_factor = worst_factor <= 1e-12

    with capsys.disabled():
        passfail("C9 recursive = direct partial sums (50 seqs)", ok_sums,
                 worst=worst)
        passfail("C9 digit-product factorization (20 tables)", ok_factor,
                 worst=worst_factor)
    assert ok_sums and ok_factor


def test_c10_structural_identities(capsys):
    ok_tel = True
    for b in range(2, 11):
        seq = DigitStatPower(b, -1.0, DigitStat.digit_sum())
        ok_tel &= telescoping_check(seq, 10**4).passed

    ok_split = True
    seen = set()
    for claim in catalog():
        for part in claim.parts:
            key = (part.spec.seq, part.spec.base)
            if key in seen:
                continue
            seen.add(key)
            b = part.spec.base
            rep = residue_split_check(part.spec.seq, b**6)
            ok_split &= rep.passed

    # the classic base-2 trick: merge the residue factors, then split by parity
    merge = telescoping_check(thue_morse_seq(), 2**10)
    split = residue_split_check(thue_morse_seq(), 2**10)
    ok_trick = merge.passed and split.passed

    with capsys.disabled():
        passfail("C10 telescoping, all bases <= 10 at 1e4", ok_tel)
        passfail(f"C10 residue split, {len(seen)} catalog sequences at B**6",
                 ok_split)
        passfail("C10 merge/split skeleton at 2**10", ok_trick,
                 merge_dev=merge.max_pointwise_dev, split_dev=split.split_dev)
    assert ok_tel and ok_split and ok_trick


def test_c11_divergence_guard(capsys):
    seq = DigitStatPower(2, -1.0, DigitStat.count_set({0, 1}))
    spec = ProductSpec(2, [Factor(0, 1.0), Factor(1, 1.0)], seq)
    t0 = time.perf_counter()
    with pytest.raises(ConvergenceHypothesisViolated):
        evaluate_abel(spec, TERMS)
    elapsed = time.perf_counter() - t0
    ok = elapsed < 5.0  # rejected by the profile guard, never evaluated
    with capsys.disabled():
        passfail("C11 digit-length spec rejected before evaluation", ok,
                 seconds=elapsed)
    assert ok


def test_c12_thue_morse_partial_sums_bounded(capsys):
    n = 2**24
    eps = thue_morse_seq().block(np.arange(n, dtype=np.int64)).astype(np.int8)
    sums = np.cumsum(eps, dtype=np.int32)
    lo, hi = int(sums.min()), int(sums.max())
    ok = -1 <= lo and hi <= 1
    with capsys.disabled():
        passfail("C12 parity partial sums in {-1,0,1} up to 2**24", ok,
                 min=lo, max=hi)
    assert ok
