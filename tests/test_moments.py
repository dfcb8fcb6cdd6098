"""The digit-moment evaluator: budget, certificate and error-bound properties.

The reference values come from an independent high-precision evaluation in
mpmath (a longer head, order 14, an LU solve), which agrees with the catalog's
closed forms; the direct sum at 10**6 is the independent low-precision oracle.
"""

import cmath
import re
import time

import numpy as np
import pytest

from digitprod import cli, products, sequences
from digitprod.digits import DigitStat
from digitprod.errors import (
    ConvergenceHypothesisViolated,
    HypothesisFailed,
    ValidationError,
)
from digitprod.identities import (
    catalog,
    estimate_qr,
    q_product_spec,
    r_product_spec,
    verify_all,
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
    recursion_profile,
    thue_morse_seq,
)


def _part_specs():
    specs = {}
    for claim in catalog():
        for part in claim.parts:
            specs.setdefault(part.spec, claim.name)
    return specs


PART_SPECS = _part_specs()
SPECS = list(PART_SPECS) + [q_product_spec(), r_product_spec()]
SPEC_IDS = list(PART_SPECS.values()) + ["Q", "R"]


def _tm_repeating(period: int) -> SignedResidue:
    # the first `period` parity-of-ones values, repeated: the recursion holds
    # for n < period / 2 and breaks at n = period / 2
    u = thue_morse_seq().block(np.arange(period, dtype=np.int64))
    return SignedResidue(2, u.tolist())


def _default_level(spec):
    return products._moment_level(spec, 10**6)


@pytest.mark.parametrize("start, budget, least, mention", [
    (0, 3, 4, False), (2, 3, 4, False), (5, 15, 16, True), (5, 4, 16, True)])
def test_moment_level_names_the_least_budget(start, budget, least, mention):
    # the least L >= 1 with 2**L >= every start sets the least budget 2**(L+1);
    # the start is named only when it raises L above 1
    spec = ProductSpec(2, [Factor(1, 1.0, start=start)], thue_morse_seq())
    with pytest.raises(ValidationError) as info:
        products._moment_level(spec, budget)
    message = str(info.value)
    assert message.startswith(
        f"n_terms = {budget} is below {least}, the least budget of the moment "
        "method in base 2")
    assert ("starting at n = 5" in message) == mention
    assert products._moment_level(spec, least) >= 1


def _at_level(spec, level):
    v = recursion_profile(spec.seq, base=spec.base).v
    return products._moments_at_level(spec, v, level)


def _reference_log(spec, dps=25, order=14, head=64):
    """The log-sum at dps digits from the sequence's own float values."""
    mp = pytest.importorskip("mpmath")
    with mp.workdps(dps):
        base = spec.base
        level = 1
        while base**level < max(head, max(f.start for f in spec.factors)):
            level += 1
        lo, hi = base**level, base ** (level + 1)
        u = [mp.mpc(complex(x)) for x in spec.seq.block(np.arange(hi, dtype=np.int64))]
        v = [mp.mpc(x) for x in recursion_profile(spec.seq, base=base).v]
        total = mp.mpc(0)
        for f in spec.factors:
            total += mp.mpc(f.multiplier) * mp.fsum(
                u[n] * -mp.log1p(mp.mpf(1) / (base * n + f.residue))
                for n in range(f.start, lo)
            )
        moments = [mp.mpc(0)] * order
        for n in range(lo, hi):
            x, p = mp.mpf(1) / n, u[n]
            for r in range(order):
                p *= x
                moments[r] += p
        m = [mp.fsum(v[j] * (mp.mpf(j) ** i if j else int(i == 0)) for j in range(base))
             for i in range(order)]
        mat = mp.eye(order)
        for r in range(1, order + 1):
            for s in range(r, order + 1):
                mat[r - 1, s - 1] -= (
                    (-1) ** (s - r) * mp.binomial(s - 1, s - r) * m[s - r] / mp.mpf(base) ** s
                )
        tail = mp.lu_solve(mat, mp.matrix(moments))
        for s in range(1, order + 1):
            weight = mp.fsum(
                mp.mpc(f.multiplier) * ((f.residue + 1) ** s - f.residue**s)
                for f in spec.factors
            )
            total += weight * (-1) ** s / (s * mp.mpf(base) ** s) * tail[s - 1]
        return complex(total)


@pytest.fixture(scope="module")
def references():
    return {spec: _reference_log(spec) for spec in SPECS}


def test_reference_matches_the_closed_forms(references):
    # validates the mpmath reference on every claim it determines fully
    for claim in catalog():
        total = sum(part.contribution(references[part.spec]) for part in claim.parts)
        assert abs(cmath.exp(total) - claim.rhs) <= 2e-15, claim.name


@pytest.mark.parametrize("spec", SPECS, ids=SPEC_IDS)
def test_err_est_is_honest_and_tight(spec, references):
    res = evaluate_moments(spec, 10**6)
    assert res.method == "moments"
    true_err = abs(res.log_value - references[spec])
    assert true_err <= res.err_est
    assert res.err_est <= 100 * max(true_err, 1e-15)


@pytest.mark.parametrize("spec", SPECS, ids=SPEC_IDS)
def test_err_est_bounds_every_level(spec, references):
    # down to L0 = 1, where truncation dominates the error
    for level in range(1, _default_level(spec) + 2):
        res = _at_level(spec, level)
        assert abs(res.log_value - references[spec]) <= res.err_est, level


@pytest.mark.parametrize("spec", SPECS, ids=SPEC_IDS)
def test_next_level_within_err_est(spec):
    level = _default_level(spec)
    here, deeper = _at_level(spec, level), _at_level(spec, level + 1)
    assert abs(here.log_value - deeper.log_value) <= here.err_est


@pytest.mark.parametrize("spec", SPECS, ids=SPEC_IDS)
def test_agrees_with_the_direct_sum(spec):
    direct = evaluate_abel(spec, 10**6)
    gap = abs(evaluate_moments(spec, 10**6).log_value - direct.log_value)
    assert gap <= direct.err_est


@pytest.mark.parametrize("n_terms", [10**4, 10**5, 10**6])
@pytest.mark.parametrize("spec", SPECS, ids=SPEC_IDS)
def test_abel_err_est_is_honest_and_tight(spec, n_terms, references):
    res = evaluate_abel(spec, n_terms)
    true_err = abs(res.log_value - references[spec])
    assert true_err <= res.err_est
    # below 1e-10 the tail cancels to a higher order than the bound follows
    # (the Thue-Morse specs: 1e-16 at N = 10**4)
    if true_err > 1e-10:
        assert res.err_est <= 200 * true_err


def test_budget_picks_the_level():
    spec = ProductSpec(3, [Factor(1, 1.0)], DigitStatPower(3, -1.0, DigitStat.digit_sum()))
    assert evaluate_moments(spec, 10**6).terms == 3**7  # 3**6 >= 256
    assert evaluate_moments(spec, 3**7).terms == 3**7
    assert evaluate_moments(spec, 3**7 - 1).terms == 3**6
    assert evaluate_moments(spec, 9).terms == 9  # L0 = 1
    for n_terms in (8, 3, 0, -1):
        with pytest.raises(ValidationError):
            evaluate_moments(spec, n_terms)


def test_late_start_sets_the_level():
    spec = ProductSpec(2, [Factor(1, 1.0, start=1000)], thue_morse_seq())
    assert evaluate_moments(spec, 10**6).terms == 2048  # 2**10 >= 1000
    with pytest.raises(ValidationError):
        evaluate_moments(spec, 2047)  # 2**9 < 1000


def test_refusals_come_before_series_work(monkeypatch):
    def fail(*args, **kwargs):
        raise AssertionError("series work started")

    monkeypatch.setattr(products, "evaluate_direct", fail)
    spec = ProductSpec(2, [Factor(1, 1.0)], thue_morse_seq())
    for n_terms in (3, 2**53 // 2 + 1):
        with pytest.raises(ValidationError):
            evaluate_moments(spec, n_terms)
    with pytest.raises(ValidationError, match="threads"):
        verify_all(1000, threads=-1)
    with pytest.raises(HypothesisFailed):
        evaluate_moments(ProductSpec(2, [Factor(1, 1.0)], _tm_repeating(8192)), 1000)


def test_digit_families_certified_in_powers_of_their_base():
    tm = thue_morse_seq()
    # a profile is returned only where its window proves the recursion
    assert recursion_profile(tm, base=2).base == 2
    assert recursion_profile(tm, base=8).base == 8
    seq = DigitStatPower(4, 1j, DigitStat.count(1))
    for base, certified in ((4, True), (16, True), (2, False), (8, False), (12, False)):
        # the type alone proves the recursion there: no window is needed
        assert (sequences._certifying_window(seq, base) == 0) is certified, base


def test_periodic_families_certified_over_one_period():
    seq = PeriodicPower(5, 8, 2)  # i**n, kept as 1/4: the recursion holds in base 5
    assert (seq.q, seq.p) == (4, 1)
    # [0, 29] holds n = 1..5 for every k: a full period 4 plus one.  It is
    # longer than limit = 25 and within the least window allowed, [0, 30]
    assert sequences._certifying_window(seq, 5) == 29
    assert recursion_profile(seq, limit=25, base=5).v == recursion_profile(seq).v
    residue = SignedResidue(3, (1.0, -1.0))
    assert sequences._certifying_window(residue, 3) == 11
    assert recursion_profile(residue, base=3).v == (1.0, -1.0, 1.0)


def _tm_then_runs() -> SignedResidue:
    # the period-8192 sequence equal to Thue-Morse on [0, 4100), then 2046
    # values +1 and 2046 values -1
    u = thue_morse_seq().block(np.arange(4100, dtype=np.int64)).tolist()
    return SignedResidue(2, u + [1.0] * 2046 + [-1.0] * 2046)


def test_explicit_window_that_does_not_certify_is_refused():
    seq = _tm_then_runs()  # period 8192: certified on [0, 16387]
    # [0, 4096] holds n = 1..2047 for every k, not a full period 8192 plus one
    message = "checked on [0, 4096] only, and proving it for every n >= 1 needs [0, 16387]"
    with pytest.raises(HypothesisFailed, match=re.escape(message)):
        recursion_profile(seq, 4096, base=2)
    # the certifying window is checked, and the recursion breaks inside it
    with pytest.raises(HypothesisFailed, match=r"fails at n=2050, k=1"):
        recursion_profile(seq, 16387, base=2)


def test_window_passing_periodic_spec_is_refused():
    seq = _tm_repeating(8192)
    # the recursion holds on the default window [0, 4096], but a period-8192
    # window, 2*8193 + 1, exceeds max(4096, B*(B+1)): no window proves it
    with pytest.raises(HypothesisFailed, match=r"checked on \[0, 4096\] only"):
        recursion_profile(seq, base=2)
    with pytest.raises(HypothesisFailed):
        recursion_profile(seq, limit=3 * 8192, base=2)  # it breaks beyond
    spec = ProductSpec(2, [Factor(1, 1.0)], seq)
    with pytest.raises(HypothesisFailed):
        evaluate_moments(spec, 10**6)
    # the summation-by-parts bound needs the recursion for every n as well
    with pytest.raises(HypothesisFailed):
        evaluate_abel(spec, 10**4)


def test_abel_refuses_the_recursion_its_bound_would_miss():
    # every window of the default size passes, and a bound built on it read
    # 1e-8 against a true error of 2.4e-2
    seq = _tm_then_runs()
    spec = ProductSpec(2, [Factor(1, 1.0)], seq)
    with pytest.raises(HypothesisFailed):
        recursion_profile(seq, base=2)
    with pytest.raises(HypothesisFailed):
        evaluate_abel(spec, 10**4)
    with pytest.raises(HypothesisFailed):
        evaluate_moments(spec, 10**6)


def test_periodic_pow_is_kept_in_lowest_terms():
    assert PeriodicPower(3, 10000, 5000) == PeriodicPower(3, 2, 1)
    assert PeriodicPower(5, 8, 6) == PeriodicPower(5, 4, 3)


def test_signed_residue_is_kept_at_its_least_period():
    seq = SignedResidue(3, (1.0, -1.0) * 3000)  # (-1)**n, given over 6000 entries
    assert seq.signs == (1.0, -1.0) and seq.period == 2
    # zero signs tell entries apart; a table that is no repetition stays
    assert SignedResidue(3, (0.0, -0.0) * 2).signs == (0.0, -0.0)
    assert repr(SignedResidue(3, (0.0, -0.0) * 2).value(1)) == "(-0+0j)"
    assert SignedResidue(3, (1.0, -1.0, 1.0)).period == 3
    got = evaluate_moments(ProductSpec(3, [Factor(1)], seq), 1000)
    want = evaluate_moments(ProductSpec(3, [Factor(1)], PeriodicPower(3, 2, 1)), 1000)
    assert repr(got) == repr(want)


def test_cli_eval_reduces_periodic_pow(capsys):
    # the same (-1)**n: its period is 2, not 10000
    for method in ("moments", "abel"):
        outs = []
        for exponent in ("periodic_pow(10000,5000)", "periodic_pow(2,1)"):
            argv = ["eval", "--spec", f"base=3; exponent={exponent}; factors=1",
                    "--method", method, "--terms", "1000", "--output", "json"]
            assert cli.main(argv) == 0, (method, exponent)
            outs.append(capsys.readouterr().out)
        assert outs[0] == outs[1], method


def test_cli_moments_refuses_uncertified_spec_exit_3(monkeypatch, capsys):
    spec = ProductSpec(2, [Factor(1, 1.0)], _tm_repeating(8192))
    monkeypatch.setattr(cli, "parse_spec", lambda text: spec)
    argv = ["eval", "--spec", "any", "--method", "moments", "--terms", "1000"]
    assert cli.main(argv) == 3
    assert "n >= 1" in capsys.readouterr().err


def test_divergent_spec_refused_quickly():
    seq = DigitStatPower(2, -1.0, DigitStat.count_set({0, 1}))
    spec = ProductSpec(2, [Factor(0, 1.0), Factor(1, 1.0)], seq)
    t0 = time.perf_counter()
    with pytest.raises(ConvergenceHypothesisViolated):
        evaluate_moments(spec, 10**7)
    assert time.perf_counter() - t0 < 5.0


def test_q_times_r_is_three_halves():
    report = estimate_qr(10**6)
    assert abs(report["product_check"] - 1.5) <= 1e-12
    assert report["terms"] <= 10**6


@pytest.mark.parametrize("base", range(2, 11))
def test_abstract_example_in_every_base(base):
    # prod_n ((Bn+1)/(Bn+2))**((-1)**N_1(n)) = 1/sqrt(B), N_1 the count of 1s
    seq = DigitStatPower(base, -1.0, DigitStat.count(1))
    res = evaluate_moments(ProductSpec(base, [Factor(1)], seq), 10**6)
    assert abs(res.log_value + 0.5 * cmath.log(base)) <= res.err_est
    assert abs(res.value - base**-0.5) <= 1e-15 * base**-0.5
