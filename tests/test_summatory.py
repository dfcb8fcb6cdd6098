import math

import pytest

from digitprod import summatory
from digitprod.digits import DigitStat
from digitprod.errors import ProfileMismatch, ValidationError
from digitprod.sequences import (
    DigitStatPower,
    PeriodicPower,
    RecursionProfile,
    StronglyMultiplicative,
    recursion_profile,
    thue_morse_seq,
)
from digitprod.summatory import growth_check, partial_sum_direct, partial_sum_recursive


def test_direct_examples():
    tm = thue_morse_seq()
    assert partial_sum_direct(tm, 3) == -1  # 1 - 1 - 1
    assert partial_sum_direct(tm, 0) == 0
    assert abs(partial_sum_direct(PeriodicPower(5, 4, 1), 4)) <= 1e-15


def test_partial_sum_steps_by_sequence_values():
    seq = DigitStatPower(3, 0.6 + 0.3j, DigitStat.digit_sum())
    for n in range(0, 60):
        step = partial_sum_direct(seq, n + 1) - partial_sum_direct(seq, n)
        assert abs(step - seq.value(n)) <= 1e-12


def test_recursive_equals_direct_thue_morse():
    tm = thue_morse_seq()
    prof = recursion_profile(tm, 4096)
    for n in (0, 1, 2, 5, 17, 1000, 2**20):
        assert abs(partial_sum_recursive(prof, tm, n) - partial_sum_direct(tm, n)) <= 1e-9


def test_recursive_beyond_the_recursion_limit():
    # 1100 binary digits: one step per digit, no Python recursion
    tm = thue_morse_seq()
    prof = recursion_profile(tm, 4096)
    assert partial_sum_recursive(prof, tm, 2**1100) == 0
    assert partial_sum_recursive(prof, tm, 2**1100 + 1) == -1


def test_recursive_equals_direct_digit_sum_power():
    seq = DigitStatPower(2, 0.5, DigitStat.digit_sum())
    prof = recursion_profile(seq, 4096)
    n = 10**6
    assert abs(partial_sum_recursive(prof, seq, n) - partial_sum_direct(seq, n)) <= 1e-9


def test_small_n_is_direct():
    seq = DigitStatPower(7, 0.9, DigitStat.digit_sum())
    prof = recursion_profile(seq, 4096)
    for n in range(7):
        assert partial_sum_recursive(prof, seq, n) == partial_sum_direct(seq, n)


def test_decomposition_identity(rng):
    # F(B*N + b) = F(B) + (F(N) - u(0)) * sum(v) + u(N) * G(b), exactly
    seqs = [
        thue_morse_seq(),
        DigitStatPower(3, 0.6 + 0.3j, DigitStat.digit_sum()),
        PeriodicPower(5, 4, 1),
        StronglyMultiplicative(4, (0.3, -0.4, 0.9j)),
    ]
    for seq in seqs:
        prof = recursion_profile(seq, 4096)
        b = prof.base
        fb = partial_sum_direct(seq, b)
        for _ in range(10):
            n = int(rng.integers(1, 3000))
            r = int(rng.integers(0, b))
            lhs = partial_sum_direct(seq, b * n + r)
            rhs = (
                fb
                + (partial_sum_direct(seq, n) - seq.value(0)) * prof.v_total
                + seq.value(n) * prof.v_prefix[r]
            )
            assert abs(lhs - rhs) <= 1e-10


def test_profile_mismatch_detected():
    tm = thue_morse_seq()
    good = recursion_profile(tm, 4096)
    bad = RecursionProfile(
        base=good.base,
        v=(complex(1.0), complex(1.0)),  # wrong: v(1) should be -1
        n0=good.n0,
        v_prefix=(0j, 1 + 0j, 2 + 0j),
        alpha=0.5,
        u_bounded=True,
        v_bounded=True,
        checked=good.checked,
    )
    with pytest.raises(ProfileMismatch):
        partial_sum_recursive(bad, tm, 1000)


def test_growth_thue_morse_bounded():
    tm = thue_morse_seq()
    prof = recursion_profile(tm, 4096)
    checkpoints = [2**j for j in range(10, 25)]
    rep = growth_check(prof, tm, checkpoints)
    assert rep.passed
    assert all(
        abs(partial_sum_recursive(prof, tm, p)) <= 1.0 for p in checkpoints
    )


def test_growth_alpha_values():
    half = DigitStatPower(2, 0.5, DigitStat.digit_sum())
    prof = recursion_profile(half, 4096)
    assert abs(prof.alpha - math.log(1.5) / math.log(2)) <= 1e-15

    rot = DigitStatPower(2, 1j, DigitStat.digit_sum())
    prof = recursion_profile(rot, 4096)
    # |1 + i| = sqrt(2) -> alpha = 1/2
    assert abs(prof.alpha - 0.5) <= 1e-15

    rep = growth_check(prof, rot, [2**j for j in range(8, 22)])
    assert rep.passed
    assert rep.c_est < 4.0


def test_growth_beyond_float_range():
    # N**alpha would need N as a float, which overflows past ~1.8e308
    tm = thue_morse_seq()
    rep = growth_check(recursion_profile(tm), tm, [2**1030, 2**1031])
    assert rep.passed and rep.ratios == (0.0, 0.0)  # F(2**k) = 0 for k >= 1

    half = DigitStatPower(2, 0.5, DigitStat.digit_sum())
    rep = growth_check(recursion_profile(half), half, [2**1030, 2**1031, 2**1032])
    # F(2**k) = 1.5**k = (2**k)**alpha
    assert rep.passed
    assert all(abs(r - 1.0) <= 1e-12 for r in rep.ratios)


@pytest.mark.parametrize("checkpoints", [[1]])
def test_growth_without_a_checkpoint_above_one(checkpoints):
    # |F(N)| / log N needs some N > 1; without one there is no estimate
    tm = thue_morse_seq()
    rep = growth_check(recursion_profile(tm), tm, checkpoints)
    assert rep.c_log_est is None
    assert rep.ratios[-1] == 1.0  # F(1) = u(0) = 1


def test_growth_rejects_checkpoints_below_one(monkeypatch):
    # F(0) = 0 would make the early envelope 0 and fail any bounded sequence
    tm = thue_morse_seq()
    prof = recursion_profile(tm)
    assert growth_check(prof, tm, [1, 2]).passed
    calls = []
    monkeypatch.setattr(summatory, "partial_sum_recursive",
                        lambda *args: calls.append(args))
    for checkpoints in ([0, 1], [-3, 5, 9]):
        with pytest.raises(ValidationError):
            growth_check(prof, tm, checkpoints)
    assert calls == []  # refused before any partial sum


def test_growth_checkpoint_validation():
    tm = thue_morse_seq()
    prof = recursion_profile(tm, 4096)
    with pytest.raises(ValidationError):
        growth_check(prof, tm, [])
    with pytest.raises(ValidationError):
        growth_check(prof, tm, [10, 10])
