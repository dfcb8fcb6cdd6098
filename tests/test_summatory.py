import dataclasses
import math

import pytest

from digitprod.digits import DigitStat
from digitprod.errors import ProfileMismatch, ValidationError
from digitprod.identities import catalog
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


def _level_loop_with_zero_terms(profile, seq, n):
    """The level loop without the zero-digit skip: a // pass for the digit
    prefixes, then a divmod and a u(M) * G(r) term at every level, G(0) = 0
    included, u(M) carried down the prefixes as u(B*M + r) = u(M) * v(r)."""
    b = profile.base
    u0 = seq.value(0)
    fb = complex(sum(seq.value(k) for k in range(b)))
    prefixes = [n]
    while prefixes[-1] >= b:
        prefixes.append(prefixes[-1] // b)
    m = prefixes.pop()
    f = complex(sum(seq.value(i) for i in range(m)))
    u = seq.value(m)
    for m in reversed(prefixes):
        r = m % b
        f = fb + (f - u0) * profile.v_total + u * profile.v_prefix[r]
        u *= profile.v[r]
    return f


def _level_loop_reading_u(profile, seq, n):
    """The level loop that reads u(M) by one value(M) call per nonzero digit
    in place of carrying it."""
    b = profile.base
    head = [seq.value(k) for k in range(b)]
    fb = complex(sum(head))
    levels = []
    m = n
    while m >= b:
        m, r = divmod(m, b)
        levels.append((m, r))
    f = complex(sum(head[:m]))
    for m, r in reversed(levels):
        f = fb + (f - head[0]) * profile.v_total
        if r:
            f += seq.value(m) * profile.v_prefix[r]
    return f


# (sequence, recursion base): Thue-Morse in bases 2 and 4, then one sequence
# of each other family
_LEVEL_CASES = [
    (thue_morse_seq(), 2),
    (thue_morse_seq(), 4),
    (DigitStatPower(3, 0.6 + 0.3j, DigitStat.digit_sum()), 3),
    (PeriodicPower(5, 4, 1), 5),
    (StronglyMultiplicative(4, (0.3, -0.4, 0.9j)), 4),
]
_LEVEL_IDS = ["thue_morse_b2", "thue_morse_b4", "digit_sum_b3", "periodic_b5", "table_b4"]


@pytest.mark.parametrize("seq, base", _LEVEL_CASES, ids=_LEVEL_IDS)
def test_recursive_bits_match_the_loop_with_zero_terms(seq, base, rng):
    # compared by repr, so a -0.0 where the loop had 0.0 would count
    prof = recursion_profile(seq, base=base)
    b = prof.base
    ns = [b**j for j in (1, 2, 5, 17, 40)]
    ns += [b**5 + 1, b**6 + b**2, (b - 1) * b**7 + b**3 + (b - 1)]  # interior zeros
    ns += list(range(b))
    ns += [int(rng.integers(1, 2**53 // b)) for _ in range(20)]
    for n in ns:
        assert repr(partial_sum_recursive(prof, seq, n)) == repr(
            _level_loop_with_zero_terms(prof, seq, n)), n


# the catalog's 17 distinct sequences, each in its own base
_CATALOG_SEQS = list(dict.fromkeys(part.spec.seq for c in catalog() for part in c.parts))


def test_head_values_read_once_keep_the_bits_on_the_catalog(rng):
    # u(0), F(B), the base case F(m), m < B, and the first u(M) come from one
    # list of u(0), ..., u(B-1); compared by repr with the loop that reads
    # each by its own value() calls
    assert len(_CATALOG_SEQS) == 17
    for seq in _CATALOG_SEQS:
        prof = recursion_profile(seq)
        b = prof.base
        ns = list(range(2 * b)) + [int(rng.integers(b, 2**53 // b)) for _ in range(10)]
        for n in ns:
            assert repr(partial_sum_recursive(prof, seq, n)) == repr(
                _level_loop_with_zero_terms(prof, seq, n)), (seq, n)


@pytest.mark.parametrize("seq, base", _LEVEL_CASES + [(s, s.base) for s in _CATALOG_SEQS],
                         ids=_LEVEL_IDS + [f"catalog_{i}" for i in range(17)])
def test_carried_u_stays_near_the_loop_reading_u(seq, base, rng):
    # u(M) carried as a product of v(r) rounds apart from value(M) in the
    # last bits only: within 1e-14 of max(1, |F|) (2.6e-15 at worst over
    # 6600 random N on these sequences, 87% of them bit-identical)
    prof = recursion_profile(seq, base=base)
    b = prof.base
    ns = [b**5 + 1, b**6 + b**2, (b - 1) * b**7 + b**3 + (b - 1)]
    ns += [int(rng.integers(b, 2**53 // b)) for _ in range(40)]
    ns += [int(b**rng.uniform(1, 52 / math.log2(b))) for _ in range(40)]
    for n in ns:
        got = partial_sum_recursive(prof, seq, n)
        ref = _level_loop_reading_u(prof, seq, n)
        assert abs(got - ref) <= 1e-14 * max(1.0, abs(ref)), (n, got, ref)


class _CountingSeq:
    """Wraps a sequence and counts its value() calls."""

    def __init__(self, seq):
        self.seq, self.base, self.calls = seq, seq.base, 0

    def value(self, n):
        self.calls += 1
        return self.seq.value(n)


@pytest.mark.parametrize("seq, base", _LEVEL_CASES, ids=_LEVEL_IDS)
def test_powers_of_the_base_make_no_level_value_calls(seq, base):
    # every digit of B**j below the leading one is 0, so the level loop
    # reads no u(M): F(B), u(0), the spot checks and the base case are all
    prof = recursion_profile(seq, base=base)
    calls = []
    for j in (5, 40):
        counted = _CountingSeq(seq)
        partial_sum_recursive(prof, counted, prof.base**j)
        calls.append(counted.calls)
    assert calls[0] == calls[1]
    # u(M) is carried down the prefixes, so one nonzero digit more costs no
    # value() call more
    counted = _CountingSeq(seq)
    partial_sum_recursive(prof, counted, prof.base**40 + prof.base**20)
    assert counted.calls == calls[1]


def test_profile_mismatch_detected():
    tm = thue_morse_seq()
    good = recursion_profile(tm, 4096)
    bad = RecursionProfile(
        base=good.base,
        v=(complex(1.0), complex(1.0)),  # wrong: v(1) should be -1
        n0=good.n0,
        u_bounded=True,
    )
    with pytest.raises(ProfileMismatch):
        partial_sum_recursive(bad, tm, 1000)


@pytest.mark.parametrize("seq, base", _LEVEL_CASES, ids=_LEVEL_IDS)
def test_head_values_are_read_once_per_query(seq, base):
    # B**40 needs no level value(): the spot checks read u(m), u(B*m) and
    # u(B*m + B - 1) for four m, and u(0), ..., u(B-1) are read once
    prof = recursion_profile(seq, base=base)
    counted = _CountingSeq(seq)
    partial_sum_recursive(prof, counted, prof.base**40)
    assert counted.calls == 3 * 4 + prof.base


def test_spot_check_is_relative_above_modulus_one():
    # |u| reaches 2.9**52 below 2**53; u(B*m + k) and u(m) * v(k) multiply
    # the same factors in another order, so they round apart by far more
    # than 1e-12 but by about 1e-16 of their size
    seq = StronglyMultiplicative(2, (-2.9,))
    prof = recursion_profile(seq, 4096)
    n = 2**53 - 12345
    assert math.isfinite(abs(partial_sum_recursive(prof, seq, n)))
    bad = dataclasses.replace(prof, v=(prof.v[0], prof.v[1] * (1 + 1e-9)))
    with pytest.raises(ProfileMismatch):
        partial_sum_recursive(bad, seq, n)


def test_profile_sums_cannot_disagree_with_v():
    # v_prefix, v_total and alpha derive from v: a profile whose stored sums
    # contradicted v would pass the spot check and give a wrong F
    tm = thue_morse_seq()
    prof = recursion_profile(tm)
    with pytest.raises(TypeError):
        dataclasses.replace(prof, v_prefix=(0j, 1 + 0j, 0.5 + 0j))
    assert prof.v_prefix == (0j, 1 + 0j, 0j) and prof.v_total == 0j
    assert partial_sum_recursive(prof, tm, 1001) == partial_sum_direct(tm, 1001) == 1


def test_growth_thue_morse_bounded():
    tm = thue_morse_seq()
    prof = recursion_profile(tm, 4096)
    checkpoints = [2**j for j in range(10, 25)]
    rep = growth_check(prof, tm, checkpoints)
    assert rep.passed
    assert all(
        abs(partial_sum_recursive(prof, tm, p)) <= 1.0 for p in checkpoints
    )


def test_growth_report_holds_the_partial_sums(rng):
    # the table ``summatory`` prints: F(N) and |F(N)| / N**alpha at each N.
    # The sums are the queries' bit for bit, compared by repr, so a -0.0
    # where a query had 0.0 would count
    for seq in [DigitStatPower(3, 0.6 + 0.3j, DigitStat.digit_sum()), *_CATALOG_SEQS]:
        prof = recursion_profile(seq)
        b = prof.base
        checkpoints = sorted({b**j for j in range(1, 53) if b**j < 2**53}
                             | {int(rng.integers(1, 2**53 // b)) for _ in range(10)})
        rep = growth_check(prof, seq, checkpoints)
        assert [repr(f) for f in rep.sums] == [
            repr(partial_sum_recursive(prof, seq, p)) for p in checkpoints], seq
        assert rep.ratios == tuple(
            math.exp(math.log(abs(f)) - prof.alpha * math.log(p)) if f else 0.0
            for f, p in zip(rep.sums, checkpoints))


def _spot_check_points(prof, ns):
    b = prof.base
    points = {prof.n0, prof.n0 + 1}
    for n in ns:
        points.update((max(1, n // b), max(1, n // (b * b))))
    return points


@pytest.mark.parametrize("seq, base", _LEVEL_CASES, ids=_LEVEL_IDS)
def test_growth_reads_the_head_and_spot_checks_once(seq, base, rng):
    # u(0), ..., u(B-1) once for all checkpoints, and u(m), u(B*m),
    # u(B*m + B - 1) once for each point of the checks' joint set
    prof = recursion_profile(seq, base=base)
    b = prof.base
    powers = [b**j for j in range(1, 30)]
    drawn = sorted({int(rng.integers(1, 2**53 // b)) for _ in range(20)})
    for checkpoints in (powers, drawn, [1]):
        counted = _CountingSeq(seq)
        growth_check(prof, counted, checkpoints)
        assert counted.calls == b + 3 * len(_spot_check_points(prof, checkpoints))


def test_growth_ratio_where_the_modulus_exceeds_the_float_range():
    # F(2**3821) = -1.217e308 + 1.544e308i is finite but |F| is no float;
    # the ratio is taken from log|F| and stays finite
    seq = DigitStatPower(2, -0.2 + 0.9j, DigitStat.digit_sum())
    prof = recursion_profile(seq)
    rep = growth_check(prof, seq, [2**3820, 2**3821])
    f = rep.sums[-1]
    assert math.isfinite(f.real) and math.isfinite(f.imag)
    with pytest.raises(OverflowError):
        abs(f)
    log_abs = math.log(abs(f / 4)) + math.log(4)
    assert rep.ratios[-1] == pytest.approx(
        math.exp(log_abs - prof.alpha * 3821 * math.log(2)), rel=1e-12)


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


_UNIT_SUM_POWERS = [(base, q) for base in range(3, 17) for q in range(2, base)
                    if (base - 1) % q == 0]


@pytest.mark.parametrize("base, q", _UNIT_SUM_POWERS,
                         ids=[f"b{base}_q{q}" for base, q in _UNIT_SUM_POWERS])
def test_growth_alpha_is_one_half_where_sum_v_has_modulus_one(base, q):
    # q | B - 1 gives v(k) = omega**k and sum v = 1 exactly; the float sum
    # misses 1 by a rounding (|v_total| = 1.0000000000000007 for B = 4,
    # q = 3), which must not turn alpha into log|v_total| / log B ~ 1e-16
    checkpoints = sorted({base**j for j in range(1, 10)} | {7 * base**j + 1 for j in range(6)})
    for p in range(1, q):
        seq = PeriodicPower(base, q, p)
        prof = recursion_profile(seq)
        assert abs(abs(prof.v_total) - 1.0) <= 1e-12
        assert prof.alpha == 0.5
        rep = growth_check(prof, seq, checkpoints)
        for f, n, ratio in zip(rep.sums, checkpoints, rep.ratios):
            assert ratio == pytest.approx(abs(f) / math.sqrt(n), rel=1e-12, abs=1e-300)


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
    # a single checkpoint is the whole early envelope
    tm = thue_morse_seq()
    rep = growth_check(recursion_profile(tm), tm, checkpoints)
    assert rep.ratios[-1] == 1.0  # F(1) = u(0) = 1


def test_growth_rejects_checkpoints_below_one():
    # F(0) = 0 would make the early envelope 0 and fail any bounded sequence
    tm = thue_morse_seq()
    prof = recursion_profile(tm)
    assert growth_check(prof, tm, [1, 2]).passed
    counted = _CountingSeq(tm)
    for checkpoints in ([0, 1], [-3, 5, 9]):
        with pytest.raises(ValidationError):
            growth_check(prof, counted, checkpoints)
    assert counted.calls == 0  # refused before any sequence value


def test_growth_checkpoint_validation():
    tm = thue_morse_seq()
    prof = recursion_profile(tm, 4096)
    with pytest.raises(ValidationError):
        growth_check(prof, tm, [])
    with pytest.raises(ValidationError):
        growth_check(prof, tm, [10, 10])
