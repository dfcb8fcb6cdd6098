import cmath
import random
import re
import sys
import threading
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from digitprod import sequences
from digitprod.digits import DigitStat, digits_of
from digitprod.errors import (
    ConvergenceHypothesisViolated,
    HypothesisFailed,
    ValidationError,
)
from digitprod.identities import catalog
from digitprod.sequences import (
    CHECK_TOL,
    DigitStatPower,
    PeriodicPower,
    SignedResidue,
    StronglyMultiplicative,
    _int_power_table,
    recursion_breaks,
    recursion_profile,
    thue_morse_seq,
)
from trick_checks import recursion_deviation

TOL = 1e-12


def unit_disk_complex(rng, real=False):
    if real:
        return float(rng.uniform(-1, 1))
    r = rng.uniform(0, 1) ** 0.5
    phi = rng.uniform(0, 2 * np.pi)
    return complex(r * np.cos(phi), r * np.sin(phi))


def random_table_seq(rng, base=None):
    b = int(base or rng.integers(2, 9))
    vals = [unit_disk_complex(rng, real=bool(rng.integers(0, 2))) for _ in range(b - 1)]
    return StronglyMultiplicative(b, vals)


def test_eval_examples():
    tm = thue_morse_seq()
    assert tm.value(5) == 1  # (101)_2, two ones

    zero_table = StronglyMultiplicative(3, (0.0, 0.0))
    assert zero_table.value(9) == 0  # 9 = (100)_3, digit product hits u(1) = 0

    rot = PeriodicPower(5, 4, 1)
    assert abs(rot.value(3) - (-1j)) < TOL


def test_digit_product_oracle(rng):
    # the value at n is the product of table values over the digits of n
    for _ in range(20):
        seq = random_table_seq(rng)
        full = (complex(1.0),) + seq.values
        for n in rng.integers(0, 10**4, size=40):
            expected = complex(1.0)
            for d in digits_of(int(n), seq.base):
                expected *= full[d]
            assert abs(seq.value(int(n)) - expected) <= TOL


def test_block_matches_scalar(rng):
    # value and block agree bit for bit, from 0 and just below 2**53 // B
    seqs = [
        thue_morse_seq(),
        DigitStatPower(3, 0.5, DigitStat.digit_sum()),
        DigitStatPower(4, cmath.exp(2j * cmath.pi / 3), DigitStat.count_set({1, 3})),
        DigitStatPower(2, 1j, DigitStat.digit_sum()),
        PeriodicPower(5, 4, 1),
        PeriodicPower(3, 2, 1),
        PeriodicPower(7, 6, 1),
        SignedResidue(5, (1, 1, -1, -1)),
        random_table_seq(rng),
    ]
    for seq in seqs:
        top = 2**53 // seq.base
        for ns in (np.arange(0, 3000, dtype=np.int64),
                   np.arange(top - 500, top, dtype=np.int64)):
            block = seq.block(ns)
            scalar = np.array([seq.value(int(n)) for n in ns])
            assert (block == scalar).all(), repr(seq)


def test_zero_power_is_one():
    seq = DigitStatPower(2, 0.0, DigitStat.digit_sum())
    assert seq.value(0) == 1  # 0**0 := 1
    assert seq.value(3) == 0


@pytest.mark.parametrize("w", [0.9999, 0.6 - 0.7j])
def test_power_table_outgrows_its_first_statistic(w):
    # small statistics fill the first power table; digit sums in base 1000
    # near 10**400 reach ~10**5 and need longer ones
    def explicit_power(m):
        acc = 1.0 if w.imag == 0 else complex(1.0)
        for _ in range(m):
            acc = acc * w
        return complex(acc)

    seq = DigitStatPower(1000, w, DigitStat.digit_sum())
    for n in (7, 10**400 - 1, 999, 10**400 + 12345, 10**401 - 1, 5 * 10**399 + 1):
        assert seq.value(n) == explicit_power(sum(digits_of(n, 1000))), n
    ns = np.arange(10**6 - 2000, 10**6 + 2000, dtype=np.int64)
    assert (seq.block(ns) == np.array([seq.value(int(n)) for n in ns])).all()


def _numpy_power_loop(w, m_max, real):
    # the table as numpy scalar products, the construction the Python-number
    # table replaced
    with np.errstate(over="ignore", invalid="ignore"):
        out = np.empty(m_max + 1, dtype=np.float64 if real else np.complex128)
        out[0] = 1.0
        x = w.real if real else w
        for m in range(1, m_max + 1):
            out[m] = out[m - 1] * x
    return out


@pytest.mark.parametrize(
    "w",
    [-1, 0.5, -1.7, 3.0, 0.6 - 0.7j, 1j, 2.5 + 1.5j, -2.9 - 0.3j, 0.99 + 0.14j,
     -1e200 + 3e-200j, 1e300 + 1e300j, complex(float("inf"), 0.0), complex(-0.0, 5.0),
     0j],
)
def test_power_table_matches_numpy_scalar_loop(w):
    # bit patterns, so that overflowed powers (inf, nan) and signed zeros count
    w = complex(w)
    for real in ([True, False] if w.imag == 0.0 else [False]):
        values, array = _int_power_table(w, 600, real)
        want = _numpy_power_loop(w, 600, real)
        assert array.dtype == want.dtype and not array.flags.writeable
        assert np.array_equal(array.view(np.int64), want.view(np.int64)), real
        assert all(type(v) is complex for v in values)
        assert np.array_equal(
            np.array(values).view(np.int64),
            want.astype(np.complex128).view(np.int64),
        ), real


@pytest.mark.parametrize("w", [0.9999, -0.9999, 0.6 + 0.8j, 0.6 - 0.7j])
def test_power_chain_matches_a_table_from_w0(w):
    # digit sums in base 10**5 are the digit itself below 10**5: statistics
    # past the kept 2**15 entries continue its chain for one call, and every
    # kept pair continues the one before; each must give the bits of one
    # table built from w**0 for that statistic alone
    w = complex(w)
    real = w.imag == 0.0
    stats = [2**15 - 1, 2**15, 49950]

    def bits(values):
        return np.asarray(values, dtype=np.complex128).view(np.int64).tolist()

    for m in stats:
        values, array = _int_power_table(w, m, real)
        seq = DigitStatPower(10**5, w, DigitStat.digit_sum())
        assert bits([seq.value(m)]) == bits([values[m]]), m
        ns = np.array([m, 7, 2**14], dtype=np.int64)
        seq = DigitStatPower(10**5, w, DigitStat.digit_sum())
        assert bits(seq.block(ns)) == bits(array[ns]), m
    seq = DigitStatPower(10**5, w, DigitStat.digit_sum())
    for m in [5, 100, 3000, 20000, *stats]:
        values, array = _int_power_table(w, m, real)
        assert bits([seq.value(m)]) == bits([values[m]]), m
        assert bits(seq.block(np.array([m, 1], dtype=np.int64))) == bits(array[[m, 1]]), m
        kept_values, kept_array = seq._powers
        assert len(kept_values) == len(kept_array) <= 2**15
        assert kept_array.dtype == array.dtype


@pytest.mark.parametrize("q", range(2, 13))
def test_periodic_value_matches_its_table(q):
    # value() reads a cached tuple; it must give the bits that converting
    # the block table's entry gives.  The table has the reduced period seq.q
    for p in range(1, q):
        seq = PeriodicPower(3, q, p)
        for n in range(2 * q):
            got, want = seq.value(n), complex(seq._table[n % seq.q])
            assert type(got) is complex
            assert np.array([got]).view(np.int64).tolist() == (
                np.array([want]).view(np.int64).tolist()
            ), (q, p, n)


@pytest.mark.parametrize(
    "seq",
    [
        StronglyMultiplicative(3, [1j, -1]),
        DigitStatPower(2, -1, DigitStat.count(1)),
        PeriodicPower(2, 3, 1),
        SignedResidue(2, [1, -1]),
    ],
    ids=lambda seq: type(seq).__name__,
)
def test_value_rejects_negative_n(seq):
    # n mod q would wrap a negative n into the period, and a digit loop would
    # read no digits of it: each family must raise instead
    for n in (-1, -4, -(2**70)):
        with pytest.raises(ValidationError):
            seq.value(n)


def test_power_table_shared_by_threads():
    # block() runs on map_ordered's pool threads, so threads grow and read one
    # power table at once: none may see a table too short or half built
    w = 0.6 - 0.7j
    ns = [int("999" * k) for k in range(1, 120, 7)]  # digit sums 999 * k
    blocks = [np.arange(1000**k - 300, 1000**k + 300, dtype=np.int64) for k in (1, 2, 5)]
    reference = DigitStatPower(1000, w, DigitStat.digit_sum())
    want_values = [reference.value(n) for n in ns]
    want_blocks = [reference.block(b) for b in blocks]
    shared = DigitStatPower(1000, w, DigitStat.digit_sum())
    errors = []

    def work(offset):
        try:
            for i in range(len(ns)):
                j = (i + offset) % len(ns)
                if shared.value(ns[j]) != want_values[j]:
                    errors.append(("value", j))
                b = (i + offset) % len(blocks)
                if not np.array_equal(shared.block(blocks[b]), want_blocks[b]):
                    errors.append(("block", b))
        except Exception as exc:  # an IndexError would mean a short table
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(k,)) for k in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert errors == []


def _strong_mult_failure(seq, limit):
    """First (n, k) where u(0) = 1 or u(B*n + k) = u(n) * u(k) fails, B*n + k <= limit."""
    u = seq.block(np.arange(limit + 1, dtype=np.int64))
    if abs(u[0] - 1.0) > TOL:
        return (0, 0)  # no (n, k) comes before u(0)
    _, first = recursion_deviation(u, u[:seq.base], 0)
    return None if first is None else first[:2]


def test_strong_mult_by_recursion_deviation():
    assert _strong_mult_failure(DigitStatPower(3, 0.5, DigitStat.digit_sum()), 1000) is None

    bad = _strong_mult_failure(DigitStatPower(3, 0.5, DigitStat.count(0)), 1000)
    assert bad == (1, 0)  # u(3) = z but u(1)*u(0) = 1

    table = StronglyMultiplicative(4, (0.5, -0.5j, 1.0))
    assert _strong_mult_failure(table, 1000) is None
    assert _strong_mult_failure(SignedResidue(2, (-1.0, 1.0)), 1000) == (0, 0)


def test_profile_zero_count():
    z = 0.3 + 0.4j
    seq = DigitStatPower(4, z, DigitStat.count(0))
    prof = recursion_profile(seq, 4096)
    assert abs(prof.v[0] - z) <= TOL
    assert all(abs(v - 1) <= TOL for v in prof.v[1:])


def test_profile_periodic_power():
    prof = recursion_profile(PeriodicPower(5, 4, 1), 4096)
    expected = (1, 1j, -1, -1j, 1)
    assert all(abs(a - b) <= TOL for a, b in zip(prof.v, expected))
    assert abs(prof.v_total - 1) <= TOL
    assert prof.alpha == 0.5


def test_profile_rejects_all_ones():
    ones = DigitStatPower(2, 1.0, DigitStat.count(1))
    with pytest.raises(ConvergenceHypothesisViolated):
        recursion_profile(ones, 4096)


def test_profile_rejects_digit_length():
    # counting every digit measures the expansion length; v(k) = omega for
    # all k, so |sum v| = B and the products may diverge
    seq = DigitStatPower(2, -1.0, DigitStat.count_set({0, 1}))
    with pytest.raises(ConvergenceHypothesisViolated):
        recursion_profile(seq, 4096)


def test_profile_no_seed():
    # u = 1, 0, 0, ...: no nonzero n in [1, B), so v = 0 read at n0 = 1, and
    # the type proves u(n) = 0 for every n >= 1
    silent = StronglyMultiplicative(3, (0.0, 0.0))
    prof = recursion_profile(silent, 4096)
    assert (prof.n0, prof.v, prof.u_bounded) == (1, (0j,) * 3, True)
    assert prof.v_total == 0 and prof.alpha == 0.5


@pytest.mark.parametrize("seq, n0", [
    (thue_morse_seq(), 1),
    (DigitStatPower(100, 0, DigitStat.count(1)), 2),  # u(1) = 0, u(2) = 1
    (DigitStatPower(63, 0, DigitStat.count(1)), 2),
    (DigitStatPower(100, 0, DigitStat.count_set(range(1, 65))), 65),
    (StronglyMultiplicative(5, (-0.0, 0.0, 1e-300, 0.5)), 3),  # zeros of both signs
], ids=["tm_b2", "b100_u1_zero", "b63_u1_zero", "b100_first_at_65", "signed_zeros"])
def test_seed_is_the_first_nonzero_value_below_the_base(seq, n0):
    base = seq.base
    prof = recursion_profile(seq)
    assert prof.n0 == n0
    u = seq.block(np.arange(base * (base + 1), dtype=np.int64))
    assert u[n0] != 0 and not any(u[1:n0])
    # v keeps the bits, zero signs included, of the values' quotients
    want = tuple(complex(u[base * n0 + k] / u[n0]) for k in range(base))
    assert repr(prof.v) == repr(want)
    # an explicit limit of B**2 reads the same seed
    assert recursion_profile(seq, base * base) == prof


def test_seed_search_reports_a_value_that_is_not_finite_first():
    # u(1) = 0, u(2) = 1e200 and u(128) = u(2*63 + 2) = inf: the window's
    # value at n = 128 is reported before any seed or v is read
    seq = StronglyMultiplicative(63, [0.0] + [1e200] * 61)
    message = "sequence value at n=128 is not finite (u = inf)"
    for limit in (5000, None):
        with pytest.raises(ValidationError, match=re.escape(message)):
            recursion_profile(seq, limit)


_TABLE_B4 = StronglyMultiplicative(4, (0.5j, -0.5, 0.25))
_SEED_AT_65 = DigitStatPower(100, 0, DigitStat.count_set(range(1, 65)))
_NO_SEED = StronglyMultiplicative(3, (0.0, 0.0))
# limit 4096 or 10100 is the explicit limit perfbench passes, max(4096, B*(B+1))
_ONE_WINDOW_CASES = {
    "default": (thue_morse_seq(), 2, None),
    "default_uncertified": (thue_morse_seq(), 3, None),
    "explicit": (PeriodicPower(5, 4, 1), 5, 4096),
    "seed_at_2B": (DigitStatPower(63, 0, DigitStat.count(1)), 63, None),
    "seed_at_65B": (_SEED_AT_65, 100, None),
    "explicit_digit_family": (thue_morse_seq(), 2, 4096),
    "explicit_b8": (thue_morse_seq(), 8, 4096),
    "explicit_seed_at_65B": (_SEED_AT_65, 100, 10100),
    "table_b16": (_TABLE_B4, 16, None),
    "explicit_table_b16": (_TABLE_B4, 16, 4096),
    "no_seed": (_NO_SEED, 3, None),
    "explicit_no_seed": (_NO_SEED, 3, 4096),
    "periodic_default": (PeriodicPower(5, 4, 1), 5, None),
    "signed_residue": (SignedResidue(3, (1.0, -1.0)), 3, None),
}


def _count_calls(monkeypatch, cls):
    """Patch ``cls.value`` and ``cls.block`` to record their calls: one entry
    per value() call, and the length of each block() call's range."""
    calls = {"value": [], "block": []}
    value, block = cls.value, cls.block

    def counted_value(self, n):
        calls["value"].append(n)
        return value(self, n)

    def counted_block(self, ns):
        calls["block"].append(len(ns))
        return block(self, ns)

    monkeypatch.setattr(cls, "value", counted_value)
    monkeypatch.setattr(cls, "block", counted_block)
    return calls


@pytest.mark.parametrize("seq, base, limit", list(_ONE_WINDOW_CASES.values()),
                         ids=list(_ONE_WINDOW_CASES))
def test_profile_computes_its_window_once(seq, base, limit, monkeypatch):
    # an explicit limit caps the window and widens nothing
    calls = _count_calls(monkeypatch, type(seq))
    try:
        prof = recursion_profile(seq, limit, base=base)
    except HypothesisFailed:  # thue_morse has no recursion in base 3
        prof = None
    assert calls["value"] == []
    window = sequences._certifying_window(seq, base)
    if prof is None:
        assert calls["block"] == []
    elif window:  # a periodic family: its certifying window [0, W], once
        assert calls["block"] == [window + 1]
    else:
        # a digit family in a power of its own base: u(0), ..., u(B-1), then
        # the row u(B*n0 + k) that v is read from, unless u vanishes on
        # [1, B); at most 2B values, and no window to check the recursion on
        seed_row = [] if prof.v == (0j,) * base else [base]
        assert calls["block"] == [base] + seed_row


@pytest.mark.parametrize("seq, base, limit, message", [
    (thue_morse_seq(), 3, None, "a base-2 digit family has no digit recursion in base 3"),
    (thue_morse_seq(), 6, 5000, "a base-2 digit family has no digit recursion in base 6"),
    (DigitStatPower(3, -1, DigitStat.count(1)), 2, None,
     "a base-3 digit family has no digit recursion in base 2"),
    (StronglyMultiplicative(4, (0.5, 0.0, 1e308)), 8, 64,
     "a base-4 digit family has no digit recursion in base 8"),
    (SignedResidue(3, (1.0,) * 5 + (-1.0,) * 5), 3, 12,  # period 10
     "checked on [0, 12] only, and proving it for every n >= 1 needs [0, 35]"),
    (PeriodicPower(2, 4099, 1), 2, None,
     "checked on [0, 4096] only, and proving it for every n >= 1 needs [0, 8201]"),
], ids=["tm_b3", "tm_b6_explicit", "b3_family_b2", "b4_table_b8", "explicit_short",
        "default_short"])
def test_uncertifiable_pairs_are_refused_before_any_value(seq, base, limit, message,
                                                          monkeypatch):
    calls = _count_calls(monkeypatch, type(seq))
    with pytest.raises(HypothesisFailed, match=re.escape(message)):
        recursion_profile(seq, limit, base=base)
    assert calls == {"value": [], "block": []}


def test_recursion_rule_is_relative_above_modulus_one():
    assert recursion_breaks(2e-12, 0.5) and recursion_breaks(2e-12, 1.0)
    assert not recursion_breaks(2e-12, 1e4)
    assert recursion_breaks(2e-8, 1e4)
    assert recursion_breaks(float("inf"), float("inf"))  # an overflowing product
    devs, sizes = np.array([2e-12, 2e-12, 2e-8]), np.array([1.0, 1e4, 1e4])
    assert recursion_breaks(devs, sizes).tolist() == [True, False, True]
    # |u| reaches 2.9**12 on [0, 4096]; u(2n + 1) and u(n) * v(1) round apart
    # by 1.8e-12 at n = 255, 1.3e-16 of |u(n) * v(1)| = 2.9**9
    prof = recursion_profile(StronglyMultiplicative(2, (-2.9,)), 4096)
    assert not prof.u_bounded


_COMPLEX_TABLES = [
    (1j,),
    (complex(-0.0, 0.0), -1j),
    (1e200j, -1e200, complex(1e300, 1e300)),
    (0.0, complex(-0.0, -0.0), 1e308j, 2j),
]


@pytest.mark.parametrize("values", _COMPLEX_TABLES, ids=range(len(_COMPLEX_TABLES)))
def test_complex_table_block_matches_value_bit_for_bit(values):
    # zero signs and inf/nan patterns included: block() multiplies by the
    # digits value() does, whatever the other indices of the call
    seq = StronglyMultiplicative(len(values) + 1, values)
    assert not seq.is_real
    sparse = np.array([4999, 0, 7, 4, 2**40 + 3, 10**15, 12345], dtype=np.int64)
    for ns in (np.arange(8), np.arange(5000), sparse):
        with np.errstate(over="ignore", invalid="ignore"):
            got = seq.block(ns)
        assert [repr(complex(x)) for x in got] == [repr(seq.value(int(n))) for n in ns]


def _old_window_profile(seq, base):
    """(v, n0, u_bounded) as the window [0, max(4096, B*(B+1))] gave them
    before the sequence's type proved the recursion: every value of the
    window through block(), v read at the first nonzero u(n0), n0 in
    [1, B), and the recursion and |u| <= 1 checked on all of it.  None where
    that window refused: a value that is not finite, a broken recursion or
    |sum v| >= B."""
    with np.errstate(over="ignore", invalid="ignore"):
        u = seq.block(np.arange(max(4096, base * (base + 1)) + 1, dtype=np.int64))
    if not np.isfinite(u).all():
        return None
    n0 = next((n for n in range(1, base) if u[n] != 0), None)
    if n0 is None:
        n0, v = 1, (0j,) * base
    else:
        with np.errstate(over="ignore"):
            v = tuple(complex(u[base * n0 + k] / u[n0]) for k in range(base))
    if recursion_deviation(u, v, 1)[1] is not None or abs(sum(v)) >= base - 1e-9:
        return None
    return v, n0, bool(np.abs(u).max() <= 1.0 + CHECK_TOL)


def _assert_matches_the_old_window(seq, base):
    old = _old_window_profile(seq, base)
    assert old is not None
    prof = recursion_profile(seq, base=base)
    # v bit for bit, zero signs included
    assert (repr(prof.v), prof.n0, prof.u_bounded) == (repr(old[0]),) + old[1:]
    assert recursion_profile(seq, max(4096, base * (base + 1)), base=base) == prof


def test_default_window_certifies_a_seed_inside_it():
    # u(1) = 0, so n0 = 2; the type proves the recursion, and v is read from
    # u(20), ..., u(29), past the first B values
    seq = DigitStatPower(10, 0, DigitStat.count(1))
    assert recursion_profile(seq).n0 == 2
    _assert_matches_the_old_window(seq, 10)


def _catalog_profiles():
    # PeriodicPower(5, 4, 1) in base 5 is among them, as i_pow_n_b5
    seen = {}
    for claim in catalog():
        for part in claim.parts:
            seen.setdefault((part.spec.seq, part.spec.base), claim.name)
    return seen


_WINDOW_CASES = {
    **_catalog_profiles(),
    (thue_morse_seq(), 4): "thue_morse_b4",
    (thue_morse_seq(), 8): "thue_morse_b8",
    (DigitStatPower(63, 0, DigitStat.count(1)), 63): "seed_at_2B_b63",
}


@pytest.mark.parametrize("seq, base", list(_WINDOW_CASES), ids=list(_WINDOW_CASES.values()))
def test_certifying_window_changes_nothing_else(seq, base):
    _assert_matches_the_old_window(seq, base)


def _seeded_value(rng):
    pick = rng.random()
    if pick < 0.2:
        return rng.choice((0.0, -0.0, complex(0.0, -0.0), 1.0, -1.0, 1j))
    if pick < 0.5:
        return rng.uniform(-1.5, 1.5)
    return cmath.rect(1.5 * rng.random(), rng.uniform(-cmath.pi, cmath.pi))


def _seeded_family(rng, family):
    """One sequence of ``family`` and the base of its profile: its own base,
    or for digit families, B**2 half the time."""
    base = rng.choice((2, 3, 4, 5, 6, 8, 10, 16))
    if family == "table":
        seq = StronglyMultiplicative(base, [_seeded_value(rng) for _ in range(base - 1)])
    elif family == "stat":
        stat = rng.choice((DigitStat.digit_sum(), DigitStat.count(rng.randrange(base)),
                           DigitStat.count_set(rng.sample(range(base), rng.randint(1, base)))))
        seq = DigitStatPower(base, _seeded_value(rng), stat)
    elif family == "periodic_power":
        q = rng.randint(2, 12)
        return PeriodicPower(base, q, rng.randint(1, q - 1)), base
    elif rng.random() < 0.3:
        return SignedResidue(base, [_seeded_value(rng) for _ in range(rng.randint(1, 6))]), base
    else:  # c * omega**n with q | B - 1, whose recursion holds with v(k) = omega**k
        q = rng.choice([d for d in range(1, base) if (base - 1) % d == 0])
        omega = cmath.exp(2j * cmath.pi * rng.randrange(q) / q)
        c = _seeded_value(rng)
        return SignedResidue(base, [c * omega**n for n in range(q)]), base
    return seq, base * base if base <= 10 and rng.random() < 0.5 else base


@pytest.mark.parametrize("family", ["table", "stat", "periodic_power", "signed_residue"])
def test_profile_matches_the_old_window_on_seeded_families(family):
    # the reference computes and checks [0, max(4096, B*(B+1))]; wherever it
    # gives a profile, the profile read from the values its proof needs is
    # the same
    rng = random.Random(f"old-window-{family}")
    compared = 0
    for _ in range(60):
        seq, base = _seeded_family(rng, family)
        if _old_window_profile(seq, base) is not None:
            _assert_matches_the_old_window(seq, base)
            compared += 1
    assert compared >= 5


def test_uncertifiable_sequences_keep_the_old_window_and_errors():
    # a periodic recursion that fails does so at n <= period, inside its
    # certifying window: v is read at n0 = 1, so the first break is at n = 2
    message = "digit recursion fails at n=2, k=0 (deviation 1.732e+00)"
    with pytest.raises(HypothesisFailed, match=re.escape(message)):
        recursion_profile(PeriodicPower(5, 3, 1), base=5)
    # thue_morse has none in base 3, refused by its type alone
    with pytest.raises(HypothesisFailed, match="no digit recursion in base 3"):
        recursion_profile(thue_morse_seq(), base=3)
    # u = 1, 0, 0, ...: its recursion holds with v = 0
    prof = recursion_profile(DigitStatPower(2, 0, DigitStat.digit_sum()))
    assert (prof.v, prof.n0) == ((0j, 0j), 1)


def test_default_window_checks_finiteness_only_inside_it():
    # w**count overflows at n = 2**11 - 1: past u(0), ..., u(3), the values
    # read, which leaves the divergence of sum v = 1 + w as the refusal, at
    # every limit
    seq = DigitStatPower(2, 1e30, DigitStat.count(1))
    for limit in (4096, None):
        with pytest.raises(ConvergenceHypothesisViolated):
            recursion_profile(seq, limit)
    with pytest.raises(ValidationError, match=re.escape("n=3 is not finite (u = inf)")):
        recursion_profile(DigitStatPower(2, 1e200, DigitStat.count(1)))
    # a periodic family reports the first value of its window [0, 14]
    table = SignedResidue(3, (1.0, 0.5, complex(1e308, 1e308) * 2))
    with pytest.raises(ValidationError, match=re.escape("n=2 is not finite (u = (inf+infj))")):
        recursion_profile(table, 4096)


def test_profile_hypothesis_failure():
    # 5 is not 1 mod 3, so omega**n does not satisfy the base-5 recursion
    with pytest.raises(HypothesisFailed):
        recursion_profile(PeriodicPower(5, 3, 1), 4096)
    # (-1)**n over an even base cannot factor through the digit recursion
    with pytest.raises(HypothesisFailed):
        recursion_profile(SignedResidue(2, (1.0, -1.0)), 4096)


def test_profile_rejects_overflowing_values():
    # 1e308 * 1e308 overflows: a validation error, not a failed recursion,
    # and no floating-point warning on the way
    seq = StronglyMultiplicative(3, (1e308, 1.0))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValidationError, match="not finite"):
            recursion_profile(seq, 4096)


def test_profile_equals_table_for_strongly_multiplicative(rng):
    for _ in range(15):
        seq = random_table_seq(rng)
        try:
            prof = recursion_profile(seq, 4096)
        except ConvergenceHypothesisViolated:
            continue
        full = (complex(1.0),) + seq.values
        assert all(abs(a - b) <= TOL for a, b in zip(prof.v, full))


def test_profile_digit_sum_and_count_set_shapes():
    w = 0.8j
    prof = recursion_profile(DigitStatPower(3, w, DigitStat.digit_sum()), 4096)
    assert all(abs(prof.v[k] - w**k) <= TOL for k in range(3))

    prof = recursion_profile(
        DigitStatPower(4, w, DigitStat.count_set({1, 3})), 4096
    )
    expected = [1, w, 1, w]
    assert all(abs(a - b) <= TOL for a, b in zip(prof.v, expected))


def test_profile_base_override():
    # the parity-of-ones sequence also satisfies the recursion over base 4
    prof = recursion_profile(thue_morse_seq(), 4096, base=4)
    assert prof.base == 4
    expected = (1, -1, -1, 1)
    assert all(abs(a - b) <= TOL for a, b in zip(prof.v, expected))
    assert abs(prof.v_total) <= TOL


def test_profile_flags_unbounded_table():
    seq = StronglyMultiplicative(2, (-2.0,))  # |u| grows, but sum v = -1
    prof = recursion_profile(seq, 4096)
    assert not prof.u_bounded
    with pytest.raises(Exception):
        prof.require_unit_bounds()


@given(st.integers(min_value=0, max_value=10**9))
def test_periodic_power_exact_periodicity(n):
    seq = PeriodicPower(5, 4, 1)
    assert seq.value(n) == seq.value(n % 4)
