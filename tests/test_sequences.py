import cmath
import dataclasses
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
    NoNonzeroSeed,
    ValidationError,
)
from digitprod.identities import catalog
from digitprod.sequences import (
    DigitStatPower,
    PeriodicPower,
    SignedResidue,
    StronglyMultiplicative,
    _int_power_table,
    recursion_breaks,
    recursion_deviation,
    recursion_profile,
    thue_morse_seq,
)

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
    silent = StronglyMultiplicative(3, (0.0, 0.0))
    with pytest.raises(NoNonzeroSeed):
        recursion_profile(silent, 4096)


@pytest.mark.parametrize("base", [63, 100])
def test_default_window_grows_to_a_seed_at_twice_the_base(base):
    # u(n) = 0 wherever digit 1 occurs, so u(B .. 2B - 1) = 0 and n0 = 2B,
    # whose multiples B*n0 + k lie past max(4096, B*(B+1))
    seq = DigitStatPower(base, 0, DigitStat.count(1))
    prof = recursion_profile(seq)
    assert prof.n0 == 2 * base
    assert prof.checked == base * prof.n0 + base - 1
    assert prof.v == tuple(complex(k != 1) for k in range(base))
    assert prof.u_bounded  # returned: the window [0, checked] proves the recursion
    # an explicit window is searched only as far as it holds B*n0 + B - 1:
    # the former default one still finds no seed
    old_default = max(4096, base * (base + 1))
    hi = (old_default - base + 1) // base
    with pytest.raises(NoNonzeroSeed, match=rf"seed window \[{base}, {hi}\]"):
        recursion_profile(seq, old_default)
    assert recursion_profile(seq, prof.checked) == prof


def test_default_window_reaches_65_times_the_base():
    # the only nonzero seed candidate is the last one, 65*B
    base = 100
    seq = DigitStatPower(base, 0, DigitStat.count_set(range(1, 65)))
    prof = recursion_profile(seq)
    assert prof.n0 == 65 * base
    assert prof.checked == base * prof.n0 + base - 1
    beyond = DigitStatPower(base, 0, DigitStat.count_set(range(1, 66)))
    with pytest.raises(NoNonzeroSeed, match=r"seed window \[100, 6500\]"):
        recursion_profile(beyond)


def test_seed_search_reports_a_value_that_is_not_finite_first():
    # u(63 .. 125) = 0 (digit 1 present), u(126) = 1e200 and u(128) = inf: an
    # explicit window searches [63, 78] and finds no seed, a default one
    # finds n0 = 126; either way the window's value at n = 128 comes first
    seq = StronglyMultiplicative(63, [0.0] + [1e200] * 61)
    message = "sequence value at n=128 is not finite (u = inf)"
    for limit in (5000, None):
        with pytest.raises(ValidationError, match=re.escape(message)):
            recursion_profile(seq, limit)


_ONE_WINDOW_CASES = {
    "default": (thue_morse_seq(), 2, None),
    "default_uncertified": (thue_morse_seq(), 3, None),
    "explicit": (PeriodicPower(5, 4, 1), 5, 4096),
    "seed_at_2B": (DigitStatPower(63, 0, DigitStat.count(1)), 63, None),
    "seed_at_65B": (DigitStatPower(100, 0, DigitStat.count_set(range(1, 65))), 100, None),
}


@pytest.mark.parametrize("seq, base, limit", list(_ONE_WINDOW_CASES.values()),
                         ids=list(_ONE_WINDOW_CASES))
def test_profile_computes_its_window_once(seq, base, limit, monkeypatch):
    windows = []
    window_values = sequences._window_values

    def counted(seq, limit):
        windows.append(limit)
        return window_values(seq, limit)

    monkeypatch.setattr(sequences, "_window_values", counted)
    try:
        prof = recursion_profile(seq, limit, base=base)
    except HypothesisFailed:  # thue_morse in base 3 breaks, after its one window
        prof = None
    assert len(windows) == 1
    assert prof is None or windows == [prof.checked]


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


def _old_default_window(seq, base, n0):
    """The profile at max(4096, B*(B+1), B*n0 + B - 1), the default window of
    every sequence before the certifying window became the default."""
    return recursion_profile(seq, max(4096, base * (base + 1), base * n0 + base - 1),
                             base=base)


def test_default_window_certifies_a_seed_inside_it():
    # n0 = 20 lies inside [0, B*(B+1)]; the window grows to its multiples only
    seq = DigitStatPower(10, 0, DigitStat.count(1))
    prof = recursion_profile(seq)
    assert (prof.n0, prof.checked) == (20, 209)
    old = _old_default_window(seq, 10, prof.n0)
    assert dataclasses.replace(prof, checked=old.checked) == old


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
    prof = recursion_profile(seq, base=base)  # returned: its window certifies it
    old = _old_default_window(seq, base, prof.n0)
    assert dataclasses.replace(prof, checked=old.checked) == old
    assert prof.checked <= old.checked


def test_uncertifiable_sequences_keep_the_old_window_and_errors():
    # a periodic recursion that fails does so at n <= period, inside its
    # certifying window; thue_morse has none in base 3 and keeps the old one
    for seq, base, deviation in ((PeriodicPower(5, 3, 1), 5, "1.732e+00"),
                                 (thue_morse_seq(), 3, "2.000e+00")):
        message = f"digit recursion fails at n=1, k=0 (deviation {deviation})"
        with pytest.raises(HypothesisFailed, match=re.escape(message)):
            recursion_profile(seq, base=base)
    with pytest.raises(NoNonzeroSeed, match=r"seed window \[2, 130\]"):
        recursion_profile(DigitStatPower(2, 0, DigitStat.digit_sum()))


def test_default_window_checks_finiteness_only_inside_it():
    # w**count overflows at n = 2**11 - 1: past the certifying window [0, 6],
    # which leaves the divergence of sum v = 1 + w as the refusal
    seq = DigitStatPower(2, 1e30, DigitStat.count(1))
    with pytest.raises(ValidationError, match="n=2047 is not finite"):
        recursion_profile(seq, 4096)
    with pytest.raises(ConvergenceHypothesisViolated):
        recursion_profile(seq)
    with pytest.raises(ValidationError, match="n=3 is not finite"):
        recursion_profile(DigitStatPower(2, 1e200, DigitStat.count(1)))


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
        except (ConvergenceHypothesisViolated, NoNonzeroSeed):
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
