import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from digitprod.digits import (
    DigitStat,
    digit_stat,
    digit_stat_block,
    digits_of,
    from_digits,
    thue_morse,
)
from digitprod.digits import _TABLE_CACHE, _counter, _level_tables, _per_digit_stats
from digitprod.errors import ValidationError
from digitprod.sequences import DigitStatPower, thue_morse_seq

bases = st.integers(min_value=2, max_value=16)
naturals = st.integers(min_value=0, max_value=10**15)


def test_digits_of_examples():
    assert digits_of(13, 2) == [1, 0, 1, 1]
    assert digits_of(0, 7) == []
    for b in (2, 3, 7, 10, 36):
        assert digits_of(b, b) == [0, 1]


def test_digits_of_no_leading_zero():
    for n in range(1, 500):
        for b in (2, 3, 5):
            assert digits_of(n, b)[-1] != 0


@given(naturals, bases)
def test_round_trip(n, b):
    assert from_digits(digits_of(n, b), b) == n


def test_digit_stat_examples():
    assert digit_stat(5, DigitStat.digit_sum(), 3) == 3  # 5 = (12)_3
    assert digit_stat(8, DigitStat.count(0), 2) == 3  # 8 = (1000)_2
    assert digit_stat(0, DigitStat.count(0), 2) == 0  # zero is the empty word


def test_all_stats_vanish_at_zero():
    for stat in (
        DigitStat.count(0),
        DigitStat.count_set({0, 1}),
        DigitStat.digit_sum(),
        DigitStat.length(),
    ):
        assert digit_stat(0, stat, 2) == 0


@given(st.integers(min_value=0, max_value=10**12), bases, st.data())
def test_digit_sum_recursion(n, b, data):
    # s_B(B*n + k) = s_B(n) + k
    k = data.draw(st.integers(min_value=0, max_value=b - 1))
    s = DigitStat.digit_sum()
    assert digit_stat(b * n + k, s, b) == digit_stat(n, s, b) + k


@given(st.integers(min_value=0, max_value=10**12), bases, st.data())
def test_zero_count_recursion(n, b, data):
    c0 = DigitStat.count(0)
    if n >= 1:
        assert digit_stat(b * n, c0, b) == digit_stat(n, c0, b) + 1
    k = data.draw(st.integers(min_value=1, max_value=b - 1))
    assert digit_stat(b * n + k, c0, b) == digit_stat(n, c0, b)


@given(st.integers(min_value=0, max_value=10**12), bases)
def test_digit_sum_is_weighted_count(n, b):
    s = digit_stat(n, DigitStat.digit_sum(), b)
    weighted = sum(
        k * digit_stat(n, DigitStat.count(k), b) for k in range(1, b)
    )
    assert s == weighted


@given(st.integers(min_value=1, max_value=10**12), bases)
def test_length_matches_expansion(n, b):
    assert digit_stat(n, DigitStat.length(), b) == len(digits_of(n, b))


def test_thue_morse_first_eight():
    assert [thue_morse(n) for n in range(8)] == [1, -1, -1, 1, -1, 1, 1, -1]
    assert thue_morse(0) == 1
    assert thue_morse(3) == 1  # (11)_2, two ones


@given(st.integers(min_value=0, max_value=10**15))
def test_thue_morse_recursions(n):
    assert thue_morse(2 * n) == thue_morse(n)
    assert thue_morse(2 * n + 1) == -thue_morse(n)


@given(st.integers(min_value=0, max_value=10**12), st.sampled_from([3, 5, 7, 9, 11]))
def test_odd_base_parity(n, b):
    # for odd B, (-1)**digit_sum(n) == (-1)**n
    s = digit_stat(n, DigitStat.digit_sum(), b)
    assert (-1) ** (s % 2) == (-1) ** (n % 2)


TEST_BASES = (2, 3, 4, 5, 6, 7, 10)


def _every_stat(b):
    return (
        DigitStat.count(0),
        DigitStat.count(1),
        DigitStat.count(b - 1),
        DigitStat.count_set({0, b - 1}),
        DigitStat.count_set(set(range(1, b))),
        DigitStat.digit_sum(),
        DigitStat.length(),
    )


def _level(b):
    # P = b**j, the largest power of b <= 4096: the width of one digit level
    p = b
    while p * b <= 4096:
        p *= b
    return p


def _scalar_block(ns, stat, b):
    flat = [digit_stat(int(n), stat, b) for n in ns.ravel()]
    return np.array(flat, dtype=np.int64).reshape(ns.shape)


def _assert_matches_scalar(ns, b):
    for stat in _every_stat(b):
        block = digit_stat_block(ns, stat, b)
        assert block.dtype == np.int64 and block.shape == ns.shape
        assert np.array_equal(block, _scalar_block(ns, stat, b)), (b, stat, ns[:3])


def test_block_matches_scalar():
    # contiguous ranges from 0 and across the level edges P-1, P, P+1, k*P, P**2
    for b in TEST_BASES:
        p = _level(b)
        for s, e in (
            (0, p + 50),
            (p - 40, p + 40),
            (p - 2, 3 * p + 2),
            (2 * p - 5, 2 * p + 5),
            (b * p - 5, b * p + 5),
            (7 * p - 5, 7 * p + 5),
            (p * p - 30, p * p + 30),
        ):
            _assert_matches_scalar(np.arange(s, e, dtype=np.int64), b)
    ns = np.arange(0, 5000, dtype=np.int64)
    tm = thue_morse_seq().block(ns)
    assert (tm == np.array([thue_morse(int(n)) for n in ns])).all()


@pytest.mark.parametrize("b", TEST_BASES)
def test_block_matches_scalar_below_2_53_over_base(b):
    top = 2**53 // b
    _assert_matches_scalar(np.arange(top - 700, top, dtype=np.int64), b)


@pytest.mark.parametrize("b", TEST_BASES)
def test_block_single_and_empty_inputs(b):
    p = _level(b)
    for n in (0, 1, p - 1, p, p + 1, p * p, 2**53 // b - 1):
        _assert_matches_scalar(np.array([n], dtype=np.int64), b)
    for stat in _every_stat(b):
        empty = digit_stat_block(np.array([], dtype=np.int64), stat, b)
        assert empty.dtype == np.int64 and empty.shape == (0,)


@pytest.mark.parametrize("b", TEST_BASES)
def test_block_unsorted_dense_and_sparse_inputs(b):
    rng = np.random.default_rng(b)
    p = _level(b)
    shuffled = rng.permutation(np.arange(p - 100, 2 * p + 100, dtype=np.int64))
    repeated = rng.integers(p * p - 500, p * p + 500, size=700, dtype=np.int64)
    two_d = rng.permutation(np.arange(p - 100, p + 100, dtype=np.int64)).reshape(2, -1)
    sparse = rng.integers(0, 2**53 // b, size=300, dtype=np.int64)
    for ns in (shuffled, repeated, two_d, sparse):
        _assert_matches_scalar(ns, b)


def test_block_result_does_not_alias_the_level_tables():
    ns = np.arange(0, 20, dtype=np.int64)
    stat = DigitStat.digit_sum()
    first = digit_stat_block(ns, stat, 3)
    expected = first.copy()
    first[:] = -1
    assert np.array_equal(digit_stat_block(ns, stat, 3), expected)


def test_power_block_matches_per_digit_loop():
    seq = DigitStatPower(3, 1j, DigitStat.digit_sum())
    ns = np.arange(3**12 + 5, 3**12 + 5 + (1 << 19), dtype=np.int64)
    stats = _per_digit_stats(ns, seq.stat, 3)
    powers = [complex(1.0)]
    for _ in range(int(stats.max())):
        powers.append(powers[-1] * seq.w)
    reference = np.array(powers)[stats]
    assert np.array_equal(seq.block(ns), reference)


def _count_over_digits(n, stat, b):
    ds = digits_of(n, b)
    if stat.kind == "count":
        return sum(d in stat.digits for d in ds)
    if stat.kind == "digit_sum":
        return sum(ds)
    return len(ds)


@pytest.mark.parametrize("b", [*range(2, 8), 4096, 4097, 10**6])
def test_scalar_stat_beyond_int64(b):
    # only the scalar path takes n past int64; it must still count the digits,
    # from the level tables up to base 4096 and one digit at a time above
    rng = np.random.default_rng(80 + b)
    ns = [0, 1, b - 1, b, b * b - 1, b * b, 2**63, 2**80 - 1, 2**300 - 1, 2**300] + [
        int.from_bytes(rng.bytes(int(rng.integers(1, 38))), "little") for _ in range(200)
    ]
    for stat in _every_stat(b):
        for n in ns:
            assert digit_stat(n, stat, b) == _count_over_digits(n, stat, b), (n, stat)
        with pytest.raises(ValidationError):
            digit_stat(-1, stat, b)
        with pytest.raises(ValidationError):
            DigitStatPower(b, 0.5, stat).value(-1)
    with pytest.raises(ValidationError):
        digit_stat(12, DigitStat("bogus"), b)


def _bits(values):
    # complex128 bit patterns, so that 0.0 and -0.0 differ
    return np.asarray(values, dtype=np.complex128).view(np.int64)


@pytest.mark.parametrize("b", [2, 3, 7, 10, 4096, 4097])
def test_value_matches_block_bit_for_bit(b):
    # bases 4096 and 4097 sit on the two sides of the level-table limit
    p = _level(b) if b <= 4096 else b
    ns = [p - 1, p, p + 1, 2**53 - 2, 2**53 - 1]
    for stat in _every_stat(b):
        for w in (0.9999, 0.6 - 0.7j):
            seq = DigitStatPower(b, w, stat)
            block = seq.block(np.array(ns, dtype=np.int64))
            values = [seq.value(n) for n in ns]
            assert np.array_equal(_bits(values), _bits(block)), (b, stat, w)


@pytest.mark.parametrize("b", [2, 3, 10, 4096, 4097])
def test_value_beyond_int64_is_w_to_the_statistic(b):
    # every power of these w is exact, so w**m equals the iterated product
    ns = [2**63, 2**63 + 1, 2**64 + 2**70, 3**90 + 7, 2**300 - 1]
    for stat in _every_stat(b):
        for w in (-1.0, 0.5, 1j):
            seq = DigitStatPower(b, w, stat)
            for n in ns:
                m = digit_stat(n, stat, b)
                want = 1j ** (m % 4) if w == 1j else w**m
                assert seq.value(n) == want, (b, stat, w, n)


def test_value_skips_the_counter_cache():
    seq = DigitStatPower(3, 1j, DigitStat.digit_sum())
    before = _counter.cache_info()
    for n in range(10**4):
        seq.value(n * 2**40 + n)
    after = _counter.cache_info()
    assert (after.hits, after.misses) == (before.hits, before.misses)


def test_power_table_keeps_at_most_2_15_entries():
    # digit sums in base 40000 reach 3 * 39999 below 2**63: such a statistic
    # gets a table for its call alone, and the kept one still serves the rest
    seq = DigitStatPower(40000, 0.6 + 0.8j, DigitStat.digit_sum())
    n = 40000**3 - 1
    value = seq.value(n)
    block = seq.block(np.array([n, 12345], dtype=np.int64))
    assert np.array_equal(_bits([value, seq.value(12345)]), _bits(block))
    # smaller statistics grow the kept (values, array) pair up to the cap
    for m in (12345, 30000, 32000):
        seq.value(m)
        values, array = seq._powers
        assert m < len(values) == len(array) <= 2**15
    for m in (39999, n):
        seq.value(m)
        values, array = seq._powers
        assert len(values) == len(array) == 2**15


def test_level_table_caches_are_bounded():
    # one statistic per digit of base 4096 must not keep a table pair each
    n = 10**60 + 12345
    ds = digits_of(n, 4096)
    for j in range(_TABLE_CACHE + 40):
        assert digit_stat(n, DigitStat.count(j), 4096) == ds.count(j)
    assert _level_tables.cache_info().currsize <= _TABLE_CACHE
    assert _counter.cache_info().currsize <= _TABLE_CACHE


def test_validation():
    with pytest.raises(ValidationError):
        digits_of(5, 1)
    with pytest.raises(ValidationError):
        digits_of(-1, 2)
    with pytest.raises(ValidationError):
        DigitStat.count_set(set())
    with pytest.raises(ValidationError):
        digit_stat(5, DigitStat.count(7), 2)
