"""Exact kernels on machine integers: int64 exactly where a bound certifies that no partial sum reaches
2^63 (`scalars.int_kind`), with outputs equal in value and type to the same kernels on Python ints.

int64 sums and products are exact modulo 2^64, so a kernel goes wrong only where a final value leaves
int64: the inputs below are built so that the values reach, or just miss, 2^63.
"""

import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sigtensor import (
    LevelTensor,
    NormalFormTable,
    TensorSeries,
    canonical_mono,
    find_grouplike_violation,
    find_lie_violation,
    lyndon,
    pl_signature,
    scalars,
    shuffle_form_eval,
    tensor_congruence,
)
from sigtensor.scalars import int_kind
from sigtensor.words import index_word

from conftest import rand_fraction, random_grouplike, random_lie_series

PROPERTY = settings(derandomize=True, deadline=None, max_examples=60, database=None)
LIMIT = 2**63
# magnitudes at and around 2^63 / c: 4 * 2^62 and 2 * 2^62 are 0 modulo 2^64
NEAR = sorted({LIMIT // c + delta for c in (1, 2, 3, 4, 6, 10, 20) for delta in (-1, 0, 1)} - {LIMIT})


def on_python_ints(call):
    """call() with every exact kernel on object arrays of Python ints."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(scalars, "_INT64_LIMIT", 0)
        return call()


def _level(level):
    """A level as plain lists: row pointers, columns, values, scale (with its type) and first-factor lengths."""
    scale, first = (level.scale, type(level.scale)), level.first.tolist()
    return level.ptr.tolist(), level.cols.tolist(), level.vals.tolist(), scale, first


def _typed(level):
    """A level's entries with their types."""
    return [(v, type(v)) for v in level.entries]


def test_the_kind_is_int64_exactly_below_2_63():
    assert int_kind(0) is int_kind(LIMIT - 1) is np.int64
    assert int_kind(LIMIT) is int_kind(LIMIT**2) is object


@PROPERTY
@given(st.integers(1, 3), st.integers(2, 5), st.one_of(st.integers(2**56, 2**64), st.sampled_from(NEAR)))
@example(2, 4, 3 * 2**60)  # S_4 = 3 * 2^60: a wave's sums pass 2^63 unless the per-wave check moves it to object
@example(1, 2, 2**62 + 1)  # aa needs S_2 = 2^63 + 2: the rows must be object before they grow
def test_levels_started_near_2_63_equal_the_levels_on_python_ints(d, k, start):
    built = lyndon._build_level(d, k, start)
    assert _level(built) == on_python_ints(lambda: _level(lyndon._build_level(d, k, start)))


def test_a_wave_whose_sources_sum_past_2_63_moves_to_python_ints():
    # at S_5 = 2^63 // 13 the second wave of (2, 5) has no source term past 2^62.9, but a row whose
    # sources sum to 2^64.1: a bound by the largest source alone would keep it, and its sums, on int64
    start = LIMIT // 13
    lyndon._tables.clear()
    level = lyndon._build_level(2, 5, start)
    assert level.vals.dtype == object and level.moved == ("bound", 2)
    assert _level(level) == on_python_ints(lambda: _level(lyndon._build_level(2, 5, start)))


def test_a_wave_bound_that_rounds_to_2_63_moves_to_python_ints():
    # at (3, 3) over S_3 = 2^63 // 3 the first wave's bound is 3 S_3 = 2^63 - 2, which float64 rounds to
    # 2^63: the bound is raised by its rounding margin, never lowered, so the pool moves there
    lyndon._tables.clear()
    assert lyndon._build_level(3, 3, LIMIT // 3).moved == ("bound", 1)
    lyndon._tables.clear()


def test_a_table_says_where_each_level_left_int64():
    # (2, 5) built over 2^63 // 13 leaves int64 at its second wave's bound, and (2, 6) over it, with
    # S_6 = lcm(6!, S_5) below 2^63, is on Python ints from its start because the level below is
    lyndon._tables.clear()
    try:
        lyndon._tables._fill(2, 4)
        lyndon._tables[2, 5] = lyndon._build_level(2, 5, LIMIT // 13)
        assert math.lcm(math.factorial(6), LIMIT // 13) < LIMIT
        assert NormalFormTable(2, 6).int64_exits == (None, None, None, None, ("bound", 2), ("below", 0))
    finally:
        lyndon._tables.clear()
    assert lyndon._build_level(1, 1, LIMIT).moved == ("start", 0)


def test_the_levels_up_to_2_11_stay_on_int64():
    # the stored values of (2, 10) and (2, 11) have at most 38 and 46 bits; bounding a wave by its largest
    # value times its largest coefficient (S_k) times its terms moved both levels to Python ints
    def levels():
        lyndon._tables.clear()
        return NormalFormTable(2, 11)._levels

    built = levels()
    assert {level.vals.dtype for level in built} == {np.dtype(np.int64)}
    assert NormalFormTable(2, 11).int64_exits == (None,) * 11
    assert [_level(level) for level in built] == on_python_ints(lambda: [_level(level) for level in levels()])
    lyndon._tables.clear()


def test_a_level_whose_scale_grows_past_2_63_holds_python_ints():
    lyndon._tables.clear()
    level = lyndon._build_level(1, 2, start=2**62 + 1)  # a ⧢ a = 2 aa: S_2 grows by 2
    assert level.scale == 2**63 + 2 and level.vals.dtype == object and level.moved == ("division", 1)
    assert level.vals.tolist() == [2**62 + 1] and type(level.vals[0]) is int


def test_an_inexact_division_grows_the_scale_by_the_least_factor():
    # a ⧢ aaa = 4 aaaa, and S_4 = 12 lifts row(aaa) = 1 (S_3 = 6) to 2: the least factor making 2 / 4 exact
    # is 4 / gcd(4, 2) = 2, not 4
    lyndon._tables.clear()
    level = lyndon._build_level(1, 4, start=12)
    assert (level.scale, level.vals.tolist(), level.moved) == (24, [1], ("division", 1))
    lyndon._tables.clear()


def _top_series(d, n, top, constant):
    """The series with the given constant term, levels 1..n-1 zero and level n of the given entries."""
    zero = [LevelTensor(d, k, [0] * d**k) for k in range(1, n)]
    return TensorSeries(d, n, [LevelTensor(d, 0, [constant]), *zero, LevelTensor(d, n, top)])


@PROPERTY
@given(st.integers(1, 2), st.integers(2, 4), st.data())
@example(1, 4, None).via("d = 1, level 4 = 2^62: 4 * 2^62 and 6 * 2^62 leave int64")
def test_shuffle_scans_near_2_63_equal_the_scans_on_python_ints(d, n, data):
    if data is None:
        top = [2**62]
    else:
        magnitude = data.draw(st.sampled_from(NEAR))
        top = data.draw(st.lists(st.sampled_from([0, magnitude, -magnitude, 1]), min_size=d**n, max_size=d**n))
    lie, group = _top_series(d, n, top, 0), _top_series(d, n, top, 1)
    assert find_lie_violation(lie) == on_python_ints(lambda: find_lie_violation(lie))
    assert find_grouplike_violation(group) == on_python_ints(lambda: find_grouplike_violation(group))


@PROPERTY
@given(st.integers(1, 3), st.integers(2, 4), st.integers(0, 12), st.integers(1, 3), st.booleans())
def test_group_like_series_near_2_63_are_group_like_on_either_kind(d, n, spread, den, perturb):
    # one step v: level k is v^(x)k / k!, so every (k, r) bound is about |v|^k, here near 2^63 at the top level
    c = 2 ** ((63 - 6 + spread) // n)
    series = pl_signature([[Fraction(c - i, den) for i in range(d)]], n)
    if perturb:  # one more at the last entry of the top level breaks the law there
        top = list(series.levels[n].entries)
        top[-1] += 1
        series = TensorSeries(d, n, [*series.levels[:n], LevelTensor(d, n, top)])
    found = find_grouplike_violation(series)
    assert found == on_python_ints(lambda: find_grouplike_violation(series))
    assert (found is None) is not perturb
    for value in (found or ())[2:]:  # the form's value and the product's
        assert type(value) in (int, Fraction)


def test_a_form_that_sums_c_k_r_entries_past_2_63_is_read_on_python_ints():
    # 1 ⧢ 111 = 4 * 1111: with 1111 = 2^62 the form is 2^64, which is 0 in int64
    series = _top_series(1, 4, [2**62], 0)
    assert find_lie_violation(series) == ((1,), (1, 1, 1), 2**64)


def test_every_kernel_on_python_ints_gives_the_int64_results():
    def levels(d, n):
        lyndon._tables.clear()
        built = NormalFormTable(d, n)._levels
        return [_level(level) for level in built], {level.vals.dtype for level in built}

    for d, n in [(2, 8), (3, 6), (4, 5), (1, 9), (2, 10)]:
        (machine, kinds), (python, objects) = levels(d, n), on_python_ints(lambda: levels(d, n))
        assert machine == python and objects == {np.dtype(object)}
        assert np.dtype(np.int64) in kinds
    lyndon._tables.clear()

    rng = random.Random(27)
    for d, n in [(2, 5), (3, 4), (2, 6)]:
        members = [random_grouplike(rng, d, n), random_lie_series(rng, d, n)]
        members += [s.add(_top_series(d, n, [rand_fraction(rng) for _ in range(d**n)], 0)) for s in members]
        for series in members:
            for scan in (find_lie_violation, find_grouplike_violation):
                assert scan(series) == on_python_ints(lambda: scan(series))

    for m, k in [(3, 4), (5, 6), (10, 4), (4, 5), (1, 21)]:  # 1^21 * 21! passes 2^63: that core is object
        matrix = [[rng.randint(-4, 4) for _ in range(m)] for _ in range(min(m, 2))]
        for call in (lambda: canonical_mono(m, k), lambda: tensor_congruence(canonical_mono(m, k), matrix)):
            assert _typed(call()) == on_python_ints(lambda: _typed(call()))


def _sweep(series):
    """First (I, J, form, product) in scan order whose form <I ⧢ J, T> differs from T_I T_J, read word
    by word with `shuffle_form_eval` on Python ints and Fractions, or None."""
    d = series.d
    for total in range(2, series.n + 1):
        for r in range(1, total // 2 + 1):
            for i in range(d**r):
                for j in range(i if 2 * r == total else 0, d ** (total - r)):
                    left, right = index_word(i, d, r), index_word(j, d, total - r)
                    value = shuffle_form_eval(left, right, series.levels[total])
                    product = series.coefficient(left) * series.coefficient(right)
                    if value != product:
                        return left, right, value, product
    return None


def _series(d, *levels):
    """The series with constant term 1 and the given flat levels 1..n."""
    tensors = [LevelTensor(d, k, entries) for k, entries in enumerate([[1], *levels])]
    return TensorSeries(d, len(levels), tensors)


def _form_side_past_int64():
    # F * L_1^2 against A_1^2: F = 2N, form_scale 25, and 2N * 25 = 22^2 + 2^64, so both sides agree mod 2^64
    n = (22 * 22 + 2**64) // 50
    assert n * 50 == 22 * 22 + 2**64 and 2 * n < LIMIT
    return _series(1, [Fraction(22, 5)], [n]), 2 * n * 25, [2 // n * 25, 2 * n // 25]


def _product_side_past_int64():
    # F against A_1^2 * L_2: A_1^2 * 3 = 2N + 2^64, so both sides agree mod 2^64
    a = math.isqrt(2**64 // 3) + 1
    a += a % 2
    n = (3 * a * a - 2**64) // 2
    assert 0 < 2 * n < LIMIT and n % 3
    return _series(1, [a], [Fraction(n, 3)]), a * a * 3, [a * a // 3]


@pytest.mark.parametrize("case", [_form_side_past_int64, _product_side_past_int64])
def test_a_bound_just_past_int64_keeps_a_violation_that_agrees_mod_2_64(case):
    # int64 products are exact mod 2^64, so an overflow hides a violation only where the two sides of
    # the law differ by a multiple of 2^64: the certified bound C(k, r) max|A_k| form_scale, or
    # max|A_r| max|A_s| rhs_scale, then sits just past 2^64, and each weaker bound below 2^63
    series, bound, weaker = case()
    assert LIMIT < bound < 2 * 2**64 and all(b < LIMIT for b in weaker)
    found = find_grouplike_violation(series)
    assert found is not None and found == _sweep(series) == on_python_ints(lambda: find_grouplike_violation(series))
