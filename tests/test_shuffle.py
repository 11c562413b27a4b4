import functools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sigtensor import (
    LevelTensor,
    basis_series,
    commutator,
    exp_series,
    find_grouplike_violation,
    find_lie_violation,
    is_grouplike,
    is_lie,
    log_series,
    shuffle_form_eval,
    shuffle_words,
    unit_series,
    zero_series,
)
from sigtensor.paths import canonical_axis
from sigtensor.tensor import TensorSeries
from sigtensor.words import all_words, word_index

from conftest import random_grouplike, random_lie_series, shuffle_combinations

PROPERTY = settings(derandomize=True, deadline=None, max_examples=200, database=None)


@functools.lru_cache(maxsize=None)
def _reference_shuffle(left: tuple, right: tuple) -> dict:
    """The shuffle by its recursion on last letters, word by word: an oracle independent of `shuffle._shuffle`."""
    if not left:
        return {right: 1}
    if not right:
        return {left: 1}
    out: dict = {}
    for word, coeff in _reference_shuffle(left[:-1], right).items():
        key = word + (left[-1],)
        out[key] = out.get(key, 0) + coeff
    for word, coeff in _reference_shuffle(left, right[:-1]).items():
        key = word + (right[-1],)
        out[key] = out.get(key, 0) + coeff
    return out


def _word_pairs():
    """Two words over one alphabet of at most 3 letters, each of length 0..5."""
    return st.integers(1, 3).flatmap(lambda d: st.tuples(*[st.lists(st.integers(1, d), max_size=5).map(tuple)] * 2))


def test_printed_shuffles():
    assert shuffle_words((1,), (1, 1, 1)).terms == {(1, 1, 1, 1): 4}
    assert shuffle_words((1, 1), (1, 1)).terms == {(1, 1, 1, 1): 6}
    assert shuffle_words((3,), (1, 3, 4)).terms == {
        (3, 1, 3, 4): 1,
        (1, 3, 3, 4): 2,
        (1, 3, 4, 3): 1,
    }
    assert shuffle_words((1, 2), (2, 1)).terms == {
        (1, 2, 2, 1): 2,
        (1, 2, 1, 2): 1,
        (2, 1, 2, 1): 1,
        (2, 1, 1, 2): 2,
    }
    assert shuffle_words((2, 1), (2, 1)).terms == {(2, 1, 2, 1): 2, (2, 2, 1, 1): 4}


def test_mass_and_commutativity():
    # exhaustive over short words, random samples at length 4
    short = [w for k in (1, 2, 3) for w in all_words(3, k)]
    for left in short:
        for right in short:
            comb = shuffle_words(left, right)
            assert comb.mass() == math.comb(len(left) + len(right), len(left))
            assert comb.terms == shuffle_words(right, left).terms
            assert all(c > 0 for c in comb.terms.values())
    rng = random.Random(0)
    for _ in range(20):
        left = tuple(rng.randint(1, 3) for _ in range(4))
        right = tuple(rng.randint(1, 3) for _ in range(rng.randint(1, 4)))
        comb = shuffle_words(left, right)
        assert comb.mass() == math.comb(4 + len(right), 4)


def test_associativity_as_combinations():
    rng = random.Random(1)
    for _ in range(10):
        words = [tuple(rng.randint(1, 3) for _ in range(rng.randint(1, 2))) for _ in range(3)]
        a = shuffle_combinations({words[0]: 1}, {words[1]: 1})
        left = shuffle_combinations(a, {words[2]: 1})
        b = shuffle_combinations({words[1]: 1}, {words[2]: 1})
        right = shuffle_combinations({words[0]: 1}, b)
        assert left == right


@PROPERTY
@given(_word_pairs())
def test_shuffle_words_equals_the_recursive_definition_in_ascending_word_order(pair):
    left, right = pair
    terms = shuffle_words(left, right).terms
    assert terms == _reference_shuffle(left, right)
    assert list(terms) == sorted(terms)
    assert all(type(coeff) is int for coeff in terms.values())


def test_shuffle_words_of_many_letters_and_of_letters_below_one():
    # C(16, 8) distinct words, and letters outside 1..d
    for left, right in [(tuple(range(1, 9)), tuple(range(9, 17))), ((0, -3, 7), (7, 0))]:
        terms = shuffle_words(left, right).terms
        assert terms == _reference_shuffle(left, right) and list(terms) == sorted(terms)


@PROPERTY
@given(_word_pairs(), st.integers(0, 2**32))
def test_a_float_form_sums_its_words_in_ascending_order(pair, seed):
    left, right = pair
    d, k = max(left + right, default=1), len(left) + len(right)
    rng = random.Random(seed)
    tensor = LevelTensor(d, k, [rng.uniform(-1, 1) * 10.0 ** rng.randint(-4, 4) for _ in range(d**k)])
    total = 0
    for word, coeff in sorted(_reference_shuffle(left, right).items()):
        total = total + coeff * tensor.entries[word_index(word, d)]
    value = shuffle_form_eval(left, right, tensor)
    assert value == total and type(value) is type(total)


def test_form_eval_examples():
    spike = LevelTensor.from_map(2, 4, {(1, 1, 1, 1): Fraction(1)})
    assert shuffle_form_eval((1, 1), (1, 1), spike) == 6
    axis = canonical_axis(2, 2)
    assert shuffle_form_eval((1,), (2,), axis) == 1
    zero = LevelTensor.zeros(2, 3)
    assert shuffle_form_eval((1,), (1, 2), zero) == 0
    with pytest.raises(ValueError):
        shuffle_form_eval((1,), (2,), spike)


def test_is_lie_examples():
    d, n = 2, 4
    e1, e2 = basis_series(d, n, 1), basis_series(d, n, 2)
    assert is_lie(e1.scale(Fraction(3)).add(commutator(e1, e2).scale(Fraction(-2, 7))))
    # a bare concatenation word is not Lie
    bare = zero_series(d, n).add(
        TensorSeries(
            d,
            n,
            [
                LevelTensor.zeros(d, 0),
                LevelTensor.zeros(d, 1),
                LevelTensor.from_map(d, 2, {(1, 2): Fraction(1)}),
                LevelTensor.zeros(d, 3),
                LevelTensor.zeros(d, 4),
            ],
        )
    )
    assert not is_lie(bare)
    # the degree-4 bracket with alternating letters
    from sigtensor import bracketing

    assert is_lie(bracketing((1, 1, 2, 2)).truncate(4))


def test_grouplike_examples(rng):
    assert is_grouplike(unit_series(3, 3))
    p = random_lie_series(rng, 3, 4)
    assert is_grouplike(exp_series(p))
    # nonzero level 1 with zero level 2 violates multiplicativity
    d, n = 2, 2
    broken = TensorSeries(
        d,
        n,
        [
            LevelTensor(d, 0, [Fraction(1)]),
            LevelTensor(d, 1, [Fraction(1), Fraction(0)]),
            LevelTensor.zeros(d, 2),
        ],
    )
    assert not is_grouplike(broken)
    witness = find_grouplike_violation(broken)
    assert witness[0] == (1,) and witness[1] == (1,)


def test_grouplike_factorization_full_scan(rng):
    for d, n in [(2, 5), (3, 4)]:
        g = random_grouplike(rng, d, n)
        for total in range(2, n + 1):
            for r in range(1, total):
                for left in all_words(d, r):
                    for right in all_words(d, total - r):
                        lhs = shuffle_form_eval(left, right, g.levels[total])
                        assert lhs == g.coefficient(left) * g.coefficient(right)


def test_log_of_grouplike_is_lie(rng):
    g = random_grouplike(rng, 3, 4)
    assert is_lie(log_series(g))


def test_float_tolerance():
    p = random_lie_series(random.Random(9), 2, 4)
    g = exp_series(p).to_float()
    assert is_grouplike(g)
    assert is_grouplike(g, tol=1e-9)


def _series(d, *levels):
    """Series from flat level lists; levels[0] is the constant term."""
    tensors = [LevelTensor(d, k, entries) for k, entries in enumerate([[levels[0]], *levels[1:]])]
    return TensorSeries(d, len(levels) - 1, tensors)


def test_shuffle_laws_at_the_edges():
    half = Fraction(1, 2)
    # n = 0 and n = 1 have no pairs: only the constant term is checked
    for n in (0, 1):
        levels = [Fraction(1)] + [[Fraction(3), Fraction(-2)]] * n
        assert find_grouplike_violation(_series(2, *levels)) is None
        assert find_lie_violation(_series(2, Fraction(0), *levels[1:])) is None
        assert find_grouplike_violation(_series(2, Fraction(2), *levels[1:])) == ((), (), 2, 1)
        assert find_lie_violation(_series(2, Fraction(1, 3), *levels[1:]), tol=1e-9) == ((), (), Fraction(1, 3))
    # d = 1: group-like means level k is x^k / k!, Lie means levels >= 2 vanish
    x = Fraction(3)
    assert is_grouplike(_series(1, Fraction(1), [x], [x * x * half], [x**3 / 6]))
    assert find_grouplike_violation(_series(1, Fraction(1), [x], [x], [x**3 / 6])) == ((1,), (1,), 2 * x, x * x)
    assert find_lie_violation(_series(1, Fraction(0), [x], [Fraction(0)], [half])) == ((1,), (1, 1), 3 * half)
    assert find_lie_violation(_series(1, Fraction(0), [x], [Fraction(0)], [half]).to_float(), 1e-9) == (
        (1,), (1, 1), 1.5)
    # a NaN entry is close to nothing, as in values_close
    for constant, finder in ((1.0, find_grouplike_violation), (0.0, find_lie_violation)):
        nan = TensorSeries(1, 2, [LevelTensor(1, 0, [constant]), LevelTensor(1, 1, [0.0]), LevelTensor(1, 2, [math.nan])])
        assert finder(nan, 1e-9)[:2] == ((1,), (1,))


def test_equal_length_witness_skips_pairs_below_the_diagonal():
    # moving the level-2 entry at 21 breaks the form of (1, 2), never reported as (2, 1)
    e = [Fraction(1), Fraction(2)]
    good = [e[0] * e[0] / 2, e[0] * e[1], Fraction(0), e[1] * e[1] / 2]
    moved = [good[0], good[1], good[2] + 1, good[3]]
    assert is_grouplike(_series(2, Fraction(1), e, good))
    assert find_grouplike_violation(_series(2, Fraction(1), e, moved)) == ((1,), (2,), 3, 2)
    lie = _series(2, Fraction(0), e, [Fraction(0), Fraction(1), Fraction(-1), Fraction(0)])
    assert is_lie(lie)
    broken = _series(2, Fraction(0), e, [Fraction(0), Fraction(1), Fraction(0), Fraction(0)])
    assert find_lie_violation(broken) == ((1,), (2,), 1)
    assert find_lie_violation(broken.to_float(), 1e-12) == ((1,), (2,), 1.0)


def test_a_first_violation_below_the_diagonal_of_a_longer_right_word_is_reported():
    # at d = 3, <3 ⧢ 12> is independent of every form scanned before it, though 3 has a larger index than 12;
    # T = 213 - 123 breaks it first, and <3 ⧢ 21> after it
    top = LevelTensor.from_map(3, 3, {(2, 1, 3): 1, (1, 2, 3): -1})
    zeros = [LevelTensor.zeros(3, k) for k in (1, 2)]
    lie = TensorSeries(3, 3, [LevelTensor(3, 0, [0]), *zeros, top])
    group = TensorSeries(3, 3, [LevelTensor(3, 0, [1]), *zeros, top])
    assert find_lie_violation(lie) == ((3,), (1, 2), -1)
    assert find_lie_violation(lie.to_float(), 1e-12) == ((3,), (1, 2), -1.0)
    assert find_grouplike_violation(group) == ((3,), (1, 2), -1, 0)
    assert find_grouplike_violation(group.to_float()) == ((3,), (1, 2), -1.0, 0.0)


def test_a_float_form_that_misses_by_exactly_tol_times_scale_is_accepted():
    tol = 2.0**-10  # a power of two: every product and difference below is exact
    # Lie: the form 1 ⧢ 1 = 2 T_11 against 0, at scale max(|2 T_11|, 1) = 1
    lie = lambda form: _series(1, 0.0, [0.0], [form / 2])
    assert find_lie_violation(lie(tol), tol) is None
    above = math.nextafter(tol, math.inf)
    assert find_lie_violation(lie(above), tol) == ((1,), (1,), above)
    # group-like: 2 T_11 against T_1 * T_1 = 4, at scale 4; the next float below 4 - 4 tol misses by more
    group = lambda form: _series(1, 1.0, [2.0], [form / 2])
    assert find_grouplike_violation(group(4 - 4 * tol), tol) is None
    below = math.nextafter(4 - 4 * tol, 0.0)
    assert find_grouplike_violation(group(below), tol) == ((1,), (1,), below, 4.0)
