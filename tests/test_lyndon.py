import gc
import json
import math
import random
import sys
import threading
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sigtensor import (
    bracketing,
    cfl_factorization,
    expand_from_lyndon,
    is_grouplike,
    is_lie,
    is_lyndon,
    lyndon_count,
    lyndon_coordinates,
    lyndon_words,
    normal_form,
    normal_form_table,
    pl_signature,
    shuffle_words,
    standard_factorization,
)
from sigtensor import lyndon, shuffle
from sigtensor.lyndon import NormalFormTable, lyndon_count_level, mobius, poly_eval, poly_from_json, poly_to_json
from sigtensor.words import all_words

from conftest import gamma, rand_fraction, random_grouplike, shuffle_all

# cumulative Lyndon counts for 2 <= k <= 9 (frozen reference values)
COUNT_TABLE = {
    2: [3, 5, 8, 14, 23, 41, 71, 127],
    3: [6, 14, 32, 80, 196, 508, 1318, 3502],
    4: [10, 30, 90, 294, 964, 3304, 11464, 40584],
    5: [15, 55, 205, 829, 3409, 14569, 63319, 280319],
    6: [21, 91, 406, 1960, 9695, 49685, 259475, 1379195],
}


def test_mobius_small():
    assert [mobius(n) for n in range(1, 11)] == [1, -1, -1, 0, -1, 1, -1, 0, 0, 1]


def test_counts_match_table_and_duval():
    for d, row in COUNT_TABLE.items():
        for k, expected in zip(range(2, 10), row):
            assert lyndon_count(d, k) == expected, (d, k)
    for d in range(1, 5):
        for n in range(1, 6):
            basis = lyndon_words(d, n)
            assert basis.count == lyndon_count(d, n)
            assert len(set(basis.words)) == basis.count
            assert all(is_lyndon(w) for w in basis.words)
            assert list(basis.words) == sorted(basis.words)
            # Duval agrees with a brute-force rotation scan
            brute = [w for k in range(1, n + 1) for w in all_words(d, k) if is_lyndon(w)]
            assert sorted(brute) == list(basis.words)


def test_level_counts_over_divisor_pairs_match_the_full_divisor_scan():
    def scanned(d, k):
        return sum(mobius(ell) * d ** (k // ell) for ell in range(1, k + 1) if k % ell == 0) // k

    for d in range(1, 5):
        for k in range(1, 301):
            assert lyndon_count_level(d, k) == scanned(d, k), (d, k)


def test_one_letter_has_one_lyndon_word_at_any_truncation():
    basis = lyndon_words(1, 10**9)
    assert basis.words == ((1,),) and basis.count == 1 and basis.n == 10**9
    assert lyndon_count(1, 10**9) == 1


def test_small_bases():
    assert lyndon_words(2, 2).words == ((1,), (1, 2), (2,))
    assert lyndon_count(2, 5) == 14
    assert lyndon_count(3, 3) == 14


def test_cfl_examples():
    assert cfl_factorization((2, 1, 2, 1)) == ((2,), (1, 2), (1,))
    assert cfl_factorization((2, 1)) == ((2,), (1,))
    assert cfl_factorization((1, 1, 2, 2)) == ((1, 1, 2, 2),)
    rng = random.Random(0)
    for _ in range(50):
        word = tuple(rng.randint(1, 3) for _ in range(rng.randint(1, 7)))
        factors = cfl_factorization(word)
        assert sum(factors, ()) == word
        assert all(is_lyndon(f) for f in factors)
        assert all(a >= b for a, b in zip(factors, factors[1:]))


def test_standard_factorization_and_brackets():
    assert standard_factorization((1, 1, 1, 2)) == ((1,), (1, 1, 2))
    b = bracketing((1, 1, 1, 2))
    assert b.coefficient((1, 1, 1, 2)) == 1
    assert b.coefficient((1, 1, 2, 1)) == -3
    assert b.coefficient((1, 2, 1, 1)) == 3
    assert b.coefficient((2, 1, 1, 1)) == -1
    b = bracketing((1, 2, 2, 2))
    assert b.coefficient((1, 2, 2, 2)) == 1
    assert b.coefficient((2, 1, 2, 2)) == -3
    assert b.coefficient((2, 2, 1, 2)) == 3
    assert b.coefficient((2, 2, 2, 1)) == -1
    b = bracketing((1, 2))
    assert b.coefficient((1, 2)) == 1 and b.coefficient((2, 1)) == -1
    with pytest.raises(ValueError):
        standard_factorization((2, 1))
    with pytest.raises(ValueError):
        bracketing((1, 1))


def test_brackets_are_lie():
    for d in (2, 3):
        for word in lyndon_words(d, 5).words:
            if len(word) >= 2:
                assert is_lie(bracketing(word, d))


def test_normal_form_base_cases():
    assert normal_form((1, 1), 2, 3) == {((1,), (1,)): Fraction(1, 2)}
    assert normal_form((2, 1), 2, 3) == {((1,), (2,)): Fraction(1), ((1, 2),): Fraction(-1)}
    assert normal_form((1, 2, 1), 2, 3) == {
        ((1,), (1, 2)): Fraction(1),
        ((1, 1, 2),): Fraction(-2),
    }
    # a Lyndon word maps to itself
    assert normal_form((1, 2), 2, 3) == {((1, 2),): Fraction(1)}
    with pytest.raises(ValueError):
        normal_form((1, 2, 1, 1), 2, 3)


def test_empty_and_out_of_alphabet_words_have_no_normal_form():
    table = NormalFormTable(3, 4)
    for call in (lambda: normal_form((), 3, 4), lambda: table.phi(())):
        with pytest.raises(ValueError, match=r"word \(\) is empty"):
            call()
    for call in (lambda: normal_form((4, 1), 3, 4), lambda: table.phi((4, 1)), lambda: table.phi([1, 0])):
        with pytest.raises(ValueError, match=r"word \((4, 1|1, 0)\): letter (4|0) outside alphabet 1\.\.3"):
            call()
    with pytest.raises(ValueError, match="'11111' longer than truncation order 4"):
        table.phi((1,) * 5)


def _shuffle_rewrite(table, word):
    """Radford's rewrite of a non-Lyndon word from the shuffle of its Lyndon factors."""
    factors = cfl_factorization(word)
    expansion = shuffle_all(factors)
    poly = {tuple(sorted(factors)): Fraction(1)}
    for other, coeff in expansion.items():
        if other != word:
            for monomial, value in table.table[other].items():
                poly[monomial] = poly.get(monomial, 0) - coeff * value
    return {monomial: value / expansion[word] for monomial, value in poly.items() if value != 0}


@pytest.mark.parametrize("d, n", [(1, 12), (2, 7)])
def test_normal_forms_equal_the_shuffle_rewrite_word_for_word(d, n):
    table = NormalFormTable(d, n)
    for word, poly in table.table.items():
        if not table.is_lyndon_word(word):
            assert poly == _shuffle_rewrite(table, word)
    assert table.table[(1,) * n] == {((1,),) * n: Fraction(1, math.factorial(n))}


PROPERTY = settings(derandomize=True, deadline=None, max_examples=50, database=None)

TABLE_SHAPES = [(d, n) for d in range(1, 10) for n in range(1, 13) if d**n <= 729]


@PROPERTY
@given(st.sampled_from(TABLE_SHAPES))
def test_integer_rows_equal_the_shuffle_rewrite_and_write_its_json(shape):
    d, n = shape
    table = NormalFormTable(d, n)
    for word, poly in table.table.items():
        assert all(type(c) is Fraction for c in poly.values())
        if table.is_lyndon_word(word):
            assert poly == {(word,): 1}
        else:
            assert poly == _shuffle_rewrite(table, word), word
        assert table.phi(word) == poly
    forms = [poly_to_json(w, table.table[w], d) for w in sorted(table.table) if not table.is_lyndon_word(w)]
    assert table.to_json() == {"dim": d, "trunc": n, "forms": forms}


def _stored(level):
    """A stored level as plain lists: row pointers, columns, values, scale and first-factor lengths."""
    return level.ptr.tolist(), level.cols.tolist(), level.vals.tolist(), level.scale, level.first.tolist()


def _phi_rows(level):
    """The rows of a level as (column, Fraction) pairs, whatever its scale."""
    ptr, cols, vals, scale, _ = _stored(level)
    return [[(c, Fraction(v, scale)) for c, v in zip(cols[lo:hi], vals[lo:hi])] for lo, hi in zip(ptr, ptr[1:])]


def test_growing_a_level_scale_rescales_the_rows_built_at_that_level():
    # a private level from the level builder: rescaling a stored level would reach every table
    lyndon._tables.clear()
    below = _stored(lyndon._tables.level(2, 2))
    stored = lyndon._tables.level(2, 3)
    # started at S_2 = 2, the first wave meets 1 ⧢ 11 = 3 * 111 with the lift 1: S_3 grows to 6, and the
    # Lyndon rows and lifts built before that wave are rescaled with it
    grown = lyndon._build_level(2, 3, start=1)
    assert grown.scale == stored.scale == 6
    assert _stored(grown) == _stored(stored)
    assert _stored(lyndon._tables.level(2, 2)) == below


@PROPERTY
@given(st.sampled_from(TABLE_SHAPES))
def test_levels_started_below_k_factorial_grow_their_scale_to_the_same_phi(shape):
    d, n = shape
    for k in range(2, n + 1):
        stored = lyndon._tables.level(d, k)
        grown = lyndon._build_level(d, k, start=1)  # S_k starts at S_(k-1) = (k-1)!; a^k needs a factor k
        assert grown.scale > lyndon._tables.level(d, k - 1).scale
        assert grown.scale % math.factorial(k) == 0
        assert _phi_rows(grown) == _phi_rows(stored)


@PROPERTY
@given(st.sampled_from(TABLE_SHAPES))
def test_a_tiny_expansion_chunk_builds_identical_levels(shape):
    d, n = shape
    lyndon._tables.clear()
    reference = [_stored(lyndon._tables.level(d, k)) for k in range(1, n + 1)]
    lyndon._tables.clear()
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(lyndon, "_CHUNK", 1)  # one word's interleavings per block, counted block by block
        assert [_stored(lyndon._tables.level(d, k)) for k in range(1, n + 1)] == reference
    lyndon._tables.clear()


@PROPERTY
@given(st.sampled_from(TABLE_SHAPES))
def test_the_first_factor_shuffle_of_a_non_lyndon_word_tops_out_at_the_word(shape):
    d, n = shape
    for k in range(2, n + 1):
        for word in all_words(d, k):
            first = cfl_factorization(word)[0]
            if first != word:
                terms = shuffle_words(first, word[len(first) :]).terms
                assert max(terms) == word and terms[word] > 0


@PROPERTY
@given(st.sampled_from(TABLE_SHAPES))
def test_the_lyndon_words_of_phi_u_are_at_most_the_first_factor(shape):
    # so the lift x_l * phi_u appends l to each monomial and is a column offset
    d, n = shape
    table = NormalFormTable(d, n)
    for k in range(2, n + 1):
        for word in all_words(d, k):
            first = cfl_factorization(word)[0]
            if first != word:
                assert all(w <= first for mono in table.phi(word[len(first) :]) for w in mono), word


def _snapshot(table):
    """Stored levels, Fraction view, JSON and an exact and a float expansion of one table."""
    rng = random.Random(table.d * 100 + table.n)
    coords = {w: Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for w in table.basis.words}
    expansions = [
        [[(repr(v), type(v)) for v in level.entries] for level in expand_from_lyndon(c, table.d, table.n).levels]
        for c in (coords, {w: float(v) for w, v in coords.items()})
    ]
    return [_stored(level) for level in table._levels], table.table, table.to_json(), expansions


@PROPERTY
@given(st.sampled_from(TABLE_SHAPES), st.data())
def test_tables_over_the_level_store_do_not_depend_on_build_order(shape, data):
    d, n = shape
    small = data.draw(st.integers(1, n))
    runs = []
    for order in ((small, n), (n, small)):
        lyndon._tables.clear()
        tables = [NormalFormTable(d, size) for size in order]
        runs.append({table.n: _snapshot(table) for table in tables})
    cold = {}
    for size in (small, n):
        lyndon._tables.clear()
        cold[size] = _snapshot(NormalFormTable(d, size))
    assert runs[0] == runs[1] == cold
    assert sorted(lyndon._tables) == [(d, k) for k in range(1, n + 1)]


def test_threads_building_one_cold_table_store_each_level_once():
    lyndon._tables.clear()
    start = threading.Barrier(4, timeout=60)
    tables = [None] * 4

    def build(i):
        start.wait()
        tables[i] = NormalFormTable(3, 5)

    threads = [threading.Thread(target=build, args=(i,)) for i in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    # a lost update of the counts, or a level built twice, breaks the exact counts
    assert sorted(lyndon._tables) == [(3, k) for k in range(1, 6)]
    assert lyndon._tables.cache_info() == (4 * 5 - 5, 5, 5)
    # the four tables hold the same stored level objects
    assert all(level is tables[0]._levels[k] for table in tables[1:] for k, level in enumerate(table._levels))
    assert all(_snapshot(table) == _snapshot(tables[0]) for table in tables[1:])


def test_a_level_whose_build_fails_is_never_stored(monkeypatch):
    lyndon._tables.clear()
    reference = _snapshot(NormalFormTable(2, 5))
    lyndon._tables.clear()
    calls = []
    segments = lyndon._segments

    def interrupted(begins, lengths):
        calls.append(len(begins))
        if len(calls) == 22:  # the second wave of level 5, after its lifts and first wave
            raise KeyboardInterrupt
        return segments(begins, lengths)

    monkeypatch.setattr(lyndon, "_segments", interrupted)
    with pytest.raises(KeyboardInterrupt):
        NormalFormTable(2, 5)
    built = sorted(lyndon._tables)
    assert built and built == [(2, k) for k in range(1, len(built) + 1)] and len(built) < 5
    monkeypatch.undo()
    assert _snapshot(NormalFormTable(2, 5)) == reference


def test_levels_reached_cold_out_of_order_equal_the_levels_built_in_order():
    lyndon._tables.clear()
    in_order = {k: _stored(lyndon._tables.level(3, k)) for k in range(1, 6)}
    lyndon._tables.clear()
    assert _stored(lyndon._tables.level(3, 5)) == in_order[5]
    assert lyndon._tables.cache_info() == (0, 5, 5)
    assert {k: _stored(lyndon._tables.level(3, k)) for k in (2, 4, 1, 3)} == {k: in_order[k] for k in (2, 4, 1, 3)}
    assert lyndon._tables.cache_info() == (4, 5, 5)
    # a cold deep level is built bottom-up in a loop, not one recursion per level
    lyndon._tables.clear()
    # one row: the monomial (1,)^1500 at the column of its CFL word 1^1500, index 0, over 1500!
    assert _stored(lyndon._tables.level(1, 1500)) == ([0, 1], [0], [1], math.factorial(1500), [1])
    assert lyndon._tables.cache_info() == (0, 1500, 1500)
    lyndon._tables.clear()


def test_the_shuffle_cache_holds_one_untracked_int64_array_per_length_pair():
    # no Python objects in the long-lived entries, so full garbage collections do not traverse them
    shuffle._shuffle.cache_clear()
    for left in all_words(3, 2):
        for right in all_words(3, 3):
            shuffle_words(left, right)
    assert shuffle._shuffle.cache_info().currsize == 1
    lyndon._tables.clear()
    NormalFormTable(3, 6)
    pairs = [(a, k - a) for k in range(2, 7) for a in range(1, k)]
    assert shuffle._shuffle.cache_info().currsize == len(pairs)
    for a, b in pairs:
        spots = shuffle._shuffle(a, b)
        assert spots.dtype == np.int64 and spots.shape == (math.comb(a + b, a), a + b)
        assert not spots.flags.writeable and not gc.is_tracked(spots)
    assert shuffle._shuffle.cache_info().currsize == len(pairs)
    lyndon._tables.clear()


def test_the_level_store_counts_hits_and_misses_until_cleared():
    lyndon._tables.clear()
    assert lyndon._tables.cache_info() == (0, 0, 0)
    NormalFormTable(2, 4)
    assert lyndon._tables.cache_info() == (0, 4, 4)
    NormalFormTable(2, 3)
    expand_from_lyndon({w: 1 for w in lyndon_words(2, 5).words}, 2, 5)
    normal_form((2, 1), 3, 2)
    info = lyndon._tables.cache_info()
    assert (info.hits, info.misses, info.currsize) == (3 + 4, 4 + 1 + 2, 7)
    with pytest.raises(AttributeError):
        info.hits = 0
    lyndon._tables.clear()
    assert lyndon._tables.cache_info() == (0, 0, 0)
    NormalFormTable(2, 2)
    NormalFormTable(2, 2)
    assert lyndon._tables.cache_info() == (2, 2, 2)


def test_normal_forms_homogeneous():
    table = normal_form_table(3, 4)
    for word, poly in table.table.items():
        for monomial in poly:
            assert sum(len(w) for w in monomial) == len(word)


def test_normal_forms_evaluate_on_grouplikes(rng):
    for d, n in [(2, 5), (3, 4)]:
        table = normal_form_table(d, n)
        g = random_grouplike(rng, d, n)
        coords = lyndon_coordinates(g)
        for word, poly in table.table.items():
            assert poly_eval(poly, coords) == g.coefficient(word), word


def test_printed_relations_vanish_on_grouplikes(rng):
    data = json.loads(
        (Path(__file__).resolve().parents[1] / "src/sigtensor/data/grouplike_relations_d2_n3.json").read_text()
    )
    assert len(data["relations"]) == 11
    for _ in range(5):
        g = random_grouplike(rng, 2, 3)
        for rel in data["relations"]:
            left = tuple(int(c) for c in rel["left"])
            right = tuple(int(c) for c in rel["right"])
            form = sum(
                Fraction(coeff) * g.coefficient(tuple(int(c) for c in w))
                for w, coeff in rel["form"].items()
            )
            assert g.coefficient(left) * g.coefficient(right) - form == 0


def test_expand_round_trips(rng):
    from sigtensor import basis_series, exp_series, unit_series

    zeros = {w: Fraction(0) for w in lyndon_words(2, 3).words}
    assert expand_from_lyndon(zeros, 2, 3) == unit_series(2, 3)

    g = exp_series(basis_series(2, 3, 1).add(basis_series(2, 3, 2)))
    assert expand_from_lyndon(lyndon_coordinates(g), 2, 3) == g
    for d, n in [(2, 4), (3, 4)]:
        values = {w: rand_fraction(rng) for w in lyndon_words(d, n).words}
        g = expand_from_lyndon(values, d, n)
        assert is_grouplike(g)
        assert lyndon_coordinates(g) == values
    with pytest.raises(ValueError):
        expand_from_lyndon({(1,): Fraction(1)}, 2, 2)


@PROPERTY
@given(st.integers(1, 3), st.integers(1, 5), st.booleans(), st.data())
def test_expand_inverts_lyndon_coordinates_in_both_scalar_modes(d, n, floats, data):
    rationals = st.builds(Fraction, st.integers(-5, 5), st.integers(1, 4))
    steps = data.draw(st.lists(st.lists(rationals, min_size=d, max_size=d), min_size=1, max_size=3))
    if floats:
        steps = [[float(v) for v in step] for step in steps]
    sig = pl_signature(steps, n)
    coords = lyndon_coordinates(sig)
    g = expand_from_lyndon(coords, d, n)
    assert g.levels[0].entries == (1,)
    typed = [[(v, type(v)) for v in lvl.entries] for lvl in g.levels[1:]]
    if floats:
        assert all(t is float for level in typed for _, t in level)
        assert not any(v == 0 and math.copysign(1, v) < 0 for level in typed for v, _ in level)  # no -0.0
        exact = expand_from_lyndon({w: Fraction(v) for w, v in coords.items()}, d, n)
        for k in range(1, n + 1):
            for error, bound in _expansion_errors_and_bounds(g.levels[k], exact.levels[k], coords):
                assert error <= bound, (k, error, bound)
        assert g.equals(sig, tol=1e-9)
    else:
        assert g == sig
        assert typed == [[(v, type(v)) for v in lvl.entries] for lvl in sig.levels[1:]]


def _expansion_errors_and_bounds(floats, exact, coords):
    """(|float - exact|, gamma_(k+r) A) per entry of level k of a float expansion from its coordinates,
    where row i of the stored level has r terms and A is the same row on absolute values: the sum over
    its terms of |S_k c| / S_k times |coordinate| at each CFL factor of the column's word."""
    level = lyndon._tables.level(floats.d, floats.k)
    ptr, cols, vals = level.ptr.tolist(), level.cols.tolist(), level.vals.tolist()
    words = list(all_words(floats.d, floats.k))
    out = []
    for i, (f, e) in enumerate(zip(floats.entries, exact.entries)):
        terms = range(ptr[i], ptr[i + 1])
        magnitude = 0
        for j in terms:
            factors = cfl_factorization(words[cols[j]])
            magnitude += Fraction(abs(vals[j]), level.scale) * math.prod(abs(Fraction(coords[w])) for w in factors)
        out.append((abs(Fraction(f) - e), gamma(floats.k + len(terms)) * magnitude))
    return out


def test_poly_json_round_trip():
    table = normal_form_table(2, 3)
    word = (2, 1)
    data = poly_to_json(word, table.phi(word))
    assert data["word"] == "21"
    back_word, back_poly = poly_from_json(data, 2)
    assert back_word == word and back_poly == table.phi(word)


@pytest.mark.parametrize("d", [9, 10, 12])
def test_poly_json_round_trip_at_large_alphabets(d):
    table = normal_form_table(d, 2)
    for word in [(d, 1), (d - 1, d - 1), (2, 1)]:
        data = poly_to_json(word, table.phi(word), d)
        assert poly_from_json(data, d) == (word, table.phi(word))
    forms = table.to_json()["forms"]
    assert len({form["word"] for form in forms}) == len(forms)
    assert all(poly_from_json(form, d)[1] == table.phi(poly_from_json(form, d)[0]) for form in forms)
