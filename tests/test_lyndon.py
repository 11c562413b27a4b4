import json
import random
from fractions import Fraction
from pathlib import Path

import pytest

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
    standard_factorization,
)
from sigtensor.lyndon import lyndon_count_level, mobius, poly_eval, poly_from_json, poly_to_json
from sigtensor.words import all_words

from conftest import rand_fraction, random_grouplike

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
