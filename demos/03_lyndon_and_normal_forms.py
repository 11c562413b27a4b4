"""Lyndon words as free coordinates on group-like series.

Lyndon words index a basis of the free Lie algebra (via bracketing) and
freely generate the coefficients of group-like series: every non-Lyndon
coefficient is a fixed polynomial in the Lyndon ones.  This demo prints
the small bases, a few rewriting polynomials, and a free-coordinate round
trip.
"""

import random
from fractions import Fraction

from sigtensor import (
    bracketing,
    expand_from_lyndon,
    is_grouplike,
    lyndon_coordinates,
    lyndon_count,
    lyndon_words,
    normal_form,
)
from sigtensor.lyndon import poly_to_json
from sigtensor.words import word_to_string

basis = lyndon_words(2, 4)
print(f"Lyndon words over two letters, length <= 4 ({basis.count} of them):")
print("   ", [word_to_string(w, 2) for w in basis.words])
print("counting formula agrees:", lyndon_count(2, 4))

print("\nbracketings expand into the concatenation basis:")
from sigtensor.words import all_words

for word in [(1, 2), (1, 1, 2), (1, 1, 2, 2)]:
    level = bracketing(word).levels[len(word)]
    terms = {word_to_string(w, 2): level[w] for w in all_words(2, len(word)) if level[w]}
    print(f"    b({word_to_string(word, 2)}) -> {terms}")

print("\nrewriting polynomials for non-Lyndon words (d=2, n=3):")
for word in [(1, 1), (2, 1), (1, 2, 1)]:
    print("   ", poly_to_json(word, normal_form(word, 2, 3), 2))

rng = random.Random(1)
values = {w: Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for w in lyndon_words(2, 4).words}
series = expand_from_lyndon(values, 2, 4)
print("\nfree coordinates -> group-like series -> coordinates:")
print("    is_grouplike:", is_grouplike(series))
print("    round trip exact:", lyndon_coordinates(series) == values)
