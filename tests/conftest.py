"""Shared helpers: seeded random rational data and independent oracles."""

import functools
import random
from fractions import Fraction

import pytest

from sigtensor import (
    bracketing,
    expand_from_lyndon,
    lyndon_words,
    shuffle_words,
    zero_series,
)


def gamma(count):
    """gamma_K = K u / (1 - K u) for u = 2^-53, as a Fraction."""
    ku = Fraction(count, 2**53)
    return ku / (1 - ku)


def rand_fraction(rng, lo=-5, hi=5, max_den=4, nonzero=False):
    while True:
        value = Fraction(rng.randint(lo, hi), rng.randint(1, max_den))
        if value != 0 or not nonzero:
            return value


def rand_vector(rng, d, nonzero=False):
    while True:
        vec = tuple(rand_fraction(rng) for _ in range(d))
        if not nonzero or any(v != 0 for v in vec):
            return vec


def random_lie_series(rng, d, n):
    """Random rational combination of Lyndon bracketings: exactly Lie."""
    series = zero_series(d, n)
    for word in lyndon_words(d, n).words:
        coeff = rand_fraction(rng)
        if coeff:
            series = series.add(bracketing(word, d).truncate(n).scale(coeff))
    return series


def random_grouplike(rng, d, n, nonzero_level1=False):
    """Random group-like series through free Lyndon coordinates."""
    values = {
        w: rand_fraction(rng, nonzero=(nonzero_level1 and len(w) == 1))
        for w in lyndon_words(d, n).words
    }
    return expand_from_lyndon(values, d, n)


def isserlis_moment(indices, mu, sigma):
    """Gaussian moment E(prod Z_i) by recursive pairing with the mean."""
    indices = tuple(indices)
    if not indices:
        return Fraction(1)
    first, rest = indices[0], indices[1:]
    total = mu[first] * isserlis_moment(rest, mu, sigma)
    for pos, j in enumerate(rest):
        total += sigma[first][j] * isserlis_moment(rest[:pos] + rest[pos + 1 :], mu, sigma)
    return total


def shuffle_combinations(a, b):
    """Shuffle product of sparse combinations {word: coefficient}, bilinear over shuffle_words."""
    out = {}
    for wa, ca in a.items():
        for wb, cb in b.items():
            for word, coeff in shuffle_words(wa, wb).terms.items():
                out[word] = out.get(word, 0) + ca * cb * coeff
    return {w: c for w, c in out.items() if c != 0}


def shuffle_all(words):
    """Iterated shuffle of a list of words, as {word: coefficient}."""
    return functools.reduce(shuffle_combinations, ({tuple(w): 1} for w in words), {(): 1})


def rand_symmetric(rng, d):
    mat = [[Fraction(0)] * d for _ in range(d)]
    for i in range(d):
        for j in range(i, d):
            mat[i][j] = rand_fraction(rng)
            mat[j][i] = mat[i][j]
    return tuple(tuple(r) for r in mat)


def rand_skew(rng, d):
    mat = [[Fraction(0)] * d for _ in range(d)]
    for i in range(d):
        for j in range(i + 1, d):
            mat[i][j] = rand_fraction(rng)
            mat[j][i] = -mat[i][j]
    return tuple(tuple(r) for r in mat)


@pytest.fixture
def rng():
    return random.Random(20240901)
