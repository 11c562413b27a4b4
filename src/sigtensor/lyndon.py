"""Lyndon words, bracketings, and rewriting into free Lyndon coordinates.

Lyndon words of length <= n index a basis of the free Lie algebra and a
free polynomial generating set of the shuffle algebra: the coefficient of
every non-Lyndon word on a group-like series is a fixed polynomial in the
Lyndon coefficients.  This module enumerates the words (Duval), counts
them (Moebius), builds the bracketed basis, and computes the rewriting
polynomials by Radford-style elimination against shuffle expansions.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Sequence

from .scalars import format_scalar, parse_scalar
from .shuffle import shuffle_word_list
from .tensor import LevelTensor, TensorSeries, series_from_level
from .words import all_words, word_from_string, word_to_string


def mobius(n: int) -> int:
    if n < 1:
        raise ValueError("mobius is defined for positive integers")
    result, p = 1, 2
    while p * p <= n:
        if n % p == 0:
            n //= p
            if n % p == 0:
                return 0
            result = -result
        p += 1
    if n > 1:
        result = -result
    return result


def lyndon_count_level(d: int, k: int) -> int:
    """Number of Lyndon words of exact length k (necklace-counting formula).

    The divisors ell of k come in pairs (i, k // i) with i * i <= k, so the
    sum over them takes O(sqrt(k)) steps.
    """
    total, i = 0, 1
    while i * i <= k:
        if k % i == 0:
            total += mobius(i) * d ** (k // i)
            if i * i != k:
                total += mobius(k // i) * d**i
        i += 1
    return total // k


def lyndon_count(d: int, n: int) -> int:
    """Number of Lyndon words of length <= n over d letters."""
    if d < 1 or n < 1:
        raise ValueError("need d >= 1 and n >= 1")
    return sum(lyndon_count_level(d, k) for k in range(1, _longest_lyndon(d, n) + 1))


def _longest_lyndon(d: int, n: int) -> int:
    """Bound n on the length of Lyndon words over d letters, cut to 1 for one
    letter, whose only Lyndon word is 1."""
    return n if d != 1 else min(n, 1)


def is_lyndon(word: Sequence[int]) -> bool:
    """A word is Lyndon when strictly smaller than all its proper rotations."""
    w = tuple(word)
    if not w:
        return False
    return all(w < w[i:] + w[:i] for i in range(1, len(w)))


@dataclass(frozen=True)
class LyndonBasis:
    d: int
    n: int
    words: tuple
    count: int


def lyndon_words(d: int, n: int) -> LyndonBasis:
    """All Lyndon words of length <= n, in lexicographic order (Duval)."""
    if d < 1 or n < 1:
        raise ValueError("need d >= 1 and n >= 1")
    out = []
    w = [1]
    longest = _longest_lyndon(d, n)
    while w:
        out.append(tuple(w))
        m = len(w)
        while len(w) < longest:
            w.append(w[len(w) % m])
        while w and w[-1] == d:
            w.pop()
        if w:
            w[-1] += 1
    out.sort()
    return LyndonBasis(d, n, tuple(out), len(out))


def cfl_factorization(word: Sequence[int]) -> tuple:
    """Unique factorization into a non-increasing sequence of Lyndon words."""
    s = tuple(word)
    out = []
    i, n = 0, len(s)
    while i < n:
        j, k = i + 1, i
        while j < n and s[k] <= s[j]:
            k = i if s[k] < s[j] else k + 1
            j += 1
        while i <= k:
            out.append(s[i : i + j - k])
            i += j - k
    return tuple(out)


def standard_factorization(word: Sequence[int]) -> tuple:
    """Split a Lyndon word as I1*I2 with I2 the longest proper Lyndon suffix."""
    w = tuple(word)
    if not is_lyndon(w):
        raise ValueError(f"{w} is not a Lyndon word")
    if len(w) < 2:
        raise ValueError("factorization needs length >= 2")
    for i in range(1, len(w)):
        if is_lyndon(w[i:]):
            return w[:i], w[i:]
    raise AssertionError("unreachable: every final letter is Lyndon")


def _bracket_level(word: tuple, d: int) -> LevelTensor:
    if len(word) == 1:
        return LevelTensor.from_map(d, 1, {word: Fraction(1)})
    left, right = standard_factorization(word)
    a = _bracket_level(left, d)
    b = _bracket_level(right, d)
    return a.tensor_product(b).add(b.tensor_product(a).negate())


def bracketing(word: Sequence[int], d: int | None = None) -> TensorSeries:
    """Iterated commutator attached to a Lyndon word, as a homogeneous series."""
    w = tuple(word)
    if not is_lyndon(w):
        raise ValueError(f"{w} is not a Lyndon word")
    if d is None:
        d = max(w)
    return series_from_level(_bracket_level(w, d))


# --- rewriting of non-Lyndon coefficients -------------------------------
#
# A polynomial in Lyndon variables is a dict: monomial -> coefficient,
# where a monomial is a sorted tuple of Lyndon words (a multiset).

LyndonPolynomial = Dict[tuple, Fraction]


def poly_scale(poly: LyndonPolynomial, c) -> LyndonPolynomial:
    return {m: c * v for m, v in poly.items()}


def poly_add_scaled(target: dict, poly: LyndonPolynomial, c) -> None:
    for m, v in poly.items():
        new = target.get(m, 0) + c * v
        if new == 0:
            target.pop(m, None)
        else:
            target[m] = new


def poly_eval(poly: LyndonPolynomial, values: dict):
    total = 0
    for monomial, coeff in poly.items():
        term = coeff
        for word in monomial:
            term = term * values[word]
        total = total + term
    return total


def poly_to_json(word: tuple, poly: LyndonPolynomial, d: int | None = None) -> dict:
    """JSON form of a rewriting polynomial, words written for alphabet size d.

    d defaults to the largest letter present, which writes the same digit
    strings as any alphabet of at most 9 letters.
    """
    items = sorted(poly.items())
    if d is None:
        words = [word] + [w for mono in poly for w in mono]
        d = max((max(w) for w in words if w), default=1)
    return {
        "word": word_to_string(word, d),
        "poly": [
            {"vars": [word_to_string(w, d) for w in mono], "coeff": format_scalar(coeff)}
            for mono, coeff in items
        ],
    }


def poly_from_json(data: dict, d: int) -> tuple:
    word = word_from_string(data["word"], d)
    poly = {
        tuple(word_from_string(v, d) for v in item["vars"]): parse_scalar(item["coeff"])
        for item in data["poly"]
    }
    return word, poly


class NormalFormTable:
    """Rewriting polynomials phi_I for every word I of length <= n.

    Built eagerly so instances are safe to share between threads.  Lyndon
    words map to themselves; every other word maps to the polynomial in
    Lyndon variables that reproduces its coefficient on group-like series.
    """

    def __init__(self, d: int, n: int):
        self.d = d
        self.n = n
        self.basis = lyndon_words(d, n)
        self._lyndon = set(self.basis.words)
        self.table: Dict[tuple, LyndonPolynomial] = {}
        for k in range(1, n + 1):
            for word in all_words(d, k):
                self.table[word] = self._rewrite(word)

    def is_lyndon_word(self, word: tuple) -> bool:
        return word in self._lyndon

    def _rewrite(self, word: tuple) -> LyndonPolynomial:
        if word in self._lyndon:
            return {(word,): Fraction(1)}
        factors = cfl_factorization(word)
        expansion = shuffle_word_list(factors).terms
        leading = expansion[word]
        poly: dict = {tuple(sorted(factors)): Fraction(1)}
        for other, coeff in expansion.items():
            if other == word:
                continue
            # Radford: every other word of the expansion is lex-smaller,
            # hence already rewritten by the construction order.
            poly_add_scaled(poly, self.table[other], -Fraction(coeff))
        return poly_scale(poly, Fraction(1, leading))

    def phi(self, word: Sequence[int]) -> LyndonPolynomial:
        return dict(self.table[tuple(word)])

    def to_json(self) -> dict:
        non_lyndon = [w for w in sorted(self.table) if w not in self._lyndon]
        return {
            "dim": self.d,
            "trunc": self.n,
            "forms": [poly_to_json(w, self.table[w], self.d) for w in non_lyndon],
        }


_tables: dict = {}
_tables_lock = threading.Lock()


def normal_form_table(d: int, n: int) -> NormalFormTable:
    """Shared per-(d, n) table; building is idempotent and synchronized."""
    key = (d, n)
    with _tables_lock:
        if key not in _tables:
            _tables[key] = NormalFormTable(d, n)
        return _tables[key]


def normal_form(word: Sequence[int], d: int, n: int) -> LyndonPolynomial:
    """Rewriting polynomial of one word over the Lyndon variables."""
    word = tuple(word)
    if len(word) > n:
        raise ValueError(f"word longer than truncation order {n}")
    return normal_form_table(d, n).phi(word)


def lyndon_coordinates(series: TensorSeries) -> dict:
    """Read off the coefficients indexed by Lyndon words."""
    basis = lyndon_words(series.d, series.n)
    return {w: series.coefficient(w) for w in basis.words}


def expand_from_lyndon(values: dict, d: int, n: int) -> TensorSeries:
    """Unique group-like series with the given Lyndon coordinates."""
    values = {tuple(w): v for w, v in values.items()}
    basis = lyndon_words(d, n)
    missing = [w for w in basis.words if w not in values]
    if missing:
        raise ValueError(f"missing Lyndon coordinates: {missing[:3]}...")
    table = normal_form_table(d, n)
    levels = [LevelTensor(d, 0, [Fraction(1)])]
    for k in range(1, n + 1):
        entries = [poly_eval(table.table[word], values) for word in all_words(d, k)]
        levels.append(LevelTensor(d, k, entries))
    return TensorSeries(d, n, levels)
