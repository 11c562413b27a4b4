"""Lyndon words, bracketings, and rewriting into free Lyndon coordinates.

Lyndon words of length <= n index a basis of the free Lie algebra and a
free polynomial generating set of the shuffle algebra: the coefficient of
every non-Lyndon word on a group-like series is a fixed polynomial in the
Lyndon coefficients.  This module enumerates the words (Duval), counts
them (Moebius), builds the bracketed basis, and computes the rewriting
polynomials by Radford-style elimination against shuffle expansions.

The elimination runs on integers: a word of length k has the integer row
S_k * phi_I over one level scale S_k (k! at every shape tried).  A
non-Lyndon word l * u, l its first CFL factor, is eliminated against
l ⧢ u, not the shuffle of all its factors, and without the shuffle memo,
whose long-lived dicts would slow every full garbage collection.  Each
level (d, k) is built once per process, bottom-up, into `_tables`, which
every table and `expand_from_lyndon` read; `Fraction` coefficients are
formed where read.
"""

from __future__ import annotations

import functools
import itertools
import math
import threading
from collections import namedtuple
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Sequence

import numpy as np

from .scalars import format_ratio, format_scalar, integer_multiple, parse_scalar, scalar_mode
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
    if d is None:
        words = [word] + [w for mono in poly for w in mono]
        d = max((max(w) for w in words if w), default=1)
    return _form_json(word, [(mono, format_scalar(coeff)) for mono, coeff in sorted(poly.items())], d)


def _form_json(word: tuple, items: list, d: int) -> dict:
    """JSON form of a rewriting polynomial from its sorted (monomial, formatted coefficient) items."""
    return {
        "word": word_to_string(word, d),
        "poly": [{"vars": [word_to_string(w, d) for w in mono], "coeff": coeff} for mono, coeff in items],
    }


def poly_from_json(data: dict, d: int) -> tuple:
    word = word_from_string(data["word"], d)
    poly = {
        tuple(word_from_string(v, d) for v in item["vars"]): parse_scalar(item["coeff"], f"poly[{i}].coeff")
        for i, item in enumerate(data["poly"])
    }
    return word, poly


class NormalFormTable:
    """Rewriting polynomials phi_I for every word I of length <= n.

    Lyndon words map to themselves; every other word maps to the polynomial
    in Lyndon variables that reproduces its coefficient on group-like series.
    A word of length k has the integer row S_k * phi_I, {monomial: int}, of the
    stored level (d, k).  `table`, the {word: {monomial: Fraction}} view, is built
    on its first read; `phi` converts one word and `to_json` formats straight
    from the rows.  Stored levels never change, so tables share them freely.
    """

    def __init__(self, d: int, n: int):
        self.d = d
        self.n = n
        self.basis = lyndon_words(d, n)
        self._lyndon = set(self.basis.words)
        levels = [_tables.level(d, k) for k in range(1, n + 1)]
        self._rows: Dict[tuple, dict] = {word: row for rows, _ in levels for word, row in rows.items()}
        self._scales = [1] + [scale for _, scale in levels]
        self._table = None

    def is_lyndon_word(self, word: tuple) -> bool:
        return word in self._lyndon

    @property
    def table(self) -> Dict[tuple, LyndonPolynomial]:
        """{word: {monomial: Fraction}} for every word, built on first read."""
        if self._table is None:
            self._table = {word: self.phi(word) for word in self._rows}
        return self._table

    def phi(self, word: Sequence[int]) -> LyndonPolynomial:
        word = tuple(word)
        scale = self._scales[len(word)]
        return {mono: Fraction(c, scale) for mono, c in self._rows[word].items()}

    def to_json(self) -> dict:
        forms = []
        for word in sorted(self._rows):
            if word not in self._lyndon:
                scale = self._scales[len(word)]
                items = sorted(self._rows[word].items())
                forms.append(_form_json(word, [(mono, format_ratio(c, scale)) for mono, c in items], self.d))
        return {"dim": self.d, "trunc": self.n, "forms": forms}


def _build_level(d: int, k: int) -> tuple:
    """(rows, S_k) of the words of length k, by Radford elimination in word order; S_k starts at 1.

    Row(w) = [x_l * row(u) * S_k / S_|u| - sum of c_o * row(o)] / c_w for w = l * u, l its first CFL factor,
    where l ⧢ u = c_w * w + sum of c_o * o with every o lex-smaller (Radford), so already built.
    """
    with _tables_lock:
        _tables._fill(d, k - 1)
    rows, scale = {}, [1]
    for word in all_words(d, k):
        factors = cfl_factorization(word)
        if len(factors) == 1:
            rows[word] = {factors: scale[0]}
            continue
        first, rest = factors[0], word[len(factors[0]) :]
        # a ⧢ a^(k-1) = k a^k, one term and no interleavings to enumerate
        expansion = {word: k} if len(set(word)) == 1 else _first_factor_shuffle(first, rest)
        below, below_scale = _tables[d, len(rest)]
        lift = _divide(rows, scale, {(): scale[0]}, below_scale)[()]  # S_k / S_|u|, S_k grown to a multiple
        row = {tuple(sorted(mono + (first,))): c * lift for mono, c in below[rest].items()}
        for other, coeff in expansion.items():
            if other != word:
                poly_add_scaled(row, rows[other], -coeff)
        rows[word] = _divide(rows, scale, row, expansion[word])
    return rows, scale[0]


def _first_factor_shuffle(first: tuple, rest: tuple) -> dict:
    """first ⧢ rest as {word: multiplicity}, over its C(|first| + |rest|, |first|) interleavings (no memo)."""
    letters = first + rest
    out: dict = {}
    for order in _interleavings(len(first), len(rest)):
        word = tuple([letters[i] for i in order])
        out[word] = out.get(word, 0) + 1
    return out


@functools.lru_cache(maxsize=None)
def _interleavings(a: int, b: int) -> tuple:
    """Each interleaving of letters 0..a-1 with a..a+b-1 as its tuple of indices (ints only, so untracked by gc)."""
    spots = range(a + b)
    return tuple(
        tuple(sorted(spots, key=(*places, *(p for p in spots if p not in places)).__getitem__))
        for places in itertools.combinations(spots, a)
    )


def _divide(level: dict, scale: list, row: dict, leading: int) -> dict:
    """row / leading, after growing S_k = scale[0] and the level's rows by the least factor making it exact."""
    grow = leading // math.gcd(leading, *row.values())
    if grow > 1:
        scale[0] *= grow
        for built in level.values():
            for mono in built:
                built[mono] *= grow
        row = {mono: c * grow for mono, c in row.items()}
    return {mono: c // leading for mono, c in row.items()}


class _LevelStore(dict):
    """(d, k) -> (rows, S_k), each level stored once complete; `cache_info`, `clear` as on an lru_cache."""

    hits = misses = 0

    def level(self, d: int, k: int) -> tuple:
        """The stored (rows, S_k) of level k over d letters, built with the missing levels below on first request."""
        with _tables_lock:
            self.hits += (d, k) in self
            self._fill(d, k)
            return self[d, k]

    def _fill(self, d: int, k: int) -> None:
        """Build the missing levels up to k bottom-up, one miss each; the store holds levels 1..j of d letters."""
        low = next((j for j in range(k, 0, -1) if (d, j) in self), 0)
        for j in range(low + 1, k + 1):
            self.misses += 1
            self[d, j] = _build_level(d, j)

    def cache_info(self) -> _CacheInfo:
        return _CacheInfo(self.hits, self.misses, len(self))

    def clear(self) -> None:
        with _tables_lock:
            super().clear()
            self.hits = self.misses = 0


_CacheInfo = namedtuple("CacheInfo", "hits misses currsize")
_tables = _LevelStore()
_tables_lock = threading.RLock()


def normal_form_table(d: int, n: int) -> NormalFormTable:
    """The table of (d, n), over the stored levels."""
    return NormalFormTable(d, n)


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
    """Unique group-like series with the given Lyndon coordinates.

    The scalar mode of the coordinates is decided once (`scalar_mode`), and
    each level is summed from the integer rows of the normal-form table.
    Exact coordinates v_w are put over one denominator D
    (`scalars.integer_multiple`) as the integers a_w = v_w * D^|w|, so a
    monomial of total length k lies over D^k and level k is an integer
    level over S_k * D^k.  Float coordinates weight a monomial by the float
    c / S_k (int true division rounds correctly, as `Fraction`-with-`float`
    arithmetic does), multiply in its order, and give the constant term
    1.0; coordinates of any other type are weighted by the `Fraction` c / S_k.
    """
    values = {tuple(w): v for w, v in values.items()}
    basis = lyndon_words(d, n)
    missing = [w for w in basis.words if w not in values]
    if missing:
        raise ValueError(f"missing Lyndon coordinates: {missing[:3]}...")
    mode, coords = scalar_mode(values[w] for w in basis.words)
    exact = mode in (int, Fraction)
    if exact:
        coords, den = integer_multiple(coords)
        coords = [a * den ** (len(w) - 1) for w, a in zip(basis.words, coords.tolist())]
    elif mode is float:
        coords = map(float, coords)
    coords = dict(zip(basis.words, coords))
    levels = [LevelTensor(d, 0, [1.0 if mode is float else Fraction(1)])]
    for k in range(1, n + 1):
        rows, scale = _tables.level(d, k)
        entries = []
        for word in all_words(d, k):
            total = 0
            for mono, c in rows[word].items():
                term = c if exact else c / scale if mode is float else Fraction(c, scale)
                for w in mono:
                    term = term * coords[w]
                total = total + term
            entries.append(total)
        if exact:
            levels.append(LevelTensor._of(d, k, np.array(entries, dtype=object), scale * den**k, Fraction))
        else:
            levels.append(LevelTensor(d, k, entries))
    return TensorSeries(d, n, levels)
