"""Lyndon words, bracketings, and rewriting into free Lyndon coordinates.

Lyndon words of length <= n index a basis of the free Lie algebra and a
free polynomial generating set of the shuffle algebra: the coefficient of
every non-Lyndon word on a group-like series is a fixed polynomial in the
Lyndon coefficients.  This module enumerates the words (Duval), counts
them (Moebius), builds the bracketed basis, and computes the rewriting
polynomials by Radford-style elimination against shuffle expansions.

Each level (d, k) is built once per process, bottom-up, into `_tables`:
CSR rows of the integers S_k * phi_w, whose columns are the indices of
the CFL words of monomials (`_Level`).  A non-Lyndon word l * u, l its
first CFL factor, is eliminated against l ⧢ u = x_l * phi_u, a lift that
is a column offset (l ⧢ u by `shuffle._shuffle`), in waves of independent
rows (`_build_level`), on int64 while a bound certifies that no partial
sum reaches 2^63, else on Python ints (`scalars.int_kind`).  An expansion
from Lyndon coordinates sums each row by one `reduceat` in both scalar
modes: exact over S_k, float weighted by the rounded c / S_k.
"""

from __future__ import annotations

import math
import threading
from collections import namedtuple
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Sequence

import numpy as np

from .scalars import format_ratio, format_scalar, int_kind, parse_scalar
from .shuffle import _shuffle
from .tensor import LevelTensor, TensorSeries, _common, _quotients, series_from_level
from .words import all_words, check_word, word_from_string, word_index, word_to_string


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
    items = [(mono, format_scalar(coeff)) for mono, coeff in sorted(poly.items())]
    return _form_json(word_to_string(word, d), items, {w: word_to_string(w, d) for mono in poly for w in mono})


def _form_json(word: str, items: list, names: dict) -> dict:
    """JSON form of a rewriting polynomial from its word's text and its sorted (monomial, formatted
    coefficient) items, each variable written as names[variable]."""
    return {"word": word, "poly": [{"vars": [names[w] for w in mono], "coeff": coeff} for mono, coeff in items]}


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
    A word of length k is row word_index(I) of the shared stored level
    (d, k) (`_Level`).  `table`, the {word: {monomial: Fraction}} view in
    column order, is built on first read; `phi` converts one row and
    `to_json` formats straight from the rows.
    """

    def __init__(self, d: int, n: int):
        self.d = d
        self.n = n
        self.basis = lyndon_words(d, n)
        self._lyndon = set(self.basis.words)
        self._levels = [_tables.level(d, k) for k in range(1, n + 1)]
        self._table = None

    def is_lyndon_word(self, word: tuple) -> bool:
        return word in self._lyndon

    @property
    def int64_exits(self) -> tuple:
        """Per level 1..n, None if its build stayed on int64, else where it left: ("start", 0) for S_k >= 2^63,
        ("below", 0) over a level on Python ints, ("bound", w) or ("division", w) at wave w (from 1)."""
        return tuple(level.moved for level in self._levels)

    @property
    def table(self) -> Dict[tuple, LyndonPolynomial]:
        """{word: {monomial: Fraction}} for every word, built on first read."""
        if self._table is None:
            _decode(self._levels)
            self._table = {
                word: level.poly(i) for level in self._levels for i, word in enumerate(all_words(self.d, level.k))
            }
        return self._table

    def phi(self, word: Sequence[int]) -> LyndonPolynomial:
        word = _checked_word(word, self.d)
        if len(word) > self.n:
            raise ValueError(f"word {word_to_string(word, self.d)!r} longer than truncation order {self.n}")
        level = self._levels[len(word) - 1]
        _decode(self._levels[: level.k])
        return level.poly(word_index(word, self.d))

    def to_json(self) -> dict:
        return {"dim": self.d, "trunc": self.n, "forms": list(self.forms())}

    def forms(self):
        """The JSON forms of `to_json`, one non-Lyndon word at a time in word order."""
        _decode(self._levels)
        rows = []
        for level in self._levels:
            firsts = level.first.tolist()
            rows += [(word, level, i) for i, word in enumerate(all_words(self.d, level.k)) if firsts[i] < level.k]
        names = {w: word_to_string(w, self.d) for w in self.basis.words}  # each variable written once
        for word, level, i in sorted(rows):
            yield _form_json(word_to_string(word, self.d), level.formatted(i), names)


def _checked_word(word: Sequence[int], d: int) -> tuple:
    """The word as a tuple; ValueError naming it when it is empty or has a letter outside 1..d."""
    word = tuple(word)
    if not word:
        raise ValueError("word () is empty: only words of length >= 1 have rewriting polynomials")
    try:
        return check_word(word, d)
    except ValueError as exc:
        raise ValueError(f"word {word}: {exc}") from None


class _Level:
    """Level (d, k): row i, of the word of index i, is S_k * phi at the ascending columns cols[ptr[i]:ptr[i+1]],
    values vals[...] (int64, or object Python ints where the build left int64; S_k = `scale`, a Python int;
    readers take `tolist()` or meet an object array).  Column c stands for the monomial of the CFL factors of
    word c (they match one to one); first[c] is the length of its first factor.  `moved` is where the build
    left int64 (`NormalFormTable.int64_exits`); `monomials` is filled by `_decode`.
    """

    __slots__ = ("d", "k", "ptr", "cols", "vals", "scale", "first", "moved", "monomials")

    def __init__(self, d, k, ptr, cols, vals, scale, first, moved):
        self.d, self.k, self.ptr, self.cols, self.vals, self.scale, self.first = d, k, ptr, cols, vals, scale, first
        self.moved, self.monomials = moved, None

    def _row(self, i: int):
        lo, hi = self.ptr[i], self.ptr[i + 1]
        return zip([self.monomials[c] for c in self.cols[lo:hi].tolist()], self.vals[lo:hi].tolist())

    def poly(self, i: int) -> LyndonPolynomial:
        """Row i as {monomial: Fraction}, in column order."""
        return {mono: Fraction(c, self.scale) for mono, c in self._row(i)}

    def formatted(self, i: int) -> list:
        """Row i as sorted (monomial, formatted coefficient) items."""
        return [(mono, format_ratio(c, self.scale)) for mono, c in sorted(self._row(i))]


def _decode(levels: list) -> None:
    """Fill `monomials` of levels 1..len(levels) of one alphabet, bottom-up: column c of level k with first
    factor l, |l| = a, is the monomial of column c mod d**(k - a) of level k - a, followed by l."""
    for level in levels:
        if level.monomials is None:
            d, k = level.d, level.k
            lower = [[()]] + [below.monomials for below in levels[: k - 1]]
            level.monomials = [
                lower[k - a][c % d ** (k - a)] + (word[:a],)
                for c, (word, a) in enumerate(zip(all_words(d, k), level.first.tolist()))
            ]


_CHUNK = 1 << 18  # shuffled word indices (int64) held at once by the first-factor expansions


def _build_level(d: int, k: int, start: int | None = None) -> _Level:
    """Level (d, k) by Radford elimination, over S_k = lcm(start, S_(k-1)), start k! unless given.

    Row(w) = [x_l * row(u) * S_k / S_|u| - sum of c_o * row(o)] / c_w for w = l * u, l its first CFL
    factor, where l ⧢ u = c_w * w + sum of c_o * o with every o lex-smaller (Radford).  Every Lyndon
    word of phi_u is <= l (checked), so the lift appends l to each monomial: columns offset by
    idx(l) * d**|u|.  Each wave of rows whose o are all built is one gather, sort and `reduceat`.
    An inexact division by c_w grows S_k and the level's rows by the least factor making it exact.
    The pool of rows is int64 while S_k, every value and every partial sum of a wave, bounded per row by
    the sum over its sources of |coefficient| * max |source row|, are below 2^63; past that, or once S_k
    grows, it is object for the rest of the level (as is a level built on an object one): `_Level.moved`.
    """
    with _tables_lock:
        _tables._fill(d, k - 1)
    size = d**k
    first = _first_factor_lengths(d, k)
    scale = math.lcm(math.factorial(k) if start is None else start, _tables[d, k - 1].scale if k > 1 else 1)
    kind = int_kind(scale)  # S_k bounds the lifts and the Lyndon rows; counts, leads and the levels below fit
    lyndon, todo = np.flatnonzero(first == k), np.flatnonzero(first < k)
    lead, owner, other, count = _expansions(d, k, todo, first)
    depth = _waves(size, todo, owner, other)
    # the pool of rows: handle h < size is the row of word h, size + w row(u) at the columns of the lift of
    # word w (its factor S_k / S_|u| is lift[w]), with values vals[begin[h] : begin[h] + length[h]] at cols[...]
    begin, length, lift = np.zeros(2 * size, np.int64), np.zeros(2 * size, np.int64), np.zeros(size, kind)
    begin[lyndon], length[lyndon] = np.arange(lyndon.size), 1
    cols, vals = [lyndon], [np.full(lyndon.size, scale, dtype=kind)]
    filled = lyndon.size
    for a in np.flatnonzero(np.bincount(first[todo])).tolist():  # the first-factor lengths present
        words = todo[first[todo] == a]
        below, cut = _tables[d, k - a], d ** (k - a)
        tails = words % cut
        lengths = below.ptr[tails + 1] - below.ptr[tails]
        spots = _segments(below.ptr[tails], lengths)
        lifted = np.repeat(words - tails, lengths) + below.cols[spots]
        if (first[lifted] != a).any():
            raise ArithmeticError(f"phi_u holds a Lyndon word > l at level ({d}, {k}): its lift is no column offset")
        cols.append(lifted)
        vals.append(below.vals[spots])
        lift[words] = scale // below.scale
        begin[size + words] = filled + np.cumsum(lengths) - lengths
        length[size + words] = lengths
        filled += spots.size
    cols, vals = np.concatenate(cols), np.concatenate(vals)  # object when a level below is
    moved = None if vals.dtype == np.int64 else ("start", 0) if kind is object else ("below", 0)
    # the sources of each row, its lift (coefficient S_k / S_|u|) and the rows of l ⧢ u (-c_o), in wave order;
    # a source's key is its row's place in the wave times size, to which the columns are added
    todo = todo[np.argsort(depth[todo], kind="stable")]
    owner, handle = np.concatenate((todo, owner)), np.concatenate((size + todo, other))
    coeff = np.concatenate((lift[todo], -count))
    order = np.lexsort((owner, depth[owner]))
    owner, handle, coeff = owner[order], handle[order], coeff[order]
    waves = np.arange(1, depth.max(initial=0) + 2)
    rows_at, sources_at = np.searchsorted(depth[todo], waves), np.searchsorted(depth[owner], waves)
    place = np.zeros(size, np.int64)
    place[todo] = np.arange(todo.size) - rows_at[depth[todo] - 1]
    key = place[owner] * size
    # top: the largest |value| in an int64 pool (None once the pool is object), most: the largest |coefficient|
    top = int(np.abs(vals).max(initial=0)) if vals.dtype == np.int64 else None
    most = int(np.abs(coeff).max(initial=0))
    for w in range(waves.size - 1):
        words, lo, hi = todo[rows_at[w] : rows_at[w + 1]], sources_at[w], sources_at[w + 1]
        lengths = length[handle[lo:hi]]
        spots = _segments(begin[handle[lo:hi]], lengths)
        # a partial sum adds at most spots.size terms, each at most top * most; past that, a finer bound: a source adds
        # at most one term to each column, so |coefficient| * max |source row| summed over a row's sources bounds its
        # partial sums (the float64 sum is raised by 2^-20 relative, more than its rounding error)
        if top is not None and int_kind(top * most * spots.size) is object:
            live, peak = lengths > 0, np.zeros(hi - lo)
            peak[live] = np.maximum.reduceat(np.abs(vals[spots]), (np.cumsum(lengths) - lengths)[live])
            bound = np.bincount(key[lo:hi] // size, weights=np.abs(coeff[lo:hi]) * peak).max()
            if int_kind(math.ceil(bound * (1 + 2**-20))) is object:
                vals, coeff, top, moved = vals.astype(object), coeff.astype(object), None, ("bound", w + 1)
        at = np.repeat(key[lo:hi], lengths) + cols[spots]
        order = np.argsort(at, kind="stable")
        at = at[order]
        runs = np.flatnonzero(np.concatenate(([True], at[1:] != at[:-1])))
        terms = vals[spots[order]]
        terms *= np.repeat(coeff[lo:hi], lengths)[order]
        sums = np.add.reduceat(terms, runs)
        live = sums != 0  # drop the monomials that cancel
        at, sums = at[runs][live], sums[live]
        rows = at // size
        leads = lead[words][rows]
        inexact = np.flatnonzero(sums % leads)
        if inexact.size:  # S_k grows past any bound
            vals, sums, top, moved = vals.astype(object), sums.astype(object), None, moved or ("division", w + 1)
            grow = 1
            for r in set(rows[inexact].tolist()):
                c = int(lead[words[r]])
                grow = math.lcm(grow, c // math.gcd(c, *sums[rows == r].tolist()))
            scale, sums = scale * grow, sums * grow
            vals[:filled] *= grow
        sums //= leads
        if top is not None:
            top = max(top, int(np.abs(sums).max(initial=0)))
        counts = np.bincount(rows, minlength=words.size)
        begin[words] = filled + np.cumsum(counts) - counts
        length[words] = counts
        del spots, order, terms, runs, live  # the wave's gathers go before the pool may grow
        cols, vals = _room(cols, filled, sums.size), _room(vals, filled, sums.size)
        cols[filled : filled + sums.size], vals[filled : filled + sums.size] = at - rows * size, sums
        filled += sums.size
    spots = _segments(begin[:size], length[:size])  # the rows in word order
    return _Level(d, k, np.append(0, np.cumsum(length[:size])), cols[spots], vals[spots], scale, first, moved)


def _room(pool: np.ndarray, filled: int, extra: int) -> np.ndarray:
    """The pool, or a copy of its first `filled` entries with room for at least `extra` more: the room
    doubles, so each entry is copied a bounded number of times."""
    if filled + extra <= pool.size:
        return pool
    out = np.empty(max(2 * pool.size, filled + extra), pool.dtype)
    out[:filled] = pool[:filled]
    return out


def _segments(begins: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Positions of the segments [begin, begin + length), one after the other."""
    ends = np.cumsum(lengths)
    return np.arange(ends[-1] if ends.size else 0) + np.repeat(begins - ends + lengths, lengths)


def _first_factor_lengths(d: int, k: int) -> np.ndarray:
    """Length of the first CFL factor of each word of length k, by index: its longest Lyndon prefix.

    A word is Lyndon when each proper suffix is lex-larger, that is when its first s letters are less
    than its last s letters for every 0 < s < k; a prefix's Lyndon test is read from the level below.
    """
    if d == 1:
        return np.ones(1, np.int64)  # 1^k, whose first factor is 1
    words = np.arange(d**k, dtype=np.int64)
    lyndon = np.ones(words.size, bool)
    for s in range(1, k):
        lyndon &= words // d ** (k - s) < words % d**s
    first = np.ones(words.size, np.int64)
    for a in range(2, k):
        first[_tables[d, a].first[words // d ** (k - a)] == a] = a
    first[lyndon] = k
    return first


def _expansions(d: int, k: int, words: np.ndarray, first: np.ndarray) -> tuple:
    """l ⧢ u of each non-Lyndon word w = l * u (l its first CFL factor), as (lead, owner, other, count):
    w with multiplicity lead[w], and each other word o (lex-smaller) with multiplicity count, owner w.

    The words of one first-factor length share their interleavings (`shuffle._shuffle`): the shuffled
    indices of a block of them are one product of their letters with the interleavings' place values, at
    most about _CHUNK indices held before they are counted, each as owner * d**k + shuffled.
    """
    size = d**k
    lead = np.zeros(size, np.int64)
    # a ⧢ a^(k-1) = k a^k, one term and no interleavings to enumerate; a^k has index (a - 1) * (1 + d + ... + d^(k-1))
    power = words % sum(d**j for j in range(k)) == 0
    lead[words[power]] = k
    words = words[~power]
    counted, held = [], []
    for a in np.flatnonzero(np.bincount(first[words])).tolist():
        group = words[first[words] == a]
        places = d ** (k - 1 - _shuffle(a, k - a).T)
        digits = group[:, None] // d ** np.arange(k - 1, -1, -1) % d
        step = max(1, _CHUNK // places.shape[1])
        for s in range(0, group.size, step):
            held.append((digits[s : s + step] @ places + group[s : s + step, None] * size).ravel())
            if sum(block.size for block in held) >= _CHUNK:
                counted.append(_counted(held))
                held = []
    counted.append(_counted(held))
    keys, counts = (np.concatenate(part) for part in zip(*counted))
    owner, other = keys // size, keys % size
    own = owner == other
    lead[owner[own]] = counts[own]
    return lead, owner[~own], other[~own], counts[~own]


def _counted(blocks: list) -> tuple:
    """The distinct keys of the blocks, ascending, and how often each occurs."""
    keys = np.sort(np.concatenate(blocks)) if blocks else np.zeros(0, np.int64)
    runs = np.flatnonzero(np.concatenate(([True], keys[1:] != keys[:-1])))[: keys.size]
    return keys[runs], np.diff(np.append(runs, keys.size))


def _waves(size: int, todo: np.ndarray, owner: np.ndarray, other: np.ndarray) -> np.ndarray:
    """Wave of each word: 0 for Lyndon words, else one more than the latest wave among the words it
    is eliminated against (owner[i] against other[i], each owner's edges together; all lex-smaller, so
    the relaxation ends)."""
    depth = np.zeros(size, np.int64)
    depth[todo] = 1
    if owner.size:
        heads = np.flatnonzero(np.concatenate(([True], owner[1:] != owner[:-1])))
        while True:
            deeper = np.maximum.reduceat(depth[other], heads) + 1
            grown = deeper > depth[owner[heads]]
            if not grown.any():
                break
            depth[owner[heads][grown]] = deeper[grown]
    return depth


class _LevelStore(dict):
    """(d, k) -> `_Level`, each level stored once complete; `cache_info`, `clear` as on an lru_cache."""

    hits = misses = 0

    def level(self, d: int, k: int) -> _Level:
        """The stored level k over d letters, built with the missing levels below on first request."""
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
    word = _checked_word(word, d)
    if len(word) > n:
        raise ValueError(f"word longer than truncation order {n}")
    return normal_form_table(d, n).phi(word)


def lyndon_coordinates(series: TensorSeries) -> dict:
    """Read off the coefficients indexed by Lyndon words."""
    basis = lyndon_words(series.d, series.n)
    return {w: series.coefficient(w) for w in basis.words}


def expand_from_lyndon(values: dict, d: int, n: int) -> TensorSeries:
    """Unique group-like series with the given Lyndon coordinates.

    The coordinates are read as one level, in the scalar mode where they
    meet (`tensor._common`): exact coordinates as integers a_w over one
    denominator D, float ones as float64 over D = 1; other coordinates
    raise a `TypeError`.  With known[w] = a_w * D^(|w|-1), a column's
    monomial value is the known value at its first factor times that of
    its tail one level down (one gather per level), and a row is one
    `reduceat` of the column values weighted by its coefficients.  Exact
    levels weight by the integers S_k * c, over S_k * D^k; float levels by
    the correctly rounded c / S_k (`tensor._quotients`), and carry the
    constant term 1.0.  A float entry at level k whose row has r terms
    takes K = k + r roundings (one quotient, at most k - 1 factor
    products, one weight product, r - 1 additions), so it lies within
    gamma_K = K u / (1 - K u), u = 2^-53, times the same expansion of the
    |c| and |coordinates|.
    """
    values = {tuple(w): v for w, v in values.items()}
    basis = lyndon_words(d, n)
    missing = [w for w in basis.words if w not in values]
    if missing:
        raise ValueError(f"missing Lyndon coordinates: {missing[:3]}...")
    kind, (coords,), (den,) = _common([LevelTensor(len(basis.words), 1, [values[w] for w in basis.words])])
    exact = kind is not float
    # words of every length <= n in one array: the word of index i of length k at spot start[k] + i
    start = np.cumsum([0] + [d**k for k in range(n + 1)])
    known = np.zeros(start[-1], dtype=coords.dtype)
    for w, a in zip(basis.words, coords.tolist()):
        known[start[len(w)] + word_index(w, d)] = a * den ** (len(w) - 1)
    product = np.empty(start[-1], dtype=coords.dtype)
    product[0] = 1
    levels = [LevelTensor(d, 0, [Fraction(1) if exact else 1.0])]
    for level in [_tables.level(d, k) for k in range(1, n + 1)]:
        k, a = level.k, level.first
        cut = d ** (k - a)
        col = np.arange(d**k)
        product[start[k] : start[k + 1]] = known[start[a] + col // cut] * product[start[k - a] + col % cut]
        terms = product[start[k] + level.cols]
        if exact:
            entries = np.add.reduceat(level.vals * terms, level.ptr[:-1])
            levels.append(LevelTensor._of(d, k, entries, level.scale * den**k, Fraction))
        else:  # 0.0 + turns a -0.0 sum into 0.0
            entries = 0.0 + np.add.reduceat(_quotients(level.vals, level.scale) * terms, level.ptr[:-1])
            levels.append(LevelTensor._of(d, k, entries))
    return TensorSeries(d, n, levels)
