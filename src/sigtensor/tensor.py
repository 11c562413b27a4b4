"""Truncated tensor algebra: dense level tensors and graded series.

A LevelTensor is a dense order-k tensor over {1..d}, a TensorSeries stacks
levels 0..n (level 0 is a single scalar) and carries the concatenation
product, exponential and logarithm, truncated at order n.  Values are
immutable after construction and safe to share across threads.

A level's scalar mode is decided once, by `scalars.scalar_mode`, when it is
built from entries, and every level computed from it carries that mode on.
Level arithmetic runs on flat ndarrays.  A float level is one float64
array.  An exact level (every entry an `int` or a `Fraction`) is an object
array of Python ints A over one positive int denominator D, reduced by one
gcd over the level, so products, sums and scalings never run a gcd per
entry.  Levels of any other scalar type use an object array of their
entries.  Where an exact level meets a float level or a float scalar, the
exact operand enters as its `to_float()`.  `LevelTensor.tensor_product`
(one `np.multiply.outer`) is the only level product; the series operations
are built on it.
"""

from __future__ import annotations

import contextlib
import itertools
import math
from fractions import Fraction
from typing import Sequence

import numpy as np

from .scalars import format_scalar, integer_multiple, parse_int, parse_scalar, scalar_mode, values_close
from .words import index_word, word_from_string, word_index, word_to_string

_EXACT_KINDS = (int, Fraction)
_ZERO = Fraction(0)
#: Integers below this size are exact in float64.
_EXACT_FLOAT_BOUND = 2**53


def _quotients(numerators: np.ndarray, denominator: int) -> np.ndarray:
    """numerators / denominator in float64, each quotient correctly rounded.

    Int true division rounds correctly, so A[i] / D == float(A[i] / D as a
    Fraction).  When D and every |A[i]| are below 2^53 both operands are
    exact in float64, and numpy's division gives the same quotients.
    """
    if denominator < _EXACT_FLOAT_BOUND:
        with contextlib.suppress(OverflowError):  # a numerator past the float range
            floats = numerators.astype(np.float64)
            if np.abs(floats).max() < _EXACT_FLOAT_BOUND:
                return floats / denominator
    return np.array([v / denominator for v in numerators.tolist()], dtype=np.float64)


def _frozen(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


def _check_shape(d: int, k: int) -> None:
    if d < 1 or k < 0:
        raise ValueError("need d >= 1 and k >= 0")


def _arrays(*levels: "LevelTensor") -> list:
    """The levels' arrays, an exact level's as its to_float() when some level holds floats."""
    floats = any(t._kind is float for t in levels)
    return [t.to_float().array if floats and t._numerators is not None else t.array for t in levels]


class LevelTensor:
    """Dense order-k tensor with d^k entries indexed by words.

    `entries` is a flat tuple of plain scalars in base-d word order; `array`
    is the same data as a read-only flat ndarray.  The constructor reads the
    scalar mode of its entries with `scalar_mode` (numpy integer and floating
    scalars become `int` and `float`).  A level holding floats is a float
    level: its float64 array is built at once and its entries are read back
    from it, so they are all Python floats (exact zeros included).

    An exact level is held as `as_integers()`, a pair (A, D) of an object
    array of Python ints and one positive int D with entries == A / D and
    gcd(A, D) == 1, built when the level is.  Its entries are `Fraction`s
    A[i] / D, or plain `int`s when every entry it was built from is an int
    (a level mixing the two gives `Fraction`s).  A level built from given
    entries keeps them as given; a level computed by arithmetic builds its
    entries (and the object array of a `Fraction` level) on first read.
    `to_float()` is built once per level.
    """

    __slots__ = ("d", "k", "_entries", "_array", "_numerators", "_denominator", "_kind", "_float")

    def __init__(self, d: int, k: int, entries: Sequence):
        _check_shape(d, k)
        self._kind, entries = scalar_mode(entries)
        if len(entries) != d**k:
            raise ValueError(f"expected {d ** k} entries, got {len(entries)}")
        self.d = d
        self.k = k
        self._array = self._numerators = self._denominator = self._float = None
        if self._kind is float:
            self._array = _frozen(np.array(entries, dtype=np.float64))
            entries = None
        elif self._kind in _EXACT_KINDS:
            numerators, self._denominator = integer_multiple(entries)
            self._numerators = _frozen(numerators)
        self._entries = entries

    @classmethod
    def _from_array(cls, d: int, k: int, array: np.ndarray) -> "LevelTensor":
        """Float level owning a fresh flat float64 array, else object level (not copied)."""
        level = cls.__new__(cls)
        level.d, level.k = d, k
        level._numerators = level._denominator = level._entries = level._float = None
        level._kind = float if array.dtype == np.float64 else object
        level._array = _frozen(array)
        return level

    @classmethod
    def _from_integers(cls, d: int, k: int, numerators: np.ndarray, denominator: int, kind) -> "LevelTensor":
        """Exact level numerators / denominator from a flat object array of
        Python ints (not copied), reduced by one gcd over the level."""
        if denominator != 1:
            g = math.gcd(denominator, *numerators)
            if g != 1:
                numerators, denominator = numerators // g, denominator // g
        level = cls.__new__(cls)
        level.d, level.k = d, k
        level._entries = level._array = level._float = None
        level._numerators, level._denominator, level._kind = _frozen(numerators), denominator, kind
        return level

    def _linear_map(self, k: int, f) -> "LevelTensor":
        """The order-k level f(cube) for an f that only permutes and adds
        entries; an exact level applies f to its numerators and keeps D."""
        source = self.array if self._numerators is None else self._numerators
        out = np.asarray(f(source.reshape((self.d,) * self.k)), dtype=source.dtype).reshape(-1)
        if self._numerators is None:
            return LevelTensor._from_array(self.d, k, out)
        return LevelTensor._from_integers(self.d, k, out, self._denominator, self._kind)

    def as_integers(self) -> tuple:
        """(A, D): read-only flat object array of Python ints and an int D > 0
        with entries == A / D and gcd(A, D) == 1.  Only for exact levels."""
        if self._numerators is None:
            raise ValueError("integer form of a level that is not exact")
        return self._numerators, self._denominator

    @property
    def entries(self) -> tuple:
        if self._entries is None:
            if self._kind is Fraction:
                den = self._denominator
                self._entries = tuple(Fraction(v, den) if v else _ZERO for v in self._numerators.tolist())
            else:
                self._entries = tuple(self.array.tolist())
        return self._entries

    @property
    def array(self) -> np.ndarray:
        """The entries as a read-only flat ndarray (float64 or object)."""
        if self._array is None:
            if self._kind is int:
                self._array = self._numerators
            else:
                self._array = _frozen(np.array(self.entries, dtype=object))
        return self._array

    @property
    def cube(self) -> np.ndarray:
        """The entries as a read-only (d,)*k ndarray: cube[i1-1, ..., ik-1] is word i1..ik."""
        return self.array.reshape((self.d,) * self.k)

    @property
    def holds_floats(self) -> bool:
        return self._kind is float

    @classmethod
    def zeros(cls, d: int, k: int, zero=Fraction(0)) -> "LevelTensor":
        if type(zero) in _EXACT_KINDS and not zero:
            _check_shape(d, k)
            return cls._from_integers(d, k, np.zeros(d**k, dtype=object), 1, type(zero))
        return cls(d, k, [zero] * d**k)

    @classmethod
    def from_map(cls, d: int, k: int, mapping, zero=Fraction(0)) -> "LevelTensor":
        entries = [zero] * d**k
        for word, value in mapping.items():
            entries[word_index(word, d)] = value
        return cls(d, k, entries)

    def __getitem__(self, word) -> object:
        if isinstance(word, int):
            return self.entries[word]
        return self.entries[word_index(word, self.d)]

    def __repr__(self):
        return f"LevelTensor(d={self.d}, k={self.k})"

    def is_exact(self) -> bool:
        return self._numerators is not None

    def equals(self, other: "LevelTensor", tol: float | None = None) -> bool:
        if self.d != other.d or self.k != other.k:
            return False
        return all(values_close(a, b, tol) for a, b in zip(self.entries, other.entries))

    def __eq__(self, other):
        return isinstance(other, LevelTensor) and self.equals(other)

    def __hash__(self):
        return hash((self.d, self.k, self.entries))

    def add(self, other: "LevelTensor") -> "LevelTensor":
        if (self.d, self.k) != (other.d, other.k):
            raise ValueError("shape mismatch")
        return _level_sum(self.d, self.k, [self, other])

    def scale(self, c) -> "LevelTensor":
        if isinstance(c, np.generic):
            c = scalar_mode((c,))[1][0]
        if isinstance(c, _EXACT_KINDS) and self._numerators is not None:
            kind = int if self._kind is int and isinstance(c, int) else Fraction
            numerators = self._numerators if c.numerator == 1 else self._numerators * c.numerator
            return LevelTensor._from_integers(self.d, self.k, numerators, self._denominator * c.denominator, kind)
        floats = self._kind is float or self._numerators is not None and isinstance(c, float)
        if floats and isinstance(c, (int, float, Fraction)):
            return LevelTensor._from_array(self.d, self.k, float(c) * self.to_float().array)
        return LevelTensor._from_array(self.d, self.k, c * self.array)

    def negate(self) -> "LevelTensor":
        if self._numerators is not None:
            return LevelTensor._from_integers(self.d, self.k, -self._numerators, self._denominator, self._kind)
        return LevelTensor._from_array(self.d, self.k, -self.array)

    def _live(self) -> bool:
        """True when some entry is nonzero, read from the arrays where there are some."""
        if self._numerators is not None:
            return np.count_nonzero(self._numerators) > 0
        if self._kind is float:
            return np.count_nonzero(self._array) > 0
        return any(self.entries)

    def is_zero(self, tol: float | None = None) -> bool:
        return all(values_close(v, 0 * v, tol) for v in self.entries)

    def tensor_product(self, other: "LevelTensor") -> "LevelTensor":
        """Concatenation (outer) product of two levels."""
        if self.d != other.d:
            raise ValueError("dimension mismatch")
        k = self.k + other.k
        if self._numerators is not None and other._numerators is not None:
            out = np.multiply.outer(self._numerators, other._numerators).reshape(-1)
            kind = self._kind if self._kind is other._kind else Fraction
            return LevelTensor._from_integers(self.d, k, out, self._denominator * other._denominator, kind)
        a, b = (self.array, other.array) if self._kind is other._kind else _arrays(self, other)
        return LevelTensor._from_array(self.d, k, np.multiply.outer(a, b).reshape(-1))

    def symmetrize(self) -> "LevelTensor":
        """Sum of entries over all k! position permutations of each word.

        With this convention the entry at a word (i1..ik) evaluates the
        iterated shuffle form of the single letters i1, ..., ik, so on a
        group-like level it equals the product of the level-1 coordinates.
        """
        # axes perm^-1 put entries[w o perm] at w: each word's terms add
        # in the order itertools.permutations(w) lists them
        axes = [np.argsort(perm) for perm in itertools.permutations(range(self.k))]
        return self._linear_map(self.k, lambda cube: sum(np.transpose(cube, a) for a in axes))

    def to_float(self) -> "LevelTensor":
        """The level in floats, built once (a float level is its own)."""
        if self._kind is float:
            return self
        if self._float is None:
            if self._numerators is not None:
                floats = _quotients(self._numerators, self._denominator)
            else:
                floats = np.array([float(v) for v in self.entries], dtype=np.float64)
            self._float = LevelTensor._from_array(self.d, self.k, floats)
        return self._float

    def to_json(self) -> dict:
        exact = self.is_exact()
        entries = {}
        for i, v in enumerate(self.entries):
            if v == 0:
                continue
            entries[word_to_string(index_word(i, self.d, self.k), self.d)] = format_scalar(v)
        return {
            "dim": self.d,
            "order": self.k,
            "scalar": "rational" if exact else "float",
            "entries": entries,
        }

    @classmethod
    def from_json(cls, data: dict) -> "LevelTensor":
        d, k = parse_int(data["dim"], "dim"), parse_int(data["order"], "order")
        _check_shape(d, k)
        exact = data.get("scalar", "rational") == "rational"
        zero = Fraction(0) if exact else 0.0
        entries = [zero] * d**k
        raw_entries = data.get("entries", {})
        if not isinstance(raw_entries, dict):
            raise ValueError("'entries' must be a JSON object mapping words to scalars")
        for key, raw in raw_entries.items():
            word = word_from_string(key, d)
            if len(word) != k:
                raise ValueError(f"word {key!r} has wrong length for order {k}")
            entries[word_index(word, d)] = parse_scalar(raw, exact)
        return cls(d, k, entries)


class TensorSeries:
    """Graded stack of levels 0..n of the truncated tensor algebra."""

    __slots__ = ("d", "n", "levels")

    def __init__(self, d: int, n: int, levels: Sequence[LevelTensor]):
        levels = tuple(levels)
        if len(levels) != n + 1:
            raise ValueError(f"expected {n + 1} levels, got {len(levels)}")
        for k, lvl in enumerate(levels):
            if lvl.d != d or lvl.k != k:
                raise ValueError(f"level {k} has shape (d={lvl.d}, k={lvl.k})")
        self.d = d
        self.n = n
        self.levels = levels

    def __repr__(self):
        return f"TensorSeries(d={self.d}, n={self.n})"

    @property
    def constant_term(self):
        return self.levels[0].entries[0]

    def coefficient(self, word) -> object:
        """Coefficient of the given word (any length <= n)."""
        word = tuple(word)
        return self.levels[len(word)][word]

    def is_exact(self) -> bool:
        return all(lvl.is_exact() for lvl in self.levels)

    def equals(self, other: "TensorSeries", tol: float | None = None) -> bool:
        if self.d != other.d or self.n != other.n:
            return False
        return all(a.equals(b, tol) for a, b in zip(self.levels, other.levels))

    def __eq__(self, other):
        return isinstance(other, TensorSeries) and self.equals(other)

    def __hash__(self):
        return hash((self.d, self.n, self.levels))

    def add(self, other: "TensorSeries") -> "TensorSeries":
        if (self.d, self.n) != (other.d, other.n):
            raise ValueError("shape mismatch")
        return TensorSeries(self.d, self.n, [a.add(b) for a, b in zip(self.levels, other.levels)])

    def scale(self, c) -> "TensorSeries":
        return TensorSeries(self.d, self.n, [lvl.scale(c) for lvl in self.levels])

    def negate(self) -> "TensorSeries":
        return TensorSeries(self.d, self.n, [lvl.negate() for lvl in self.levels])

    def eta_scale(self, eta) -> "TensorSeries":
        """Scale level k by eta**k (the grading action of a scalar eta)."""
        return TensorSeries(self.d, self.n, [lvl.scale(eta**k) for k, lvl in enumerate(self.levels)])

    def truncate(self, n: int) -> "TensorSeries":
        """Copy truncated (or zero-extended, in the series' scalar mode) to order n."""
        if n <= self.n:
            return TensorSeries(self.d, n, self.levels[: n + 1])
        zero = _scalar_zero(self)
        extra = [LevelTensor.zeros(self.d, k, zero) for k in range(self.n + 1, n + 1)]
        return TensorSeries(self.d, n, list(self.levels) + extra)

    def to_float(self) -> "TensorSeries":
        return TensorSeries(self.d, self.n, [lvl.to_float() for lvl in self.levels])

    def to_json(self) -> dict:
        levels = [format_scalar(self.constant_term)]
        levels += [lvl.to_json() for lvl in self.levels[1:]]
        return {"dim": self.d, "trunc": self.n, "levels": levels}

    @classmethod
    def from_json(cls, data: dict) -> "TensorSeries":
        d, n = parse_int(data["dim"], "dim"), parse_int(data["trunc"], "trunc")
        raw_levels = data["levels"]
        if not isinstance(raw_levels, list):
            raise ValueError("'levels' must be a JSON list: the constant term, then one tensor per order")
        if len(raw_levels) != n + 1:
            raise ValueError("level count does not match trunc")
        tensors = [lvl if isinstance(lvl, dict) else None for lvl in raw_levels]
        exact = all(t is None or t.get("scalar", "rational") == "rational" for t in tensors)
        levels = [LevelTensor(d, 0, [parse_scalar(raw_levels[0], exact)])]
        for k in range(1, n + 1):
            raw = raw_levels[k]
            if not isinstance(raw, dict):
                raise ValueError(f"level {k} must be a tensor JSON object")
            shape = (parse_int(raw["dim"], "dim"), parse_int(raw["order"], "order"))
            if shape != (d, k):
                raise ValueError(f"level {k} has dim {shape[0]} and order {shape[1]}, expected dim {d} and order {k}")
            levels.append(LevelTensor.from_json(raw))
        return cls(d, n, levels)


def _scalar_zero(*series: TensorSeries):
    """0.0 when any level of the series holds floats, else Fraction(0)."""
    return 0.0 if any(lvl.holds_floats for s in series for lvl in s.levels) else Fraction(0)


def _graded(d: int, n: int, constant, zero) -> TensorSeries:
    """Series with the given constant term and all-`zero` levels 1..n."""
    levels = [LevelTensor(d, 0, [constant])]
    levels += [LevelTensor.zeros(d, k, zero) for k in range(1, n + 1)]
    return TensorSeries(d, n, levels)


def zero_series(d: int, n: int) -> TensorSeries:
    return _graded(d, n, Fraction(0), Fraction(0))


def unit_series(d: int, n: int) -> TensorSeries:
    return _graded(d, n, Fraction(1), Fraction(0))


def basis_series(d: int, n: int, letter: int) -> TensorSeries:
    """The generator e_letter as a series."""
    if not 1 <= letter <= d:
        raise ValueError(f"letter {letter} outside alphabet 1..{d}")
    vec = [Fraction(0)] * d
    vec[letter - 1] = Fraction(1)
    return from_vector(vec, n)


def from_vector(vector: Sequence, n: int) -> TensorSeries:
    """Series whose only nonzero level is level 1."""
    d = len(vector)
    levels = [LevelTensor.zeros(d, 0), LevelTensor(d, 1, list(vector))]
    levels += [LevelTensor.zeros(d, k) for k in range(2, n + 1)]
    return TensorSeries(d, n, levels)


def series_from_level(level: LevelTensor, n: int | None = None) -> TensorSeries:
    """Series with a single nonzero homogeneous component."""
    if n is None:
        n = level.k
    levels = [LevelTensor.zeros(level.d, k) for k in range(n + 1)]
    levels[level.k] = level
    return TensorSeries(level.d, n, levels)


def _level_sum(d: int, k: int, terms: Sequence[LevelTensor]) -> LevelTensor:
    """Sum of same-shape levels, added in order; exact terms add over the lcm of
    their denominators, and terms before the first inexact one add exactly."""
    kinds = {t._kind for t in terms}
    if kinds.isdisjoint((float, object)):
        den = math.lcm(*(t._denominator for t in terms))
        total = None
        for t in terms:
            part = t._numerators if t._denominator == den else t._numerators * (den // t._denominator)
            total = part if total is None else total + part
        kind = int if kinds == {int} else Fraction
        return LevelTensor._from_integers(d, k, total, den, kind)
    if len(kinds) > 1:
        head = next(i for i, t in enumerate(terms) if t._numerators is None)
        if head > 1:
            terms = [_level_sum(d, k, terms[:head]), *terms[head:]]
    arrays = _arrays(*terms) if len(kinds) > 1 else [t.array for t in terms]
    total = arrays[0]
    for array in arrays[1:]:
        total = total + array
    return LevelTensor._from_array(d, k, total)


def concat_product(a: TensorSeries, b: TensorSeries) -> TensorSeries:
    """Concatenation product in the truncated tensor algebra.

    Pairs of levels where either side is all zero are skipped; a result
    level with no remaining pair is zero in the scalar mode of the inputs.
    """
    if a.d != b.d or a.n != b.n:
        raise ValueError("series must share dimension and truncation order")
    live_a = [lvl._live() for lvl in a.levels]
    live_b = [lvl._live() for lvl in b.levels]
    levels = []
    for k in range(a.n + 1):
        terms = [
            a.levels[p].tensor_product(b.levels[k - p]) for p in range(k + 1) if live_a[p] and live_b[k - p]
        ]
        if terms:
            levels.append(_level_sum(a.d, k, terms))
        else:
            levels.append(LevelTensor.zeros(a.d, k, _scalar_zero(a, b)))
    return TensorSeries(a.d, a.n, levels)


def commutator(a: TensorSeries, b: TensorSeries) -> TensorSeries:
    return concat_product(a, b).add(concat_product(b, a).negate())


def exp_series(p: TensorSeries) -> TensorSeries:
    """exp(p) = sum p^r / r!, which terminates at r = n for constant term 0."""
    if p.constant_term != 0:
        raise ValueError("exponential requires constant term 0")
    zero = _scalar_zero(p)
    result = term = _graded(p.d, p.n, zero + 1, zero)
    for r in range(1, p.n + 1):
        term = concat_product(term, p).scale(Fraction(1, r))
        result = result.add(term)
    return result


def log_series(q: TensorSeries) -> TensorSeries:
    """log(q) = sum (-1)^(r-1)/r (q-1)^r, defined for constant term 1."""
    if q.constant_term != 1:
        raise ValueError("logarithm requires constant term 1")
    zero = _scalar_zero(q)
    power = _graded(q.d, q.n, zero + 1, zero)
    p = q.add(power.negate())
    result = _graded(q.d, q.n, zero, zero)
    for r in range(1, q.n + 1):
        power = concat_product(power, p)
        result = result.add(power.scale(Fraction((-1) ** (r - 1), r)))
    return result


def project_level(series: TensorSeries, k: int) -> LevelTensor:
    """The order-k homogeneous component (levels are immutable, so it is shared)."""
    if not 0 <= k <= series.n:
        raise ValueError(f"level {k} outside 0..{series.n}")
    return series.levels[k]
