"""Truncated tensor algebra: dense level tensors and graded series.

A LevelTensor is a dense order-k tensor over {1..d}, a TensorSeries stacks
levels 0..n (level 0 is a single scalar) and carries the concatenation
product, exponential and logarithm, truncated at order n.  Values are
immutable after construction and safe to share across threads.

Arithmetic on levels runs on a flat ndarray built once per level from its
entries: float64 when the level holds floats, object (Python `Fraction` or
`int`) when every entry is exact, and object for any other scalar type.
`LevelTensor.tensor_product` (one `np.multiply.outer`) is the only level
product; the series operations are built on it.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from typing import Sequence

import numpy as np

from .scalars import format_scalar, is_exact, parse_scalar, values_close
from .words import index_word, word_from_string, word_index, word_to_string


def _holds_floats(entries) -> bool:
    """True when the entries are floats, possibly mixed with exact scalars."""
    kinds = set(map(type, entries))
    return any(issubclass(t, float) for t in kinds) and all(
        issubclass(t, (float, int, Fraction)) and t is not bool for t in kinds
    )


def _integer_multiple(array: np.ndarray) -> tuple:
    """(A, L): the exact array times the lcm L of its denominators, as Python ints."""
    scale = math.lcm(*(v.denominator for v in array.flat))
    ints = [v.numerator * (scale // v.denominator) for v in array.flat]
    return np.array(ints, dtype=object).reshape(array.shape), scale


def _frozen(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


class LevelTensor:
    """Dense order-k tensor with d^k entries indexed by words.

    `entries` is a flat tuple of plain scalars in base-d word order; `array`
    is the same data as a read-only flat ndarray.  A level holding floats is
    a float level: its array is built at once and its entries are read back
    from it, so they are all Python floats (exact zeros included).  Other
    levels build their object array on first use.
    """

    __slots__ = ("d", "k", "entries", "_array")

    def __init__(self, d: int, k: int, entries: Sequence):
        if d < 1 or k < 0:
            raise ValueError("need d >= 1 and k >= 0")
        entries = tuple(entries)
        if len(entries) != d**k:
            raise ValueError(f"expected {d ** k} entries, got {len(entries)}")
        self.d = d
        self.k = k
        self._array = None
        if _holds_floats(entries):
            self._array = _frozen(np.array(entries, dtype=np.float64))
            entries = tuple(self._array.tolist())
        self.entries = entries

    @classmethod
    def _from_array(cls, d: int, k: int, array: np.ndarray) -> "LevelTensor":
        """Level owning a fresh flat result array (not copied)."""
        entries = array.tolist()
        if array.dtype == object and _holds_floats(entries):
            array = array.astype(np.float64)
            entries = array.tolist()
        level = cls.__new__(cls)
        level.d, level.k, level.entries = d, k, tuple(entries)
        level._array = _frozen(array)
        return level

    @property
    def array(self) -> np.ndarray:
        """The entries as a read-only flat ndarray (float64 or object)."""
        if self._array is None:
            self._array = _frozen(np.array(self.entries, dtype=object))
        return self._array

    @property
    def cube(self) -> np.ndarray:
        """The entries as a read-only (d,)*k ndarray: cube[i1-1, ..., ik-1] is word i1..ik."""
        return self.array.reshape((self.d,) * self.k)

    @property
    def holds_floats(self) -> bool:
        return self.array.dtype == np.float64

    @classmethod
    def zeros(cls, d: int, k: int, zero=Fraction(0)) -> "LevelTensor":
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
        return all(is_exact(v) for v in self.entries)

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
        return LevelTensor._from_array(self.d, self.k, self.array + other.array)

    def scale(self, c) -> "LevelTensor":
        if self.holds_floats and isinstance(c, (int, float, Fraction)):
            c = float(c)
        return LevelTensor._from_array(self.d, self.k, c * self.array)

    def negate(self) -> "LevelTensor":
        return LevelTensor._from_array(self.d, self.k, -self.array)

    def norm_max(self) -> float:
        return max((abs(v) for v in self.entries), default=0)

    def is_zero(self, tol: float | None = None) -> bool:
        return all(values_close(v, 0 * v, tol) for v in self.entries)

    def tensor_product(self, other: "LevelTensor") -> "LevelTensor":
        """Concatenation (outer) product of two levels."""
        if self.d != other.d:
            raise ValueError("dimension mismatch")
        out = np.multiply.outer(self.array, other.array).reshape(-1)
        return LevelTensor._from_array(self.d, self.k + other.k, out)

    def symmetrize(self) -> "LevelTensor":
        """Sum of entries over all k! position permutations of each word.

        With this convention the entry at a word (i1..ik) evaluates the
        iterated shuffle form of the single letters i1, ..., ik, so on a
        group-like level it equals the product of the level-1 coordinates.
        """
        total = 0
        for perm in itertools.permutations(range(self.k)):
            # axes perm^-1 put entries[w o perm] at w: each word's terms add
            # in the order itertools.permutations(w) lists them
            total = total + np.transpose(self.cube, np.argsort(perm))
        return LevelTensor._from_array(self.d, self.k, np.reshape(total, -1))

    def to_float(self) -> "LevelTensor":
        return LevelTensor(self.d, self.k, [float(v) for v in self.entries])

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
        d, k = int(data["dim"]), int(data["order"])
        exact = data.get("scalar", "rational") == "rational"
        zero = Fraction(0) if exact else 0.0
        entries = [zero] * d**k
        for key, raw in data.get("entries", {}).items():
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
        d, n = int(data["dim"]), int(data["trunc"])
        raw_levels = data["levels"]
        if len(raw_levels) != n + 1:
            raise ValueError("level count does not match trunc")
        tensors = [lvl if isinstance(lvl, dict) else None for lvl in raw_levels]
        exact = all(t is None or t.get("scalar", "rational") == "rational" for t in tensors)
        levels = [LevelTensor(d, 0, [parse_scalar(raw_levels[0], exact)])]
        for k in range(1, n + 1):
            levels.append(LevelTensor.from_json(raw_levels[k]))
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


def concat_product(a: TensorSeries, b: TensorSeries) -> TensorSeries:
    """Concatenation product in the truncated tensor algebra.

    Pairs of levels where either side is all zero are skipped; a result
    level with no remaining pair is zero in the scalar mode of the inputs.
    """
    if a.d != b.d or a.n != b.n:
        raise ValueError("series must share dimension and truncation order")
    live_a = [any(lvl.entries) for lvl in a.levels]
    live_b = [any(lvl.entries) for lvl in b.levels]
    levels = []
    for k in range(a.n + 1):
        acc = None
        for p in range(k + 1):
            if live_a[p] and live_b[k - p]:
                term = a.levels[p].tensor_product(b.levels[k - p]).array
                acc = term if acc is None else acc + term
        if acc is None:
            levels.append(LevelTensor.zeros(a.d, k, _scalar_zero(a, b)))
        else:
            levels.append(LevelTensor._from_array(a.d, k, acc))
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
    """Copy of the order-k homogeneous component."""
    if not 0 <= k <= series.n:
        raise ValueError(f"level {k} outside 0..{series.n}")
    src = series.levels[k]
    return LevelTensor(src.d, src.k, src.entries)
