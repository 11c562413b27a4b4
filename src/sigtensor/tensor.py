"""Truncated tensor algebra: dense level tensors and graded series.

A LevelTensor is a dense order-k tensor over {1..d}, a TensorSeries stacks
levels 0..n (level 0 is a single scalar) and carries the concatenation
product, exponential and logarithm, truncated at order n.  Values are
immutable after construction and safe to share across threads.

A level's scalar mode is decided once, by `scalars.scalar_mode`, when it is
built from entries, and every level computed from it carries that mode on.
Every level is one read-only flat ndarray of values over one positive int
denominator D: Python ints A over D, reduced by one gcd over the level, for
an exact level (every entry an `int` or a `Fraction`); float64 values over 1
for a float level; other scalars are only held, never computed with
(`_computable`).  So each level operation is written once: products multiply
values and denominators, sums bring their terms to the lcm of the
denominators, and none runs a gcd per entry.  Operands meet in one mode
(`_common`): where some level holds floats, an exact level enters as its
`to_float()`, and a series product reads every level of both factors so.
`_graded_product` is the level loop of every series product: level m sums
x_j (x) y_(m-j) over ascending j, and a factor 1 costs no outer product.
`concat_product` runs it once; `exp_series` and `log_series` are one Horner
kernel (`_horner`) that runs it n times, p (c_1 + p (c_2 + ... + p c_n)):
level k takes k products, not k(k+1)/2.
"""

from __future__ import annotations

import contextlib
import itertools
import math
from fractions import Fraction
from typing import Sequence

import numpy as np

from .scalars import format_ratio, format_scalar, integer_multiple, parse_int, parse_scalar, scalar_mode, values_close
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


def _reduced(values: np.ndarray, denominator: int) -> tuple:
    """(values, denominator) of the same quotients, reduced by one gcd over all of them."""
    g = math.gcd(denominator, *values) if denominator != 1 else 1
    return (values // g, denominator // g) if g != 1 else (values, denominator)


def _frozen(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


def _check_shape(d: int, k: int) -> None:
    if d < 1 or k < 0:
        raise ValueError("need d >= 1 and k >= 0")


def _computable(*kinds) -> None:
    """TypeError for the kind `object`: a level of other scalars (`Dual`s, bools) only holds its entries."""
    if object in kinds:
        raise TypeError("scalars of kind object (not int, Fraction or float) are only held, never computed with")


def _common(levels) -> tuple:
    """(kind, arrays, denominators): the levels' values in the scalar mode where they
    meet, `int` only when all are.  Exact levels keep their integers and denominators;
    otherwise the kind is `float` and each array is its level's `to_float()` over 1.
    A level of kind `object` raises (`_computable`)."""
    kinds = {t._kind for t in levels}
    if kinds.issubset(_EXACT_KINDS):
        return (int if kinds == {int} else Fraction), [t._values for t in levels], [t._denominator for t in levels]
    _computable(*kinds)
    return float, [t.to_float()._values for t in levels], [1] * len(levels)


class LevelTensor:
    """Dense order-k tensor with d^k entries indexed by words.

    `entries` is a flat tuple of plain scalars in base-d word order; `array`
    is the same data as a read-only flat ndarray.  The constructor reads the
    scalar mode of its entries with `scalar_mode` (numpy integer and floating
    scalars become `int` and `float`).

    Every level holds its values as one read-only flat ndarray over one
    positive int denominator D.  An exact level holds Python ints A with
    entries == A / D and gcd(A, D) == 1 (`as_integers()`); its entries are
    `Fraction`s A[i] / D, or plain `int`s when every entry it was built from
    is an int.  A computed level is `int` only when every level it was
    computed from is: one `Fraction` level in the factors of a series
    product, the constant term's included, makes all its levels `Fraction`.
    A float level holds float64 values over 1, and its entries are read back from them,
    so they are all Python floats (exact zeros included).  A level of other scalars
    (`Dual`s, bools) only holds an object array of them over 1 (`_computable`).  A
    level built from given entries keeps them as given; a computed level builds its
    entries on first read, and `to_float()` once.  The `array` of a `Fraction` level is
    built on each read: hot code reads `as_integers()` or `to_float()`.
    """

    __slots__ = ("d", "k", "_values", "_denominator", "_kind", "_entries", "_float")

    def __init__(self, d: int, k: int, entries: Sequence):
        _check_shape(d, k)
        kind, entries = scalar_mode(entries)
        if len(entries) != d**k:
            raise ValueError(f"expected {d ** k} entries, got {len(entries)}")
        if kind in _EXACT_KINDS:
            values, denominator = integer_multiple(entries)  # gcd(A, lcm of denominators) == 1
        else:
            values, denominator = np.array(entries, dtype=np.float64 if kind is float else object), 1
        self.d, self.k, self._kind = d, k, kind
        self._values, self._denominator = _frozen(values), denominator
        self._entries = None if kind is float else entries
        self._float = None

    @classmethod
    def _of(cls, d: int, k: int, values: np.ndarray, denominator: int = 1, kind=None) -> "LevelTensor":
        """The level values / denominator from a flat ndarray (not copied).

        Exact levels (kind `int` or `Fraction`) pass Python ints over an int
        denominator, reduced here by one gcd over the level; float levels (kind
        `float` or None) pass float64 values over 1.
        """
        if denominator != 1:
            values, denominator = _reduced(values, denominator)
        level = cls.__new__(cls)
        level.d, level.k = d, k
        level._kind = kind or float
        level._values, level._denominator = _frozen(values), denominator
        level._entries = level._float = None
        return level

    def _linear_map(self, k: int, f) -> "LevelTensor":
        """The order-k level f(cube) over the same denominator, for an f that
        only permutes and adds entries."""
        _computable(self._kind)
        values = self._values
        out = np.asarray(f(values.reshape((self.d,) * self.k)), dtype=values.dtype).reshape(-1)
        return LevelTensor._of(self.d, k, out, self._denominator, self._kind)

    def as_integers(self) -> tuple:
        """(A, D): read-only flat object array of Python ints and an int D > 0
        with entries == A / D and gcd(A, D) == 1.  Only for exact levels."""
        if not self.is_exact():
            raise ValueError("integer form of a level that is not exact")
        return self._values, self._denominator

    @property
    def entries(self) -> tuple:
        if self._entries is None:
            if self._kind is Fraction:
                den = self._denominator
                self._entries = tuple(Fraction(v, den) if v else _ZERO for v in self._values.tolist())
            else:
                self._entries = tuple(self._values.tolist())
        return self._entries

    @property
    def array(self) -> np.ndarray:
        """The entries as a read-only flat ndarray (float64 or object), built on each read of a `Fraction` level."""
        if self._kind is not Fraction:
            return self._values
        return _frozen(np.array(self.entries, dtype=object))

    @property
    def cube(self) -> np.ndarray:
        """The entries as a read-only (d,)*k ndarray: cube[i1-1, ..., ik-1] is word i1..ik."""
        return self.array.reshape((self.d,) * self.k)

    @property
    def holds_floats(self) -> bool:
        return self._kind is float

    @classmethod
    def zeros(cls, d: int, k: int, zero=Fraction(0)) -> "LevelTensor":
        """The level with every entry `zero`, in the scalar mode of `zero`."""
        _check_shape(d, k)
        kind, (zero,) = scalar_mode((zero,))
        numerator, denominator = (zero.numerator, zero.denominator) if kind is Fraction else (zero, 1)
        values = np.empty(d**k, dtype=np.float64 if kind is float else object)
        values.fill(numerator)
        return cls._of(d, k, values, denominator, kind)

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
        return self._kind in _EXACT_KINDS

    def equals(self, other: "LevelTensor", tol: float | None = None) -> bool:
        if self.d != other.d or self.k != other.k:
            return False
        return all(values_close(a, b, tol) for a, b in zip(self.entries, other.entries))

    def __eq__(self, other):
        return isinstance(other, LevelTensor) and self.equals(other)

    def __hash__(self):
        """The shape's: `==` is tolerant on floats (`values_close`), so equal levels may differ in their entries."""
        return hash((self.d, self.k))

    def add(self, other: "LevelTensor") -> "LevelTensor":
        if (self.d, self.k) != (other.d, other.k):
            raise ValueError("shape mismatch")
        kind, arrays, dens = _common((self, other))
        den = math.lcm(*dens)
        x, y = (v if q == den else v * (den // q) for v, q in zip(arrays, dens))
        return LevelTensor._of(self.d, self.k, x + y, den, kind)

    def scale(self, c) -> "LevelTensor":
        mode = type(c)
        if mode not in (int, Fraction, float):  # numpy scalars, bools and others
            mode, (c,) = scalar_mode((c,))
        _computable(self._kind, mode)
        if self._kind in _EXACT_KINDS and mode is not float:
            kind = int if self._kind is mode is int else Fraction
            values = self._values if c.numerator == 1 else self._values * c.numerator
            return LevelTensor._of(self.d, self.k, values, self._denominator * c.denominator, kind)
        return LevelTensor._of(self.d, self.k, float(c) * self.to_float()._values)

    def negate(self) -> "LevelTensor":
        _computable(self._kind)
        return LevelTensor._of(self.d, self.k, -self._values, self._denominator, self._kind)

    def is_zero(self, tol: float | None = None) -> bool:
        return all(values_close(v, 0 * v, tol) for v in self.entries)

    def tensor_product(self, other: "LevelTensor") -> "LevelTensor":
        """Concatenation (outer) product of two levels."""
        if self.d != other.d:
            raise ValueError("dimension mismatch")
        if self._kind is other._kind is not object:
            kind, (x, y), (p, q) = self._kind, (self._values, other._values), (self._denominator, other._denominator)
        else:
            kind, (x, y), (p, q) = _common((self, other))
        return LevelTensor._of(self.d, self.k + other.k, np.multiply.outer(x, y).reshape(-1), p * q, kind)

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
            self._float = LevelTensor._of(self.d, self.k, _quotients(self._values, self._denominator))
        return self._float

    def to_json(self) -> dict:
        _computable(self._kind)  # JSON writes rationals and floats only
        exact = self.is_exact()
        values, den = self._values.tolist(), self._denominator
        entries = {}
        for i in np.flatnonzero(self._values).tolist():
            word = word_to_string(index_word(i, self.d, self.k), self.d)
            entries[word] = format_ratio(values[i], den) if exact else format_scalar(values[i])
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
        exact = _is_rational(data)
        zero = Fraction(0) if exact else 0.0
        entries = [zero] * d**k
        raw_entries = data.get("entries", {})
        if not isinstance(raw_entries, dict):
            raise ValueError("'entries' must be a JSON object mapping words to scalars")
        for key, raw in raw_entries.items():
            word = word_from_string(key, d)
            if len(word) != k:
                raise ValueError(f"word {key!r} has wrong length for order {k}")
            entries[word_index(word, d)] = parse_scalar(raw, f"entries[{key!r}]", exact)
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
        """The shape's, as for `LevelTensor`."""
        return hash((self.d, self.n))

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
        zero = _scalar_zero(self.levels)
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
        tensors = [lvl for lvl in raw_levels[1:] if isinstance(lvl, dict)]
        if tensors:
            exact = all(map(_is_rational, tensors))
        else:  # no level tensors: the constant's JSON type carries the mode
            exact = not isinstance(raw_levels[0], float)
        levels = [LevelTensor(d, 0, [parse_scalar(raw_levels[0], "levels[0]", exact)])]
        for k in range(1, n + 1):
            raw = raw_levels[k]
            if not isinstance(raw, dict):
                raise ValueError(f"level {k} must be a tensor JSON object")
            shape = (parse_int(raw["dim"], f"levels[{k}].dim"), parse_int(raw["order"], f"levels[{k}].order"))
            if shape != (d, k):
                raise ValueError(f"level {k} has dim {shape[0]} and order {shape[1]}, expected dim {d} and order {k}")
            levels.append(LevelTensor.from_json(raw))
        return cls(d, n, levels)


def _is_rational(data: dict) -> bool:
    """Whether a tensor JSON's "scalar" field, "rational" (the default) or "float", is "rational"."""
    scalar = data.get("scalar", "rational")
    if scalar not in ("rational", "float"):
        raise ValueError(f"'scalar' must be \"rational\" or \"float\", got {scalar!r}")
    return scalar == "rational"


def _scalar_zero(levels: Sequence[LevelTensor]):
    """0.0 when any of the levels holds floats, else Fraction(0)."""
    return 0.0 if any(lvl.holds_floats for lvl in levels) else Fraction(0)


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
    """Series whose only nonzero level is level 1, in the vector's scalar mode."""
    return series_from_level(LevelTensor(len(vector), 1, list(vector)), n)


def series_from_level(level: LevelTensor, n: int | None = None) -> TensorSeries:
    """Series with a single nonzero homogeneous component; the other levels
    are zeros in the level's scalar mode (0.0 beside a float level)."""
    if n is None:
        n = level.k
    if n < level.k:
        raise ValueError(f"a level of order {level.k} does not fit a series truncated at {n}")
    zero = _scalar_zero([level])
    levels = [LevelTensor.zeros(level.d, k, zero) for k in range(n + 1)]
    levels[level.k] = level
    return TensorSeries(level.d, n, levels)


def _graded_product(x: list, y: list, levels: range) -> list:
    """Levels m in `levels` of the product of two graded lists of (values, denominator), None for an all-zero
    level: the sum of x_j (x) y_(m-j) over ascending j, skipping pairs with a None side, not reduced, or None.
    Exact pairs meet at the lcm of their denominators by scaling the shorter factor.  The values are exact or
    float, so a factor whose one value is 1, over any denominator, gives its partner's values with no outer
    product: v * 1.0 is v bit for bit (-0.0 and NaN too), and an int times 1 is itself."""
    out, top = [], len(y) - 1
    for m in levels:
        pairs = [(x[j], y[m - j]) for j in range(m - top if m > top else 0, m + 1) if x[j] and y[m - j]]
        den = math.lcm(*(a * b for (_, a), (_, b) in pairs))
        total = None
        for (u, a), (v, b) in pairs:
            s = den // (a * b)
            if len(u) == 1 and u[0] == 1:
                w = v * s if s > 1 else v
            elif len(v) == 1 and v[0] == 1:
                w = u * s if s > 1 else u
            else:
                if s > 1:
                    u, v = (u * s, v) if len(u) <= len(v) else (u, v * s)
                w = np.multiply.outer(u, v).reshape(-1)
            total = w if total is None else total + w
        out.append((total, den) if pairs else None)
    return out


def concat_product(a: TensorSeries, b: TensorSeries) -> TensorSeries:
    """Concatenation product in the truncated tensor algebra.

    Both series are read once in one scalar mode (`_common`), as `exp_series` and `log_series` read theirs;
    level k sums the products of the pairs of levels (p, k-p) in ascending p, skipping pairs with an all-zero
    side (`_graded_product`: a constant term 1 costs no product), reduced by one gcd, and with no pair left it
    is zero in the scalar mode of the inputs.
    """
    if a.d != b.d or a.n != b.n:
        raise ValueError("series must share dimension and truncation order")
    n, levels = a.n, a.levels + b.levels
    kind, arrays, dens = _common(levels)
    live = [(x, q) if np.count_nonzero(x) else None for x, q in zip(arrays, dens)]
    product = _graded_product(live[: n + 1], live[n + 1 :], range(n + 1))
    out = [
        LevelTensor._of(a.d, k, *t, kind) if t else LevelTensor.zeros(a.d, k, _scalar_zero(levels))
        for k, t in enumerate(product)
    ]
    return TensorSeries(a.d, n, out)


def commutator(a: TensorSeries, b: TensorSeries) -> TensorSeries:
    return concat_product(a, b).add(concat_product(b, a).negate())


def _horner(d: int, levels: Sequence[LevelTensor], constant: int, coefficients: Sequence[Fraction]) -> TensorSeries:
    """constant + sum of c_r p^r over r = 1..n for the series p of these levels (level 0 is read only for its
    mode; p's constant term is 0) by Horner's rule: H_n = c_n, H_r = c_r + p H_(r+1) up to level n - r, and
    constant + p H_1.  Level m of p H is level m of `_graded_product` of p and H (where a c_r of numerator 1
    costs no product); an H level is reduced by one gcd, and dropped when all zero.  The levels are read once in
    one mode (`_common`), c_r enters in it, and a result level that is not exact is zero + its sum, so none of
    its float zeros is -0.0."""
    n, zero = len(levels) - 1, _scalar_zero(levels)
    head = LevelTensor(d, 0, [zero + constant])
    kind, arrays, dens = _common([head, *levels[1:]])
    exact = kind in _EXACT_KINDS
    p = [None] + [(x, q) if np.count_nonzero(x) else None for x, q in zip(arrays[1:], dens[1:])]
    h = []  # H_(r+1), levels 0..n - r - 1
    for c in reversed(coefficients):
        one = (np.array([c.numerator], dtype=object), c.denominator) if exact else (np.array([zero + c]), 1)
        ph = _graded_product(p, h, range(1, len(h) + 1))
        h = [one] + [_reduced(*t) if t and np.count_nonzero(t[0]) else None for t in ph]
    out = [head]
    for k, t in enumerate(_graded_product(p, h, range(1, n + 1)), 1):
        out.append(
            LevelTensor._of(d, k, t[0] if exact else zero + t[0], t[1], kind) if t else LevelTensor.zeros(d, k, zero)
        )
    return TensorSeries(d, n, out)


def exp_series(p: TensorSeries) -> TensorSeries:
    """exp(p) = sum of p^r / r! over r = 0..n, for constant term 0, by Horner's rule (`_horner`, whose levels sum
    in ascending order of p's level): `Fraction` levels for exact ones; any float level, the constant term's too,
    makes every level float, an exact one entering as its `to_float()`, and no float zero of it is -0.0."""
    if p.constant_term != 0:
        raise ValueError("exponential requires constant term 0")
    return _horner(p.d, p.levels, 1, [Fraction(1, math.factorial(r)) for r in range(1, p.n + 1)])


def log_series(q: TensorSeries) -> TensorSeries:
    """log(q) = sum of (-1)^(r-1)/r (q-1)^r over r = 1..n, for constant term 1 (`_horner` on
    p = q - 1, whose levels 1..n are q's), in the scalar modes of `exp_series`."""
    if q.constant_term != 1:
        raise ValueError("logarithm requires constant term 1")
    return _horner(q.d, q.levels, 0, [Fraction((-1) ** (r - 1), r) for r in range(1, q.n + 1)])


def project_level(series: TensorSeries, k: int) -> LevelTensor:
    """The order-k homogeneous component (levels are immutable, so it is shared)."""
    if not 0 <= k <= series.n:
        raise ValueError(f"level {k} outside 0..{series.n}")
    return series.levels[k]
