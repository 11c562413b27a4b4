"""Signature tensors of deterministic path families.

Four parametric families are supported: piecewise-linear paths (signature
via the product of step exponentials), polynomial paths (exact iterated
integration), axis-parallel paths (a piecewise-linear special case), and
log-linear paths whose signature is the exponential of a Lie element.
Piecewise-linear and polynomial signatures also come with an independent
second engine through congruence of a canonical core tensor.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations_with_replacement
from typing import Sequence

import numpy as np

from .scalars import parse_int, parse_scalar
from .shuffle import is_lie
from .tensor import (
    LevelTensor,
    TensorSeries,
    _integer_multiple,
    _scalar_kind,
    concat_product,
    exp_series,
    project_level,
    unit_series,
)
from .words import all_words


# --- path specifications -------------------------------------------------


@dataclass(frozen=True)
class PiecewiseLinear:
    """Path made of m straight steps; steps[i] is the i-th step vector."""

    steps: tuple
    dim: int | None = None

    def __post_init__(self):
        steps = tuple(tuple(s) for s in self.steps)
        if steps and len({len(s) for s in steps}) != 1:
            raise ValueError("steps must share one dimension")
        if steps and self.dim is not None and len(steps[0]) != self.dim:
            raise ValueError("dim does not match the step vectors")
        if not steps and self.dim is None:
            raise ValueError("an empty path needs an explicit dim")
        object.__setattr__(self, "steps", steps)
        if self.d < 1:
            raise ValueError(f"a path needs dim >= 1, got dim {self.d}")

    @property
    def d(self):
        return len(self.steps[0]) if self.steps else self.dim

    @property
    def m(self):
        return len(self.steps)


@dataclass(frozen=True)
class Polynomial:
    """Polynomial path X_i(t) = sum_j coeffs[i][j] t^(j+1), so X(0) = 0."""

    coeffs: tuple

    def __post_init__(self):
        rows = tuple(tuple(r) for r in self.coeffs)
        if not rows:
            raise ValueError(
                "the coefficient list is empty: a polynomial path needs dim >= 1, "
                "with one non-empty coefficient row per coordinate"
            )
        if len({len(r) for r in rows}) != 1:
            raise ValueError("coefficient rows must share one length")
        if not rows[0]:
            raise ValueError("coefficient rows are empty: each coordinate needs at least the t coefficient")
        object.__setattr__(self, "coeffs", rows)

    @property
    def d(self):
        return len(self.coeffs)

    @property
    def m(self):
        return len(self.coeffs[0])


@dataclass(frozen=True)
class AxisParallel:
    """Steps lengths[i] * e_dirs[i]; convertible to PiecewiseLinear."""

    d: int
    dirs: tuple
    lengths: tuple

    def __post_init__(self):
        dirs = tuple(int(v) for v in self.dirs)
        lengths = tuple(self.lengths)
        if len(dirs) != len(lengths):
            raise ValueError("dirs and lengths must have equal length")
        for v in dirs:
            if not 1 <= v <= self.d:
                raise ValueError(f"direction {v} outside 1..{self.d}")
        object.__setattr__(self, "dirs", dirs)
        object.__setattr__(self, "lengths", lengths)

    @property
    def m(self):
        return len(self.dirs)

    def lattice_length(self):
        return sum(abs(a) for a in self.lengths)

    def to_piecewise_linear(self) -> PiecewiseLinear:
        steps = []
        for direction, length in zip(self.dirs, self.lengths):
            step = [0 * length] * self.d
            step[direction - 1] = length
            steps.append(step)
        return PiecewiseLinear(tuple(steps), dim=self.d)


@dataclass(frozen=True)
class LogLinear:
    """Constant-speed group path; the signature is exp of the Lie element."""

    lie: TensorSeries

    @property
    def d(self):
        return self.lie.d

    @property
    def m(self):
        return self.lie.n


PathSpec = (PiecewiseLinear, Polynomial, AxisParallel, LogLinear)


# --- canonical cores ------------------------------------------------------


def canonical_axis(m: int, k: int) -> LevelTensor:
    """Order-k signature of the staircase path stepping e_1, ..., e_m.

    Entries vanish off weakly increasing words; a weakly increasing word
    contributes 1 over the product of its letter-multiplicity factorials.
    """
    if m < 1 or k < 1:
        raise ValueError("need m >= 1 and k >= 1")
    entries = []
    for word in all_words(m, k):
        if any(a > b for a, b in zip(word, word[1:])):
            entries.append(Fraction(0))
            continue
        denom = 1
        run = 1
        for a, b in zip(word, word[1:]):
            run = run + 1 if a == b else 1
            denom *= run if a == b else 1
        entries.append(Fraction(1, denom))
    return LevelTensor(m, k, entries)


def canonical_mono(m: int, k: int) -> LevelTensor:
    """Order-k signature of the moment curve t -> (t, t^2, ..., t^m)."""
    if m < 1 or k < 1:
        raise ValueError("need m >= 1 and k >= 1")
    entries = []
    for word in all_words(m, k):
        value = Fraction(1)
        partial = 0
        for letter in word:
            partial += letter
            value *= Fraction(letter, partial)
        entries.append(value)
    return LevelTensor(m, k, entries)


def _contract(t: np.ndarray, x: np.ndarray, axis: int) -> np.ndarray:
    """Multiply mode `axis` of t (size m) by the d x m matrix x, in place of it."""
    return np.moveaxis(np.tensordot(x, t, axes=([1], [axis])), 0, axis)


def tensor_congruence(core: LevelTensor, matrix: Sequence[Sequence]) -> LevelTensor:
    """Multiply every side of an order-k core by the d x m matrix.

    Output entry (j1..jk) = sum over (i1..ik) of core(i1..ik) * prod X[j, i],
    formed by contracting modes 1..k-1, then mode 0.  An exact core A / D and
    an exact matrix M / L contract as Python ints A and M over D * L^k (an
    int result only when both hold ints); a float in either makes it float64,
    and other scalars (`Dual`s, say) contract as object arrays.
    """
    rows = [list(r) for r in matrix]
    d = len(rows)
    m = len(rows[0]) if rows else 0
    if any(len(r) != m for r in rows):
        raise ValueError("ragged matrix")
    if core.k >= 1 and m != core.d:
        raise ValueError(f"matrix has {m} columns, core dimension is {core.d}")
    if core.k == 0:
        return LevelTensor(d, 0, core.entries)
    kind = _scalar_kind([v for r in rows for v in r])
    x = np.array(rows, dtype=object).reshape(d, m)
    exact = core.is_exact() and kind in (int, Fraction)
    if exact:
        t, denominator = core.as_integers()
        x, scale = _integer_multiple(x)
    elif kind is not object and (core.is_exact() or core.holds_floats):
        t, x = (core if core.holds_floats else core.to_float()).array, x.astype(np.float64)
    else:
        t = core.array
    t = t.reshape((m,) * core.k)
    for axis in (*range(1, core.k), 0):
        t = _contract(t, x, axis)
    if not exact:
        return LevelTensor._from_array(d, core.k, t.reshape(-1))
    kind = int if kind is int and core._kind is int else Fraction
    return LevelTensor._from_integers(d, core.k, t.reshape(-1), denominator * scale**core.k, kind)


# --- piecewise linear -----------------------------------------------------


def pl_signature(steps: Sequence[Sequence], n: int, d: int | None = None) -> TensorSeries:
    """Step-n signature of a piecewise-linear path: product of exponentials.

    The exponential of each step x is built level by level: level k is the
    tensor product of level k-1 with x, divided by k.
    """
    steps = [LevelTensor(len(s), 1, s) for s in steps]
    if not steps:
        return unit_series(d or 1, n)
    series = unit_series(steps[0].d, n)
    if any(x.holds_floats for x in steps):
        series = series.to_float()
    one = series.levels[0]
    for x in steps:
        exponential = [one]
        for k in range(1, n + 1):
            exponential.append(exponential[-1].tensor_product(x).scale(Fraction(1, k)))
        series = concat_product(series, TensorSeries(x.d, n, exponential))
    return series


def pl_level_direct(steps: Sequence[Sequence], k: int) -> LevelTensor:
    """Order-k signature as a sum over weakly increasing step assignments.

    Independent of pl_signature: sums (prod 1/multiplicity!) X_t1 x ... x X_tk
    over weakly increasing maps {1..k} -> {1..m}.
    """
    steps = [tuple(s) for s in steps]
    if not steps:
        raise ValueError("need at least one step")
    d = len(steps[0])
    out = [Fraction(0)] * d**k
    for assignment in combinations_with_replacement(range(len(steps)), k):
        coeff = Fraction(1)
        run = 1
        for a, b in zip(assignment, assignment[1:]):
            run = run + 1 if a == b else 1
            if a == b:
                coeff /= run
        vectors = [steps[i] for i in assignment]
        _accumulate_outer(out, vectors, coeff, d)
    return LevelTensor(d, k, out)


def _accumulate_outer(out: list, vectors: list, coeff, d: int) -> None:
    """Add coeff * v1 x v2 x ... x vk into a flat entry buffer."""
    partial = [coeff]
    for vec in vectors:
        nxt = []
        for p in partial:
            if p == 0:
                nxt.extend([p * 0] * d)
            else:
                nxt.extend([p * c for c in vec])
        partial = nxt
    for i, v in enumerate(partial):
        if v != 0:
            out[i] = out[i] + v


def pl_signature_congruence(steps: Sequence[Sequence], k: int) -> LevelTensor:
    """Third engine: congruence of the axis core by the step matrix."""
    steps = [tuple(s) for s in steps]
    d, m = len(steps[0]), len(steps)
    matrix = [[steps[j][i] for j in range(m)] for i in range(d)]
    return tensor_congruence(canonical_axis(m, k), matrix)


# --- polynomial paths -----------------------------------------------------


def poly_signature_integrate(coeffs: Sequence[Sequence], n: int) -> TensorSeries:
    """Signature of a polynomial path by exact iterated integration.

    The iterated integral of a word w, as a polynomial in t, is kept as one
    row of a level array: level k holds the d^k word rows (base-d word
    order) of t-coefficients.  Appending letter i multiplies a row by
    X_i'(t) and integrates.  A level-k integral vanishes to order t^k, so
    its row holds the coefficients of t^k .. t^(k*m) only.  Coefficients
    are rational, or floats (a float64 array) when any input coefficient is
    a float; ragged rows count as zero-padded.  Entries are the values at
    t=1, the row sums.
    """
    floats = any(isinstance(c, float) for r in coeffs for c in r)
    scalar, dtype = (float, np.float64) if floats else (Fraction, object)
    d, m = len(coeffs), max([1, *map(len, coeffs)])
    zero, one = scalar(0), scalar(1)
    # derivative[i, b] is the t^b coefficient of X_i'(t)
    derivative = np.full((d, m), zero, dtype=dtype)
    for i, row in enumerate(coeffs):
        for b, c in enumerate(row):
            derivative[i, b] = (b + 1) * scalar(c)
    levels = [LevelTensor(d, 0, [one])]
    integrals = np.full((1, 1), one, dtype=dtype)
    for k in range(1, n + 1):
        width = integrals.shape[1]
        product = np.full((len(integrals), d, width + m - 1), zero, dtype=dtype)
        for b in range(m):
            product[:, :, b : b + width] += integrals[:, None, :] * derivative[None, :, b, None]
        # the t^(k+j) coefficient of the antiderivative is that of t^(k-1+j) over k+j
        integrals = (product / np.arange(k, k + width + m - 1).astype(dtype)).reshape(d**k, -1)
        levels.append(LevelTensor._from_array(d, k, integrals.sum(axis=1)))
    return TensorSeries(d, n, levels)


def poly_signature_congruence(coeffs: Sequence[Sequence], k: int) -> LevelTensor:
    """Second engine: congruence of the monomial core by the coefficients."""
    rows = [tuple(r) for r in coeffs]
    return tensor_congruence(canonical_mono(len(rows[0]), k), rows)


# --- log-linear paths -----------------------------------------------------


def loglinear_level(lie: TensorSeries, k: int, check: bool = True) -> LevelTensor:
    """Order-k component of exp(L) for a Lie element L."""
    if check and not is_lie(lie):
        raise ValueError("log-linear path requires a Lie element")
    return project_level(exp_series(lie.truncate(k)), k)


def loglinear_signature(lie: TensorSeries, n: int, check: bool = True) -> TensorSeries:
    if check and not is_lie(lie):
        raise ValueError("log-linear path requires a Lie element")
    return exp_series(lie.truncate(n))


# --- dispatch and serialization --------------------------------------------


def signature_series(path, n: int) -> TensorSeries:
    """Step-n signature series of any supported path specification."""
    if isinstance(path, AxisParallel):
        path = path.to_piecewise_linear()
    if isinstance(path, PiecewiseLinear):
        return pl_signature(path.steps, n, d=path.d)
    if isinstance(path, Polynomial):
        return poly_signature_integrate(path.coeffs, n)
    if isinstance(path, LogLinear):
        return loglinear_signature(path.lie, n)
    raise TypeError(f"unsupported path specification {type(path).__name__}")


def signature_level(path, k: int) -> LevelTensor:
    return project_level(signature_series(path, k), k)


def path_to_json(path) -> dict:
    from .scalars import format_scalar

    if isinstance(path, PiecewiseLinear):
        return {
            "type": "piecewise_linear",
            "dim": path.d,
            "steps": [[format_scalar(c) for c in s] for s in path.steps],
        }
    if isinstance(path, Polynomial):
        return {
            "type": "polynomial",
            "dim": path.d,
            "coeffs": [[format_scalar(c) for c in r] for r in path.coeffs],
        }
    if isinstance(path, AxisParallel):
        return {
            "type": "axis_parallel",
            "dim": path.d,
            "dirs": list(path.dirs),
            "lengths": [format_scalar(a) for a in path.lengths],
        }
    if isinstance(path, LogLinear):
        return {"type": "log_linear", "dim": path.d, "lie": path.lie.to_json()}
    raise TypeError(f"unsupported path specification {type(path).__name__}")


def path_from_json(data: dict, exact: bool = True):
    kind = data.get("type")
    d = parse_int(data["dim"], "dim")
    if kind == "piecewise_linear":
        steps = [[parse_scalar(c, exact) for c in s] for s in data["steps"]]
        if any(len(s) != d for s in steps):
            raise ValueError("step dimension does not match dim")
        return PiecewiseLinear(tuple(tuple(s) for s in steps), dim=d)
    if kind == "polynomial":
        if d < 1:
            raise ValueError(
                f"a polynomial path needs dim >= 1, got dim {d}, "
                "with one non-empty coefficient row per coordinate"
            )
        rows = [[parse_scalar(c, exact) for c in r] for r in data["coeffs"]]
        if len(rows) != d:
            raise ValueError("coefficient rows do not match dim")
        return Polynomial(tuple(tuple(r) for r in rows))
    if kind == "axis_parallel":
        lengths = [parse_scalar(c, exact) for c in data["lengths"]]
        return AxisParallel(d, tuple(parse_int(v, "a direction") for v in data["dirs"]), tuple(lengths))
    if kind == "log_linear":
        lie = TensorSeries.from_json(data["lie"])
        if not exact:
            lie = lie.to_float()
        return LogLinear(lie)
    raise ValueError(f"unknown path type {kind!r}")
