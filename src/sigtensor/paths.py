"""Signature tensors of deterministic path families.

Four parametric families are supported: piecewise-linear paths (signature
via the product of step exponentials), polynomial paths (exact iterated
integration), axis-parallel paths (a piecewise-linear special case), and
log-linear paths whose signature is the exponential of a Lie element.
Piecewise-linear and polynomial signatures also come with an independent
second engine through congruence of a canonical core tensor.

`canonical_axis` and `canonical_mono` build a fresh exact core from its
closed form on every call.  `_core_level` caches one core per (family, m, k);
the congruence engines, `recovery` and `matrices` read it.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations_with_replacement
from typing import Sequence

import numpy as np

from .scalars import int_kind, parse_int, parse_list, parse_object, parse_rows, parse_scalar
from .shuffle import is_lie
from .tensor import (
    LevelTensor,
    TensorSeries,
    _common,
    concat_product,
    exp_series,
    project_level,
    unit_series,
)


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

    Entries vanish off the C(m+k-1, k) weakly increasing words; such a word
    is k! over the product of its letter-multiplicity factorials, over k!.
    """
    if m < 1 or k < 1:
        raise ValueError("need m >= 1 and k >= 1")
    words = np.array(list(combinations_with_replacement(range(m), k)), dtype=np.int64)
    runs = np.ones(len(words), dtype=np.int64)
    multiplicities = np.ones(len(words), dtype=object)  # products of multiplicity factorials
    for i in range(1, k):
        runs = np.where(words[:, i] == words[:, i - 1], runs + 1, 1)
        multiplicities *= runs
    numerators = np.zeros(m**k, dtype=object)
    numerators[words @ m ** np.arange(k - 1, -1, -1)] = math.factorial(k) // multiplicities
    return LevelTensor._of(m, k, numerators, math.factorial(k), Fraction)


def canonical_mono(m: int, k: int) -> LevelTensor:
    """Order-k signature of the moment curve t -> (t, t^2, ..., t^m).

    Word i1..ik is the product of its letters over that of its prefix sums
    i1 + ... + ij, formed on the grid of all m^k words at once.
    """
    if m < 1 or k < 1:
        raise ValueError("need m >= 1 and k >= 1")
    # prefix sums are at most m, 2m, ..., km, so no product (nor gcd) exceeds m^k k!: int64 below 2^63
    dtype = int_kind(m**k * math.factorial(k))
    letters = np.indices((m,) * k, dtype=dtype).reshape(k, -1) + 1
    numerators = np.prod(letters, axis=0)
    denominators = np.prod(np.cumsum(letters, axis=0), axis=0)
    common = np.gcd(numerators, denominators)
    denominators, inverse = np.unique(denominators // common, return_inverse=True)
    lcm = math.lcm(*denominators.tolist())
    scale = (lcm // denominators.astype(object))[inverse]
    return LevelTensor._of(m, k, (numerators // common).astype(object) * scale, lcm, Fraction)


@functools.lru_cache(maxsize=32)
def _core_level(family: str, m: int, k: int) -> LevelTensor:
    """The canonical core of a family ("pl" or "poly"), built once per (family, m, k)."""
    return canonical_axis(m, k) if family == "pl" else canonical_mono(m, k)


def _contract(t: np.ndarray, x: np.ndarray, axis: int) -> np.ndarray:
    """Multiply mode `axis` of t (size m) by the d x m matrix x, in place of it.

    A mode product is one matrix product on a reshaped t: x times the
    (before, m, after) stack of m x after slices, whose new axis lands in
    place, or for the last mode the (before, m) matrix times x^T.  On object
    arrays `np.matmul` sums Python products, so ints stay ints.
    """
    shape = t.shape
    if axis == t.ndim - 1:
        out = t.reshape(-1, shape[axis]) @ x.T
    else:
        out = np.matmul(x, t.reshape(math.prod(shape[:axis]), shape[axis], math.prod(shape[axis + 1 :])))
    return out.reshape(shape[:axis] + (x.shape[0],) + shape[axis + 1 :])


def tensor_congruence(core: LevelTensor, matrix: Sequence[Sequence]) -> LevelTensor:
    """Multiply every side of an order-k core by the d x m matrix.

    Output entry (j1..jk) = sum over (i1..ik) of core(i1..ik) * prod X[j, i],
    formed by contracting modes 1..k-1, then mode 0.  An exact core A / D and
    an exact matrix M / L contract as Python ints A and M over D * L^k (an
    int result only when both hold ints); otherwise they meet as mixed levels
    do (`tensor._common`): a float in either makes it float64, and any other
    scalar raises a `TypeError`.
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
    # the matrix entries as one level, so that core and matrix meet in one scalar mode
    kind, (t, x), (denominator, scale) = _common((core, LevelTensor(d * m, 1, [v for r in rows for v in r])))
    t, x = t.reshape((m,) * core.k), x.reshape(d, m)
    for axis in (*range(1, core.k), 0):
        t = _contract(t, x, axis)
    return LevelTensor._of(d, core.k, t.reshape(-1), denominator * scale**core.k, kind)


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
    """Third engine: congruence of the cached axis core by the step matrix."""
    steps = [tuple(s) for s in steps]
    if not steps:
        raise ValueError("need at least one step")
    d, m = len(steps[0]), len(steps)
    matrix = [[steps[j][i] for j in range(m)] for i in range(d)]
    return tensor_congruence(_core_level("pl", m, k), matrix)


# --- polynomial paths -----------------------------------------------------


def poly_signature_integrate(coeffs: Sequence[Sequence], n: int) -> TensorSeries:
    """Signature of a polynomial path by exact iterated integration.

    The iterated integral of a word w, as a polynomial in t, is kept as one
    row of a level array: level k holds the d^k word rows (base-d word
    order) of t-coefficients.  Appending letter i multiplies a row by
    X_i'(t) and integrates.  A level-k integral vanishes to order t^k, so
    its row holds the coefficients of t^k .. t^(k*m) only.  Ragged rows
    count as zero-padded.  Entries are the values at t=1, the row sums.

    The coefficients are read as one level of d * m entries, ragged rows
    padded with 0 (`tensor._common`), so one float coefficient makes every
    row float64, and other scalars raise a `TypeError`.  Exact rows are
    Python ints: the derivative is held over the lcm Dc of the coefficient
    denominators, and level k multiplies the t^(k+j) column by
    L // (k+j), L = lcm(k, k+1, ...), in place of dividing by k+j, so its
    denominator is the previous one times Dc * L, reduced by one gcd per
    level.
    """
    d, m = len(coeffs), max([1, *map(len, coeffs)])
    padded = [v for row in coeffs for v in (*row, *[0] * (m - len(row)))]
    kind, (values,), (den,) = _common([LevelTensor(d * m, 1, padded)])
    floats = kind is float
    # derivative[i, b] is the t^b coefficient of X_i'(t), times den when exact
    derivative = values.reshape(d, m) * np.arange(1, m + 1)
    levels = [LevelTensor(d, 0, [1.0 if floats else Fraction(1)])]
    integrals = np.ones((1, 1), dtype=derivative.dtype)
    scale = 1  # the exact integrals are integrals / scale
    for k in range(1, n + 1):
        width = integrals.shape[1]
        product = np.zeros((len(integrals), d, width + m - 1), dtype=derivative.dtype)
        for b in range(m):
            product[:, :, b : b + width] += integrals[:, None, :] * derivative[None, :, b, None]
        # the t^(k+j) coefficient of the antiderivative is that of t^(k-1+j) over k+j
        divisors = range(k, k + width + m - 1)
        if floats:
            integrals = (product / np.array(divisors, dtype=np.float64)).reshape(d**k, -1)
        else:
            lcm = math.lcm(*divisors)
            integrals = (product * np.array([lcm // j for j in divisors], dtype=object)).reshape(d**k, -1)
            scale *= den * lcm
            g = math.gcd(scale, *integrals.flat)
            integrals, scale = integrals // g, scale // g
        levels.append(LevelTensor._of(d, k, integrals.sum(axis=1), scale, None if floats else Fraction))
    return TensorSeries(d, n, levels)


def poly_signature_congruence(coeffs: Sequence[Sequence], k: int) -> LevelTensor:
    """Second engine: congruence of the cached monomial core by the coefficients."""
    rows = [tuple(r) for r in coeffs]
    if not rows:
        raise ValueError("need at least one coefficient row")
    return tensor_congruence(_core_level("poly", len(rows[0]), k), rows)


# --- log-linear paths -----------------------------------------------------


def loglinear_level(lie: TensorSeries, k: int) -> LevelTensor:
    """Order-k component of exp(L) for a Lie element L."""
    return project_level(loglinear_signature(lie, k), k)


def loglinear_signature(lie: TensorSeries, n: int) -> TensorSeries:
    if not is_lie(lie):
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
        steps = parse_rows(data["steps"], "steps", exact)
        if any(len(s) != d for s in steps):
            raise ValueError("step dimension does not match dim")
        return PiecewiseLinear(tuple(tuple(s) for s in steps), dim=d)
    if kind == "polynomial":
        if d < 1:
            raise ValueError(
                f"a polynomial path needs dim >= 1, got dim {d}, "
                "with one non-empty coefficient row per coordinate"
            )
        rows = parse_rows(data["coeffs"], "coeffs", exact)
        if len(rows) != d:
            raise ValueError("coefficient rows do not match dim")
        return Polynomial(tuple(tuple(r) for r in rows))
    if kind == "axis_parallel":
        lengths = parse_list(data["lengths"], "lengths")
        lengths = [parse_scalar(c, f"lengths[{i}]", exact) for i, c in enumerate(lengths)]
        dirs = tuple(parse_int(v, "a direction") for v in parse_list(data["dirs"], "dirs"))
        return AxisParallel(d, dirs, tuple(lengths))
    if kind == "log_linear":
        lie = TensorSeries.from_json(parse_object(data["lie"], "lie"))
        if lie.d != d:
            raise ValueError(f"the path's dim {d} does not match the Lie element's dim {lie.d}")
        if not exact:
            lie = lie.to_float()
        return LogLinear(lie)
    raise ValueError(f"unknown path type {kind!r}")
