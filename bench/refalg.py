"""Reference truncated tensor algebra, independent of sigtensor.

The benchmark builds its known-truth inputs and its oracles with this code,
so neither depends on the code under test.  A series is a list of levels;
level k is a flat list of d**k entries in base-d word order (the layout of
sigtensor's dense levels, so entries compare position by position).
"""

from __future__ import annotations

from fractions import Fraction


def outer(a: list, b: list) -> list:
    return [x * y for x in a for y in b]


def add(a: list, b: list) -> list:
    return [x + y for x, y in zip(a, b)]


def scale(a: list, c) -> list:
    return [c * x for x in a]


def unit(d: int, n: int, one=Fraction(1)) -> list:
    return [[one]] + [[0 * one] * d**k for k in range(1, n + 1)]


def product_level(a: list, b: list, k: int) -> list:
    """Level k of the concatenation product a * b."""
    acc = outer(a[0], b[k])
    for p in range(1, k + 1):
        acc = add(acc, outer(a[p], b[k - p]))
    return acc


def concat(a: list, b: list) -> list:
    return [product_level(a, b, k) for k in range(len(a))]


def exp(x: list) -> list:
    """exp of a series with zero constant term."""
    n = len(x) - 1
    d = len(x[1]) if n else 1
    one = x[0][0] + 1
    result = unit(d, n, one)
    term = unit(d, n, one)
    for r in range(1, n + 1):
        term = [scale(level, Fraction(1, r)) for level in concat(term, x)]
        result = [add(u, v) for u, v in zip(result, term)]
    return result


def log(s: list) -> list:
    """log of a series with constant term 1."""
    d, n = len(s[1]), len(s) - 1
    p = [[s[0][0] - 1]] + s[1:]
    result = [[0 * s[0][0]]] + [[0 * s[0][0]] * d**k for k in range(1, n + 1)]
    power = unit(d, n, s[0][0] / s[0][0])
    for r in range(1, n + 1):
        power = concat(power, p)
        c = Fraction((-1) ** (r - 1), r)
        result = [add(u, scale(v, c)) for u, v in zip(result, power)]
    return result


def step_signature(step: list, n: int) -> list:
    """Signature of one straight step: level k is step^(x)k / k!."""
    levels = [[step[0] * 0 + 1]]
    for k in range(1, n + 1):
        levels.append(scale(outer(levels[-1], step), Fraction(1, k)))
    return levels


def chen(steps: list, n: int) -> list:
    """Signature of a piecewise-linear path by Chen's identity."""
    series = step_signature(steps[0], n)
    for step in steps[1:]:
        series = concat(series, step_signature(step, n))
    return series


def lie_element(vectors: list, coeffs: list, n: int) -> list:
    """sum_k coeffs[k] * [[v0, v1], ..., vk]: a Lie element of degree <= n."""
    d = len(vectors[0])
    zero = 0 * vectors[0][0]
    levels = [[zero]] + [[zero] * d**k for k in range(1, n + 1)]
    bracket = list(vectors[0])
    levels[1] = scale(bracket, coeffs[0])
    for k in range(2, n + 1):
        v = vectors[k - 1]
        bracket = add(outer(bracket, v), scale(outer(v, bracket), -1))
        levels[k] = scale(bracket, coeffs[k - 1])
    return levels


def axis_core(m: int, k: int) -> list:
    """Order-k signature of the unit staircase e_1, ..., e_m (flat)."""
    return chen([[Fraction(int(i == j)) for i in range(m)] for j in range(m)], k)[k]


def mono_core(m: int, k: int) -> list:
    """Order-k signature of the moment curve t -> (t, ..., t^m) (flat)."""
    out = [Fraction(1)]
    partial = [0]
    for _ in range(k):
        out = [v * Fraction(letter, s + letter) for v, s in zip(out, partial) for letter in range(1, m + 1)]
        partial = [s + letter for s in partial for letter in range(1, m + 1)]
    return out


def close(a, b, tol: float, floor: float = 1.0) -> bool:
    """Relative closeness with the scale floored at `floor` (1 is sigtensor's convention)."""
    return abs(a - b) <= tol * max(floor, abs(a), abs(b))


def levels_close(a: list, b: list, tol: float, floor: float = 1.0) -> bool:
    return len(a) == len(b) and all(close(x, y, tol, floor) for x, y in zip(a, b))
