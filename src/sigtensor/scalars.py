"""Scalar helpers shared by the exact (rational) and float code paths.

`scalar_mode` is the one rule for the scalar mode of values entering the
package: exact (Python `int` and `fractions.Fraction`), float, or other.
Computed levels carry their mode on; an exact operand that meets a float one
enters as `LevelTensor.to_float()`, each entry correctly rounded, also where
it is one term of a sum.

`integer_multiple` is the one conversion of exact values to Python ints over
one denominator; exact levels, congruence matrices, polynomial coefficients,
Lyndon coordinates and the fraction-free elimination all enter through it.

`int_kind` is the one rule for the dtype of an exact integer kernel: int64
when a bound certifies that no partial sum reaches 2^63, object otherwise.
"""

from __future__ import annotations

import math
from decimal import Decimal
from fractions import Fraction

import numpy as np

#: Relative tolerance used for float comparisons when none is given.
DEFAULT_REL_TOL = 1e-10

_INT64_LIMIT = 2**63  # the first magnitude an int64 cannot hold


class NumericalFailure(RuntimeError):
    """A float construction failed to meet its tolerance.

    It lives here, beside the scalar rules, so that the CLI can catch it (and
    `recovery.RecoveryFailed`, a subclass) without importing the kernels.
    """


def int_kind(bound: int):
    """np.int64 when the Python int `bound`, a bound on |every partial sum| of an
    integer kernel, is below 2^63, else object (Python ints, unbounded).

    The same kernel lines run on either dtype; its callers read the results
    back as Python ints (`tolist`, `astype(object)`).
    """
    return np.int64 if bound < _INT64_LIMIT else object


def is_exact(x) -> bool:
    """True for scalars that support exact arithmetic (int or Fraction)."""
    return isinstance(x, (int, Fraction)) and not isinstance(x, bool)


def scalar_mode(values) -> tuple:
    """(mode, values): the scalar mode of some values, and the values as a tuple.

    numpy integer scalars are read (and returned) as `int`, other numpy
    floating scalars as `float`.  The mode is `int` when every value is an
    int, `Fraction` when every value is exact (`is_exact`), `float` when
    the others are floats, else `object` (bools too: held, never computed).
    """
    values = tuple(values)
    kinds = set(map(type, values))
    if not kinds.issubset((int, Fraction, float)):
        if any(issubclass(t, (np.integer, np.floating)) and not issubclass(t, float) for t in kinds):
            values = tuple(
                int(v) if isinstance(v, np.integer) else float(v) if isinstance(v, np.floating) else v for v in values
            )
            kinds = set(map(type, values))
        # the plain type each kind computes like: int or Fraction as in is_exact, then float
        kinds = {next((p for p in (int, Fraction, float) if issubclass(t, p) and t is not bool), object) for t in kinds}
    for mode in (object, float, Fraction):
        if mode in kinds:
            return mode, values
    return int, values


def integer_multiple(values) -> tuple:
    """(A, L): exact values (ints or `Fraction`s) times the lcm L of their
    denominators, A an object ndarray of Python ints with the values' shape."""
    array = np.asarray(values, dtype=object)
    flat = array.ravel().tolist()
    scale = math.lcm(*(v.denominator for v in flat))
    ints = [v.numerator * (scale // v.denominator) for v in flat]
    return np.array(ints, dtype=object).reshape(array.shape), scale


def values_close(a, b, tol: float | None = None) -> bool:
    """Equality test: bit-exact for rationals, relative tolerance for floats."""
    if tol is None:
        if is_exact(a) and is_exact(b):
            return a == b
        tol = DEFAULT_REL_TOL
    diff = abs(a - b)
    scale = max(1.0, abs(a), abs(b))
    return diff <= tol * scale


def parse_scalar(text, name: str, exact: bool = True):
    """Parse the JSON scalar field `name`: "p/q" or "p" strings, or numbers.

    Numbers are accepted in exact mode only when they are integral.  NaN, the
    infinities, a zero denominator and (in float mode) values beyond the float
    range are refused by a ValueError that starts with the field's name.
    """
    if isinstance(text, bool):
        raise ValueError(f"{name}: booleans are not scalars")
    if isinstance(text, float):
        if not math.isfinite(text):
            raise ValueError(f"{name}: non-finite float {text!r} is not a scalar")
        if not exact:
            return text
        if not text.is_integer():
            raise ValueError(f"{name}: non-integral float {text!r} in exact mode")
        text = int(text)
    if not isinstance(text, (str, int)):
        raise ValueError(f"{name}: cannot parse scalar from {text!r}")
    try:
        value = Fraction(text)
        return value if exact else float(value)
    except ZeroDivisionError:
        raise ValueError(f"{name}: zero denominator in {text!r}") from None
    except OverflowError:
        raise ValueError(f"{name}: {text!r} is beyond the float range") from None
    except ValueError as exc:
        raise ValueError(f"{name}: {exc}") from None


def parse_int(value, name: str) -> int:
    """A JSON integer field: an int (not a bool) or an integral float, as
    `parse_scalar` reads them in exact mode; else a ValueError naming the field."""
    if isinstance(value, float) and value.is_integer():
        return int(value)
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    raise ValueError(f"{name} must be an integer, got {value!r}")


def parse_list(value, name: str) -> list:
    """A JSON list field, or a ValueError naming the field."""
    if not isinstance(value, list):
        raise ValueError(f"'{name}' must be a JSON list, got a JSON {type(value).__name__}")
    return value


def parse_object(value, name: str) -> dict:
    """A JSON object field, or a ValueError naming the field."""
    if not isinstance(value, dict):
        raise ValueError(f"'{name}' must be a JSON object, got a JSON {type(value).__name__}")
    return value


def parse_rows(value, name: str, exact: bool = True) -> list:
    """A JSON list of lists of scalars (`parse_scalar`), or a ValueError naming the field."""
    rows = enumerate(parse_list(value, name))
    return [
        [parse_scalar(v, f"{name}[{i}][{j}]", exact) for j, v in enumerate(parse_list(row, f"{name}[{i}]"))]
        for i, row in rows
    ]


def format_scalar(x):
    """Serialize a scalar: "p/q" (or "p") for rationals, a JSON number for floats.

    Integers are written as a `Decimal`, which is exact at any size and, made
    from an int, has exponent 0, so its str is plain digits; the str of an int
    stops at Python's int-to-string digit limit (4,300 digits by default).
    """
    if is_exact(x):
        f = Fraction(x)
        return format_ratio(f.numerator, f.denominator)
    return float(x)


def format_ratio(numerator: int, denominator: int) -> str:
    """format_scalar(Fraction(numerator, denominator)) of two ints, denominator > 0,
    reduced by one gcd without building the Fraction."""
    g = math.gcd(numerator, denominator)
    if g != 1:
        numerator, denominator = numerator // g, denominator // g
    text = str(Decimal(numerator))
    return text if denominator == 1 else f"{text}/{Decimal(denominator)}"


def integer_nth_root(x: int, n: int) -> int | None:
    """Exact n-th root of a non-negative integer, or None if no integer root."""
    if x < 0:
        raise ValueError("negative radicand")
    if x in (0, 1):
        return x
    lo, hi = 1, 1 << ((x.bit_length() + n - 1) // n + 1)
    while lo < hi:
        mid = (lo + hi) // 2
        if mid**n < x:
            lo = mid + 1
        else:
            hi = mid
    return lo if lo**n == x else None


def fraction_nth_root(q, n: int):
    """Exact rational n-th root of a Fraction.

    Returns None when no rational root exists.  For even n the non-negative
    root is returned; a negative radicand with even n has no real root and
    also yields None.
    """
    q = Fraction(q)
    if n <= 0:
        raise ValueError("root order must be positive")
    sign = 1
    if q < 0:
        if n % 2 == 0:
            return None
        sign, q = -1, -q
    num = integer_nth_root(q.numerator, n)
    den = integer_nth_root(q.denominator, n)
    if num is None or den is None:
        return None
    return sign * Fraction(num, den)


def real_nth_root(x: float, n: int) -> float:
    """Real n-th root of a float; for even n the radicand must be >= 0."""
    if x < 0:
        if n % 2 == 0:
            raise ValueError("negative radicand with even root order")
        return -((-x) ** (1.0 / n))
    return x ** (1.0 / n)
