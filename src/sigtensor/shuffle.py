"""Shuffle products, shuffle linear forms, and the Lie/group-like tests.

The shuffle of two words is the sum over all interleavings; the induced
linear forms on a level tensor characterize Lie elements (all forms vanish)
and group-like elements (forms factor multiplicatively).

The tests evaluate the forms a whole level at a time.  For r + s = k, the
form <I ⧢ J, T> puts I on r positions P of a length-k word and J on the
rest, so every form at once is the (d^r, d^s) matrix

    F = sum over r-subsets P of transpose(T.cube, P + complement(P)),

reshaped, with C(k, r) terms.  T is Lie when every F is 0 and group-like
when F = outer(T_r, T_s).  `shuffle_words` and `shuffle_form_eval` keep the
word-by-word definition and report the value of a failing form.  They and
the normal-form levels read every shuffle from one enumerator, `_shuffle`.
"""

from __future__ import annotations

import collections
import functools
import itertools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .scalars import DEFAULT_REL_TOL, int_kind, values_close
from .tensor import LevelTensor, TensorSeries
from .words import index_word, word_index


@dataclass(frozen=True)
class WordCombination:
    """Sparse integer combination of equal-length words."""

    terms: dict

    def mass(self) -> int:
        """Sum of absolute coefficients; binomial(|I|+|J|, |I|) for a shuffle."""
        return sum(abs(c) for c in self.terms.values())

    def eval_on(self, tensor: LevelTensor):
        total = 0
        for word, coeff in self.terms.items():
            total = total + coeff * tensor.entries[word_index(word, tensor.d)]
        return total


@functools.lru_cache(maxsize=None)
def _shuffle(a: int, b: int) -> np.ndarray:
    """The C(a + b, a) interleavings of letters 0..a-1 with a..a+b-1, one row each: the output spot of
    every input letter (read-only int64; no Python objects, so untracked by gc).

    An entry is C(a + b, a) * (a + b) * 8 bytes, and a reader of level n asks for a + b <= n.  At the CLI
    entry cap (10**7 entries) a `check` witness at (2, 23) adds one entry of 249 MB, and a `normal-form`
    table at (2, 22) all 0 < a < a + b <= 22, 1.4 GB."""
    spots = range(a + b)
    rows = [(*places, *(p for p in spots if p not in places)) for places in itertools.combinations(spots, a)]
    out = np.array(rows, dtype=np.int64).reshape(len(rows), a + b)
    out.flags.writeable = False
    return out


def shuffle_words(left: Sequence[int], right: Sequence[int]) -> WordCombination:
    """Shuffle product of two words as a sparse combination, its words in ascending order."""
    word = (*left, *right)
    counts = collections.Counter()
    for spots in _shuffle(len(left), len(right)).tolist():
        out = [None] * len(word)
        for spot, letter in zip(spots, word):
            out[spot] = letter
        counts[tuple(out)] += 1
    return WordCombination(dict(sorted(counts.items())))


def shuffle_form_eval(left: Sequence[int], right: Sequence[int], tensor: LevelTensor):
    """Evaluate the shuffle linear form of a pair of words on a level tensor."""
    left, right = tuple(left), tuple(right)
    if len(left) + len(right) != tensor.k:
        raise ValueError(f"form of total length {len(left) + len(right)} on an order-{tensor.k} tensor")
    return shuffle_words(left, right).eval_on(tensor)


def _forms(cube: np.ndarray, r: int) -> np.ndarray:
    """Every form <I ⧢ J, T> with |I| = r, as one (d^r, d^(k-r)) matrix."""
    k = cube.ndim
    places = itertools.combinations(range(k), r)
    total = sum(np.transpose(cube, p + tuple(q for q in range(k) if q not in p)) for p in places)
    return total.reshape(cube.shape[0] ** r, -1)


def _first_violation(series: TensorSeries, tol: float | None, grouplike: bool):
    """First (I, J, form value) in scan order whose form breaks the law, or None.

    Scan order: total length, then |I| <= |J|, then I and J in index order,
    with I <= J when |I| = |J|.  With no tol (or tol 0, which asks for
    equality) and every level exact, the levels are read as their own
    integers T_k = A_k / L_k (`LevelTensor.as_integers`), and the group-like
    law is checked as F * L_r * L_s == A_r (x) A_s * L_k, both scales divided
    by their gcd.  A (k, r) step runs on int64 when both sides are certified
    below 2^63, by C(k, r) max|A_k| L_r L_s and max|A_r| max|A_s| L_k
    (`scalars.int_kind`), else on Python ints.  Otherwise every level is
    read as its `to_float()`, so an exact series checked with a positive tol
    is compared in floats.
    """
    d = series.d
    integers = not tol and all(lvl.is_exact() for lvl in series.levels[1:])

    @functools.cache
    def level(k):
        """(values, scale, bound): level k as A_k over L_k and max(1, max|A_k|), or as floats over 1."""
        if integers:
            values, scale = series.levels[k].as_integers()
            return values, scale, int(np.abs(values).max(initial=1))
        return series.levels[k].to_float().array, 1, 1

    for total in range(2, series.n + 1):
        top, top_scale, top_bound = level(total)
        for r in range(1, total // 2 + 1):
            rhs, rhs_scale, rhs_bound, kind = 0, 1, 0, float
            if grouplike:
                (a, a_scale, a_bound), (b, b_scale, b_bound) = level(r), level(total - r)
                rhs_scale, rhs_bound = a_scale * b_scale, a_bound * b_bound
            if integers:
                # F * L_r * L_s == (A_r (x) A_s) * L_total, both scales divided by their gcd; a form sums
                # C(total, r) entries of A_total, so no partial sum of either side reaches the bound
                g = math.gcd(rhs_scale, top_scale)
                form_scale, rhs_scale = rhs_scale // g, top_scale // g
                kind = int_kind(max(math.comb(total, r) * top_bound * form_scale, rhs_bound * rhs_scale))
            forms = _forms(top.astype(kind, copy=False).reshape((d,) * total), r)
            if grouplike:
                rhs = np.multiply.outer(a.astype(kind, copy=False), b.astype(kind, copy=False))
            if integers:
                miss = forms * form_scale != rhs * rhs_scale
            else:
                scale = np.maximum(np.maximum(abs(forms), abs(rhs)), 1.0)
                miss = ~(abs(forms - rhs) <= (DEFAULT_REL_TOL if tol is None else tol) * scale)
            hits = np.argwhere(np.triu(miss) if 2 * r == total else miss)
            if len(hits):
                i, j = hits[0].tolist()
                left, right = index_word(i, d, r), index_word(j, d, total - r)
                # the word-by-word sum, so a float value does not depend on the order summed above
                return left, right, shuffle_form_eval(left, right, series.levels[total])
    return None


def find_lie_violation(series: TensorSeries, tol: float | None = None):
    """First (I, J, value) with a nonvanishing shuffle form, or None."""
    if not values_close(series.constant_term, 0 * series.constant_term, tol):
        return ((), (), series.constant_term)
    return _first_violation(series, tol, grouplike=False)


def is_lie(series: TensorSeries, tol: float | None = None) -> bool:
    """True when the constant term is 0 and every shuffle linear form vanishes."""
    return find_lie_violation(series, tol) is None


def find_grouplike_violation(series: TensorSeries, tol: float | None = None):
    """First (I, J, form value, product value) breaking multiplicativity, or None."""
    one = series.constant_term
    if not values_close(one, 1 + 0 * one, tol):
        return ((), (), one, 1)
    violation = _first_violation(series, tol, grouplike=True)
    if violation is None:
        return None
    left, right, value = violation
    return (left, right, value, series.coefficient(left) * series.coefficient(right))


def is_grouplike(series: TensorSeries, tol: float | None = None) -> bool:
    """True when the constant term is 1 and shuffle forms factor as products."""
    return find_grouplike_violation(series, tol) is None
