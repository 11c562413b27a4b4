"""Property tests over random exact inputs: the level-product kernel, the
polynomial integration engine, the fraction-free elimination (also
against a plain-`Fraction` Gauss-Jordan oracle), the pfaffians, circuit
matrices and signature-matrix generators (against a first-row expansion
oracle, the determinant and congruence), every matrix function read alike
from rows, numpy arrays and order-2 levels, JSON round
trips, group-element recovery, the group-like/Lie correspondence, the
shuffle-law witnesses against a pair scan, the Chen product and its
callers in every scalar mode against the product and sum rules applied to
plain scalars, the closed-form multilinear
Jacobian (exact, in floats, and mod p against the exact one reduced), the
ranks of `jacobian_rank` against Bareiss, the mode contraction and the
Jacobian kernel in all three scalar modes against tensordot references,
the multilinear action
`tensor_congruence` against a word-by-word sum, and the closed-form
canonical cores against their word-by-word definitions."""

import itertools
import json
import math
import random
from fractions import Fraction
from unittest import mock

import numpy as np

from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import pytest

from sigtensor import (
    BrownianModel,
    DegenerateRecovery,
    LevelTensor,
    RecoveryFailed,
    TensorSeries,
    bracketing,
    canonical_axis,
    canonical_mono,
    circuit_matrix,
    concat_product,
    exact_det,
    exact_rank,
    expand_from_lyndon,
    exp_series,
    find_grouplike_violation,
    find_lie_violation,
    from_vector,
    gauss_newton_recover,
    is_grouplike,
    is_lie,
    jacobian_rank,
    log_series,
    lyndon_words,
    negate_odd_levels,
    pfaffian,
    pl_level_direct,
    pl_signature,
    pl_signature_congruence,
    poly_signature_congruence,
    poly_signature_integrate,
    project_level,
    recover_group_element,
    series_from_level,
    shuffle_form_eval,
    signature_map,
    signature_matrix_generators,
    tensor_congruence,
    zero_series,
)
from sigtensor import recovery
from sigtensor.dual import Dual
from sigtensor.lyndon import poly_from_json, poly_to_json
from sigtensor.paths import _mode_steps, _run
from sigtensor.matrices import (
    _PRIME,
    _eliminate,
    _read_matrix,
    _residues,
    is_signature_matrix,
    matrix_inverse,
    matrix_to_tensor,
    mono_slice_matrix,
    signature_matrix_witness,
    split_pencil,
)
from sigtensor.recovery import _core_level, _descend, _image_and_jacobian, _jacobian_residues, _kernel_point
from sigtensor.scalars import scalar_mode, values_close
from sigtensor.stochastic import drift_covariance_exponent
from sigtensor.words import all_words

from conftest import gamma

PROPERTY = settings(derandomize=True, deadline=None, max_examples=50, database=None)

rationals = st.builds(Fraction, st.integers(-5, 5), st.integers(1, 4))


@st.composite
def paths(draw, max_steps=4):
    """(steps, n): 1..max_steps exact steps in dimension d <= 3, truncation n <= 4."""
    d = draw(st.integers(1, 3))
    m = draw(st.integers(1, max_steps))
    n = draw(st.integers(1, 4))
    steps = draw(st.lists(st.lists(rationals, min_size=d, max_size=d), min_size=m, max_size=m))
    return steps, n


@st.composite
def lie_elements(draw):
    """Random rational combination of Lyndon bracketings with d <= 3, n <= 4."""
    d = draw(st.integers(1, 3))
    n = draw(st.integers(1, 4))
    series = zero_series(d, n)
    for word in lyndon_words(d, n).words:
        coeff = draw(rationals)
        if coeff:
            series = series.add(bracketing(word, d).truncate(n).scale(coeff))
    return series


@PROPERTY
@given(paths())
def test_chen_top_level_equals_both_independent_engines(path):
    steps, n = path
    top = pl_signature(steps, n).levels[n]
    assert top.entries == pl_level_direct(steps, n).entries
    assert top.entries == pl_signature_congruence(steps, n).entries
    assert not any(isinstance(v, float) for v in top.entries)


@PROPERTY
@given(paths(max_steps=3), st.data())
def test_chen_identity(path, data):
    steps, n = path
    d = len(steps[0])
    more = data.draw(st.lists(st.lists(rationals, min_size=d, max_size=d), min_size=1, max_size=3))
    assert concat_product(pl_signature(steps, n), pl_signature(more, n)) == pl_signature(steps + more, n)


@PROPERTY
@given(paths())
def test_float_signature_agrees_with_exact(path):
    steps, n = path
    approx = pl_signature([[float(v) for v in s] for s in steps], n)
    assert all(type(v) is float for lvl in approx.levels for v in lvl.entries)
    assert approx.equals(pl_signature(steps, n).to_float(), tol=1e-9)


@PROPERTY
@given(lie_elements())
def test_log_inverts_exp_on_lie_elements(lie):
    assert log_series(exp_series(lie)) == lie


# The level product and sum rules on plain Python scalars.  A level is (kind,
# values).  A pair of exact levels multiplies exactly, `int` only when both
# are; any other pair multiplies in floats, each exact value rounded by
# float().  `concat_product` reads both series in one kind, that of all their
# levels (each exact value rounded by float() when some level is float), and
# a level of it sums the products of its live pairs in order.


def _kind(kinds):
    return float if float in kinds else int if set(kinds) == {int} else Fraction


def _plain(series):
    return [scalar_mode(lvl.entries) for lvl in series.levels]


def _plain_product(a, b):
    kind = _kind({a[0], b[0]})
    return kind, [kind(x) * kind(y) for x in a[1] for y in b[1]]


def _plain_scale(level, c):
    if level[0] is float:
        return float, [float(c) * v for v in level[1]]
    return Fraction, [Fraction(v * c) for v in level[1]]


def _plain_graded(d, n, constant, zero):
    return [scalar_mode([constant])] + [scalar_mode([zero] * d**k) for k in range(1, n + 1)]


def _plain_concat(a, b, d):
    kind = _kind({lvl[0] for lvl in a + b})
    a, b = ([[kind(v) for v in values] for _, values in side] for side in (a, b))
    live = [[any(v != 0 for v in values) for values in side] for side in (a, b)]
    zero = 0.0 if kind is float else Fraction(0)
    levels = []
    for k in range(len(a)):
        terms = [[x * y for x in a[p] for y in b[k - p]] for p in range(k + 1) if live[0][p] and live[1][k - p]]
        total = terms[0] if terms else [zero] * d**k
        for term in terms[1:]:
            total = [s + v for s, v in zip(total, term)]
        levels.append(scalar_mode(total))
    return levels


# `exp_series` and `log_series` by Horner's rule on plain Python scalars.  p is
# levels 1..n of the series (of q - 1 for the logarithm); a float level anywhere,
# the constant term's included, makes every value float, each exact value and
# each coefficient rounded once by float().  H_n = c_n and H_r = c_r + p * H_(r+1)
# up to level n - r; level m of p * H sums the products p_j (x) H_(m-j) over
# j = 1..m in order, skipping all-zero levels (an all-zero H level is dropped),
# and a float result level is 0.0 + that sum, so none of its zeros is -0.0.


def _plain_horner(levels, d, constant, coefficients):
    n = len(levels) - 1
    kind = float if any(lvl[0] is float for lvl in levels) else Fraction
    p = [None] + [[kind(v) for v in values] if any(v != 0 for v in values) else None for _, values in levels[1:]]

    def times_p(h, m):
        terms = [[x * y for x in p[j] for y in h[m - j]] for j in range(1, m + 1) if p[j] and h[m - j]]
        total = terms[0] if terms else None
        for term in terms[1:]:
            total = [s + v for s, v in zip(total, term)]
        return total

    h = []
    for r in range(n, 0, -1):
        level = [[kind(coefficients[r - 1])]]
        for m in range(1, n - r + 1):
            total = times_p(h, m)
            level.append(total if total and any(v != 0 for v in total) else None)
        h = level
    zero = kind(0)
    result = [(kind, [zero + constant])]
    for k in range(1, n + 1):
        total = times_p(h, k)
        result.append((kind, [zero + v for v in total] if total else [zero] * d**k))
    return result


def _plain_exp(p, d):
    return _plain_horner(p, d, 1, [Fraction(1, math.factorial(r)) for r in range(1, len(p))])


def _plain_log(q, d):
    return _plain_horner(q, d, 0, [Fraction((-1) ** (r - 1), r) for r in range(1, len(q))])


def _plain_pl(steps, n, d):
    series = _plain_graded(d, n, Fraction(1), Fraction(0))
    steps = [scalar_mode(s) for s in steps]
    if any(kind is float for kind, _ in steps):
        series = [(float, [float(v) for v in values]) for _, values in series]
        steps = [(kind, [float(v) for v in values]) if kind is float else (kind, values) for kind, values in steps]
    for x in steps:
        exponential = [series[0]]
        for k in range(1, n + 1):
            exponential.append(_plain_scale(_plain_product(exponential[-1], x), Fraction(1, k)))
        series = _plain_concat(series, exponential, d)
    return series


def _reprs(levels):
    """Each entry's repr: its value, its type and the sign of a float zero."""
    return [[repr(v) for v in values] for _, values in levels]


_TYPED = {
    int: st.integers(-4, 4),
    Fraction: st.one_of(rationals, st.integers(-4, 4)),
    float: st.one_of(rationals.map(float), st.just(-0.0)),
}


@st.composite
def typed_series(draw, d, n, kinds, constants=None, live=None):
    """Levels 0..n in dimension d, each of one kind drawn from kinds, and about
    one in four all zero (every level outside `live`, if given); the constant
    term is drawn from constants if given."""
    levels = []
    for k in range(n + 1):
        kind = draw(st.sampled_from(kinds))
        zeros = draw(st.integers(0, 3)) == 0 or live is not None and k not in live
        scalars = st.just(kind(0)) if zeros else _TYPED[kind]
        levels.append(LevelTensor(d, k, draw(st.lists(scalars, min_size=d**k, max_size=d**k))))
    if constants is not None:
        levels[0] = LevelTensor(d, 0, [draw(st.sampled_from([c for c in constants if type(c) in kinds]))])
    return TensorSeries(d, n, levels)


@settings(derandomize=True, deadline=None, max_examples=150, database=None)
@given(
    st.integers(1, 3), st.integers(0, 4), st.sampled_from([(int, Fraction), (float,), (int, Fraction, float)]), st.data()
)
def test_chen_product_and_its_callers_follow_the_pair_and_sum_rules(d, n, kinds, data):
    a, b = data.draw(typed_series(d, n, kinds)), data.draw(typed_series(d, n, kinds))
    assert _reprs(_plain(concat_product(a, b))) == _reprs(_plain_concat(_plain(a), _plain(b), d))
    p = data.draw(typed_series(d, n, kinds, constants=(0, Fraction(0), 0.0, -0.0)))
    assert _reprs(_plain(exp_series(p))) == _reprs(_plain_exp(_plain(p), d))
    q = data.draw(typed_series(d, n, kinds, constants=(1, Fraction(1), 1.0)))
    assert _reprs(_plain(log_series(q))) == _reprs(_plain_log(_plain(q), d))
    step = st.lists(st.one_of(*(_TYPED[kind] for kind in kinds)), min_size=d, max_size=d)
    steps = data.draw(st.lists(st.one_of(step, st.just([0] * d)), max_size=3))
    assert _reprs(_plain(pl_signature(steps, n, d))) == _reprs(_plain_pl(steps, n, d))


@settings(derandomize=True, deadline=None, max_examples=60, database=None)
@given(
    st.integers(1, 3), st.integers(0, 6), st.sampled_from([(int, Fraction), (float,), (int, Fraction, float)]), st.data()
)
def test_exp_and_log_of_sparse_series_follow_the_pair_and_sum_rules(d, n, kinds, data):
    # only levels 1 and 2 live, as in `drift_covariance_exponent`; with level 1
    # zero, p^r vanishes below level 2r
    p = data.draw(typed_series(d, n, kinds, constants=(0, Fraction(0), 0.0, -0.0), live=(1, 2)))
    g = exp_series(p)
    assert _reprs(_plain(g)) == _reprs(_plain_exp(_plain(p), d))
    q = data.draw(typed_series(d, n, kinds, constants=(1, Fraction(1), 1.0), live=(1, 2)))
    for series in (q, g):
        assert _reprs(_plain(log_series(series))) == _reprs(_plain_log(_plain(series), d))


@settings(derandomize=True, deadline=None, max_examples=60, database=None)
@given(st.sampled_from([(1, 6), (2, 3), (2, 6), (3, 4), (3, 5)]), st.data())
def test_float_exp_and_log_are_within_a_rounding_bound_of_the_exact_series(shape, data):
    # Each entry of the float series is within (n + 2)^2 * 2^-52 * A of the exact entry (also
    # after its own rounding), where A is sum of |c_r| |p|^r at that word, |p| taken entrywise:
    # a term of an entry meets at most n input roundings, one coefficient rounding, n products
    # and n(n - 1) additions, and the exact entry one rounding, so K < (n + 2)^2 roundings in
    # all (Higham's gamma_K <= 2Ku).  The sum of powers that Horner's rule replaced meets it too.
    d, n = shape
    scalars = st.builds(Fraction, st.integers(-60, 60), st.integers(1, 9))
    levels = [[Fraction(0)]]
    for k in range(1, n + 1):
        zero = data.draw(st.integers(0, 4)) == 0
        levels.append([Fraction(0)] * d**k if zero else data.draw(st.lists(scalars, min_size=d**k, max_size=d**k)))
    p = TensorSeries(d, n, [LevelTensor(d, k, values) for k, values in enumerate(levels)])
    q = TensorSeries(d, n, [LevelTensor(d, 0, [1]), *p.levels[1:]])
    magnitudes = [(Fraction, [abs(v) for v in values]) for values in levels]
    for series, function, coefficients in (
        (p, exp_series, [Fraction(1, math.factorial(r)) for r in range(1, n + 1)]),
        (q, log_series, [Fraction(1, r) for r in range(1, n + 1)]),
    ):
        exact, floats = function(series), function(series.to_float())
        bound = _plain_horner(magnitudes, d, 0, coefficients)
        for k in range(n + 1):
            for e, f, a in zip(exact.levels[k].to_float().entries, floats.levels[k].entries, bound[k][1]):
                assert abs(Fraction(f) - Fraction(e)) <= (n + 2) ** 2 * Fraction(1, 2**52) * a, (k, f, e)


def _dyadic_levels(rng, d, n):
    """Levels 0..n of dyadic Fractions of up to 53 bits, exact in float64 (their products and sums are
    not): a constant term 0, 1 or any, and each level above all zero one time in five."""
    dyadic = lambda: Fraction(rng.randint(1 - 2**53, 2**53 - 1), 2 ** rng.randint(0, 60))
    levels = [[rng.choice([Fraction(0), Fraction(1), dyadic()])]]
    for k in range(1, n + 1):
        levels.append([Fraction(0)] * d**k if rng.randrange(5) == 0 else [dyadic() for _ in range(d**k)])
    return levels


@settings(derandomize=True, deadline=None, max_examples=60, database=None)
@given(st.integers(1, 3), st.integers(0, 5), st.integers(0, 2**16))
def test_float_concat_product_is_within_the_forward_error_bound(d, n, seed):
    """On dyadic series, exact in float64, each entry of level m of the float product differs from the
    exact one by at most gamma_K times the same entry of the exact product of the absolute-valued series
    (Higham, Accuracy and Stability of Numerical Algorithms, ch. 3), with K = m + 1: one product plus m
    additions, since the entry sums the m + 1 products x_j y_(m-j), j = 0..m.  A factor 1 adds no
    rounding, and an all-zero level no term."""
    rng = random.Random(seed)
    a, b = _dyadic_levels(rng, d, n), _dyadic_levels(rng, d, n)
    series = lambda levels: TensorSeries(d, n, [LevelTensor(d, k, v) for k, v in enumerate(levels)])
    exact = concat_product(series(a), series(b))
    floats = concat_product(series(a).to_float(), series(b).to_float())
    magnitudes = concat_product(*(series([[abs(v) for v in level] for level in c]) for c in (a, b)))
    for m in range(n + 1):
        bound = gamma(m + 1)
        assert floats.levels[m].holds_floats
        for f, e, s in zip(floats.levels[m].entries, exact.levels[m].entries, magnitudes.levels[m].entries):
            assert abs(Fraction(f) - e) <= bound * s, (m, f, e)


@st.composite
def polynomials(draw):
    """(rows, n): d <= 3 rows of 1..m <= 4 exact coefficients (ragged; all ints,
    all Fractions or mixed), truncation n <= 5."""
    d = draw(st.integers(1, 3))
    m = draw(st.integers(1, 4))
    n = draw(st.integers(0, 5))
    scalars = draw(st.sampled_from([rationals, st.integers(-5, 5), st.one_of(rationals, st.integers(-5, 5))]))
    rows = draw(st.lists(st.lists(scalars, min_size=1, max_size=m), min_size=d, max_size=d))
    return rows, n


def _typed(level):
    return [(v, type(v)) for v in level.entries]


@PROPERTY
@given(polynomials())
def test_polynomial_integration_agrees_with_congruence_floats_and_padding(case):
    rows, n = case
    m = max(map(len, rows))
    padded = [row + [Fraction(0)] * (m - len(row)) for row in rows]
    exact = poly_signature_integrate(rows, n)
    assert list(map(_typed, exact.levels)) == list(map(_typed, poly_signature_integrate(padded, n).levels))
    assert _typed(exact.levels[0]) == [(1, Fraction)]
    for k in range(1, n + 1):
        assert _typed(exact.levels[k]) == _typed(poly_signature_congruence(padded, k))
    approx = poly_signature_integrate([[float(c) for c in row] for row in rows], n)
    assert all(type(v) is float for lvl in approx.levels for v in lvl.entries)
    assert approx.equals(exact.to_float(), tol=1e-9)


@st.composite
def matrices(draw, rows, cols):
    """rows x cols rational matrix; in about half, every row is a combination
    of fewer rows (a product through a thinner inner dimension)."""
    if rows > 1 and cols > 1 and draw(st.booleans()):
        inner = draw(st.integers(1, min(rows, cols) - 1))
        left = draw(matrices(rows, inner))
        right = draw(matrices(inner, cols))
        return _product(left, right)
    return draw(st.lists(st.lists(rationals, min_size=cols, max_size=cols), min_size=rows, max_size=rows))


def _product(a, b):
    return [[sum((x * y for x, y in zip(row, col)), Fraction(0)) for col in zip(*b)] for row in a]


def _identity(n):
    return [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]


sizes = st.integers(1, 6)


@PROPERTY
@given(st.data())
def test_rank_of_transpose(data):
    a = data.draw(matrices(data.draw(sizes), data.draw(sizes)))
    assert exact_rank(a) == exact_rank([list(col) for col in zip(*a)])


@PROPERTY
@given(st.data())
def test_det_vanishes_exactly_below_full_rank_and_is_multiplicative(data):
    n = data.draw(sizes)
    a, b = data.draw(matrices(n, n)), data.draw(matrices(n, n))
    det_a = exact_det(a)
    assert type(det_a) is Fraction
    assert (det_a == 0) == (exact_rank(a) < n)
    assert exact_det(_product(a, b)) == det_a * exact_det(b)


@PROPERTY
@given(st.data())
def test_inverse_is_exact_or_singular(data):
    n = data.draw(sizes)
    a = data.draw(matrices(n, n))
    if exact_det(a) == 0:
        with pytest.raises(ValueError, match="singular"):
            matrix_inverse(a)
    else:
        assert _product(a, matrix_inverse(a)) == _identity(n)


def _gauss_jordan(rows):
    """(rank, det, inverse) of a matrix by Gauss-Jordan on plain `Fraction`s;
    det and inverse are None unless the matrix is square, inverse also when singular."""
    a = [[Fraction(v) for v in row] for row in rows]
    n_rows, n_cols = len(a), len(a[0])
    inverse = [[Fraction(int(i == j)) for j in range(n_rows)] for i in range(n_rows)]
    det, rank = Fraction(1), 0
    for col in range(n_cols):
        pivot = next((r for r in range(rank, n_rows) if a[r][col] != 0), None)
        if pivot is None:
            continue
        if pivot != rank:
            a[rank], a[pivot] = a[pivot], a[rank]
            inverse[rank], inverse[pivot] = inverse[pivot], inverse[rank]
            det = -det
        p = a[rank][col]
        det *= p
        a[rank] = [x / p for x in a[rank]]
        inverse[rank] = [x / p for x in inverse[rank]]
        for r in range(n_rows):
            if r != rank and a[r][col] != 0:
                f = a[r][col]
                a[r] = [x - f * y for x, y in zip(a[r], a[rank])]
                inverse[r] = [x - f * y for x, y in zip(inverse[r], inverse[rank])]
        rank += 1
    if n_rows != n_cols:
        return rank, None, None
    return rank, (det if rank == n_rows else Fraction(0)), (inverse if rank == n_rows else None)


_ENTRIES = {  # zeros are drawn often, so that pivots need row swaps
    "int": st.one_of(st.just(0), st.integers(-6, 6)),
    "Fraction": st.one_of(st.just(Fraction(0)), rationals),
    "float": st.one_of(st.just(0.0), st.integers(-24, 24).map(lambda v: v / 4)),  # dyadic: row sums are exact
}


@st.composite
def mixed_matrices(draw):
    """1..6 x 1..6 matrix of ints, Fractions or floats; some rows are forced to be
    integer combinations of two earlier rows."""
    rows, cols = draw(sizes), draw(sizes)
    entries = _ENTRIES[draw(st.sampled_from(sorted(_ENTRIES)))]
    a = draw(st.lists(st.lists(entries, min_size=cols, max_size=cols), min_size=rows, max_size=rows))
    for i in range(1, rows):
        if draw(st.booleans()):
            p, q = draw(st.integers(0, i - 1)), draw(st.integers(0, i - 1))
            s, t = draw(st.integers(-2, 2)), draw(st.integers(-2, 2))
            a[i] = [s * x + t * y for x, y in zip(a[p], a[q])]
    return a


@settings(PROPERTY, max_examples=150)
@given(mixed_matrices())
def test_elimination_agrees_with_a_fraction_gauss_jordan_oracle(a):
    rank, det, inverse = _gauss_jordan(a)
    assert exact_rank(a) == rank
    if det is None:
        return
    value = exact_det(a)
    assert value == det and type(value) is Fraction
    if inverse is None:
        with pytest.raises(ValueError, match="singular"):
            matrix_inverse(a)
    else:
        result = matrix_inverse(a)
        assert result == inverse and all(type(v) is Fraction for row in result for v in row)


@st.composite
def integer_matrices_near_the_prime(draw):
    """1..6 x 1..6 integer matrix, entries up to 2^70 in size or multiples of
    _PRIME; some rows are integer combinations of two earlier rows, and some of
    those are then moved by multiples of _PRIME (dependent mod p only); a column
    may be scaled by _PRIME."""
    rows, cols = draw(sizes), draw(sizes)
    entries = st.one_of(
        st.just(0), st.integers(-6, 6), st.integers(-(2**70), 2**70), st.integers(-3, 3).map(lambda v: v * _PRIME)
    )
    a = draw(st.lists(st.lists(entries, min_size=cols, max_size=cols), min_size=rows, max_size=rows))
    for i in range(1, rows):
        kind = draw(st.sampled_from(("free", "dependent", "dependent mod p")))
        if kind != "free":
            p, q = draw(st.integers(0, i - 1)), draw(st.integers(0, i - 1))
            s, t = draw(st.integers(-2, 2)), draw(st.integers(-2, 2))
            a[i] = [s * x + t * y for x, y in zip(a[p], a[q])]
        if kind == "dependent mod p":
            a[i] = [v + _PRIME * draw(st.integers(-2, 2)) for v in a[i]]
    if draw(st.booleans()):
        col = draw(st.integers(0, cols - 1))
        for row in a:
            row[col] *= _PRIME
    return a


@settings(PROPERTY, max_examples=150)
@given(integer_matrices_near_the_prime())
def test_rank_certified_mod_p_equals_the_bareiss_rank(a):
    assert exact_rank(a) == len(_eliminate(_read_matrix(a)[1]).pivots)


def _pfaffian_by_expansion(rows, idx):
    """Pfaffian of the principal submatrix on idx by expansion along its first row."""
    if not idx:
        return Fraction(1)
    first, rest = idx[0], idx[1:]
    total = 0
    for pos, j in enumerate(rest):
        if rows[first][j]:
            term = rows[first][j] * _pfaffian_by_expansion(rows, rest[:pos] + rest[pos + 1 :])
            total = total + term if pos % 2 == 0 else total - term
    return total


def _circuit_by_expansion(q, m):
    """circuit_matrix(q, m) from expanded sub-pfaffians."""
    columns = []
    for subset in itertools.combinations(range(len(q)), m + 1):
        col = [0] * len(q)
        for pos, i in enumerate(subset):
            col[i] = (-1) ** pos * _pfaffian_by_expansion(q, subset[:pos] + subset[pos + 1 :])
        columns.append(col)
    return [list(row) for row in zip(*columns)]


def _generators_by_expansion(s, m):
    """signature_matrix_generators(s, m) from expanded pfaffians: the 2-minors of P,
    the (m+1)-pfaffians (odd m) or (m+2)-pfaffians (even m) of Q, and for even m
    the entries of P C_m(Q)."""
    d = len(s)
    p = [[Fraction(s[i][j] + s[j][i], 2) for j in range(d)] for i in range(d)]
    q = [[Fraction(s[i][j] - s[j][i], 2) for j in range(d)] for i in range(d)]
    pairs = list(itertools.combinations(range(d), 2))
    values = [p[i][k] * p[j][l] - p[i][l] * p[j][k] for a, (i, j) in enumerate(pairs) for k, l in pairs[a:]]
    size = m + 1 if m % 2 else m + 2
    values += [_pfaffian_by_expansion(q, subset) for subset in itertools.combinations(range(d), size)]
    if m % 2 == 0 and m < d:
        circuit = _circuit_by_expansion(q, m)
        values += [sum(p[i][j] * circuit[j][c] for j in range(d)) for i in range(d) for c in range(len(circuit[0]))]
    return values


@st.composite
def skew_matrices(draw, sizes=(0, 2, 4, 6, 8), kinds=("int", "Fraction")):
    """Skew matrix of ints or Fractions with zeros drawn often (so that first
    pivots vanish); in about a third, one row and column are zero."""
    kind, s = draw(st.sampled_from(kinds)), draw(st.sampled_from(sizes))
    zero = Fraction(0) if kind == "Fraction" else 0
    q = [[zero] * s for _ in range(s)]
    for i, j in itertools.combinations(range(s), 2):
        q[i][j] = draw(_ENTRIES[kind])
        q[j][i] = -q[i][j]
    if s and draw(st.integers(0, 2)) == 0:
        i = draw(st.integers(0, s - 1))
        for j in range(s):
            q[i][j] = q[j][i] = zero
    return q


@settings(PROPERTY, max_examples=200)
@given(skew_matrices())
@example([[0, 0, 1, 2], [0, 0, 3, 4], [-1, -3, 0, 0], [-2, -4, 0, 0]])  # a zero first pivot
@example([[0, 0, 0, 0], [0, 0, 5, 1], [0, -5, 0, 2], [0, -1, -2, 0]])  # a zero first row
def test_pfaffian_equals_the_first_row_expansion(q):
    value = pfaffian(q)
    assert value == _pfaffian_by_expansion(q, tuple(range(len(q))))
    assert type(value) is (scalar_mode(v for row in q for v in row)[0] if q else Fraction)


@settings(PROPERTY, max_examples=30)
@given(skew_matrices(sizes=(2, 6, 10, 12, 14)))
def test_pfaffian_squares_to_the_determinant(q):
    assert pfaffian(q) ** 2 == exact_det(q)


@PROPERTY
@given(skew_matrices(sizes=(2, 4, 6)), st.data())
def test_pfaffian_of_a_congruence_scales_by_the_determinant(q, data):
    b = data.draw(matrices(len(q), len(q)))
    assert pfaffian(_product(_product(b, q), [list(col) for col in zip(*b)])) == exact_det(b) * pfaffian(q)


@PROPERTY
@given(skew_matrices(sizes=(2, 4, 6, 8), kinds=("Fraction",)))
def test_float_pfaffian_is_close_to_the_exact_one(q):
    exact = pfaffian(q)
    approx = pfaffian([[float(v) for v in row] for row in q])
    # |Pf|^2 = |det| <= the product of the row norms, the scale of an exact zero
    bound = math.sqrt(math.prod(math.hypot(*map(float, row)) for row in q))
    assert type(approx) is float and abs(approx - exact) <= 1e-9 * max(abs(exact), bound)


def _matrix_in_form(s, kind, form):
    """The matrix s as rows ("list"), a numpy array (int64 for ints), an order-2
    LevelTensor, or rows of floats ("float")."""
    if form == "numpy":
        return np.array(s, dtype=np.int64 if kind == "int" else object)
    if form == "level":
        return LevelTensor(len(s), 2, [v for row in s for v in row])
    return [[float(v) for v in row] for row in s] if form == "float" else s


@settings(PROPERTY, max_examples=80)
@given(
    st.integers(1, 7), st.sampled_from(("int", "Fraction")), st.sampled_from(("list", "numpy", "level", "float")), st.data()
)
def test_circuit_matrix_and_generators_equal_their_expansion(d, kind, form, data):
    s = data.draw(st.lists(st.lists(_ENTRIES[kind], min_size=d, max_size=d), min_size=d, max_size=d))
    m = data.draw(st.integers(1, d))
    values, expected = signature_matrix_generators(_matrix_in_form(s, kind, form), m), _generators_by_expansion(s, m)
    q = [[s[i][j] - s[j][i] for j in range(d)] for i in range(d)]
    even = m - m % 2
    circuit = circuit_matrix(_matrix_in_form(q, kind, form), even) if even < d else []
    inside = [[i in c for c in itertools.combinations(range(d), even + 1)] for i in range(d)] if even < d else []
    if form == "float":
        # floats of the same rationals: errors of a few ulps of the largest value
        exact = _circuit_by_expansion(q, even) if even < d else []
        scale = 1 + max(map(abs, expected + [v for row in exact for v in row]), default=0)
        assert len(values) == len(expected) and [len(row) for row in circuit] == [len(row) for row in exact]
        assert all(type(v) is float and abs(v - e) <= 1e-12 * scale for v, e in zip(values, expected))
        for row, exact_row, inside_row in zip(circuit, exact, inside):
            for v, e, at in zip(row, exact_row, inside_row):
                assert type(v) is (float if at else Fraction) and abs(v - e) <= 1e-12 * scale
        return
    assert values == expected and all(type(v) is Fraction for v in values)
    if even < d:
        assert circuit == _circuit_by_expansion(q, even)
        # int sub-pfaffians beside Fraction(0) off each column's subset; the empty pfaffian is Fraction(1)
        sub = int if kind == "int" and even else Fraction
        assert [[type(v) for v in row] for row in circuit] == [[sub if at else Fraction for at in r] for r in inside]


#: Every public function of `sigtensor.matrices` that reads a matrix, and whether it reads a skew one.
_MATRIX_READERS = {
    "exact_rank": (exact_rank, False),
    "exact_det": (exact_det, False),
    "matrix_inverse": (matrix_inverse, False),
    "split_pencil": (split_pencil, False),
    "matrix_to_tensor": (matrix_to_tensor, False),
    "is_signature_matrix": (lambda a: [is_signature_matrix(a, m) for m in (1, 2)], False),
    "signature_matrix_witness": (lambda a: [signature_matrix_witness(a, m) for m in (1, 2)], False),
    "signature_matrix_generators": (lambda a: [signature_matrix_generators(a, m) for m in (1, 2)], False),
    "pfaffian": (pfaffian, True),
    "circuit_matrix": (lambda a: circuit_matrix(a, 0), True),
}

#: The numpy dtypes a matrix may come in, and whether one holds a given entry exactly.
_DTYPES = {
    np.int64: lambda v: type(v) is int and -(2**63) <= v < 2**63,
    np.uint64: lambda v: type(v) is int and 0 <= v < 2**64,
    np.float64: lambda v: type(v) is float,
    object: lambda v: True,
}


def _typed_outcome(x):
    """x as nested (type, value) pairs, floats by their hex, a level by its shape and entries."""
    if isinstance(x, LevelTensor):
        return "level", x.d, x.k, _typed_outcome(x.entries)
    if isinstance(x, (list, tuple)):
        return [_typed_outcome(v) for v in x]
    if hasattr(x, "P"):  # a MatrixPencil
        return _typed_outcome((x.P, x.Q))
    return type(x), x.hex() if isinstance(x, float) else x


def _read_outcome(f, a):
    """_typed_outcome(f(a)), or the type and message of the ValueError it raised (a singular inverse)."""
    try:
        return _typed_outcome(f(a))
    except ValueError as error:
        return type(error), str(error)


def _matrix_forms(rows):
    """rows in every numpy dtype that holds them exactly, and as an order-2 LevelTensor."""
    values = [v for row in rows for v in row]
    arrays = [np.array(rows, dtype=t) for t, holds in _DTYPES.items() if all(map(holds, values))]
    return arrays + [LevelTensor(len(rows), 2, values)]


@settings(PROPERTY, max_examples=60)
@given(st.integers(1, 5), st.sampled_from(("int", "Fraction", "float")), st.data())
def test_every_matrix_function_reads_rows_arrays_and_levels_alike(d, kind, data):
    entries = st.one_of(_ENTRIES[kind], st.integers(0, 2**64 - 1)) if kind == "int" else _ENTRIES[kind]
    s = data.draw(st.lists(st.lists(entries, min_size=d, max_size=d), min_size=d, max_size=d))
    q = [[s[i][j] - s[j][i] for j in range(d)] for i in range(d)]
    for name, (f, skew) in _MATRIX_READERS.items():
        rows = q if skew else s
        want = _read_outcome(f, rows)
        for form in _matrix_forms(rows):
            assert _read_outcome(f, form) == want, (name, getattr(form, "dtype", "level"))


@pytest.mark.parametrize("name", list(_MATRIX_READERS))
@pytest.mark.parametrize(
    "entries", [[True, False, False, True], [Dual(0, (1,)), Dual(1, (0,))] * 2, ["0", "1", "-1", "0"]],
    ids=["bool", "dual", "string"],
)
def test_every_matrix_function_refuses_object_entries(name, entries):
    rows = [entries[:2], entries[2:]]
    for form in (rows, np.array(rows), np.array(rows, dtype=object), LevelTensor(2, 2, entries)):
        with pytest.raises(TypeError, match="kind object"):
            _MATRIX_READERS[name][0](form)


@PROPERTY
@given(st.data())
def test_kernel_point_exists_exactly_at_corank_one(data):
    cols = data.draw(st.integers(2, 6))
    a = data.draw(matrices(data.draw(sizes), cols))
    if exact_rank(a) != cols - 1:
        with pytest.raises(DegenerateRecovery):
            _kernel_point(a)
        return
    v = _kernel_point(a)
    assert any(v) and all(x.denominator == 1 for x in v)
    assert _product(a, [[x] for x in v]) == [[0]] * len(a)


@st.composite
def alphabet_shapes(draw, max_entries=200):
    """(d, k) with d <= 12 and at most max_entries entries per level."""
    d = draw(st.integers(1, 12))
    k = draw(st.integers(0, 4).filter(lambda k: d**k <= max_entries))
    return d, k


@PROPERTY
@given(alphabet_shapes(), st.data())
def test_json_round_trip_at_every_alphabet_size(shape, data):
    d, k = shape
    entries = data.draw(st.lists(rationals, min_size=d**k, max_size=d**k))
    level = LevelTensor(d, k, entries)
    assert LevelTensor.from_json(level.to_json()) == level
    assert LevelTensor.from_json(level.to_float().to_json()).equals(level.to_float())
    series = series_from_level(level)
    assert TensorSeries.from_json(series.to_json()) == series
    words = st.lists(st.integers(1, d), min_size=1, max_size=3).map(tuple)
    word = data.draw(words)
    monomials = st.lists(words, min_size=1, max_size=2).map(lambda m: tuple(sorted(m)))
    poly = data.draw(st.dictionaries(monomials, rationals.filter(bool), max_size=3))
    assert poly_from_json(poly_to_json(word, poly, d), d) == (word, poly)


@PROPERTY
@given(st.integers(1, 3), st.integers(1, 4), st.data())
def test_group_element_recovered_up_to_odd_level_negation(d, n, data):
    values = {w: data.draw(rationals) for w in lyndon_words(d, n).words}
    if not any(values[(i,)] for i in range(1, d + 1)):
        values[(d,)] = Fraction(1)
    g = expand_from_lyndon(values, d, n)
    tensor = project_level(g, n)
    assert recover_group_element(tensor, "rational").series in (g, negate_odd_levels(g))
    real = recover_group_element(tensor, "real").series
    assert any(real.equals(h.to_float(), tol=1e-9) for h in (g, negate_odd_levels(g)))


@PROPERTY
@given(st.integers(1, 3), st.integers(2, 4), st.data())
def test_grouplike_exactly_when_log_is_lie(d, n, data):
    values = {w: data.draw(rationals) for w in lyndon_words(d, n).words}
    g = expand_from_lyndon(values, d, n)
    assert is_grouplike(g) and is_lie(log_series(g))
    # Moving one entry of a level k >= 2 adds a non-Lie term to the degree-k
    # part of the logarithm, so neither predicate may hold any more.
    k = data.draw(st.integers(2, n))
    index = data.draw(st.integers(0, d**k - 1))
    entries = list(g.levels[k].entries)
    entries[index] += data.draw(rationals.filter(bool))
    levels = list(g.levels)
    levels[k] = LevelTensor(d, k, entries)
    moved = TensorSeries(d, n, levels)
    assert not is_grouplike(moved) and not is_lie(log_series(moved))


def _scan_violation(series, tol, grouplike, close=values_close):
    """Reference: the first failing pair of a scan over shuffle_form_eval.

    Pairs run by total length, then |I| <= |J|, then I and J in index
    order, skipping J < I when |I| = |J|.  `close(value, law, tol)` tells
    a form that keeps the law.
    """
    c = series.constant_term
    if not close(c, (1 if grouplike else 0) + 0 * c, tol):
        return ((), (), c, 1) if grouplike else ((), (), c)
    for total in range(2, series.n + 1):
        for r in range(1, total // 2 + 1):
            for left in all_words(series.d, r):
                for right in all_words(series.d, total - r):
                    if r == total - r and right < left:
                        continue
                    value = shuffle_form_eval(left, right, series.levels[total])
                    law = series.coefficient(left) * series.coefficient(right) if grouplike else 0 * value
                    if not close(value, law, tol):
                        return (left, right, value, law) if grouplike else (left, right, value)
    return None


@st.composite
def shuffle_law_cases(draw, floats=True):
    """(series, tol, grouplike): a group-like series or its log, d <= 3, n <= 5,
    maybe with one entry moved, exact (tol None) or, when floats is set, float
    (tol given)."""
    d, n = draw(st.integers(1, 3)), draw(st.integers(0, 5))
    steps = draw(st.lists(st.lists(rationals, min_size=d, max_size=d), min_size=1, max_size=3))
    grouplike = draw(st.booleans())
    series = pl_signature(steps, n) if grouplike else log_series(pl_signature(steps, n))
    if draw(st.booleans()):
        k = draw(st.integers(0, n))
        entries = list(series.levels[k].entries)
        entries[draw(st.integers(0, d**k - 1))] += draw(rationals.filter(bool))
        levels = list(series.levels)
        levels[k] = LevelTensor(d, k, entries)
        series = TensorSeries(d, n, levels)
    if floats and draw(st.booleans()):
        return series.to_float(), draw(st.sampled_from([1e-9, 1e-12])), grouplike
    return series, None, grouplike


@PROPERTY
@given(shuffle_law_cases())
def test_shuffle_law_witness_equals_the_pair_scan(case):
    series, tol, grouplike = case
    found = (find_grouplike_violation if grouplike else find_lie_violation)(series, tol)
    expected = _scan_violation(series, tol, grouplike)
    if tol is None or found is None or expected is None:
        assert found == expected
        assert found is None or [type(v) for v in found] == [type(v) for v in expected]
    else:
        assert found[:2] == expected[:2]
        assert found[2:] == pytest.approx(expected[2:], rel=1e-12)
    assert found is None or all(type(v) in (int, Fraction, float) for v in found[2:])


@PROPERTY
@given(shuffle_law_cases(floats=False), st.sampled_from([1e-12, 1e-9]), st.data())
def test_exact_series_with_a_tol_are_scanned_as_their_floats_with_exact_witnesses(case, tol, data):
    series, _, grouplike = case
    if series.n >= 1 and data.draw(st.booleans()):  # move one entry by about the tolerance
        k = data.draw(st.integers(1, series.n))
        entries = list(series.levels[k].entries)
        entries[data.draw(st.integers(0, series.d**k - 1))] += Fraction(
            data.draw(st.sampled_from([1, -1])), 10 ** data.draw(st.integers(8, 14))
        )
        levels = list(series.levels)
        levels[k] = LevelTensor(series.d, k, entries)
        series = TensorSeries(series.d, series.n, levels)
    find = find_grouplike_violation if grouplike else find_lie_violation
    found, in_floats = find(series, tol), find(series.to_float(), tol)
    assert find(series, 0.0) == find(series)  # tol 0 asks for equality: no float rounding
    assert (found is None) == (in_floats is None)
    if found is not None:
        left, right, value, *law = found
        assert (left, right) == in_floats[:2]
        assert all(type(v) in (int, Fraction) for v in found[2:])
        if left:
            assert value == shuffle_form_eval(left, right, series.levels[len(left) + len(right)])
            assert law in ([], [series.coefficient(left) * series.coefficient(right)])
        else:
            assert value == series.constant_term


def _close_by_rule(a, b, tol=None):
    """The float rule, restated: a non-finite value is close only to an equal one (inf to inf, nan to
    nothing), finite ones when |a - b| <= tol * max(1, |a|, |b|)."""
    if not (math.isfinite(a) and math.isfinite(b)):
        return a == b
    return abs(a - b) <= (1e-10 if tol is None else tol) * max(1.0, abs(a), abs(b))


NONFINITE = (math.inf, -math.inf, math.nan)


def test_values_close_holds_at_the_tolerance_on_each_side():
    # |a - b| = tol * max(1, |a|, |b|) exactly, with the max at 1, |a| and |b| in turn: close; and not with
    # the larger one an ulp further out, in the scalar and the array form alike
    pairs = [(0.5, 0.0), (4.0, 2.0), (2.0, 4.0)]
    up = lambda v: float(np.nextafter(v, math.inf))
    apart = [(up(0.5), 0.0), (up(4.0), 2.0), (2.0, up(4.0))]
    for rows, want in ((pairs, True), (apart, False)):
        assert [values_close(a, b, 0.5) for a, b in rows] == [want] * 3
        assert values_close(np.array([a for a, _ in rows]), np.array([b for _, b in rows]), 0.5).tolist() == [want] * 3


def test_nonfinite_floats_are_close_only_to_equal_values():
    inf, nan = math.inf, math.nan
    assert values_close(inf, inf) and values_close(-inf, -inf, 1e-3)
    assert not values_close(inf, -inf) and not values_close(nan, nan) and not values_close(inf, 5.0, 0.5)
    pairs = [(inf, inf), (-inf, -inf), (inf, -inf), (nan, nan), (inf, 5.0), (nan, 1.0), (1.0, 1.0 + 1e-12)]
    with np.errstate(invalid="ignore"):
        got = values_close(np.array([a for a, _ in pairs]), np.array([b for _, b in pairs]))
    assert got.tolist() == [values_close(a, b) for a, b in pairs] == [True, True, False, False, False, False, True]
    assert LevelTensor(1, 1, [inf]) != LevelTensor(1, 1, [5.0]) and not LevelTensor(1, 1, [inf]).is_zero()
    level = lambda k, v: LevelTensor(1, k, [v])
    assert not is_lie(TensorSeries(1, 2, [level(0, 0.0), level(1, 0.0), level(2, inf)]))
    with np.errstate(invalid="ignore"):
        assert not is_grouplike(TensorSeries(1, 2, [level(0, 1.0), level(1, 1.0), level(2, inf)]))


@PROPERTY
@given(
    st.integers(1, 2),
    st.integers(2, 4),
    st.booleans(),
    st.lists(st.tuples(st.integers(0, 2**16), st.sampled_from(NONFINITE)), min_size=1, max_size=3),
    st.sampled_from([None, 1e-9]),
    st.integers(0, 2**16),
)
@example(1, 2, True, [(2, math.inf)], None, 0)  # [1, x, inf]: inf is close to no product
@example(1, 2, True, [(1, math.inf), (2, math.inf)], None, 0)  # [1, inf, inf]: 2 inf is close to inf * inf
@example(2, 3, False, [(3, math.inf), (4, -math.inf)], 1e-9, 0)  # a form inf - inf is nan
def test_levels_with_nonfinite_floats_compare_by_the_rule(d, n, grouplike, spots, tol, seed):
    """±inf and nan placed in the float levels of a group-like series or its logarithm: `==`, `equals`,
    `is_zero`, `is_grouplike` and `is_lie` answer as the rule does on every entry or form."""
    rng = random.Random(seed)
    series = pl_signature([[Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(d)] for _ in range(2)], n)
    clean = (series if grouplike else log_series(series)).to_float()
    entries = [list(level.entries) for level in clean.levels]
    for spot, value in spots:
        spot %= sum(d**k for k in range(n + 1))
        k = next(k for k in range(n + 1) if spot < sum(d**j for j in range(k + 1)))
        entries[k][spot - sum(d**j for j in range(k))] = value
    poisoned = TensorSeries(d, n, [LevelTensor(d, k, e) for k, e in enumerate(entries)])
    rule = lambda x, y: all(_close_by_rule(u, v, tol) for u, v in zip(x.entries, y.entries))
    for a, b in ((poisoned, poisoned), (poisoned, clean), (clean, poisoned)):
        assert (a == b) is all(rule(x, y) for x, y in zip(a.levels, b.levels))
        for x, y in zip(a.levels, b.levels):
            assert (x == y) is rule(x, y) and x.equals(y, tol) is rule(x, y)
    for level in poisoned.levels:
        assert level.is_zero(tol) is all(_close_by_rule(v, 0.0, tol) for v in level.entries)
    with np.errstate(invalid="ignore"):  # numpy warns where a sum or difference of infinities is nan
        for law, check in ((True, is_grouplike), (False, is_lie)):
            assert check(poisoned, tol) is (_scan_violation(poisoned, tol, law, _close_by_rule) is None)


@PROPERTY
@given(st.integers(1, 3), st.integers(2, 5), st.data())
def test_descent_reads_level_one_as_the_direct_form_of_the_top_level(d, n, data):
    """Level 1 read down through every level along the letter a equals
    (n-1)!/sigma^(n-1) times the form ((i) ⧢ a^(n-1)) of the top level: its
    n one-axis slices, summed."""
    scalars = rationals | st.integers(-5, 5)
    top = LevelTensor(d, n, data.draw(st.lists(scalars, min_size=d**n, max_size=d**n)))
    sigma = data.draw(rationals.filter(bool))
    letter = data.draw(st.integers(1, d))
    rest = (letter,) * (n - 1)
    direct = [
        sum(top[rest[:p] + (i,) + rest[p:]] for p in range(n)) * math.factorial(n - 1) / sigma ** (n - 1)
        for i in range(1, d + 1)
    ]
    level = _descend(top, letter, sigma).levels[1]
    assert level.entries == tuple(direct)
    assert all(type(v) is Fraction for v in level.entries)


@PROPERTY
@given(st.integers(1, 3), st.integers(1, 4), st.data())
def test_series_built_from_floats_hold_only_floats_and_round_trip_through_json(d, n, data):
    floats = st.floats(-4, 4, allow_nan=False)
    vector = data.draw(st.lists(floats, min_size=d, max_size=d))
    k = data.draw(st.integers(0, n))
    level = LevelTensor(d, k, data.draw(st.lists(floats, min_size=d**k, max_size=d**k)))
    a = data.draw(st.lists(floats, min_size=d * d, max_size=d * d))
    sigma = tuple(tuple(a[min(i, j) * d + max(i, j)] for j in range(d)) for i in range(d))
    q = tuple(tuple(a[i * d + j] - a[j * d + i] for j in range(d)) for i in range(d))
    model = BrownianModel(tuple(vector), sigma, q)
    for series in (from_vector(vector, n), series_from_level(level, n), drift_covariance_exponent(model, n)):
        assert all(type(v) is float for lvl in series.levels for v in lvl.entries)
        text = json.dumps(series.to_json())
        assert json.dumps(TensorSeries.from_json(json.loads(text)).to_json()) == text


@st.composite
def family_points(draw, scalars=rationals):
    """(family, d x m point, k) with d, m, k in 1..4."""
    family = draw(st.sampled_from(["pl", "poly"]))
    d, m, k = draw(st.integers(1, 4)), draw(st.integers(1, 4)), draw(st.integers(1, 4))
    point = draw(st.lists(st.lists(scalars, min_size=m, max_size=m), min_size=d, max_size=d))
    return family, point, k


def _slope_weights(nodes):
    """Weights w with sum w_i p(nodes_i) the eps coefficient of any polynomial p
    of degree < len(nodes): the eps coefficients of the Lagrange basis."""
    weights = []
    for i, xi in enumerate(nodes):
        basis = [Fraction(1)]  # coefficients, constant first, of prod (eps - xj) / (xi - xj)
        for j, xj in enumerate(nodes):
            if j != i:
                shifted, scaled = [0] + basis, [xj * c for c in basis] + [0]
                basis = [(a - b) / (xi - xj) for a, b in zip(shifted, scaled)]
        weights.append(basis[1])
    return weights


@PROPERTY
@given(family_points())
def test_closed_form_jacobian_rows_are_interpolated_directional_derivatives(case):
    # eps -> core . (X + eps E_ab)^(x)k has degree k, so k + 1 rational values
    # give its eps coefficient, row a*m + b of the Jacobian, exactly
    family, point, k = case
    d, m = len(point), len(point[0])
    core = _core_level(family, m, k)
    _, jac = _image_and_jacobian(core.cube, np.array(point, dtype=object))
    nodes = [Fraction(j, 2) - 1 for j in range(k + 1)]
    weights = _slope_weights(nodes)
    for a in range(d):
        for b in range(m):
            images = []
            for eps in nodes:
                moved = [list(row) for row in point]
                moved[a][b] += eps
                images.append(tensor_congruence(core, moved).entries)
            slope = [sum(w * image[i] for w, image in zip(weights, images)) for i in range(d**k)]
            assert jac[a * m + b].tolist() == slope


#: Integers near 0, near +-_PRIME, and far past int64.
near_the_prime = st.one_of(
    st.integers(-6, 6),
    st.integers(_PRIME - 3, _PRIME + 3),
    st.integers(-_PRIME - 3, -_PRIME + 3),
    st.integers(-(2**70), 2**70),
)


def _integer_core(family, m, k):
    return _core_level(family, m, k).as_integers()[0].reshape((m,) * k)


@PROPERTY
@given(st.sampled_from(["pl", "poly"]), st.integers(1, 4), st.integers(1, 4), st.integers(1, 5), st.data())
def test_residue_jacobian_is_the_exact_jacobian_mod_p(family, d, k, m, data):
    core = _integer_core(family, m, k)
    rows = st.lists(st.lists(near_the_prime, min_size=m, max_size=m), min_size=d, max_size=d)
    point = np.array(data.draw(rows), dtype=object)
    residues = _jacobian_residues(core, point)
    assert residues.dtype == np.int64
    assert residues.tolist() == (_image_and_jacobian(core, point)[1] % _PRIME).tolist()


@PROPERTY
@given(
    st.sampled_from(["pl", "poly"]),
    st.integers(1, 5),
    st.integers(1, 4),
    st.integers(1, 5),
    st.integers(1, 3),
    st.integers(0, 2**16),
)
def test_jacobian_rank_is_the_best_bareiss_rank_over_its_seeds(family, d, k, m, seed_count, seed):
    assume(d**k <= 256)
    points = []

    def recorded(core, point):
        points.append(point)
        return _jacobian_residues(core, point)

    with mock.patch.object(recovery, "_jacobian_residues", recorded):
        report = jacobian_rank(family, d, k, m, seed_count=seed_count, seed=seed)
    core = _integer_core(family, m, k)
    ranks = [len(_eliminate(_image_and_jacobian(core, point)[1]).pivots) for point in points]
    assert report.rank == max(ranks)
    # a seed is skipped only after one reached the full rank, which none can exceed
    assert len(points) == seed_count or report.rank == min(d * m, d**k)


@pytest.mark.parametrize("m", [127, 130])
def test_residue_jacobian_at_and_past_the_int64_bound(m):
    # every residue is p - 1, so each contraction sums m products (p - 1)^2:
    # under 2^63 at m = 127, past it at m = 130 (guarded by the exact path),
    # and two unreduced partials summed at m = 127 would pass it too
    core = np.full((m, m), -1, dtype=object)
    point = np.full((1, m), -1, dtype=object)
    moduli, kernel = [], recovery._image_and_jacobian
    with mock.patch.object(recovery, "_image_and_jacobian", lambda c, x, p=None: moduli.append(p) or kernel(c, x, p)):
        assert _jacobian_residues(core, point).tolist() == [[2 * m]] * m
    assert moduli == [_PRIME if m <= 127 else None]  # the int64 kernel runs up to its bound, not only below it


# --- the multilinear kernels against tensordot references ---


def _ref_contract(t, x, axis):
    """Mode `axis` of t times x, by tensordot and moveaxis."""
    return np.moveaxis(np.tensordot(x, t, axes=([1], [axis])), 0, axis)


def _ref_jacobian(partials, x):
    """The Jacobian with partial p added, for each letter a, where letter p is a, in mode order."""
    d, m = x.shape
    k = len(partials)
    jac = np.zeros((d, m) + (d,) * k, dtype=x.dtype)
    for p, t in enumerate(partials):
        for a in range(d):
            jac[(a, slice(None)) + (slice(None),) * p + (a,)] += np.moveaxis(t, p, 0)
    return jac.reshape(d * m, d**k)


def _ref_image_and_jacobian(core, x):
    """Image and Jacobian with each of the k partials contracted on its own
    k - 1 modes, and placed entry by entry."""
    k = core.ndim
    partials = []
    for p in range(k):
        t = core
        for q in range(k):
            if q != p:
                t = _ref_contract(t, x, q)
        partials.append(t)
    return _ref_contract(partials[0], x, 0).reshape(-1), _ref_jacobian(partials, x)


def _contract(t, x, axis):
    """Mode `axis` of t times x, in place of it: x times the (before, m, after) stack of m x after slices,
    or for the last mode the (before, m) matrix times x^T, reshaped back (the package's rule, restated)."""
    shape = t.shape
    if axis == t.ndim - 1:
        out = t.reshape(-1, shape[axis]) @ x.T
    else:
        out = np.matmul(x, t.reshape(math.prod(shape[:axis]), shape[axis], math.prod(shape[axis + 1 :])))
    return out.reshape(shape[:axis] + (x.shape[0],) + shape[axis + 1 :])


def _one_mode_product(t, x, axis):
    """`paths._run` of the one `_mode_steps` step on mode `axis`, in the shape `_mode_steps` returns."""
    steps, shape = _mode_steps(t.shape, (axis,), x.shape[0], 0, 1)
    return _run(steps, t, x)[1].reshape(shape)


def _halving_image_and_jacobian(core, x):
    """Image and Jacobian with the partials found by halving the modes,
    recursively, one `_contract` per mode, and placed entry by entry."""

    def partials(t, modes):
        if len(modes) == 1:
            return [t]
        half, out = len(modes) // 2, []
        for keep, drop in ((modes[:half], modes[half:]), (modes[half:], modes[:half])):
            s = t
            for axis in drop:
                s = _contract(s, x, axis)
            out += partials(s, keep)
        return out

    found = partials(core, range(core.ndim))
    return _contract(found[0], x, 0).reshape(-1), _ref_jacobian(found, x)


def _typed_entries(array):
    return [(type(v), v) for v in array.flat]


#: Seeded entries in the three scalar modes of the kernels, by name.
SCALAR_ENTRIES = {
    "float": lambda rng: rng.uniform(-2, 2),
    "exact": lambda rng: rng.choice([Fraction(rng.randint(-9, 9), rng.randint(1, 4)), rng.randint(-(2**70), 2**70)]),
    "residue": lambda rng: rng.randint(0, _PRIME - 1),
}


def _seeded_array(mode, shape, seed):
    rng = random.Random(seed)
    dtype = {"float": np.float64, "exact": object, "residue": np.int64}[mode]
    return np.array([SCALAR_ENTRIES[mode](rng) for _ in range(math.prod(shape))], dtype=dtype).reshape(shape)


@PROPERTY
@given(
    st.sampled_from(sorted(SCALAR_ENTRIES)),
    st.lists(st.integers(1, 4), min_size=1, max_size=5),
    st.integers(0, 4),
    st.integers(1, 4),
    st.integers(0, 2**16),
)
@example("exact", [3], 0, 1, 0)  # k = 1, d = 1
@example("residue", [2, 1, 3], 1, 4, 0)  # m = 1
@example("float", [4, 4, 4, 4, 4], 4, 4, 0)
def test_contract_equals_tensordot_on_every_axis(mode, shape, axis, d, seed):
    axis %= len(shape)
    t, x = _seeded_array(mode, shape, seed), _seeded_array(mode, (d, shape[axis]), seed + 1)
    got, want = _one_mode_product(t, x, axis), _ref_contract(t, x, axis)
    assert got.shape == want.shape == tuple(shape[:axis]) + (d,) + tuple(shape[axis + 1 :])
    assert got.dtype == want.dtype
    if mode == "float":
        assert np.allclose(got, want, rtol=1e-12, atol=1e-12)
    else:  # object results hold Python ints and Fractions, never numpy scalars
        assert _typed_entries(got) == _typed_entries(want)
        assert mode == "residue" or all(type(v) in (int, Fraction) for v in got.flat)


def test_contract_of_python_ints_holds_python_ints():
    t = np.array([[2**70, -3], [5, 7]], dtype=object)
    x = np.array([[1, 2], [3, 4], [5, 6]], dtype=object)
    for axis in (0, 1):
        assert all(type(v) is int for v in _one_mode_product(t, x, axis).flat)


@PROPERTY
@given(st.sampled_from(["pl", "poly"]), st.integers(1, 4), st.integers(1, 4), st.integers(1, 5), st.integers(0, 2**16))
@example("pl", 3, 2, 1, 0)  # k = 1
@example("poly", 1, 4, 4, 0)  # d = 1
@example("pl", 4, 1, 5, 0)  # m = 1
def test_image_and_jacobian_equal_the_partial_by_partial_reference(family, d, m, k, seed):
    assume(d**k * d * m <= 4096)
    level = _core_level(family, m, k)
    rng = random.Random(seed)
    point = [[Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(m)] for _ in range(d)]
    # exact: Fractions in, the same values of the same types out
    x = np.array(point, dtype=object)
    got, want = _image_and_jacobian(level.cube, x), _ref_image_and_jacobian(level.cube, x)
    for g, w in zip(got, want):
        assert g.shape == w.shape and _typed_entries(g) == _typed_entries(w)
    # residues: the exact integer kernel reduced mod p
    core, ints = _integer_core(family, m, k), np.array([[int(v * 12) for v in row] for row in point], dtype=object)
    residues = _image_and_jacobian(_residues(core), _residues(ints), _PRIME)
    for g, w in zip(residues, _ref_image_and_jacobian(core, ints)):
        assert g.dtype == np.int64 and g.tolist() == (w % _PRIME).tolist()
    # floats: within 1e-12 of the largest entry
    x = np.array(point, dtype=float)
    for g, w in zip(_image_and_jacobian(level.to_float().cube, x), _ref_image_and_jacobian(level.to_float().cube, x)):
        assert g.dtype == np.float64 and np.allclose(g, w, rtol=1e-12, atol=1e-12 * max(1.0, np.abs(w).max()))
    # the same products, summed in the same order, as the modes halved recursively: equal bit for bit
    for g, w in zip(_image_and_jacobian(level.to_float().cube, x), _halving_image_and_jacobian(level.to_float().cube, x)):
        assert g.shape == w.shape and g.tobytes() == w.tobytes()


@PROPERTY
@given(st.sampled_from(["pl", "poly"]), st.integers(1, 4), st.integers(1, 4), st.integers(1, 5), st.integers(0, 2**16))
@example("pl", 3, 2, 1, 0)  # k = 1
@example("poly", 1, 4, 4, 0)  # d = 1
@example("pl", 4, 1, 5, 0)  # m = 1
def test_float_image_and_jacobian_lie_within_the_forward_error_bound(family, d, m, k, seed):
    """On a dyadic point, exact in float64, the float kernel differs from the
    exact kernel by at most gamma_K times the exact kernel run on |core| and
    |X| (Higham, Accuracy and Stability of Numerical Algorithms, ch. 3).  K counts
    the roundings on the longest path: the core's to_float() rounds each entry
    once, and a contraction sums m products, m roundings in any order.  So the
    image, after k contractions, has K = k m + 1.  A partial, after k - 1, has
    (k - 1) m + 1, and up to k partials are added at one Jacobian position, onto
    an exact zero: K = (k - 1) m + k."""
    assume(d**k * d * m <= 4096)
    level = _core_level(family, m, k)
    rng = random.Random(seed)
    point = np.array([[Fraction(rng.randint(-64, 64), 2 ** rng.randint(0, 6)) for _ in range(m)] for _ in range(d)])
    floats = _image_and_jacobian(level.to_float().cube, point.astype(float))
    exact = _image_and_jacobian(level.cube, point)
    absolute = _image_and_jacobian(np.abs(level.cube), np.abs(point))
    for got, want, size, count in zip(floats, exact, absolute, (k * m + 1, (k - 1) * m + k)):
        assert got.dtype == np.float64 and got.shape == want.shape
        bound = gamma(count)
        assert all(abs(Fraction(g) - w) <= bound * a for g, w, a in zip(got.flat, want.flat, size.flat))


@PROPERTY
@given(family_points(), st.integers(1, 3), st.data())
def test_signature_map_of_duals_equals_dual_congruence(case, width, data):
    # the congruence of the Duals X + eps E_t, E_t holding tangent t of each entry, is the
    # value of core . X^(x)k and its eps coefficient: read off k + 1 rational nodes, as above
    family, point, k = case
    d, m = len(point), len(point[0])
    tangents = st.lists(rationals, min_size=width, max_size=width).map(tuple)
    matrix = [[Dual(v, data.draw(tangents)) for v in row] for row in point]
    duals = signature_map(family, matrix, k)
    core = _core_level(family, m, k)
    assert all(isinstance(e, Dual) for e in duals.entries)
    assert [e.a for e in duals.entries] == list(tensor_congruence(core, point).entries)
    nodes = [Fraction(j, 2) - 1 for j in range(k + 1)]
    weights = _slope_weights(nodes)
    for t in range(width):
        images = [
            tensor_congruence(core, [[v.a + eps * v.b[t] for v in row] for row in matrix]).entries for eps in nodes
        ]
        slope = [sum(w * image[i] for w, image in zip(weights, images)) for i in range(d**k)]
        assert [e.b[t] for e in duals.entries] == slope


@PROPERTY
@given(st.sampled_from(["pl", "poly"]), st.integers(1, 4), st.integers(3, 4), st.data())
def test_gauss_newton_counts_random_starts_only(family, d, k, data):
    shift = st.floats(-0.3, 0.3)
    x = np.eye(d) + np.array([[data.draw(shift) for _ in range(d)] for _ in range(d)])
    target = signature_map(family, x.tolist(), k)
    # Every start is random, so restarts=1 runs one solve.  Near the identity
    # at k = 4 and d <= 3 it converges (at k = 3 or d = 4 it misses on some
    # targets); a miss reports that one start, which has left the origin.
    try:
        result = gauss_newton_recover(family, d, d, k, target, restarts=1)
    except RecoveryFailed as info:
        assert not (k == 4 and d <= 3)
        assert str(info).endswith("with restarts=1") and info.matrix.any() and 0 < info.residual
        return
    assert result.restarts_used == 1 and result.residual < 1e-10


# --- exact levels as integers over one denominator, against word-by-word Fractions ---


def _ref_outer(a, b):
    """Word-by-word outer product of two flat levels in base-d word order."""
    return [x * y for x in a for y in b]


def _ref_concat(a, b, d):
    """Truncated concatenation product on lists of flat levels.  As documented
    for concat_product: both inputs are read in one kind (floats when an input
    holds floats, else ints when all values are ints, else Fractions), pairs
    with an all-zero side are skipped, and a level with no pair left is 0.0
    when an input holds floats, else Fraction(0)."""
    kind = scalar_mode([v for level in a + b for v in level])[0]
    a, b = ([[kind(v) for v in level] for level in s] for s in (a, b))
    zero = 0.0 if kind is float else Fraction(0)
    out = []
    for k in range(len(a)):
        acc = None
        for p in range(k + 1):
            if any(a[p]) and any(b[k - p]):
                term = _ref_outer(a[p], b[k - p])
                acc = term if acc is None else [x + y for x, y in zip(acc, term)]
        out.append([zero] * d**k if acc is None else acc)
    return out


def _ref_add(a, b):
    return [[x + y for x, y in zip(u, v)] for u, v in zip(a, b)]


def _ref_scale(a, c):
    return [[c * x for x in u] for u in a]


def _ref_graded(d, n, constant):
    return [[constant]] + [[Fraction(0)] * d**k for k in range(1, n + 1)]


def _ref_exp(p, d):
    n = len(p) - 1
    result = term = _ref_graded(d, n, Fraction(1))
    for r in range(1, n + 1):
        term = _ref_scale(_ref_concat(term, p, d), Fraction(1, r))
        result = _ref_add(result, term)
    return result


def _ref_log(q, d):
    n = len(q) - 1
    power = _ref_graded(d, n, Fraction(1))
    shifted = _ref_add(q, _ref_scale(power, -1))
    result = _ref_graded(d, n, Fraction(0))
    for r in range(1, n + 1):
        power = _ref_concat(power, shifted, d)
        result = _ref_add(result, _ref_scale(power, Fraction((-1) ** (r - 1), r)))
    return result


def _typed_levels(levels):
    return [[(v, type(v)) for v in level] for level in levels]


@st.composite
def flat_levels(draw, d, k, styles=("zero", "int", "fraction")):
    """All-zero (int or Fraction zeros), all-int, all-Fraction or all-float entries of one level."""
    style = draw(st.sampled_from(styles))
    if style == "zero":
        return [draw(st.sampled_from([0, Fraction(0)]))] * d**k
    values = {"int": st.integers(-4, 4), "fraction": rationals, "float": st.floats(-2, 2)}[style]
    return draw(st.lists(values, min_size=d**k, max_size=d**k))


_PAIR_STYLES = {
    "exact": ("zero", "int", "fraction"),
    "float": ("float",),
    "mixed": ("zero", "int", "fraction", "float"),
}


@st.composite
def series_pairs(draw, modes=("exact",)):
    """(d, a, b): two lists of flat levels 0..n with d <= 3, n <= 5, every
    level drawn from the styles of one mode (exact, float or mixed)."""
    d, n = draw(st.integers(1, 3)), draw(st.integers(1, 5))
    styles = _PAIR_STYLES[draw(st.sampled_from(modes))]
    pair = [[draw(flat_levels(d, k, styles)) for k in range(n + 1)] for _ in range(2)]
    return d, pair[0], pair[1]


def _as_series(levels, d):
    return TensorSeries(d, len(levels) - 1, [LevelTensor(d, k, lvl) for k, lvl in enumerate(levels)])


def _entries(series):
    return [lvl.entries for lvl in series.levels]


def _series_typed(series):
    return _typed_levels(_entries(series))


def _assert_matches(got, want, exact_sums):
    """Typed entries equal (bit for bit on floats) when the sums are computed in one
    scalar mode; else the same types and values within 1e-12 relative."""
    got, want = _typed_levels(got), _typed_levels(want)
    if exact_sums:
        assert got == want
        return
    assert [[t for _, t in level] for level in got] == [[t for _, t in level] for level in want]
    assert all(values_close(x, y, 1e-12) for g, w in zip(got, want) for (x, _), (y, _) in zip(g, w))


@PROPERTY
@given(series_pairs(("exact", "float", "mixed")), st.sampled_from([3, -2, Fraction(2, 3), Fraction(-5, 4), 0]))
def test_integer_levels_match_word_by_word_fractions(case, c):
    d, a, b = case
    x, y = _as_series(a, d), _as_series(b, d)
    assert _typed_levels(_entries(concat_product(x, y))) == _typed_levels(_ref_concat(a, b, d))
    # in a mixed sum every exact term enters as its float; the reference adds
    # exact terms exactly until it meets a float one
    one_mode = len({isinstance(v, float) for level in a + b for v in level if v}) < 2
    _assert_matches(_entries(x.add(y)), _ref_add(a, b), one_mode)
    assert _series_typed(x.scale(c)) == _typed_levels(_ref_scale(a, c))
    assert _series_typed(x.negate()) == _typed_levels(_ref_scale(a, -1))
    top = len(a) - 1
    product = x.levels[1].tensor_product(y.levels[top])
    assert _typed_levels([product.entries]) == _typed_levels([_ref_outer(a[1], b[top])])
    if product.is_exact():
        # the level's own integers carry the same values
        numerators, denominator = product.as_integers()
        assert [Fraction(v, denominator) for v in numerators.tolist()] == list(product.entries)


@PROPERTY
@given(series_pairs())
def test_integer_exp_and_log_match_word_by_word_fractions(case):
    d, a, b = case
    p = [[Fraction(0)]] + a[1:]
    q = [[b[0][0] * 0 + 1]] + b[1:]
    assert _series_typed(exp_series(_as_series(p, d))) == _typed_levels(_ref_exp(p, d))
    assert _series_typed(log_series(_as_series(q, d))) == _typed_levels(_ref_log(q, d))


# --- the multilinear action, against a word-by-word sum ---

_SCALARS = {
    "int": st.integers(-4, 4),
    "fraction": rationals,
    "mixed": st.integers(-4, 4) | rationals,
    "float": st.floats(-2, 2),
    "zero": st.sampled_from([0, Fraction(0)]),
}


@st.composite
def congruence_cases(draw):
    """(core, matrix): an order-k core over m letters and a d x m matrix with
    d, m in 1..4 and k in 0..4, each filled from its own scalar style."""
    d, m, k = draw(st.integers(1, 4)), draw(st.integers(1, 4)), draw(st.integers(0, 4))
    core_values, matrix_values = (_SCALARS[draw(st.sampled_from(sorted(_SCALARS)))] for _ in range(2))
    core = draw(st.lists(core_values, min_size=m**k, max_size=m**k))
    matrix = draw(st.lists(st.lists(matrix_values, min_size=m, max_size=m), min_size=d, max_size=d))
    return LevelTensor(m, k, core), matrix


def _reference_congruence(core, matrix):
    """Entry j1..jk as the sum over words i1..ik of core(i) * X[j1, i1] ... X[jk, ik]."""
    out = []
    for word in all_words(len(matrix), core.k):
        total = 0
        for inner in all_words(core.d, core.k):
            term = core[inner]
            for j, i in zip(word, inner):
                term = term * matrix[j - 1][i - 1]
            total = total + term
        out.append(total)
    return out


@PROPERTY
@given(congruence_cases())
def test_tensor_congruence_equals_the_word_by_word_sum(case):
    core, matrix = case
    image = tensor_congruence(core, matrix)
    expected = _reference_congruence(core, matrix)
    # the matrix acts on k >= 1 modes; an order-0 core is returned as it is
    values = list(core.entries) + ([v for row in matrix for v in row] if core.k else [])
    if any(isinstance(v, float) for v in values):
        assert all(type(v) is float for v in image.entries)
        assert np.allclose(image.entries, [float(v) for v in expected], rtol=1e-9, atol=1e-9)
    else:
        scalar = int if all(type(v) is int for v in values) else Fraction
        assert list(image.entries) == expected
        assert all(type(v) is scalar for v in image.entries)


@PROPERTY
@given(family_points(scalars=st.integers(-4, 4) | rationals))
def test_exact_signature_map_is_the_congruence_of_the_core(case):
    family, point, k = case
    m = len(point[0])
    core = canonical_axis(m, k) if family == "pl" else canonical_mono(m, k)
    image, congruence = signature_map(family, point, k), tensor_congruence(core, point)
    assert [(v, type(v)) for v in image.entries] == [(v, type(v)) for v in congruence.entries]
    assert image.is_exact()


def _axis_by_words(m, k):
    """Axis core word by word: 0 off weakly increasing words, else 1 over the
    product of the letter-multiplicity factorials."""
    entries = []
    for word in all_words(m, k):
        if any(a > b for a, b in zip(word, word[1:])):
            entries.append(Fraction(0))
            continue
        denominator, run = 1, 1
        for a, b in zip(word, word[1:]):
            run = run + 1 if a == b else 1
            denominator *= run
        entries.append(Fraction(1, denominator))
    return entries


def _mono_by_words(m, k):
    """Monomial core word by word: the product of letter / prefix sum."""
    entries = []
    for word in all_words(m, k):
        value, partial = Fraction(1), 0
        for letter in word:
            partial += letter
            value *= Fraction(letter, partial)
        entries.append(value)
    return entries


@PROPERTY
@given(st.integers(1, 5), st.integers(1, 6), st.integers(1, 8), paths(max_steps=5), st.data())
def test_closed_form_cores_match_their_word_by_word_definitions_and_are_cached(m, k, d, path, data):
    for build, reference in ((canonical_axis, _axis_by_words), (canonical_mono, _mono_by_words)):
        core, expected = build(m, k), reference(m, k)
        assert [(v, type(v)) for v in core.entries] == [(v, type(v)) for v in expected]
        (numerators, denominator), (want, want_denominator) = core.as_integers(), LevelTensor(m, k, expected).as_integers()
        assert (numerators.tolist(), denominator) == (want.tolist(), want_denominator)
    old_slice = [[Fraction(j * i, (j + 1) * (j + i + 1)) for i in range(1, d + 1)] for j in range(1, d + 1)]
    assert [[(v, type(v)) for v in row] for row in mono_slice_matrix(d)] == [
        [(v, type(v)) for v in row] for row in old_slice
    ]
    # a second congruence at the same (m, k) reads the cached core
    steps, order = path
    dim = len(steps[0])
    coeffs = data.draw(st.lists(st.lists(rationals, min_size=m, max_size=m), min_size=dim, max_size=dim))
    for engine, argument in ((pl_signature_congruence, steps), (poly_signature_congruence, coeffs)):
        first = engine(argument, order)
        before = _core_level.cache_info()
        assert engine(argument, order) == first
        after = _core_level.cache_info()
        assert (after.hits, after.misses) == (before.hits + 1, before.misses)
