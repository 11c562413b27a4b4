"""Property tests over random exact inputs: the level-product kernel, the
polynomial integration engine, the fraction-free elimination, JSON round
trips, group-element recovery, the group-like/Lie correspondence, the
shuffle-law witnesses against a pair scan, the closed-form multilinear
Jacobian and the multilinear action `tensor_congruence` against a
word-by-word sum."""

from fractions import Fraction

import numpy as np

from hypothesis import given, settings
from hypothesis import strategies as st

import pytest

from sigtensor import (
    DegenerateRecovery,
    LevelTensor,
    RecoveryFailed,
    TensorSeries,
    bracketing,
    canonical_axis,
    canonical_mono,
    concat_product,
    exact_det,
    exact_rank,
    expand_from_lyndon,
    exp_series,
    find_grouplike_violation,
    find_lie_violation,
    gauss_newton_recover,
    is_grouplike,
    is_lie,
    log_series,
    lyndon_words,
    negate_odd_levels,
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
    tensor_congruence,
    zero_series,
)
from sigtensor.dual import Dual, seed_matrix
from sigtensor.lyndon import poly_from_json, poly_to_json
from sigtensor.matrices import matrix_inverse
from sigtensor.recovery import _core_array, _image_and_jacobian, _kernel_point
from sigtensor.scalars import values_close
from sigtensor.words import all_words

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


@st.composite
def polynomials(draw):
    """(rows, n): d <= 3 rows of 1..m <= 4 exact coefficients (ragged), truncation n <= 5."""
    d = draw(st.integers(1, 3))
    m = draw(st.integers(1, 4))
    n = draw(st.integers(0, 5))
    rows = draw(st.lists(st.lists(rationals, min_size=1, max_size=m), min_size=d, max_size=d))
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


def _scan_violation(series, tol, grouplike):
    """Reference: the first failing pair of a scan over shuffle_form_eval.

    Pairs run by total length, then |I| <= |J|, then I and J in index
    order, skipping J < I when |I| = |J|.
    """
    c = series.constant_term
    if not values_close(c, (1 if grouplike else 0) + 0 * c, tol):
        return ((), (), c, 1) if grouplike else ((), (), c)
    for total in range(2, series.n + 1):
        for r in range(1, total // 2 + 1):
            for left in all_words(series.d, r):
                for right in all_words(series.d, total - r):
                    if r == total - r and right < left:
                        continue
                    value = shuffle_form_eval(left, right, series.levels[total])
                    law = series.coefficient(left) * series.coefficient(right) if grouplike else 0 * value
                    if not values_close(value, law, tol):
                        return (left, right, value, law) if grouplike else (left, right, value)
    return None


@st.composite
def shuffle_law_cases(draw):
    """(series, tol, grouplike): a group-like series or its log, d <= 3, n <= 5,
    maybe with one entry moved, exact (tol None) or float (tol given)."""
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
    if draw(st.booleans()):
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


@st.composite
def family_points(draw, scalars=rationals):
    """(family, d x m point, k) with d, m, k in 1..4."""
    family = draw(st.sampled_from(["pl", "poly"]))
    d, m, k = draw(st.integers(1, 4)), draw(st.integers(1, 4)), draw(st.integers(1, 4))
    point = draw(st.lists(st.lists(scalars, min_size=m, max_size=m), min_size=d, max_size=d))
    return family, point, k


def _dual_congruence(family, matrix, k):
    """(values, derivative columns) of Duals pushed through tensor_congruence."""
    m = len(matrix[0])
    core = canonical_axis(m, k) if family == "pl" else canonical_mono(m, k)
    image = tensor_congruence(core, matrix)
    width = len(next(v.b for row in matrix for v in row if isinstance(v, Dual)))
    values = [getattr(e, "a", e) for e in image.entries]
    return values, [list(getattr(e, "b", (0,) * width)) for e in image.entries]


@PROPERTY
@given(family_points())
def test_closed_form_jacobian_equals_dual_numbers_exactly(case):
    family, point, k = case
    m = len(point[0])
    image, jac = _image_and_jacobian(_core_array(family, m, k, False), np.array(point, dtype=object))
    values, columns = _dual_congruence(family, seed_matrix(point), k)
    assert image.tolist() == values
    assert jac.T.tolist() == columns
    assert all(type(v) in (Fraction, int) for v in jac.flat)


@PROPERTY
@given(family_points(scalars=st.floats(-2, 2)))
def test_closed_form_jacobian_matches_dual_numbers_in_floats(case):
    family, point, k = case
    m = len(point[0])
    image, jac = _image_and_jacobian(_core_array(family, m, k, True), np.array(point))
    values, columns = _dual_congruence(family, seed_matrix(point), k)
    assert image.dtype == jac.dtype == np.float64
    assert np.allclose(image, np.array(values, dtype=float), rtol=1e-9, atol=1e-9)
    assert np.allclose(jac.T, np.array(columns, dtype=float), rtol=1e-9, atol=1e-9)


@PROPERTY
@given(family_points(), st.integers(1, 3), st.data())
def test_signature_map_of_duals_equals_dual_congruence(case, width, data):
    family, point, k = case
    tangents = st.lists(rationals, min_size=width, max_size=width).map(tuple)
    matrix = [[Dual(v, data.draw(tangents)) for v in row] for row in point]
    values, columns = _dual_congruence(family, matrix, k)
    image = signature_map(family, matrix, k)
    assert all(isinstance(e, Dual) for e in image.entries)
    assert [e.a for e in image.entries] == values
    assert [list(e.b) for e in image.entries] == columns


@PROPERTY
@given(st.sampled_from(["pl", "poly"]), st.integers(1, 4), st.integers(3, 4), st.data())
def test_gauss_newton_abandons_the_zero_start_and_counts_it(family, d, k, data):
    shift = st.floats(-0.3, 0.3)
    x = np.eye(d) + np.array([[data.draw(shift) for _ in range(d)] for _ in range(d)])
    target = signature_map(family, x.tolist(), k)
    # The zero start has a zero gradient at k >= 3: it stays at residual 1.
    with pytest.raises(RecoveryFailed) as info:
        gauss_newton_recover(family, d, d, k, target, restarts=1)
    assert info.value.residual == 1.0 and not info.value.matrix.any()
    # It still counts as restart 1, so no converged solve reports fewer than
    # 2.  Near the identity at k = 4 and d <= 3 the first random start
    # converges (at k = 3 or d = 4 it misses on some targets).
    try:
        used = gauss_newton_recover(family, d, d, k, target).restarts_used
    except RecoveryFailed:
        return
    assert used >= 2
    if k == 4 and d <= 3:
        assert used == 2


# --- exact levels as integers over one denominator, against word-by-word Fractions ---


def _ref_outer(a, b):
    """Word-by-word outer product of two flat levels in base-d word order."""
    return [x * y for x in a for y in b]


def _ref_concat(a, b, d):
    """Truncated concatenation product on lists of flat levels.  As documented
    for concat_product: pairs with an all-zero side are skipped, and a level
    with no pair left is Fraction(0)."""
    out = []
    for k in range(len(a)):
        acc = None
        for p in range(k + 1):
            if any(a[p]) and any(b[k - p]):
                term = _ref_outer(a[p], b[k - p])
                acc = term if acc is None else [x + y for x, y in zip(acc, term)]
        out.append([Fraction(0)] * d**k if acc is None else acc)
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
def flat_levels(draw, d, k):
    """All-zero (int or Fraction zeros), all-int or all-Fraction entries of one level."""
    style = draw(st.sampled_from(["zero", "int", "fraction"]))
    if style == "zero":
        return [draw(st.sampled_from([0, Fraction(0)]))] * d**k
    values = st.integers(-4, 4) if style == "int" else rationals
    return draw(st.lists(values, min_size=d**k, max_size=d**k))


@st.composite
def series_pairs(draw):
    """(d, a, b): two lists of flat levels 0..n with d <= 3, n <= 5."""
    d, n = draw(st.integers(1, 3)), draw(st.integers(1, 5))
    pair = [[draw(flat_levels(d, k)) for k in range(n + 1)] for _ in range(2)]
    return d, pair[0], pair[1]


def _as_series(levels, d):
    return TensorSeries(d, len(levels) - 1, [LevelTensor(d, k, lvl) for k, lvl in enumerate(levels)])


def _series_typed(series):
    return _typed_levels(lvl.entries for lvl in series.levels)


@PROPERTY
@given(series_pairs(), st.sampled_from([3, -2, Fraction(2, 3), Fraction(-5, 4), 0]))
def test_integer_levels_match_word_by_word_fractions(case, c):
    d, a, b = case
    x, y = _as_series(a, d), _as_series(b, d)
    assert _series_typed(concat_product(x, y)) == _typed_levels(_ref_concat(a, b, d))
    assert _series_typed(x.add(y)) == _typed_levels(_ref_add(a, b))
    assert _series_typed(x.scale(c)) == _typed_levels(_ref_scale(a, c))
    assert _series_typed(x.negate()) == _typed_levels(_ref_scale(a, -1))
    top = len(a) - 1
    product = x.levels[1].tensor_product(y.levels[top])
    assert _typed_levels([product.entries]) == _typed_levels([_ref_outer(a[1], b[top])])
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
