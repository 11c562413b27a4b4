import math
import random
from fractions import Fraction

import pytest

from sigtensor import (
    AxisParallel,
    LevelTensor,
    LogLinear,
    PiecewiseLinear,
    Polynomial,
    canonical_axis,
    canonical_mono,
    commutator,
    exp_series,
    expand_from_lyndon,
    is_grouplike,
    is_lie,
    log_series,
    loglinear_level,
    lyndon_coordinates,
    path_from_json,
    path_to_json,
    pl_level_direct,
    pl_signature,
    pl_signature_congruence,
    poly_signature_congruence,
    poly_signature_integrate,
    project_level,
    signature_series,
    tensor_congruence,
    unit_series,
)
from sigtensor.tensor import TensorSeries, basis_series
from sigtensor.words import all_words

from conftest import rand_fraction, rand_vector, random_lie_series


def test_canonical_axis_printed_values():
    core = canonical_axis(4, 4)
    assert core[(1, 1, 1, 1)] == Fraction(1, 24)
    assert core[(1, 1, 1, 2)] == Fraction(1, 6)
    assert core[(1, 1, 2, 2)] == Fraction(1, 4)
    assert core[(1, 1, 2, 3)] == Fraction(1, 2)
    assert core[(1, 2, 3, 4)] == 1
    assert core[(1, 2, 4, 3)] == 0
    # d=3 order-2 matrix
    axis2 = canonical_axis(3, 2)
    assert [[axis2[(i, j)] for j in (1, 2, 3)] for i in (1, 2, 3)] == [
        [Fraction(1, 2), 1, 1],
        [0, Fraction(1, 2), 1],
        [0, 0, Fraction(1, 2)],
    ]
    for k in range(1, 5):
        single = canonical_axis(1, k)
        fact = 1
        for i in range(1, k + 1):
            fact *= i
        assert single.entries == (Fraction(1, fact),)


def test_canonical_axis_vanishes_off_weakly_increasing():
    core = canonical_axis(3, 4)
    for word in all_words(3, 4):
        increasing = all(a <= b for a, b in zip(word, word[1:]))
        assert (core[word] != 0) == increasing


def test_canonical_axis_equals_exp_product():
    for m, k in [(2, 4), (3, 3), (4, 2)]:
        steps = [[Fraction(int(i == j)) for i in range(m)] for j in range(m)]
        assert project_level(pl_signature(steps, k), k) == canonical_axis(m, k)


def test_canonical_mono_printed_values():
    mono2 = canonical_mono(3, 2)
    assert [[mono2[(i, j)] for j in (1, 2, 3)] for i in (1, 2, 3)] == [
        [Fraction(1, 2), Fraction(2, 3), Fraction(3, 4)],
        [Fraction(1, 3), Fraction(1, 2), Fraction(3, 5)],
        [Fraction(1, 4), Fraction(2, 5), Fraction(1, 2)],
    ]
    assert canonical_mono(2, 3)[(2, 1, 2)] == Fraction(2, 15)
    for k in range(1, 5):
        fact = 1
        for i in range(1, k + 1):
            fact *= i
        assert canonical_mono(2, k)[(1,) * k] == Fraction(1, fact)
    for m, k in [(0, 2), (2, 0)]:
        with pytest.raises(ValueError, match="need m >= 1 and k >= 1"):
            canonical_mono(m, k)


def test_canonical_mono_where_products_pass_int64():
    # m^k k! >= 2^63 at (2, 17) and (1, 21): the closed form runs on Python ints
    core = canonical_mono(2, 17)
    rng = random.Random(17)
    words = [(1,) * 17, (2,) * 17] + [tuple(rng.randint(1, 2) for _ in range(17)) for _ in range(20)]
    for word in words:
        value, partial = Fraction(1), 0
        for letter in word:
            partial += letter
            value *= Fraction(letter, partial)
        assert core[word] == value and type(core[word]) is Fraction
    assert canonical_mono(1, 21).entries == (1 / Fraction(math.factorial(21)),)


def test_congruence_identity_and_permutation():
    core = canonical_mono(3, 3)
    eye = [[Fraction(int(i == j)) for j in range(3)] for i in range(3)]
    assert tensor_congruence(core, eye) == core
    perm = [[Fraction(0), Fraction(1), Fraction(0)],
            [Fraction(0), Fraction(0), Fraction(1)],
            [Fraction(1), Fraction(0), Fraction(0)]]
    permuted = tensor_congruence(core, perm)
    # row i of perm selects source index: out[(i1..)] = core[(p(i1)..)]
    inverse = {0: 1, 1: 2, 2: 0}
    for word in all_words(3, 3):
        src = tuple(inverse[w - 1] + 1 for w in word)
        assert permuted[word] == core[src]
    with pytest.raises(ValueError, match="matrix has 2 columns, core dimension is 3"):
        tensor_congruence(core, [[1, 0], [0, 1]])
    with pytest.raises(ValueError, match="matrix has 2 columns, core dimension is 3"):
        tensor_congruence(LevelTensor(3, 1, [1, 2, 3]), [[1, 0]])


def test_congruence_matches_matrix_action_k2():
    rng = random.Random(0)
    core = canonical_axis(2, 2)
    x = [[rand_fraction(rng) for _ in range(2)] for _ in range(3)]
    out = tensor_congruence(core, x)
    # against X S X^T computed by hand
    s = [[core[(i + 1, j + 1)] for j in range(2)] for i in range(2)]
    for a in range(3):
        for b in range(3):
            direct = sum(x[a][i] * s[i][j] * x[b][j] for i in range(2) for j in range(2))
            assert out[(a + 1, b + 1)] == direct


def test_pl_triple_engine_random(rng):
    for _ in range(4):
        d, m = rng.randint(2, 4), rng.randint(1, 4)
        k = rng.randint(1, 4)
        steps = [rand_vector(rng, d) for _ in range(m)]
        chen = project_level(pl_signature(steps, k), k)
        assert chen == pl_level_direct(steps, k)
        assert chen == pl_signature_congruence(steps, k)


def test_pl_two_step_level_four_binomials():
    u = (Fraction(1), Fraction(-2))
    v = (Fraction(3), Fraction(1, 2))
    lvl = project_level(pl_signature([u, v], 4), 4)
    ut = LevelTensor(2, 1, list(u))
    vt = LevelTensor(2, 1, list(v))
    expected = None
    for j, coeff in enumerate([1, 4, 6, 4, 1]):
        term = None
        for factor in [ut] * (4 - j) + [vt] * j:
            term = factor if term is None else term.tensor_product(factor)
        term = term.scale(Fraction(coeff, 24))
        expected = term if expected is None else expected.add(term)
    assert lvl == expected


def test_pl_single_step_is_veronese():
    v = (Fraction(2), Fraction(-1), Fraction(1, 3))
    sig = pl_signature([v], 3)
    vt = LevelTensor(3, 1, list(v))
    assert project_level(sig, 3) == vt.tensor_product(vt).tensor_product(vt).scale(Fraction(1, 6))


def test_translation_invariance_zero_step():
    steps = [(Fraction(1), Fraction(2)), (Fraction(-1), Fraction(1, 2))]
    padded = [(Fraction(0), Fraction(0))] + steps
    assert pl_signature(steps, 4) == pl_signature(padded, 4)


def test_gl_equivariance(rng):
    d, m, k = 3, 2, 3
    steps = [rand_vector(rng, d) for _ in range(m)]
    a = [[rand_fraction(rng) for _ in range(d)] for _ in range(d)]
    mapped = [tuple(sum(a[i][j] * s[j] for j in range(d)) for i in range(d)) for s in steps]
    left = project_level(pl_signature(mapped, k), k)
    right = tensor_congruence(project_level(pl_signature(steps, k), k), a)
    assert left == right


def test_poly_dual_engines_and_printed_formulas(rng):
    for _ in range(4):
        d, m = rng.randint(2, 3), rng.randint(1, 3)
        k = rng.randint(1, 4)
        coeffs = [tuple(rand_fraction(rng) for _ in range(m)) for _ in range(d)]
        assert project_level(poly_signature_integrate(coeffs, k), k) == poly_signature_congruence(coeffs, k)
    # monomial curve
    eye = [(Fraction(1), Fraction(0)), (Fraction(0), Fraction(1))]
    assert project_level(poly_signature_integrate(eye, 3), 3) == canonical_mono(2, 3)
    zero = [(Fraction(0), Fraction(0)), (Fraction(0), Fraction(0))]
    assert poly_signature_congruence(zero, 2).is_zero()
    # quadratic plane path, all eight degree-3 entries
    x11, x12, x21, x22 = (rand_fraction(rng) for _ in range(4))
    sig = poly_signature_integrate([(x11, x12), (x21, x22)], 3)
    det = x11 * x22 - x21 * x12
    sym1 = Fraction(1, 6) * (x11 + x12) ** 2 * (x21 + x22)
    sym2 = Fraction(1, 6) * (x11 + x12) * (x21 + x22) ** 2
    assert sig.coefficient((1, 1, 1)) == Fraction(1, 6) * (x11 + x12) ** 3
    assert sig.coefficient((1, 1, 2)) == sym1 + Fraction(1, 60) * (5 * x11 + 4 * x12) * det
    assert sig.coefficient((1, 2, 1)) == sym1 + Fraction(1, 60) * (2 * x12) * det
    assert sig.coefficient((2, 1, 1)) == sym1 - Fraction(1, 60) * (5 * x11 + 6 * x12) * det
    assert sig.coefficient((1, 2, 2)) == sym2 + Fraction(1, 60) * (5 * x21 + 6 * x22) * det
    assert sig.coefficient((2, 1, 2)) == sym2 - Fraction(1, 60) * (2 * x22) * det
    assert sig.coefficient((2, 2, 1)) == sym2 - Fraction(1, 60) * (5 * x21 + 4 * x22) * det
    assert sig.coefficient((2, 2, 2)) == Fraction(1, 6) * (x21 + x22) ** 3
    # middle shuffle identity on level 3
    assert (
        sig.coefficient((1, 1, 2)) + sig.coefficient((1, 2, 1)) + sig.coefficient((2, 1, 1))
        == Fraction(1, 2) * sig.coefficient((1,)) ** 2 * sig.coefficient((2,))
    )


def test_loglinear_levels(rng):
    d = 2
    e1, e2 = basis_series(d, 3, 1), basis_series(d, 3, 2)
    r, s, t = (rand_fraction(rng) for _ in range(3))
    lie = e1.scale(r).add(e2.scale(s)).add(commutator(e1, e2).scale(t)).truncate(2)
    lvl = loglinear_level(lie, 3)
    assert lvl[(1, 1, 2)] - 2 * lvl[(1, 2, 1)] + lvl[(2, 1, 1)] == 0
    assert lvl[(1, 2, 2)] - 2 * lvl[(2, 1, 2)] + lvl[(2, 2, 1)] == 0
    # m=1 gives the Veronese point
    v = (Fraction(2), Fraction(3))
    line = TensorSeries(d, 1, [LevelTensor.zeros(d, 0), LevelTensor(d, 1, list(v))])
    lvl = loglinear_level(line, 3)
    vt = LevelTensor(d, 1, list(v))
    assert lvl == vt.tensor_product(vt).tensor_product(vt).scale(Fraction(1, 6))
    # non-Lie input is rejected
    bad = TensorSeries(
        d, 2, [LevelTensor.zeros(d, 0), LevelTensor.zeros(d, 1), LevelTensor.from_map(d, 2, {(1, 2): Fraction(1)})]
    )
    with pytest.raises(ValueError):
        loglinear_level(bad, 3)


def test_every_family_grouplike_and_log_lie(rng):
    paths = [
        PiecewiseLinear(tuple(rand_vector(rng, 2) for _ in range(3))),
        Polynomial(tuple(tuple(rand_fraction(rng) for _ in range(2)) for _ in range(2))),
        AxisParallel(3, (1, 3, 2), (Fraction(1), Fraction(-2), Fraction(1, 2))),
        LogLinear(random_lie_series(rng, 2, 3)),
    ]
    for path in paths:
        series = signature_series(path, 4)
        assert is_grouplike(series), path
        assert is_lie(log_series(series)), path


def test_axis_parallel_conversion_and_empty():
    ap = AxisParallel(2, (1, 2), (Fraction(3), Fraction(-1)))
    pl = ap.to_piecewise_linear()
    assert pl.steps == ((Fraction(3), Fraction(0)), (Fraction(0), Fraction(-1)))
    assert signature_series(ap, 3) == pl_signature(pl.steps, 3)
    empty = PiecewiseLinear((), dim=3)
    assert signature_series(empty, 2) == unit_series(3, 2)
    # back-and-forth pair cancels entirely
    pair = AxisParallel(2, (1, 1), (Fraction(5), Fraction(-5)))
    assert signature_series(pair, 4) == unit_series(2, 4)


def test_path_json_round_trip(rng):
    paths = [
        PiecewiseLinear(tuple(rand_vector(rng, 3) for _ in range(2))),
        Polynomial(((Fraction(1), Fraction(2)), (Fraction(-1, 3), Fraction(0)))),
        AxisParallel(2, (2, 1), (Fraction(1, 2), Fraction(-3))),
        LogLinear(random_lie_series(rng, 2, 2)),
    ]
    for path in paths:
        data = path_to_json(path)
        back = path_from_json(data)
        assert signature_series(back, 3) == signature_series(path, 3)
    with pytest.raises(ValueError):
        path_from_json({"type": "spline", "dim": 2})


def _series_floats_only(series):
    return all(type(v) is float for lvl in series.levels for v in lvl.entries)


def test_float_polynomial_path_computes_in_floats(rng):
    coeffs = [[rand_fraction(rng) for _ in range(3)] for _ in range(2)]
    exact = poly_signature_integrate(coeffs, 5)
    approx = poly_signature_integrate([[float(c) for c in row] for row in coeffs], 5)
    assert _series_floats_only(approx)
    assert approx.equals(exact.to_float(), tol=1e-9)


def test_float_series_carry_float_constant_term(rng):
    steps = [[float(v) for v in rand_vector(rng, 2)] for _ in range(3)]
    sig = pl_signature(steps, 3)
    lie = random_lie_series(rng, 2, 3).to_float()
    expanded = expand_from_lyndon(lyndon_coordinates(sig), 2, 3)
    for series in (sig, poly_signature_integrate([[0.5, 1.0], [-1.0, 0.25]], 3), exp_series(lie), log_series(sig), expanded):
        assert _series_floats_only(series)
    assert sig.constant_term == 1.0 and log_series(sig).constant_term == 0.0
    assert expanded.levels[0].entries == (1.0,) and expanded.equals(sig, tol=1e-12)
    exact = pl_signature([[rand_fraction(rng) for _ in range(2)] for _ in range(3)], 3)
    constant = expand_from_lyndon(lyndon_coordinates(exact), 2, 3).levels[0].entries
    assert constant == (1,) and type(constant[0]) is Fraction
    zero_step = pl_signature([[0.0, 0.0]], 2)
    assert _series_floats_only(zero_step)
    assert zero_step.levels[2].to_json()["scalar"] == "float"
    assert zero_step.to_json()["levels"][1]["scalar"] == "float"


def test_pl_signature_order_zero(rng):
    steps = [rand_vector(rng, 3) for _ in range(2)]
    sig = pl_signature(steps, 0)
    assert sig.n == 0 and sig.constant_term == 1 and sig == unit_series(3, 0)
    assert pl_signature([[0.5, 1.5]], 0).constant_term == 1.0


def test_congruence_engines_reject_an_empty_path():
    with pytest.raises(ValueError, match="at least one step"):
        pl_signature_congruence([], 3)
    with pytest.raises(ValueError, match="at least one coefficient row"):
        poly_signature_congruence([], 3)
