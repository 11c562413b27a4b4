import math
import random
import sys
from fractions import Fraction

import numpy as np
import pytest

from sigtensor import (
    LevelTensor,
    TensorSeries,
    basis_series,
    commutator,
    concat_product,
    exp_series,
    expand_from_lyndon,
    from_vector,
    is_grouplike,
    is_lie,
    log_series,
    pl_signature,
    project_level,
    recover_group_element,
    series_from_level,
    tensor_congruence,
    unit_series,
    zero_series,
)
from sigtensor.dual import Dual
from sigtensor.paths import poly_signature_integrate
from sigtensor.scalars import format_scalar, parse_scalar

from conftest import rand_fraction, random_lie_series


def random_series(rng, d, n, constant=Fraction(0)):
    levels = [LevelTensor(d, 0, [constant])]
    for k in range(1, n + 1):
        levels.append(LevelTensor(d, k, [rand_fraction(rng) for _ in range(d**k)]))
    return TensorSeries(d, n, levels)


def test_concat_two_term_expansion():
    d, n = 2, 2
    a = unit_series(d, n).add(basis_series(d, n, 1))
    b = unit_series(d, n).add(basis_series(d, n, 2))
    prod = concat_product(a, b)
    assert prod.constant_term == 1
    assert prod.coefficient((1,)) == 1 and prod.coefficient((2,)) == 1
    assert prod.coefficient((1, 2)) == 1
    assert prod.coefficient((2, 1)) == 0 and prod.coefficient((1, 1)) == 0


def test_concat_axis_level_two():
    d = 2
    s = concat_product(exp_series(basis_series(d, 2, 1)), exp_series(basis_series(d, 2, 2)))
    lvl = project_level(s, 2)
    assert lvl[(1, 1)] == Fraction(1, 2)
    assert lvl[(1, 2)] == 1
    assert lvl[(2, 1)] == 0
    assert lvl[(2, 2)] == Fraction(1, 2)


def test_concat_unit_and_mismatch():
    rng = random.Random(1)
    a = random_series(rng, 2, 3)
    assert concat_product(a, unit_series(2, 3)) == a
    assert concat_product(unit_series(2, 3), a) == a
    with pytest.raises(ValueError):
        concat_product(a, unit_series(3, 3))
    with pytest.raises(ValueError):
        concat_product(a, unit_series(2, 4))


def test_concat_associative_random_triples():
    rng = random.Random(2)
    for d, n in [(2, 3), (3, 4)]:
        for _ in range(3):
            a, b, c = (random_series(rng, d, n, rand_fraction(rng)) for _ in range(3))
            left = concat_product(concat_product(a, b), c)
            right = concat_product(a, concat_product(b, c))
            assert left == right


def test_exp_of_zero_and_all_letters():
    d, n = 3, 4
    assert exp_series(zero_series(d, n)) == unit_series(d, n)
    total = from_vector([Fraction(1)] * d, n)
    g = exp_series(total)
    fact = 1
    for k in range(1, n + 1):
        fact *= k
        assert all(v == Fraction(1, fact) for v in g.levels[k].entries)


def test_exp_chart_coefficients():
    # exp of r e1 + s e2 + t [e1,e2] + u [e1,[e1,e2]] + v [[e1,e2],e2]
    d, n = 2, 3
    e1, e2 = basis_series(d, n, 1), basis_series(d, n, 2)
    r, s, t, u, v = Fraction(2), Fraction(3), Fraction(5, 2), Fraction(-1, 3), Fraction(7)
    lie = (
        e1.scale(r)
        .add(e2.scale(s))
        .add(commutator(e1, e2).scale(t))
        .add(commutator(e1, commutator(e1, e2)).scale(u))
        .add(commutator(commutator(e1, e2), e2).scale(v))
    )
    g = exp_series(lie)
    assert g.coefficient((1, 1)) == r * r / 2
    assert g.coefficient((1, 2)) == r * s / 2 + t
    assert g.coefficient((2, 1)) == r * s / 2 - t
    assert g.coefficient((1, 1, 1)) == r**3 / 6
    assert g.coefficient((1, 2, 1)) == r * r * s / 6 - 2 * u
    assert g.coefficient((2, 1, 1)) == r * r * s / 6 - r * t / 2 + u
    assert g.coefficient((1, 1, 2)) == r * r * s / 6 + r * t / 2 + u
    assert g.coefficient((2, 1, 2)) == r * s * s / 6 - 2 * v
    assert g.coefficient((2, 2, 1)) == r * s * s / 6 - s * t / 2 + v
    assert g.coefficient((1, 2, 2)) == r * s * s / 6 + s * t / 2 + v
    assert g.coefficient((2, 2, 2)) == s**3 / 6


def test_exp_rejects_nonzero_constant():
    with pytest.raises(ValueError):
        exp_series(unit_series(2, 2))
    with pytest.raises(ValueError):
        log_series(zero_series(2, 2))


def _series(d, levels):
    return TensorSeries(d, len(levels) - 1, [LevelTensor(d, k, values) for k, values in enumerate(levels)])


def _reprs(series):
    """Each level's entries by repr: value, type and the sign of a float zero."""
    return [[repr(v) for v in level.entries] for level in series.levels]


F = Fraction


def test_exp_and_log_at_order_zero_are_fraction_constants():
    for d in (1, 3):
        assert _reprs(exp_series(zero_series(d, 0))) == [["Fraction(1, 1)"]]
        assert _reprs(log_series(unit_series(d, 0))) == [["Fraction(0, 1)"]]
        assert _reprs(exp_series(_series(d, [[0.0]]))) == [["1.0"]]
        assert _reprs(log_series(_series(d, [[1.0]]))) == [["0.0"]]


def test_exp_and_log_skip_a_zero_level_between_live_ones():
    # p = 2x + x^3/3: exp(p) = 1 + 2x + 2x^2 + (4/3 + 1/3)x^3, and log(1 + p) = p - p^2/2 + p^3/3
    assert _reprs(exp_series(_series(1, [[0], [2], [0], [F(1, 3)]]))) == [[repr(F(v))] for v in (1, 2, 2, F(5, 3))]
    assert _reprs(log_series(_series(1, [[1], [2], [0], [F(1, 3)]]))) == [[repr(F(v))] for v in (0, 2, -2, 3)]
    floats = exp_series(_series(1, [[0.0], [2.0], [0.0], [1 / 3]]))
    assert _reprs(floats) == [["1.0"], ["2.0"], ["2.0"], [repr(1 / 3 + 4 / 3)]]


def test_exp_and_log_of_a_series_with_only_levels_one_and_two_live():
    # p = x^2 at d = 1: exp(p) = 1 + x^2 + x^4/2, log(1 + p) = x^2 - x^4/2
    assert _reprs(exp_series(_series(1, [[0], [0], [1], [0], [0]]))) == [
        [repr(F(v))] for v in (1, 0, 1, 0, F(1, 2))
    ]
    assert _reprs(log_series(_series(1, [[1], [0], [1], [0], [0]]))) == [
        [repr(F(v))] for v in (0, 0, 1, 0, F(-1, 2))
    ]
    g = exp_series(_series(2, [[0], [1, -1], [0, 2, -2, 0], [0] * 8]))
    assert g.levels[2].entries == (F(1, 2), F(3, 2), F(-5, 2), F(1, 2))
    assert g.levels[3].entries == tuple(F(v, 6) for v in (1, 5, -1, -5, -7, 1, 7, -1))


def test_no_float_zero_of_exp_or_log_is_negative():
    # a -0.0 constant makes the series float and changes nothing else
    assert _reprs(exp_series(_series(1, [[-0.0], [1.0], [0.0]]))) == [["1.0"], ["1.0"], ["0.5"]]
    assert _reprs(exp_series(_series(1, [[0.0], [-0.0], [-0.0]]))) == [["1.0"], ["0.0"], ["0.0"]]
    assert _reprs(log_series(_series(1, [[1.0], [-0.0], [-0.0]]))) == [["0.0"], ["0.0"], ["0.0"]]
    # 0.0 * -1.0 = -0.0 at words 12 and 21 of p^2, which is the only term there
    assert _reprs(exp_series(_series(2, [[0.0], [0.0, -1.0], [0.0] * 4])))[2] == ["0.0", "0.0", "0.0", "0.5"]


def test_a_float_constant_makes_exact_levels_enter_as_their_floats():
    g = exp_series(_series(2, [[0.0], [1, F(1, 3)], [0, 0, 0, F(1, 7)]]))
    third = float(F(1, 3))
    assert _reprs(g) == [
        ["1.0"],
        ["1.0", repr(third)],
        ["0.5", repr(third * 0.5), repr(third * 0.5), repr(third * (third * 0.5) + float(F(1, 7)))],
    ]
    log = log_series(_series(1, [[1.0], [F(1, 3)], [2]]))
    assert _reprs(log) == [["0.0"], [repr(third)], [repr(third * (third * -0.5) + 2.0)]]


def test_a_true_constant_term_gives_fractions():
    assert _reprs(log_series(_series(1, [[True], [1], [2]]))) == [[repr(F(v))] for v in (0, 1, F(3, 2))]
    assert _reprs(exp_series(_series(1, [[False], [1], [2]]))) == [[repr(F(v))] for v in (1, 1, F(5, 2))]


def test_exp_and_log_of_float_levels_beside_a_dual_level_raise():
    # levels 2 and 4 would only sum products of floats, but the series is read in one mode
    for f, constant in ((exp_series, 0.0), (log_series, 1.0)):
        with pytest.raises(TypeError, match="kind object"):
            f(_series(1, [[constant], [0.0], [0.5], [Dual(1, (1,))], [0.0]]))


def test_exp_log_inverse_random():
    rng = random.Random(3)
    for d, n in [(2, 5), (3, 4)]:
        p = random_series(rng, d, n)
        assert log_series(exp_series(p)) == p
        q = random_series(rng, d, n, Fraction(1))
        assert exp_series(log_series(q)) == q
    assert log_series(unit_series(2, 3)) == zero_series(2, 3)


def test_log_of_signature_is_lie():
    coeffs = [(Fraction(1), Fraction(2)), (Fraction(-1, 2), Fraction(1, 3))]
    series = poly_signature_integrate(coeffs, 4)
    assert is_lie(log_series(series))


def test_exp_level_depends_on_low_levels_only():
    rng = random.Random(4)
    p = random_series(rng, 2, 4)
    q_levels = list(p.levels)
    q_levels[4] = LevelTensor(2, 4, [rand_fraction(rng) for _ in range(16)])
    q = TensorSeries(2, 4, q_levels)
    for k in range(0, 4):
        assert project_level(exp_series(p), k) == project_level(exp_series(q), k)


def test_project_copy_and_errors():
    s = exp_series(basis_series(2, 3, 1))
    lvl = project_level(s, 2)
    assert lvl[(1, 1)] == Fraction(1, 2)
    assert sum(1 for v in lvl.entries if v != 0) == 1
    assert project_level(unit_series(2, 2), 0).entries == (1,)
    with pytest.raises(ValueError):
        project_level(s, 4)
    assert lvl.scale(0).is_zero()


def test_single_level_series_keep_the_mode_and_refuse_a_level_above_the_truncation():
    series = from_vector([0.5, 1.0], 2)
    assert series.to_json() == {
        "dim": 2,
        "trunc": 2,
        "levels": [
            0.0,
            {"dim": 2, "order": 1, "scalar": "float", "entries": {"1": 0.5, "2": 1.0}},
            {"dim": 2, "order": 2, "scalar": "float", "entries": {}},
        ],
    }
    assert TensorSeries.from_json(series.to_json()).to_json() == series.to_json()
    assert type(from_vector([1, Fraction(1, 2)], 2).constant_term) is Fraction
    with pytest.raises(ValueError, match="order 2"):
        series_from_level(LevelTensor(2, 2, [1, 2, 3, 4]), 1)


def test_symmetrize_axis_and_skew():
    from sigtensor.paths import canonical_axis

    sym = canonical_axis(3, 2).symmetrize()
    assert all(v == 1 for v in sym.entries)
    skew = LevelTensor.from_map(2, 2, {(1, 2): Fraction(3), (2, 1): Fraction(-3)})
    assert skew.symmetrize().is_zero()


def test_symmetrize_matches_letter_shuffle_forms():
    # on any tensor, the symmetrized entry at a word is the iterated
    # single-letter shuffle form, so on group-like data it factors
    rng = random.Random(5)
    coeffs = [(rand_fraction(rng), rand_fraction(rng)) for _ in range(2)]
    series = poly_signature_integrate(coeffs, 3)
    sym = project_level(series, 3).symmetrize()
    s1, s2 = series.coefficient((1,)), series.coefficient((2,))
    assert sym[(1, 1, 2)] == s1 * s1 * s2
    assert sym[(1, 2, 2)] == s1 * s2 * s2
    assert sym[(1, 1, 1)] == s1**3


def test_eta_scale_preserves_top_level_at_roots_of_unity():
    rng = random.Random(6)
    p = random_lie_series(rng, 2, 4)
    g = exp_series(p)
    flipped = g.eta_scale(-1)
    assert project_level(flipped, 4) == project_level(g, 4)
    assert project_level(flipped, 3) == project_level(g, 3).negate()


def test_json_round_trip_exact_and_float():
    rng = random.Random(7)
    s = random_series(rng, 2, 3, Fraction(1))
    data = s.to_json()
    assert TensorSeries.from_json(data) == s
    t = s.levels[2]
    assert LevelTensor.from_json(t.to_json()) == t
    tf = t.to_float()
    assert LevelTensor.from_json(tf.to_json()).equals(tf)
    assert t.to_json()["scalar"] == "rational"
    assert tf.to_json()["scalar"] == "float"


def test_series_truncated_at_zero_keep_their_mode_through_json():
    for constant in (0.5, 1.0, 0.0):
        series = TensorSeries(2, 0, [LevelTensor(2, 0, [constant])])
        back = TensorSeries.from_json(series.to_json())
        assert type(back.constant_term) is float and back.constant_term == constant
    exact = TensorSeries(2, 0, [LevelTensor(2, 0, [Fraction(1, 2)])])
    assert TensorSeries.from_json(exact.to_json()) == exact
    assert type(TensorSeries.from_json({"dim": 2, "trunc": 0, "levels": [1]}).constant_term) is Fraction


def test_format_scalar_writes_integers_past_the_digit_limit():
    big = math.factorial(1700)  # 4,756 digits
    text, negative = format_scalar(Fraction(1, big)), format_scalar(-big)
    assert (format_scalar(0), format_scalar(-7), format_scalar(Fraction(-3, 4))) == ("0", "-7", "-3/4")
    with pytest.raises(ValueError):  # parsing outside input keeps Python's limit
        parse_scalar(text, "x")
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        assert (text, negative) == (f"1/{big}", f"-{big}")
    finally:
        sys.set_int_max_str_digits(limit)


@pytest.mark.parametrize("d", [9, 10, 12])
def test_json_round_trip_at_large_alphabets(d):
    rng = random.Random(d)
    level = LevelTensor(d, 2, [rand_fraction(rng, nonzero=True) for _ in range(d * d)])
    data = level.to_json()
    assert len(data["entries"]) == d * d
    assert LevelTensor.from_json(data) == level
    assert LevelTensor.from_json(level.to_float().to_json()).equals(level.to_float())
    letter = LevelTensor(d, 1, [Fraction(i + 1) for i in range(d)])
    assert LevelTensor.from_json(letter.to_json()) == letter
    series = random_series(rng, d, 2, Fraction(1))
    assert TensorSeries.from_json(series.to_json()) == series


def test_commutator_is_lie():
    d, n = 3, 3
    e1, e2, e3 = (basis_series(d, n, i) for i in (1, 2, 3))
    assert is_lie(commutator(e1, commutator(e2, e3)))


def test_concat_reads_an_exact_series_beside_a_float_one_in_floats():
    exact = pl_signature([[1, 2]], 2)
    floats = _series(2, [[1], [0.5, -0.25], [0.125, 0.0, 1.0, -0.0]])
    for a, b in ((exact, floats), (floats, exact)):
        product = concat_product(a, b)
        assert all(level.holds_floats for level in product.levels)
        assert all(type(v) is float for level in product.levels for v in level.entries)
        assert _reprs(product) == _reprs(concat_product(a.to_float(), b.to_float()))


def test_concat_of_int_levels_is_fractions_beside_one_fraction_level():
    ints = _series(2, [[1], [1, 2], [3, 4, 5, 6]])
    # the Fraction constant 0 meets no live level, and still sets the product's mode
    other = _series(2, [[Fraction(0)], [1, -1], [2, 0, 0, 1]])
    product = concat_product(ints, other)
    assert all(type(v) is Fraction for level in product.levels for v in level.entries)
    assert product == concat_product(ints, _series(2, [[0], [1, -1], [2, 0, 0, 1]]))
    assert [type(v) for v in concat_product(ints, ints).levels[2].entries] == [int] * 4


def test_concat_levels_with_no_live_pair_and_dual_products():
    zeros = concat_product(_series(2, [[1], [0, 0]]), _series(2, [[1], [0, 0]]))
    assert zeros.levels[1].entries == (0, 0) and all(type(v) is Fraction for v in zeros.levels[1].entries)
    zeros = concat_product(_series(2, [[1.0], [0.0, 0.0]]), _series(2, [[1.0], [-0.0, 0.0]]))
    assert [repr(v) for v in zeros.levels[1].entries] == ["0.0", "0.0"]
    # a factor 1 takes no product, but a Dual level is still refused
    with pytest.raises(TypeError, match="kind object"):
        concat_product(_series(2, [[1], [0, 0]]), _series(2, [[0], [Dual(2, (1,)), Dual(-1, (3,))]]))


#: Every arithmetic entry point and `to_json`, given an object level t (d = 2, k = 1), an exact level x of that shape,
#: the series p with t at level 1 and constant term 0, and q, the same with constant term 1.
_OBJECT_OPERATIONS = {
    "LevelTensor.add": lambda t, x, p, q: t.add(x),
    "LevelTensor.add to an exact level": lambda t, x, p, q: x.add(t),
    "LevelTensor.scale": lambda t, x, p, q: t.scale(2),
    "LevelTensor.scale by an object factor": lambda t, x, p, q: x.scale(t.entries[0]),
    "LevelTensor.negate": lambda t, x, p, q: t.negate(),
    "LevelTensor.tensor_product": lambda t, x, p, q: t.tensor_product(t),
    "LevelTensor.tensor_product with an exact level": lambda t, x, p, q: x.tensor_product(t),
    "LevelTensor.symmetrize": lambda t, x, p, q: t.symmetrize(),
    "TensorSeries.add": lambda t, x, p, q: p.add(p),
    "TensorSeries.scale": lambda t, x, p, q: p.scale(2),
    "TensorSeries.negate": lambda t, x, p, q: p.negate(),
    "TensorSeries.eta_scale": lambda t, x, p, q: p.eta_scale(2),
    "concat_product": lambda t, x, p, q: concat_product(q, q),
    "commutator": lambda t, x, p, q: commutator(p, q),
    "exp_series": lambda t, x, p, q: exp_series(p),
    "log_series": lambda t, x, p, q: log_series(q),
    "tensor_congruence of an object core": lambda t, x, p, q: tensor_congruence(t, [[1, 0], [0, 1]]),
    "tensor_congruence by an object matrix": lambda t, x, p, q: tensor_congruence(x, [list(t.entries)]),
    "expand_from_lyndon": lambda t, x, p, q: expand_from_lyndon({(1,): t[0], (2,): t[1], (1, 2): t[0]}, 2, 2),
    "pl_signature": lambda t, x, p, q: pl_signature([list(t.entries)], 2),
    "poly_signature_integrate": lambda t, x, p, q: poly_signature_integrate([list(t.entries), [1]], 2),
    "LevelTensor.to_json": lambda t, x, p, q: t.to_json(),
}


@pytest.mark.parametrize("operation", list(_OBJECT_OPERATIONS))
@pytest.mark.parametrize(
    "entries", [[Dual(1, (1,)), Dual(-2, (0,))], [True, False], ["1", "1/2"]], ids=["dual", "bool", "string"]
)
def test_object_levels_hold_their_entries_and_every_operation_refuses_them(entries, operation):
    level = LevelTensor(2, 1, entries)
    assert not level.is_exact() and not level.holds_floats
    assert all(a is b for a, b in zip(level.entries, entries)) and len(level.entries) == 2
    p = series_from_level(level, 2)
    q = TensorSeries(2, 2, [LevelTensor(2, 0, [1]), *p.levels[1:]])
    with pytest.raises(TypeError, match="kind object"):
        _OBJECT_OPERATIONS[operation](level, LevelTensor(2, 1, [1, 2]), p, q)


@pytest.mark.parametrize("entries", [[Dual(1, (1,)), Dual(2, (0,))], [True, False]], ids=["dual", "bool"])
def test_object_levels_compare_their_entries_and_refuse_equals_and_is_zero(entries):
    t = LevelTensor(2, 1, entries)
    series = series_from_level(t, 2)
    assert t == t and t == LevelTensor(2, 1, list(entries)) and series == series
    assert t != LevelTensor(2, 1, entries[::-1]) and t != LevelTensor(2, 2, entries * 2)
    assert t != LevelTensor(2, 1, [5, 7]) and LevelTensor(2, 1, [5, 7]) != t and t != "t"
    for call in (lambda: t.equals(t), lambda: t.is_zero(), lambda: series.equals(series)):
        with pytest.raises(TypeError, match="kind object"):
            call()


def test_equal_levels_and_series_hash_equal():
    pairs = [
        (LevelTensor(1, 1, [1.0]), LevelTensor(1, 1, [1.0 + 1e-13])),
        (LevelTensor(2, 1, [Fraction(1, 3), 1]), LevelTensor(2, 1, [1 / 3, 1.0])),
    ]
    pairs += [(series_from_level(a, 2), series_from_level(b, 2)) for a, b in pairs]
    for a, b in pairs:
        assert a == b and hash(a) == hash(b) and len({a, b}) == 1


def test_level_array_dtype_follows_the_entries():
    exact = LevelTensor(2, 1, [Fraction(1, 2), 3])
    assert exact.array.dtype == object
    assert LevelTensor(2, 1, [0.5, Fraction(0)]).array.dtype == np.float64
    assert not exact.array.flags.writeable
    with pytest.raises(ValueError):
        exact.array[0] = 1
    product = exact.tensor_product(exact)
    assert product.entries == (Fraction(1, 4), Fraction(3, 2), Fraction(3, 2), 9)
    assert isinstance(product.entries, tuple)
    floats = exact.to_float().tensor_product(exact.to_float())
    assert floats.array.dtype == np.float64
    assert all(type(v) is float for v in floats.entries)


def test_float_levels_hold_only_floats():
    mixed = LevelTensor(2, 1, [0.5, Fraction(0)])
    assert mixed.entries == (0.5, 0.0) and all(type(v) is float for v in mixed.entries)
    extended = pl_signature([[1.0, 2.0]], 2).truncate(4)
    assert extended.levels[4].to_json()["scalar"] == "float"
    assert all(type(v) is float for level in extended.levels for v in level.entries)
    assert unit_series(2, 1).truncate(3).levels[3].entries[0] == Fraction(0)


def test_cube_is_the_level_in_word_order():
    level = LevelTensor(3, 2, [Fraction(i) for i in range(9)])
    assert level.cube.shape == (3, 3)
    assert level.cube[1, 2] == level[(2, 3)] == 5
    assert not level.cube.flags.writeable
    assert LevelTensor(2, 0, [Fraction(7)]).cube.shape == ()


def test_exact_levels_are_integers_over_one_reduced_denominator():
    level = LevelTensor(2, 1, [Fraction(1, 6), Fraction(-1, 4)])
    numerators, denominator = level.as_integers()
    assert numerators.tolist() == [2, -3] and denominator == 12
    assert not numerators.flags.writeable
    product = level.tensor_product(level).scale(6)
    assert product.as_integers()[0].tolist() == [4, -6, -6, 9] and product.as_integers()[1] == 24
    assert product.entries == (Fraction(1, 6), Fraction(-1, 4), Fraction(-1, 4), Fraction(3, 8))
    zero = level.add(level.negate())
    assert zero.as_integers()[1] == 1 and zero.entries == (Fraction(0), Fraction(0))
    with pytest.raises(ValueError):
        LevelTensor(2, 1, [0.5, 1.0]).as_integers()


def test_to_float_rounds_every_quotient_as_the_fraction_does():
    # quotients of ints below 2^53 divide in numpy; larger ones, and numerators
    # past the float range, divide as Python ints
    rng = random.Random(53)
    for bits, den in ((20, 7), (43, 7), (44, 7), (50, 7), (60, 7), (20, 2**60)):
        entries = [Fraction(rng.randint(-(2**bits), 2**bits), rng.randint(1, den)) for _ in range(64)]
        level = LevelTensor(2, 6, entries).tensor_product(LevelTensor(2, 0, [Fraction(1, 3)]))
        assert [v.hex() for v in level.to_float().array.tolist()] == [float(v).hex() for v in level.entries]
    huge = LevelTensor(1, 1, [Fraction(10**309 + 1, 10**10)])
    assert huge.to_float().entries == (float(Fraction(10**309 + 1, 10**10)),)


def test_zero_entries_of_a_computed_level_share_one_fraction():
    level = LevelTensor(2, 1, [Fraction(1, 2), Fraction(0)]).tensor_product(LevelTensor(2, 1, [0, 1]))
    assert level.entries == (0, Fraction(1, 2), 0, 0)
    zeros = [v for v in level.entries if not v]
    assert all(type(v) is Fraction and v is zeros[0] for v in zeros)


def test_int_levels_stay_int_and_mixed_levels_compute_as_fractions():
    ints = LevelTensor(2, 1, [1, 2])
    assert all(type(v) is int for v in ints.tensor_product(ints).add(ints.tensor_product(ints)).scale(3).entries)
    mixed = LevelTensor(2, 1, [1, Fraction(1, 2)])
    assert mixed.entries == (1, Fraction(1, 2)) and type(mixed.entries[0]) is int  # kept as given
    assert [type(v) for v in mixed.tensor_product(ints).entries] == [Fraction] * 4
    # in either order: the product takes the mode where its factors meet, not the left factor's
    product = ints.tensor_product(mixed)
    assert product.entries == (1, Fraction(1, 2), 2, 1) and all(type(v) is Fraction for v in product.entries)
    floats = LevelTensor(2, 1, [0.5, -0.0])
    assert ints.tensor_product(floats).holds_floats and mixed.tensor_product(floats).holds_floats


def test_levels_built_from_int_entries_read_as_arrays_before_any_arithmetic():
    # the array readers must build the integer pair themselves
    assert LevelTensor(2, 2, [1, 2, 3, 4]).cube.tolist() == [[1, 2], [3, 4]]
    assert LevelTensor(2, 2, [1, 2, 3, 4]).symmetrize().entries == (2, 5, 5, 8)
    assert LevelTensor(2, 1, [1, 2]).scale(0.5).entries == (0.5, 1.0)
    assert LevelTensor(2, 1, [0.5, 1.0]).add(LevelTensor(2, 1, [1, 2])).entries == (1.5, 3.0)
    assert LevelTensor(2, 1, [0.5, 1.0]).tensor_product(LevelTensor(2, 1, [1, 2])).entries == (0.5, 1.0, 1.0, 2.0)
    result = recover_group_element(LevelTensor(2, 2, [2, 1, -1, 0]))
    assert result.series.levels[1].entries == (2, 0) and result.series.levels[2].entries == (2, 1, -1, 0)
    ints = TensorSeries(2, 2, [LevelTensor(2, 0, [1]), LevelTensor(2, 1, [2, 0]), LevelTensor(2, 2, [2, 1, -1, 0])])
    assert is_grouplike(ints, tol=1e-9) and not is_lie(ints, tol=1e-9)


def test_numpy_scalars_enter_as_python_scalars():
    ints = LevelTensor(2, 1, [np.int64(1), np.int64(2)])
    assert ints.is_exact() and ints.entries == (1, 2) and all(type(v) is int for v in ints.entries)
    assert ints.to_json() == {"dim": 2, "order": 1, "scalar": "rational", "entries": {"1": "1", "2": "2"}}
    assert ints.scale(np.int64(3)).entries == (3, 6) and ints.scale(np.float32(0.5)).holds_floats
    assert LevelTensor(2, 1, [np.float32(0.5), 1]).entries == (0.5, 1.0)
    assert not LevelTensor(2, 1, [np.bool_(True), 1]).is_exact()
    floats = poly_signature_integrate([[np.float32(0.5), 1]], 2)
    assert all(level.holds_floats for level in floats.levels)
    assert floats == poly_signature_integrate([[0.5, 1.0]], 2)
    # an int64 array of steps stays exact
    series = pl_signature(np.array([[1, 2], [3, 4]]), 3)
    assert all(level.is_exact() for level in series.levels)
    assert series.levels[3].to_json()["scalar"] == "rational"
    reference = pl_signature([[1, 2], [3, 4]], 3)
    assert all(a.entries == b.entries for a, b in zip(series.levels, reference.levels))
    assert all(type(v) is Fraction for v in series.levels[3].entries)
