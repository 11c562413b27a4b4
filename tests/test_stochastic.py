import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sigtensor import (
    BrownianModel,
    MixtureModel,
    exact_det,
    expected_signature,
    gaussian_moment,
    is_grouplike,
    loglinear_signature,
    mixture_expected_signature,
)
from sigtensor.tensor import LevelTensor, TensorSeries
from sigtensor.words import all_words

from conftest import isserlis_moment, rand_fraction, rand_skew, rand_symmetric


def _random_model(rng, d, with_q=False):
    mu = tuple(rand_fraction(rng) for _ in range(d))
    sigma = rand_symmetric(rng, d)
    q = rand_skew(rng, d) if with_q else None
    return BrownianModel(mu, sigma, q)


def test_model_validation():
    with pytest.raises(ValueError):
        BrownianModel((1, 2), ((1, 2), (3, 1)))
    with pytest.raises(ValueError):
        BrownianModel((1, 2), ((1, 0), (0, 1)), ((0, 1), (1, 0)))
    model = BrownianModel((Fraction(1), Fraction(0)), ((Fraction(1), Fraction(0)), (Fraction(0), Fraction(1))))
    model.validate(strict=True)
    indefinite = BrownianModel((Fraction(0),), ((Fraction(-1),),))
    indefinite.validate()  # algebraic mode accepts it
    with pytest.raises(ValueError):
        indefinite.validate(strict=True)


def test_level_two_and_three_formulas(rng):
    for _ in range(5):
        d = 3
        model = _random_model(rng, d)
        series = expected_signature(model, 3)
        for i in range(d):
            for j in range(d):
                assert series.coefficient((i + 1, j + 1)) == Fraction(1, 2) * (
                    model.mu[i] * model.mu[j] + model.sigma[i][j]
                )
        for i in range(d):
            for j in range(d):
                for k in range(d):
                    expected = (
                        Fraction(1, 6) * model.mu[i] * model.mu[j] * model.mu[k]
                        + Fraction(1, 4) * model.mu[i] * model.sigma[j][k]
                        + Fraction(1, 4) * model.sigma[i][j] * model.mu[k]
                    )
                    assert series.coefficient((i + 1, j + 1, k + 1)) == expected


def test_reflection_symmetry(rng):
    for d, n in [(2, 5), (3, 4)]:
        series = expected_signature(_random_model(rng, d), n)
        for k in range(1, n + 1):
            level = series.levels[k]
            for word in all_words(d, k):
                assert level[word] == level[tuple(reversed(word))]


def test_degenerate_is_veronese():
    mu = (Fraction(2), Fraction(-1))
    zero = ((Fraction(0), Fraction(0)), (Fraction(0), Fraction(0)))
    series = expected_signature(BrownianModel(mu, zero), 4)
    assert is_grouplike(series)
    fact = 1
    vt = LevelTensor(2, 1, list(mu))
    power = vt
    for k in range(2, 5):
        power = power.tensor_product(vt)
        fact *= k
    assert series.levels[4] == power.scale(Fraction(1, fact * 1))


def test_gaussian_moments_match_isserlis(rng):
    for d in (1, 2, 3):
        model = _random_model(rng, d)
        series = expected_signature(model, 4)
        for u in itertools.product(range(5), repeat=d):
            if sum(u) > 4:
                continue
            indices = tuple(i for i in range(d) for _ in range(u[i]))
            assert gaussian_moment(u, series) == isserlis_moment(indices, model.mu, model.sigma)
    model = _random_model(rng, 3)
    series = expected_signature(model, 4)
    assert gaussian_moment((0, 0, 0), series) == 1
    mu, sig = model.mu, model.sigma
    assert gaussian_moment((2, 0, 0), series) == mu[0] ** 2 + sig[0][0]
    assert gaussian_moment((1, 1, 1), series) == (
        mu[0] * mu[1] * mu[2] + mu[0] * sig[1][2] + mu[1] * sig[0][2] + mu[2] * sig[0][1]
    )
    with pytest.raises(ValueError):
        gaussian_moment((5, 0, 0), series)
    with pytest.raises(ValueError):
        gaussian_moment((1, 1), series)


def test_a_negative_multi_index_entry_is_refused_even_at_order_zero(rng):
    series = expected_signature(_random_model(rng, 2), 2)
    with pytest.raises(ValueError, match=r"u\[1\] = -1 is not an integer >= 0"):
        gaussian_moment((1, -1), series)


def test_a_fractional_multi_index_entry_is_refused(rng):
    series = expected_signature(_random_model(rng, 2), 3)
    with pytest.raises(ValueError, match=r"u\[0\] = 2\.7 is not an integer >= 0"):
        gaussian_moment((2.7, 0), series)


@settings(derandomize=True, deadline=None, max_examples=100, database=None)
@given(st.integers(1, 3).flatmap(lambda d: st.lists(st.integers(0, 3), min_size=d, max_size=d)), st.integers(0, 2**32))
def test_a_float_moment_is_the_factorial_product_times_an_ascending_sum(u, seed):
    d, k = len(u), sum(u)
    rng = random.Random(seed)
    entries = [[rng.uniform(-1, 1) * 10.0 ** rng.randint(-4, 4) for _ in range(d**j)] for j in range(k + 1)]
    series = TensorSeries(d, k, [LevelTensor(d, j, level) for j, level in enumerate(entries)])
    total = 0
    for word, entry in zip(all_words(d, k), series.levels[k].entries):
        if all(word.count(letter) == power for letter, power in enumerate(u, start=1)):
            total = total + entry
    total = math.prod(map(math.factorial, u)) * total
    value = gaussian_moment(u, series)
    assert value == total and type(value) is type(total)


def test_mixture_validation_and_degenerate_cases(rng):
    model = _random_model(rng, 2)
    with pytest.raises(ValueError):
        MixtureModel(((Fraction(1, 2), model),))
    with pytest.raises(ValueError):
        MixtureModel(((Fraction(3, 2), model), (Fraction(-1, 2), model)))
    signed = MixtureModel(((Fraction(3, 2), model), (Fraction(-1, 2), model)), signed=True)
    assert mixture_expected_signature(signed, 3) == expected_signature(model, 3)
    single = MixtureModel(((Fraction(1), model),))
    assert mixture_expected_signature(single, 3) == expected_signature(model, 3)
    double = MixtureModel(((Fraction(1, 3), model), (Fraction(2, 3), model)))
    assert mixture_expected_signature(double, 3) == expected_signature(model, 3)


def test_mixture_weight_permutation(rng):
    a, b = _random_model(rng, 2), _random_model(rng, 2)
    m1 = MixtureModel(((Fraction(1, 4), a), (Fraction(3, 4), b)))
    m2 = MixtureModel(((Fraction(3, 4), b), (Fraction(1, 4), a)))
    assert mixture_expected_signature(m1, 3) == mixture_expected_signature(m2, 3)


def test_homoscedastic_planar_mixture_determinant(rng):
    eye = ((Fraction(1), Fraction(0)), (Fraction(0), Fraction(1)))
    for _ in range(5):
        mu1 = (rand_fraction(rng), rand_fraction(rng))
        mu2 = (rand_fraction(rng), rand_fraction(rng))
        alpha = Fraction(rng.randint(1, 9), 10)
        mix = MixtureModel(
            ((alpha, BrownianModel(mu1, eye)), (1 - alpha, BrownianModel(mu2, eye)))
        )
        series = mixture_expected_signature(mix, 2)
        s1, s2 = series.coefficient((1,)), series.coefficient((2,))
        s11 = series.coefficient((1, 1))
        s12 = series.coefficient((1, 2))
        s22 = series.coefficient((2, 2))
        bordered = [
            [Fraction(1), s1, s2],
            [s1, 2 * s11 - 1, 2 * s12],
            [s2, 2 * s12, 2 * s22 - 1],
        ]
        assert exact_det(bordered) == 0
        assert series.coefficient((1, 2)) == series.coefficient((2, 1))


def test_magnetic_matches_loglinear(rng):
    d = 3
    mu = tuple(rand_fraction(rng) for _ in range(d))
    q = rand_skew(rng, d)
    zero = tuple(tuple(Fraction(0) for _ in range(d)) for _ in range(d))
    model = BrownianModel(mu, zero, q)
    series = expected_signature(model, 4)
    lie = TensorSeries(
        d,
        2,
        [
            LevelTensor.zeros(d, 0),
            LevelTensor(d, 1, list(mu)),
            LevelTensor(d, 2, [q[i][j] for i in range(d) for j in range(d)]),
        ],
    )
    assert series == loglinear_signature(lie, 4)
    # with q present the level-2 part gains exactly q
    sigma = rand_symmetric(rng, d)
    plain = expected_signature(BrownianModel(mu, sigma), 3)
    magnetic = expected_signature(BrownianModel(mu, sigma, q), 3)
    for i in range(d):
        for j in range(d):
            delta = magnetic.coefficient((i + 1, j + 1)) - plain.coefficient((i + 1, j + 1))
            assert delta == q[i][j]


@pytest.mark.parametrize("n", [0, 1, 2])
def test_expected_signature_of_a_float_model_is_float_at_every_truncation(n):
    model = BrownianModel((0.5, -1.0), ((1.0, 0.25), (0.25, 2.0)))
    series = expected_signature(model, n)
    assert type(series.constant_term) is float and series.constant_term == 1.0
    assert all(lvl.holds_floats for lvl in series.levels)
    exact = expected_signature(BrownianModel((Fraction(1, 2), -1), ((1, 0), (0, 2))), n)
    assert type(exact.constant_term) is Fraction


def test_model_json_round_trip(rng):
    model = _random_model(rng, 2, with_q=True)
    assert BrownianModel.from_json(model.to_json()) == model
    mix = MixtureModel(((Fraction(1, 2), model), (Fraction(1, 2), _random_model(rng, 2))))
    back = MixtureModel.from_json(mix.to_json())
    assert mixture_expected_signature(back, 3) == mixture_expected_signature(mix, 3)
