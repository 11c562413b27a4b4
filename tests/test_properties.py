"""Property tests of the level-product kernel over random exact rational paths."""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from sigtensor import (
    bracketing,
    concat_product,
    exp_series,
    log_series,
    lyndon_words,
    pl_level_direct,
    pl_signature,
    pl_signature_congruence,
    zero_series,
)

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
