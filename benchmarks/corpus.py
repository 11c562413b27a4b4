"""Golden-output corpus: typed dumps of the public computing functions on fixed inputs, and their
comparison between two source trees.

    python benchmarks/corpus.py --src src
    python benchmarks/corpus.py --src OLD/src --compare NEW/src

Each case (`cases`) calls one public function, or a method of a public class, on seeded or written-out
inputs.  The dump has one line per leaf of a case's result, `name#i path = typed value`: floats by
`float.hex()` (every bit, -0.0 kept, numpy scalars under their own type name), ints and Fractions in full
with their type, numpy arrays with their dtype and shape, levels and series with their shape, and a
refusal as its exception type and message.  With --src alone the tree is dumped in a fresh subprocess
and the dump printed.  With --compare each tree is dumped in its own subprocess, the first differing
lines are printed (- for --src, + for --compare) with the count of differing lines per public function,
and the exit code is 1 when any line differs.  Only the standard library and numpy; the trees are only
read (no bytecode is written).  Both trees must share the private calling convention used below:
`recovery._image_and_jacobian(core, x, modulus)`, `paths._core_level`, `matrices._residues` and
`matrices._PRIME`.
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import os
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path

SHOWN = 20  # differing lines printed by --compare


def _rationals(seed, count, spread=9):
    """Seeded nonzero rationals with small numerators and denominators."""
    import random

    rng = random.Random(seed)
    return [Fraction(rng.choice((-1, 1)) * rng.randint(1, spread), rng.randint(1, 4)) for _ in range(count)]


def _rows(values, width):
    return [values[i : i + width] for i in range(0, len(values), width)]


def cases() -> list:
    """(public name, zero-argument call) pairs, on the sigtensor package found on sys.path."""
    import numpy as np

    import sigtensor as st
    from sigtensor import matrices, paths, recovery
    from sigtensor.dual import Dual

    out = []

    def case(name, *calls):
        out.extend((name, call) for call in calls)

    floats = lambda rows: [[float(v) for v in row] for row in rows]
    steps = _rows(_rationals(1, 6), 2)  # three planar steps
    coeffs = _rows(_rationals(2, 6), 3)  # a planar cubic
    group = st.pl_signature(steps, 4)
    lie = st.log_series(group)
    level = group.levels[3]
    other = st.pl_signature(_rows(_rationals(3, 4), 2), 4)

    # --- tensor
    a, b = st.LevelTensor(2, 2, _rationals(4, 4)), st.LevelTensor(2, 2, [1, -2, 3, 2**70])
    c = st.LevelTensor(2, 2, [0.5, -0.0, 1e-300, 3.0])
    nonfinite = [st.LevelTensor(1, 1, [v]) for v in (math.inf, -math.inf, math.nan, 5.0)]
    tails = [  # d = 1 series whose level 2 is inf, the first looking group-like, the second Lie
        st.TensorSeries(1, 2, [st.LevelTensor(1, k, [v]) for k, v in enumerate(t)])
        for t in [(1.0, 1.0, math.inf), (0.0, 0.0, math.inf)]
    ]
    case(
        "LevelTensor",
        lambda: a.add(b),
        lambda: a.add(c),
        lambda: b.scale(3),
        lambda: a.scale(Fraction(-2, 3)),
        lambda: b.scale(0.25),
        lambda: c.negate(),
        lambda: a.tensor_product(c),
        lambda: b.tensor_product(b),
        lambda: a.symmetrize(),
        lambda: b.to_float(),
        lambda: a.as_integers(),
        lambda: (a.array, c.array, b.cube),
        lambda: (a.to_json(), c.to_json(), st.LevelTensor.from_json(a.to_json())),
        lambda: (a == a.to_float(), a.equals(a.to_float(), 1e-12), c.is_zero(), a.is_zero(1e300)),
        lambda: [(x == y, x.equals(y, 0.5), x.is_zero()) for x in nonfinite for y in nonfinite],
        lambda: st.LevelTensor(2, 1, [True, False]).scale(2),
        lambda: st.LevelTensor(2, 2, [1, 2, 3]),
    )
    case(
        "TensorSeries",
        lambda: (group.constant_term, group.coefficient((1, 2, 1)), group.is_exact()),
        lambda: group.add(other),
        lambda: group.scale(Fraction(1, 3)),
        lambda: group.to_float().scale(-2.0),
        lambda: (group.negate(), group.eta_scale(-1), group.truncate(2)),
        lambda: (group.to_json(), st.TensorSeries.from_json(group.to_float().to_json())),
        lambda: (group == group.to_float(), group.equals(other, 1e-9)),
    )
    case("basis_series", lambda: st.basis_series(2, 3, 2))
    case("commutator", lambda: st.commutator(lie, st.log_series(other)))
    case(
        "concat_product",
        lambda: st.concat_product(group, other),
        lambda: st.concat_product(group.to_float(), other),
    )
    case("exp_series", lambda: st.exp_series(lie), lambda: st.exp_series(lie.to_float()))
    case("from_vector", lambda: st.from_vector([Fraction(1, 2), -3], 3), lambda: st.from_vector([0.5, -3.0], 2))
    case(
        "log_series",
        lambda: lie,
        lambda: st.log_series(group.to_float()),
        lambda: st.log_series(st.zero_series(2, 2)),
    )
    case("project_level", lambda: st.project_level(group, 2), lambda: st.project_level(group, 5))
    case("series_from_level", lambda: st.series_from_level(level), lambda: st.series_from_level(c, 3))
    case("unit_series", lambda: st.unit_series(3, 2))
    case("zero_series", lambda: st.zero_series(2, 3))

    # --- words
    case("all_words", lambda: list(st.all_words(2, 3)), lambda: list(st.all_words(3, 0)))
    case("index_word", lambda: st.index_word(5, 2, 3), lambda: st.index_word(9, 2, 3))
    case("word_from_string", lambda: st.word_from_string("2113", 3), lambda: st.word_from_string("14", 3))
    case("word_index", lambda: st.word_index((2, 1, 2), 2), lambda: st.word_index((), 2))
    case("word_to_string", lambda: st.word_to_string((1, 3, 2), 3))

    # --- lyndon
    coords = st.lyndon_coordinates(group)
    case("bracketing", lambda: st.bracketing((1, 1, 2)), lambda: st.bracketing((1, 2, 2), 3))
    case("cfl_factorization", lambda: st.cfl_factorization((2, 1, 1, 2, 1, 2)))
    case(
        "expand_from_lyndon",
        lambda: st.expand_from_lyndon(coords, 2, 4),
        lambda: st.expand_from_lyndon({w: float(v) for w, v in coords.items()}, 2, 4),
    )
    case("is_lyndon", lambda: (st.is_lyndon((1, 1, 2)), st.is_lyndon((1, 2, 1)), st.is_lyndon(())))
    case("lyndon_coordinates", lambda: coords, lambda: st.lyndon_coordinates(group.to_float()))
    case("lyndon_count", lambda: [st.lyndon_count(d, n) for d in (1, 2, 3) for n in (1, 4, 7)])
    case("lyndon_words", lambda: st.lyndon_words(2, 4), lambda: st.lyndon_words(3, 2))
    case("normal_form", lambda: st.normal_form((1, 2, 1), 2, 3), lambda: st.normal_form((2, 2, 1, 1), 2, 4))
    case("normal_form_table", lambda: st.normal_form_table(2, 3).to_json())
    table = st.NormalFormTable(2, 4)
    case(
        "NormalFormTable",
        lambda: table.table,
        lambda: (table.phi((2, 1, 1)), table.is_lyndon_word((1, 2)), table.int64_exits),
        lambda: list(table.forms()),
    )
    case("standard_factorization", lambda: st.standard_factorization((1, 1, 2, 1, 2)))

    # --- shuffle
    bump = st.LevelTensor(2, 3, [0] * 7 + [1])
    moved = st.TensorSeries(2, 4, [*group.levels[:3], group.levels[3].add(bump), group.levels[4]])
    case(
        "find_grouplike_violation",
        lambda: st.find_grouplike_violation(group),
        lambda: st.find_grouplike_violation(moved),
        lambda: st.find_grouplike_violation(moved.to_float(), 1e-9),
    )
    case(
        "find_lie_violation",
        lambda: st.find_lie_violation(lie),
        lambda: st.find_lie_violation(group),
        lambda: st.find_lie_violation(group.to_float(), 1e-9),
    )
    case(
        "is_grouplike",
        lambda: (st.is_grouplike(group), st.is_grouplike(moved), st.is_grouplike(group.to_float(), 1e-9)),
        lambda: [st.is_grouplike(t) for t in tails],
    )
    case(
        "is_lie",
        lambda: (st.is_lie(lie), st.is_lie(group), st.is_lie(lie.to_float(), 1e-9)),
        lambda: [st.is_lie(t) for t in tails],
    )
    case(
        "shuffle_form_eval",
        lambda: st.shuffle_form_eval((1,), (2, 1), level),
        lambda: st.shuffle_form_eval((1,), (2,), c),
    )
    words = st.shuffle_words((1, 2), (2,))
    case("shuffle_words", lambda: words, lambda: st.shuffle_words((), (1,)))
    case("WordCombination", lambda: (words.mass(), words.eval_on(level), words.eval_on(level.to_float())))

    # --- stochastic
    mu, s, q = _rationals(5, 2), _rationals(6, 4), _rationals(7, 4)
    sigma = [[sum(s[2 * i + t] * s[2 * j + t] for t in range(2)) for j in range(2)] for i in range(2)]  # A A^T
    skew = [[0, q[1]], [-q[1], 0]]
    model = st.BrownianModel(tuple(mu), tuple(map(tuple, sigma)), tuple(map(tuple, skew)))
    loose = st.BrownianModel(tuple(map(float, mu)), tuple(map(tuple, floats(sigma))))
    mixture = st.MixtureModel(((Fraction(1, 3), model), (Fraction(2, 3), st.BrownianModel((0, 1), ((1, 0), (0, 2))))))
    case(
        "BrownianModel",
        lambda: (model.to_json(), st.BrownianModel.from_json(loose.to_json(), exact=False), model.validate()),
    )
    case("MixtureModel", lambda: (mixture.to_json(), st.MixtureModel.from_json(mixture.to_json())))
    case("expected_signature", lambda: st.expected_signature(model, 4), lambda: st.expected_signature(loose, 3))
    case("gaussian_moment", lambda: st.gaussian_moment((2, 1), st.expected_signature(model, 3)))
    case("mixture_expected_signature", lambda: st.mixture_expected_signature(mixture, 3))

    # --- invariants
    four = st.project_level(st.pl_signature(steps, 4), 4)
    case("linear_invariants", lambda: st.linear_invariants(four), lambda: st.linear_invariants(four.to_float()))
    case("quadric_family_eval", lambda: [st.quadric_family_eval(level, f) for f in ("P", "L")])
    cube = st.project_level(st.pl_signature(_rows(_rationals(8, 9), 3), 3), 3)
    case("volume_invariant", lambda: st.volume_invariant(cube), lambda: st.volume_invariant(cube.to_float()))

    # --- matrices
    square = _rows(_rationals(9, 16), 4)
    skew4 = [[square[i][j] - square[j][i] for j in range(4)] for i in range(4)]
    two = st.project_level(st.pl_signature(_rows(_rationals(10, 8), 4), 2), 2)
    case("axis_matrix", lambda: st.axis_matrix(3), lambda: st.axis_matrix(3, 2))
    case("circuit_matrix", lambda: st.circuit_matrix(skew4, 2))
    case(
        "exact_det",
        lambda: st.exact_det(square),
        lambda: st.exact_det(floats(square)),
        lambda: st.exact_det([[1, 2]]),
    )
    case(
        "exact_rank",
        lambda: st.exact_rank(square),
        lambda: st.exact_rank(floats(square)),
        lambda: st.exact_rank(np.array([[1, 2], [2, 4]], dtype=np.int64)),
        lambda: st.exact_rank([[True, False], [False, True]]),
    )
    case("is_signature_matrix", lambda: (st.is_signature_matrix(two, 4), st.is_signature_matrix(square, 1)))
    case("matrix_to_tensor", lambda: st.matrix_to_tensor(square), lambda: st.matrix_to_tensor(floats(square)))
    case("mono_matrix", lambda: st.mono_matrix(3), lambda: st.mono_matrix(3, 2))
    case("mono_matrix_det", lambda: [st.mono_matrix_det(d) for d in (1, 2, 5)])
    case("mono_slice_det", lambda: [st.mono_slice_det(d) for d in (1, 2, 5)])
    case("mono_slice_matrix", lambda: st.mono_slice_matrix(3))
    case("mono_to_axis_congruence", lambda: st.mono_to_axis_congruence(3))
    case("pfaffian", lambda: st.pfaffian(skew4), lambda: st.pfaffian(skew4, (0, 2)), lambda: st.pfaffian(floats(skew4)))
    case(
        "signature_matrix_generators",
        lambda: st.signature_matrix_generators(square, 2),
        lambda: st.signature_matrix_generators(floats(square), 3),
    )
    case(
        "signature_matrix_witness",
        lambda: st.signature_matrix_witness(two, 4),
        lambda: st.signature_matrix_witness(square, 2),
    )
    pencil = st.split_pencil(square)
    case("split_pencil", lambda: pencil, lambda: st.split_pencil(floats(square)))
    case("MatrixPencil", lambda: (pencil.d, pencil.reconstruct()))

    # --- paths
    axis = st.AxisParallel(3, (1, 3, 2, 3), (Fraction(1), Fraction(-2), Fraction(1, 2), 3))
    family = [
        st.PiecewiseLinear(tuple(map(tuple, steps))),
        st.Polynomial(tuple(map(tuple, coeffs))),
        axis,
        st.LogLinear(lie.truncate(3)),
    ]
    case("AxisParallel", lambda: (axis.m, axis.lattice_length(), axis.to_piecewise_linear()))
    case("canonical_axis", lambda: st.canonical_axis(3, 3), lambda: st.canonical_axis(1, 4))
    case("canonical_mono", lambda: st.canonical_mono(3, 3), lambda: st.canonical_mono(4, 2))
    case("loglinear_level", lambda: st.loglinear_level(lie.truncate(3), 3), lambda: st.loglinear_level(group, 2))
    case("loglinear_signature", lambda: st.loglinear_signature(lie.truncate(2).to_float(), 3))
    case("path_to_json", *(lambda p=p: st.path_to_json(p) for p in family))
    case("path_from_json", *(lambda p=p: st.path_from_json(st.path_to_json(p), exact=False) for p in family))
    case(
        "pl_level_direct",
        lambda: st.pl_level_direct(steps, 3),
        lambda: st.pl_level_direct(floats(steps), 2),
        lambda: st.pl_level_direct([], 2),
    )
    case(
        "pl_signature",
        lambda: group,
        lambda: st.pl_signature(floats(steps), 3),
        lambda: st.pl_signature([[1, 2], [Fraction(1, 2), 0.5]], 2),
        lambda: st.pl_signature([], 2, d=3),
    )
    case(
        "pl_signature_congruence",
        lambda: st.pl_signature_congruence(steps, 3),
        lambda: st.pl_signature_congruence(floats(steps), 4),
        lambda: st.pl_signature_congruence([[1, 2], [3, -4]], 1),
    )
    case(
        "poly_signature_congruence",
        lambda: st.poly_signature_congruence(coeffs, 3),
        lambda: st.poly_signature_congruence(floats(coeffs), 3),
    )
    case(
        "poly_signature_integrate",
        lambda: st.poly_signature_integrate(coeffs, 3),
        lambda: st.poly_signature_integrate(floats(coeffs), 3),
        lambda: st.poly_signature_integrate([[1], [2, Fraction(1, 3)]], 2),
    )
    case("signature_level", *(lambda p=p, k=k: st.signature_level(p, k) for p in family for k in (0, 3)))
    case("signature_series", *(lambda p=p: st.signature_series(p, 3) for p in family))
    core3, core1 = st.canonical_axis(3, 3), st.canonical_mono(2, 1)
    matrix = _rows(_rationals(11, 6), 3)
    huge = [[2**70 + 1, -(2**70)], [3, 2**69], [-1, 5]]
    mixed = [[1, Fraction(1, 3), 0.5], [-2.0, 7, Fraction(-5, 2)]]
    case(
        "tensor_congruence",
        lambda: st.tensor_congruence(core3, matrix),
        lambda: st.tensor_congruence(core3, [[int(v * 4) for v in row] for row in matrix]),
        lambda: st.tensor_congruence(core3, floats(matrix)),
        lambda: st.tensor_congruence(core3, mixed),
        lambda: st.tensor_congruence(core3.to_float(), matrix),
        lambda: st.tensor_congruence(st.canonical_mono(2, 4), huge),
        lambda: st.tensor_congruence(st.LevelTensor(2, 2, [1, 2, 3, 4]), huge),
        lambda: st.tensor_congruence(core1, [[0.25, -0.0], [1e300, 1e-300]]),
        lambda: st.tensor_congruence(st.LevelTensor(3, 0, [Fraction(7, 2)]), [[1, 2, 3]]),
        lambda: st.tensor_congruence(core3, [[1, 2, 3], [4, 5]]),
        lambda: st.tensor_congruence(core3, [[1, 2], [3, 4]]),
        lambda: st.tensor_congruence(core3, [[True, False, True]]),
        lambda: st.tensor_congruence(core3, [[Dual(1, (1,)), 2, 3]]),
        lambda: st.tensor_congruence(core3, [["1", 2, 3]]),
    )

    # --- recovery
    near = [[1.1, -0.2], [0.15, 0.9]]
    target = st.signature_map("pl", near, 3)
    poly_target = st.signature_map("poly", near, 3)
    seeds = [  # exact Duals: rational values and partials
        [Dual(Fraction(v), (Fraction(i == j), Fraction(1, 3))) for j, v in enumerate(row)]
        for i, row in enumerate([[1, 2], [-1, 3]])
    ]
    float_seeds = [[Dual(v, (1.0, -0.5)) for v in row] for row in near]
    case(
        "signature_map",
        lambda: target,
        lambda: st.signature_map("poly", matrix, 3),
        lambda: st.signature_map("L", huge, 2),
        lambda: st.signature_map("pl", seeds, 3),
        lambda: st.signature_map("poly", float_seeds, 3),
        lambda: st.signature_map("pl", [[Dual(1, (1,)), 2.5]], 2),
        lambda: st.signature_map("spline", near, 3),
    )
    case(
        "gauss_newton_recover",
        lambda: st.gauss_newton_recover("pl", 2, 2, 3, target),
        lambda: st.gauss_newton_recover("poly", 2, 2, 3, poly_target, seed=3),
        lambda: st.gauss_newton_recover("pl", 2, 2, 4, st.signature_map("pl", near, 4), restarts=2),
        lambda: st.gauss_newton_recover("pl", 2, 1, 3, target, restarts=1),
    )
    case(
        "jacobian_rank",
        *(
            lambda args=args: st.jacobian_rank(*args)
            for args in [("pl", 3, 3, 3), ("poly", 3, 4, 3), ("pl", 2, 3, 5), ("P", 4, 2, 4, 2, 7), ("pl", 5, 2, 5)]
        ),
    )
    case("negate_odd_levels", lambda: st.negate_odd_levels(group))
    three = st.pl_signature(_rows(_rationals(12, 6), 2), 3).levels[3]
    case(
        "recover_group_element",
        lambda: st.recover_group_element(three),
        lambda: st.recover_group_element(level.to_float(), "real"),
        lambda: st.recover_group_element(group.levels[4], "real"),
        lambda: st.recover_group_element(st.LevelTensor.zeros(2, 3)),
    )
    two_step = st.project_level(st.pl_signature(_rows(_rationals(14, 4), 2), 3), 3)
    case(
        "recover_two_step_planar",
        lambda: st.recover_two_step_planar(two_step),
        lambda: st.recover_two_step_planar(two_step.to_float()),
        lambda: st.recover_two_step_planar(three),
    )
    quadratic = st.project_level(st.poly_signature_integrate(_rows(_rationals(13, 4), 2), 3), 3)
    case(
        "recover_quadratic_planar",
        lambda: st.recover_quadratic_planar(quadratic),
        lambda: st.recover_quadratic_planar(quadratic.to_float()),
    )

    def kernel(family, d, m, k, mode):
        core = paths._core_level(family, m, k)
        point = np.array(_rows(_rationals(d * 100 + m * 10 + k, d * m), m), dtype=object)
        if mode == "float":
            return lambda: recovery._image_and_jacobian(core.to_float().cube, point.astype(float))
        if mode == "exact":
            return lambda: recovery._image_and_jacobian(core.cube, point)
        ints = core.as_integers()[0].reshape((m,) * k)
        scaled = np.array([[int(v * 12) for v in row] for row in point], dtype=object)
        residues = matrices._residues(ints), matrices._residues(scaled)
        return lambda: recovery._image_and_jacobian(*residues, matrices._PRIME)

    shapes = [("pl", 2, 3, 1), ("poly", 3, 2, 3), ("pl", 2, 2, 4), ("poly", 1, 3, 2), ("pl", 3, 1, 3)]
    modes = ("float", "exact", "residue")
    case("recovery._image_and_jacobian", *(kernel(*shape, mode) for shape in shapes for mode in modes))

    # --- the command line, on input files written to the working directory of the dump
    files = {
        "pl.json": st.path_to_json(family[0]),
        "poly.json": st.path_to_json(family[1]),
        "axis.json": st.path_to_json(axis),
        "model.json": model.to_json(),
        "series.json": group.to_json(),
        "pencil.json": two.to_json(),
        "four.json": four.to_json(),
        "two_step.json": two_step.to_json(),
        "target.json": target.to_json(),
    }
    argvs = [
        ["compute", "pl.json", "--level", "3"],
        ["compute", "poly.json", "--trunc", "3", "--scalar", "float"],
        ["compute", "axis.json", "--level", "2"],
        ["expected", "model.json", "--trunc", "3"],
        ["expected", "model.json", "--trunc", "2", "--scalar", "float"],
        ["recover", "--family", "pl", "--d", "2", "--m", "2", "--k", "3", "--input", "two_step.json"],
        ["recover", "--family", "pl", "--d", "2", "--m", "2", "--k", "3", "--input", "target.json", "--mode", "newton"],
        ["lyndon", "--d", "2", "--n", "4"],
        ["lyndon", "--d", "3", "--n", "5", "--count-only"],
        ["normal-form", "--d", "2", "--n", "3"],
        ["normal-form", "--d", "2", "--n", "3", "--word", "211"],
        ["check", "series.json", "--what", "grouplike"],
        ["check", "series.json", "--what", "lie", "--tol", "1e-9"],
        ["check", "pencil.json", "--what", "Mdm", "--m", "2"],
        ["invariants", "four.json"],
        ["verify-vanishing", "axis.json", "--upto", "4"],
        [],
        ["compute", "missing.json", "--level", "2"],
        ["lyndon", "--d", "0", "--n", "2"],
    ]
    case("cli.main", *(lambda argv=argv: _cli(argv, files) for argv in argvs))
    return out


def _cli(argv, files) -> tuple:
    """(exit code, stdout read as JSON when it is JSON, stderr) of `cli.main(argv)`, with the input files
    written to the working directory first."""
    import contextlib
    import io
    import json

    from sigtensor.cli import main

    for name, data in files.items():
        Path(name).write_text(json.dumps(data))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    try:
        return code, json.loads(out.getvalue()), err.getvalue()
    except ValueError:
        return code, out.getvalue(), err.getvalue()


def _typed(value) -> str:
    """The typed text of a scalar leaf: floats by hex, exact numbers in full."""
    import numpy as np

    kind = type(value).__name__
    if isinstance(value, (float, np.floating)):
        return f"{kind} {float(value).hex()}"
    if isinstance(value, (bool, np.bool_)) or value is None:
        return f"{kind} {value}"
    if isinstance(value, (int, np.integer)):
        return f"{kind} {int(value)}"
    if isinstance(value, Fraction):
        return f"{kind} {value.numerator}/{value.denominator}"
    if isinstance(value, (str, bytes)):
        return f"{kind} {value!r}"
    raise TypeError(f"no typed text for a {kind}")


def _leaves(value, path: str):
    """(path, text) for the value and, below it, every part of it."""
    import numpy as np

    kind = type(value).__name__
    if isinstance(value, BaseException):
        yield path, f"raise {kind}: {value}"
        for name, part in sorted(vars(value).items()):  # what a refusal carries, such as RecoveryFailed's best matrix
            yield from _leaves(part, f"{path}.{name}")
    elif kind == "LevelTensor":
        yield path, f"LevelTensor d={value.d} k={value.k}"
        for i, entry in enumerate(value.entries):
            yield from _leaves(entry, f"{path}[{i}]")
    elif kind == "TensorSeries":
        yield path, f"TensorSeries d={value.d} n={value.n}"
        for k, level in enumerate(value.levels):
            yield from _leaves(level, f"{path}.levels[{k}]")
    elif isinstance(value, np.ndarray):
        yield path, f"ndarray {value.dtype} {value.shape}"
        for i, entry in enumerate(value.reshape(-1) if value.dtype == object else value.reshape(-1).tolist()):
            yield from _leaves(entry if value.dtype == object else value.dtype.type(entry), f"{path}[{i}]")
    elif dataclasses.is_dataclass(value) and not isinstance(value, type):
        yield path, kind
        for field in dataclasses.fields(value):
            yield from _leaves(getattr(value, field.name), f"{path}.{field.name}")
    elif isinstance(value, dict):
        yield path, f"{kind}[{len(value)}]"
        for key, entry in value.items():
            yield from _leaves(entry, f"{path}[{key!r}]")
    elif isinstance(value, (list, tuple)):
        yield path, f"{kind}[{len(value)}]"
        for i, entry in enumerate(value):
            yield from _leaves(entry, f"{path}[{i}]")
    elif kind == "Dual":
        yield path, kind
        yield from _leaves(value.a, f"{path}.a")
        yield from _leaves(value.b, f"{path}.b")
    else:
        yield path, _typed(value)


def dump() -> list:
    """The corpus lines of the tree on sys.path, run in a temporary working directory."""
    import tempfile

    lines, counts = [], Counter()
    with tempfile.TemporaryDirectory(prefix="corpus-") as directory:
        os.chdir(directory)
        for name, call in cases():
            i = counts[name]
            counts[name] += 1
            try:
                result = call()
            except Exception as exc:  # a refusal is an output too
                result = exc
            lines += [f"{name}#{i}{path} = {text}" for path, text in _leaves(result, "")]
        os.chdir(Path(__file__).parent)
    return lines


def _dump_tree(src: str) -> list:
    """The dump of one tree, made by this script in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=str(Path(src).resolve()), PYTHONDONTWRITEBYTECODE="1", PYTHONHASHSEED="0")
    env["COLUMNS"] = "100"  # argparse wraps its usage text to the terminal width
    done = subprocess.run(
        [sys.executable, __file__, "--dump"], env=env, capture_output=True, text=True, cwd=Path(__file__).parent
    )
    if done.returncode != 0:
        raise SystemExit(f"the dump of {src} failed:\n{done.stderr}")
    return done.stdout.splitlines()


def compare(old: list, new: list) -> tuple:
    """(differing lines, count per public function): lines paired by their `name#i path` key, in order."""
    key = lambda line: line.split(" = ", 1)[0]
    before, after = {key(line): line for line in old}, {key(line): line for line in new}
    differ, counts = [], Counter()
    for k in [*before, *(k for k in after if k not in before)]:
        if before.get(k) != after.get(k):
            differ += [f"{sign} {side[k]}" for sign, side in (("-", before), ("+", after)) if k in side]
            counts[k.split("#", 1)[0]] += 1
    return differ, counts


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", help="the source tree to dump (the directory that holds sigtensor/)")
    parser.add_argument("--compare", metavar="SRC", help="a second source tree, compared line by line")
    parser.add_argument("--dump", action="store_true", help=argparse.SUPPRESS)  # the child process
    args = parser.parse_args(argv)
    if args.dump:
        print("\n".join(dump()))
        return 0
    if args.src is None:
        parser.error("--src is required")
    old = _dump_tree(args.src)
    if args.compare is None:
        print("\n".join(old))
        return 0
    new = _dump_tree(args.compare)
    differ, counts = compare(old, new)
    print("\n".join(differ[:SHOWN]))
    for name, count in sorted(counts.items()):
        print(f"{count:8} {name}")
    print(f"{sum(counts.values())} of {len(old)} lines differ ({len(new)} lines in --compare)")
    return 1 if counts else 0


if __name__ == "__main__":
    sys.exit(main())
