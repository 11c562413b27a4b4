"""Seeded inputs, operation lists and output oracles of the four workloads.

generate(workload, seed) returns plain data (lists of Fractions, floats and
ints), so one seed always yields the same inputs.  build(...) turns them
into Ops.  Each Op's `run` is what the benchmark times; its `check` runs
after the timed region and compares the result with an oracle that does
not share code with the engine under test: sigtensor's independent second
engines (the congruence engines of criterion C02), the reference algebra
in refalg.py, closed formulas, or numpy.
"""

from __future__ import annotations

import json
import math
import os
import random
import subprocess
import sys
from fractions import Fraction
from typing import Callable, NamedTuple

import numpy as np

import refalg

WORKLOADS = ("forward", "inverse", "algebra", "cli")
FLOAT_TOL = 1e-9


class Op(NamedTuple):
    name: str
    mode: str  # "exact" or "float"
    run: Callable[[], object]
    check: Callable[[object], bool]
    argv: tuple = ()  # cli ops: the arguments after `python -m sigtensor.cli`


# --- input generation ---------------------------------------------------------

# (d, m, n) -> instances per pass.  Small shapes outnumber large ones so that
# the median latency falls on overhead-bound calls and p90 on kernel-bound
# ones.  The counts put both pooled percentiles in the middle of a block of
# like calls; at the edge of a block a percentile jumps to the next block as
# noise reorders the calls.  Of the 68 forward operations the median sits
# among the twelve exact (3,3,4) calls and p90 among the six exact (3,5,5)
# calls, under the two (3,10,6) and two (4,4,5) calls.  Of the 41 inverse
# operations the median sits among the eight float (pl,4,3) probes and p90
# among the 150-250 ms solves and ranks.
FORWARD_PL = {(2, 3, 4): 1, (3, 3, 4): 12, (2, 5, 6): 1, (3, 5, 5): 6, (4, 4, 5): 1, (3, 10, 6): 1}
FORWARD_POLY = {(2, 3, 6): 1, (3, 3, 5): 1}
FORWARD_LIE = {(3, 4): 3, (2, 5): 3}  # (d, n) of log-linear paths
FORWARD_MODELS = 2  # Brownian models and two-component mixtures at d=3, n=5
GN_SHAPES = {("pl", 2, 4): 2, ("poly", 2, 3): 2, ("poly", 2, 4): 2, ("pl", 3, 4): 1}  # (family, d=m, k)
PROBES = {(f, d, k): 1 for d in (2, 3, 4) for k in (3, 4) for f in ("pl", "poly")}
PROBES.update({("pl", 4, 3): 8, ("poly", 4, 3): 2})
JACOBIANS = [("pl", 3, 3, 3), ("pl", 4, 3, 4), ("poly", 3, 4, 3), ("pl", 6, 3, 6)]  # (family, d, k, m)
GROUP_SHAPES = [(2, 3), (2, 4), (3, 3), (3, 4)]  # (d, n) of recover_group_element
TABLES = [(2, 8), (3, 6), (4, 5), (2, 6), (3, 5), (4, 4)]
SERIES_ORDERS = (5, 6)  # group-like and Lie tests at d=3


def _q(rng) -> Fraction:
    """Nonzero rational with a small numerator and denominator."""
    return Fraction(rng.choice((-5, -4, -3, -2, -1, 1, 2, 3, 4, 5)), rng.randint(1, 3))


def _vectors(rng, count, d):
    return [[_q(rng) for _ in range(d)] for _ in range(count)]


def _plane_pair(rng):
    """Two rational plane vectors spanning the plane: the closed forms need a rank-2 path matrix."""
    while True:
        (a, b), (c, e) = _vectors(rng, 2, 2)
        if a * e != b * c:
            return [[a, b], [c, e]]


def _matrix(rng, d, m):
    """Float matrix with entries bounded away from zero."""
    return [[rng.choice((-1, 1)) * rng.uniform(0.5, 1.5) for _ in range(m)] for _ in range(d)]


def _near_identity(rng, d):
    """Gauss-Newton target matrix: identity plus entries in [-0.3, 0.3]."""
    return [[float(i == j) + rng.uniform(-0.3, 0.3) for j in range(d)] for i in range(d)]


def _model(rng, d):
    a = _vectors(rng, d, d)
    sigma = [[sum(a[i][t] * a[j][t] for t in range(d)) for j in range(d)] for i in range(d)]
    upper = _vectors(rng, d, d)
    q = [[(upper[i][j] - upper[j][i]) / 2 for j in range(d)] for i in range(d)]
    return {"mu": _vectors(rng, 1, d)[0], "sigma": sigma, "q": q}


def _lie(rng, d, n):
    return {"vectors": _vectors(rng, n, d), "coeffs": [_q(rng) for _ in range(n)]}


def generate(workload: str, seed: int) -> dict:
    rng = random.Random(f"{workload}:{seed}")
    if workload == "forward":
        return {
            "pl": [(s, _vectors(rng, s[1], s[0])) for s, c in FORWARD_PL.items() for _ in range(c)],
            "poly": [(s, _vectors(rng, s[0], s[1])) for s, c in FORWARD_POLY.items() for _ in range(c)],
            "lie": [(d, n, _lie(rng, d, n)) for (d, n), c in FORWARD_LIE.items() for _ in range(c)],
            "brownian": [_model(rng, 3) for _ in range(FORWARD_MODELS)],
            "mixture": [
                [(w, _model(rng, 3)) for w in (Fraction(k, 5), 1 - Fraction(k, 5))]
                for k in (rng.randint(1, 4) for _ in range(FORWARD_MODELS))
            ],
        }
    if workload == "inverse":
        return {
            "gn": [(f, d, k, _near_identity(rng, d)) for (f, d, k), c in GN_SHAPES.items() for _ in range(c)],
            "probes": [(f, d, k, _matrix(rng, d, d)) for (f, d, k), c in PROBES.items() for _ in range(c)],
            "group": [(d, n, _vectors(rng, 3, d)) for d, n in GROUP_SHAPES],
            "two_step": _plane_pair(rng),
            "quadratic": _plane_pair(rng),
        }
    if workload == "algebra":
        return {
            "tables": [(d, n, _vectors(rng, 2, d)) for d, n in TABLES],
            "expand": [(n, _vectors(rng, 3, 3)) for n in SERIES_ORDERS],
            "series": [(n, _lie(rng, 3, n), rng.randrange(3**3)) for n in SERIES_ORDERS],
        }
    if workload == "cli":
        return {
            "path": _vectors(rng, 4, 3),
            "model": _model(rng, 2),
            "grouplike": _vectors(rng, 3, 2),
            "mdm": _vectors(rng, 2, 4),
            "word": [rng.choice((2, 3))] + [rng.randint(1, 3) for _ in range(3)],
            "invariant_paths": [_vectors(rng, 2, 2), _vectors(rng, 3, 3)],
            "axis": [rng.randint(1, 2) for _ in range(6)],
            "two_step": _plane_pair(rng),
            "newton": _near_identity(rng, 2),
        }
    raise ValueError(f"unknown workload {workload!r}")


# --- helpers shared by the oracles ----------------------------------------------


def _series(st, levels):
    d = len(levels[1]) if len(levels) > 1 else 1
    return st.TensorSeries(d, len(levels) - 1, [st.LevelTensor(d, k, lvl) for k, lvl in enumerate(levels)])


def _floats(levels):
    return [[float(v) for v in lvl] for lvl in levels]


def _same(levels, series) -> bool:
    return len(levels) == len(series.levels) and all(
        list(lvl) == list(t.entries) for lvl, t in zip(levels, series.levels)
    )


def _near(levels, series, floor=1.0) -> bool:
    return len(levels) == len(series.levels) and all(
        refalg.levels_close(list(t.entries), lvl, FLOAT_TOL, floor) for lvl, t in zip(levels, series.levels)
    )


def _pair(name, exact_run, float_run, truth, floor=1.0):
    """An exact op checked against truth() and a float op checked against the verified exact result.

    `floor` raises the scale of the float comparison where the float algorithm
    cancels terms as large as the input's entries (the logarithm does).
    """
    box = {}

    def check_exact(result):
        if not truth(result):
            return False
        box["levels"] = [list(t.entries) for t in result.levels]
        return True

    return [
        Op(name, "exact", exact_run, check_exact),
        Op(name, "float", float_run, lambda result: _near(box["levels"], result, floor)),
    ]


def _congruence(core: np.ndarray, mats) -> np.ndarray:
    """Apply mats[i] (d x m) to mode i of the core."""
    out = core
    for axis, mat in enumerate(mats):
        out = np.moveaxis(np.tensordot(mat, out, axes=([1], [axis])), 0, axis)
    return out


def _core(family, m, k) -> np.ndarray:
    flat = refalg.axis_core(m, k) if family == "pl" else refalg.mono_core(m, k)
    return np.array([float(v) for v in flat]).reshape((m,) * k)


def _image(family, x, k) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    return _congruence(_core(family, x.shape[1], k), [x] * k).ravel()


def _jacobian(family, x, k) -> np.ndarray:
    """(d*m) x d^k Jacobian of X -> core . X^(x)k, one mode at a time."""
    x = np.asarray(x, dtype=float)
    d, m = x.shape
    core = _core(family, m, k)
    rows = []
    for a in range(d):
        for b in range(m):
            e = np.zeros((d, m))
            e[a, b] = 1.0
            rows.append(sum(_congruence(core, [e if i == j else x for j in range(k)]) for i in range(k)).ravel())
    return np.array(rows)


def _proportional(got, want) -> bool:
    got, want = [Fraction(v) for v in got], [Fraction(v) for v in want]
    return any(got) and all(g * w2 == g2 * w for g, w in zip(got, want) for g2, w2 in zip(got, want))


def _exact_congruence(flat, m, k, matrix):
    """core . M^(x)k for a flat exact core of order k over m letters."""
    d = len(matrix)
    out = list(flat)
    for _ in range(k):
        rest = len(out) // m
        out = [sum(matrix[b][a] * out[a * rest + r] for a in range(m)) for r in range(rest) for b in range(d)]
    return out


def _index(word, d):
    """Dense base-d index of a word, as in sigtensor's level layout."""
    return sum((c - 1) * d ** (len(word) - 1 - i) for i, c in enumerate(word))


def _lyndon_words(d, n):
    words = []
    for k in range(1, n + 1):
        for i in range(d**k):
            w = tuple(1 + (i // d ** (k - 1 - j)) % d for j in range(k))
            if all(w < w[r:] + w[:r] for r in range(1, k)):
                words.append(w)
    return sorted(words)


# --- forward ----------------------------------------------------------------


def _pl_top(st, steps, n):
    """Top level by the congruence engine; long paths split in two by Chen's identity."""
    if len(steps) <= 5:
        return list(st.pl_signature_congruence(steps, n).entries)
    half = len(steps) // 2
    parts = [
        [[Fraction(1)]] + [list(st.pl_signature_congruence(part, k).entries) for k in range(1, n + 1)]
        for part in (steps[:half], steps[half:])
    ]
    return refalg.product_level(parts[0], parts[1], n)


def _expected_low(model, weight=1):
    """Levels 1-2 of an expected signature: mu and mu(x)mu/2 + sigma/2 + q."""
    mu, sigma, q = model["mu"], model["sigma"], model["q"]
    d = len(mu)
    level2 = [mu[i] * mu[j] / 2 + sigma[i][j] / 2 + q[i][j] for i in range(d) for j in range(d)]
    return [weight * v for v in mu], [weight * v for v in level2]


def _expected_truth(model, n, weight=1):
    """weight * exp(mu + sigma/2 + q) by the reference algebra."""
    mu, sigma, q = model["mu"], model["sigma"], model["q"]
    d = len(mu)
    exponent = [[Fraction(0)], list(mu), [sigma[i][j] / 2 + q[i][j] for i in range(d) for j in range(d)]]
    exponent += [[Fraction(0)] * d**k for k in range(3, n + 1)]
    return [refalg.scale(level, weight) for level in refalg.exp(exponent)]


def _expected_ok(result, components):
    """Levels 1-2 by the closed formula and every level by the reference algebra."""
    parts = [_expected_low(m, w) for w, m in components]
    low = [[sum(values) for values in zip(*(part[i] for part in parts))] for i in (0, 1)]
    if [list(result.levels[1].entries), list(result.levels[2].entries)] != low:
        return False
    truth = _expected_truth(components[0][1], result.n, components[0][0])
    for w, m in components[1:]:
        truth = [refalg.add(a, b) for a, b in zip(truth, _expected_truth(m, result.n, w))]
    return _same(truth, result)


def _brownian(st, model, convert):
    return st.BrownianModel(
        tuple(convert(v) for v in model["mu"]),
        tuple(tuple(convert(v) for v in row) for row in model["sigma"]),
        tuple(tuple(convert(v) for v in row) for row in model["q"]),
    )


def _forward(st, inputs):
    ops = []
    for (d, m, n), steps in inputs["pl"]:
        fsteps = [[float(v) for v in s] for s in steps]
        ops += _pair(
            f"pl_signature{(d, m, n)}",
            lambda steps=steps, n=n: st.pl_signature(steps, n),
            lambda fsteps=fsteps, n=n: st.pl_signature(fsteps, n),
            lambda r, steps=steps, n=n: list(r.levels[n].entries) == _pl_top(st, steps, n),
        )
    for (d, m, n), coeffs in inputs["poly"]:
        fcoeffs = [[float(v) for v in row] for row in coeffs]
        ops += _pair(
            f"poly_signature_integrate{(d, m, n)}",
            lambda coeffs=coeffs, n=n: st.poly_signature_integrate(coeffs, n),
            lambda fcoeffs=fcoeffs, n=n: st.poly_signature_integrate(fcoeffs, n),
            lambda r, coeffs=coeffs, n=n: list(r.levels[n].entries)
            == list(st.poly_signature_congruence(coeffs, n).entries),
        )
    for d, n, spec in inputs["lie"]:
        lie = refalg.lie_element(spec["vectors"], spec["coeffs"], n)
        exact, flt = _series(st, lie), _series(st, _floats(lie))
        ops += _pair(
            f"loglinear_signature{(d, n)}",
            lambda exact=exact, n=n: st.loglinear_signature(exact, n),
            lambda flt=flt, n=n: st.loglinear_signature(flt, n),
            lambda r, lie=lie: _same(refalg.exp(lie), r),
        )
    for model in inputs["brownian"]:
        exact, flt = _brownian(st, model, Fraction), _brownian(st, model, float)
        ops += _pair(
            "expected_signature(3,5)",
            lambda exact=exact: st.expected_signature(exact, 5),
            lambda flt=flt: st.expected_signature(flt, 5),
            lambda r, model=model: _expected_ok(r, [(1, model)]),
        )
    for components in inputs["mixture"]:
        exact = st.MixtureModel(tuple((w, _brownian(st, m, Fraction)) for w, m in components))
        flt = st.MixtureModel(tuple((float(w), _brownian(st, m, float)) for w, m in components))
        ops += _pair(
            "mixture_expected_signature(3,5)",
            lambda exact=exact: st.mixture_expected_signature(exact, 5),
            lambda flt=flt: st.mixture_expected_signature(flt, 5),
            lambda r, components=components: _expected_ok(r, components),
        )
    return ops


# --- inverse ----------------------------------------------------------------


def _inverse(st, inputs):
    from sigtensor import dual

    ops = []
    for family, d, k, x in inputs["gn"]:
        target = st.LevelTensor(d, k, _image(family, x, k).tolist())

        def check_gn(result, family=family, k=k, target=target):
            image = np.array([float(v) for v in st.signature_map(family, result.matrix, k).entries])
            want = np.array(target.entries)
            return float(np.linalg.norm(image - want) / np.linalg.norm(want)) < 1e-10

        ops.append(
            Op(
                f"gauss_newton_recover({family},{d},{k})",
                "float",
                lambda family=family, d=d, k=k, target=target: st.gauss_newton_recover(family, d, d, k, target),
                check_gn,
            )
        )
    for family, d, k, x in inputs["probes"]:

        def check_probe(image, family=family, x=x, k=k, x_size=d * d):
            zero = (0.0,) * x_size
            values = np.array([float(getattr(e, "a", e)) for e in image.entries])
            jac = np.array([getattr(e, "b", zero) for e in image.entries], dtype=float).T
            return np.allclose(values, _image(family, x, k), rtol=FLOAT_TOL, atol=FLOAT_TOL) and np.allclose(
                jac, _jacobian(family, x, k), rtol=FLOAT_TOL, atol=FLOAT_TOL
            )

        ops.append(
            Op(
                f"signature_map_dual({family},{d},{k})",
                "float",
                lambda family=family, x=x, k=k: st.signature_map(family, dual.seed_matrix(x), k),
                check_probe,
            )
        )
    for family, d, k, m in JACOBIANS:
        ops.append(
            Op(
                f"jacobian_rank{(family, d, k, m)}",
                "exact",
                lambda a=(family, d, k, m): st.jacobian_rank(*a),
                lambda report, d=d, m=m: report.rank == d * m,
            )
        )
    for d, n, steps in inputs["group"]:
        truth = refalg.chen(steps, n)
        sibling = [refalg.scale(lvl, (-1) ** k) for k, lvl in enumerate(truth)]
        tensor = st.LevelTensor(d, n, truth[n])

        def check_exact(result, truth=truth, sibling=sibling):
            return _same(truth, result.series) or _same(sibling, result.series)

        def check_real(result, truth=truth, sibling=sibling):
            return _near(truth, result.series) or _near(sibling, result.series)

        ops.append(
            Op(f"recover_group_element{(d, n)}", "exact", lambda t=tensor: st.recover_group_element(t), check_exact)
        )
        ops.append(
            Op(
                f"recover_group_element{(d, n)}",
                "float",
                lambda t=tensor: st.recover_group_element(t, mode="real"),
                check_real,
            )
        )
    steps = inputs["two_step"]
    two_step = st.LevelTensor(2, 3, refalg.chen(steps, 3)[3])
    ops.append(
        Op(
            "recover_two_step_planar",
            "exact",
            lambda: st.recover_two_step_planar(two_step),
            lambda point: _proportional(point, steps[0] + steps[1]),
        )
    )
    coeffs = inputs["quadratic"]
    quadratic = st.LevelTensor(2, 3, _exact_congruence(refalg.mono_core(2, 3), 2, 3, coeffs))
    ops.append(
        Op(
            "recover_quadratic_planar",
            "exact",
            lambda: st.recover_quadratic_planar(quadratic),
            lambda point: _proportional(point, coeffs[0] + coeffs[1]),
        )
    )
    return ops


# --- algebra ----------------------------------------------------------------


def _table_truth(d, n, steps):
    """Check a NormalFormTable on the group-like signature of a two-step path."""

    def check(table):
        series = refalg.chen(steps, n)
        coords = {w: series[len(w)][_index(w, d)] for w in _lyndon_words(d, n)}
        sample = random.Random(d * 100 + n)
        if len(table.table) != sum(d**k for k in range(1, n + 1)):
            return False
        if list(table.basis.words) != _lyndon_words(d, n):
            return False
        for k in range(1, n + 1):
            for i in sample.sample(range(d**k), min(d**k, 6)):
                w = tuple(1 + (i // d ** (k - 1 - j)) % d for j in range(k))
                value = sum(c * math.prod(coords[v] for v in mono) for mono, c in table.table[w].items())
                if value != series[k][i]:
                    return False
        return True

    return check


def _algebra(st, inputs):
    ops = []
    for d, n, steps in inputs["tables"]:
        ops.append(
            Op(f"NormalFormTable{(d, n)}", "exact", lambda d=d, n=n: st.NormalFormTable(d, n), _table_truth(d, n, steps))
        )
    for n, steps in inputs["expand"]:
        truth = refalg.chen(steps, n)
        values = {w: truth[len(w)][_index(w, 3)] for w in _lyndon_words(3, n)}
        for _ in range(2):  # the first call builds the shared table, the second reuses it
            ops.append(
                Op(
                    f"expand_from_lyndon(3,{n})",
                    "exact",
                    lambda values=values, n=n: st.expand_from_lyndon(values, 3, n),
                    lambda r, truth=truth: _same(truth, r),
                )
            )
    for n, spec, spot in inputs["series"]:
        lie = refalg.lie_element(spec["vectors"], spec["coeffs"], n)
        group = refalg.exp(lie)
        # one level-3 entry moved by 1 breaks both laws part-way through the scan
        bad_group = [list(lvl) for lvl in group]
        bad_group[3][spot] += 1
        bad_lie = [list(lvl) for lvl in lie]
        bad_lie[3][spot] += 1
        cases = [
            ("is_grouplike", group, True),
            ("is_grouplike", bad_group, False),
            ("is_lie", lie, True),
            ("is_lie", bad_lie, False),
            ("log_series", group, lie),
            ("log_series", bad_group, None),
        ]
        for fn, levels, answer in cases:
            exact, flt = _series(st, levels), _series(st, _floats(levels))
            if fn == "log_series":
                ops += _pair(
                    f"log_series(3,{n})",
                    lambda s=exact: st.log_series(s),
                    lambda s=flt: st.log_series(s),
                    lambda r, answer=answer, levels=levels: _same(answer or refalg.log(levels), r),
                    floor=float(max(abs(v) for lvl in levels for v in lvl)),
                )
                continue
            label = f"{fn}(3,{n},{'member' if answer else 'perturbed'})"
            ops.append(Op(label, "exact", lambda fn=fn, s=exact: getattr(st, fn)(s), lambda r, a=answer: r is a))
            ops.append(
                Op(label, "float", lambda fn=fn, s=flt: getattr(st, fn)(s, FLOAT_TOL), lambda r, a=answer: r is a)
            )
    return ops


# --- cli ----------------------------------------------------------------------


def _fmt(v):
    v = Fraction(v)
    return str(v.numerator) if v.denominator == 1 else f"{v.numerator}/{v.denominator}"


def _write(workdir, name, payload):
    path = os.path.join(workdir, name)
    with open(path, "w") as handle:
        json.dump(payload, handle)
    return path


def cli_calls(st, inputs, workdir):
    """(subcommand, argv, mode, expected exit code, check(doc)) for one pass."""
    path = inputs["path"]
    series = refalg.chen(path, 3)
    pl_file = _write(workdir, "path.json", {"type": "piecewise_linear", "dim": 3, "steps": [[_fmt(v) for v in s] for s in path]})

    model = inputs["model"]
    expected = _expected_truth(model, 4)
    model_file = _write(
        workdir,
        "model.json",
        {key: [_fmt(v) for v in val] if key == "mu" else [[_fmt(v) for v in r] for r in val] for key, val in model.items()},
    )

    group = refalg.chen(inputs["grouplike"], 4)
    bad = [list(lvl) for lvl in group]
    bad[3][5] += 1
    group_file = _write(workdir, "group.json", _series(st, group).to_json())
    bad_file = _write(workdir, "bad.json", _series(st, bad).to_json())
    float_file = _write(workdir, "group_float.json", _series(st, _floats(group)).to_json())
    mdm_file = _write(workdir, "mdm.json", st.LevelTensor(4, 2, refalg.chen(inputs["mdm"], 2)[2]).to_json())
    bad_violation = st.find_grouplike_violation(_series(st, bad))

    word = "".join(str(c) for c in inputs["word"])
    inv_files = []
    for steps in inputs["invariant_paths"]:
        d = len(steps[0])
        inv_files.append((d, _write(workdir, f"inv{d}.json", st.LevelTensor(d, 3, refalg.chen(steps, 3)[3]).to_json())))

    dirs = inputs["axis"]
    lengths = [1, -1] * 3
    axis_steps = [[Fraction(int(dr == i + 1) * a) for i in range(2)] for dr, a in zip(dirs, lengths)]
    axis_series = refalg.chen(axis_steps, 6)
    first = next((k for k in range(1, 7) if any(axis_series[k])), None)
    axis_file = _write(workdir, "axis.json", {"type": "axis_parallel", "dim": 2, "dirs": dirs, "lengths": [str(a) for a in lengths]})

    steps = inputs["two_step"]
    two_file = _write(workdir, "two.json", st.LevelTensor(2, 3, refalg.chen(steps, 3)[3]).to_json())
    x = inputs["newton"]
    newton_target = _image("pl", x, 4)
    newton_file = _write(workdir, "newton.json", st.LevelTensor(2, 4, newton_target.tolist()).to_json())

    def same_series(levels, near=False):
        def check(doc):
            got = st.TensorSeries.from_json(doc)
            return _near(levels, got) if near else _same(levels, got)

        return check

    def invariants_answer(d, file):
        with open(file) as handle:
            tensor = st.LevelTensor.from_json(json.load(handle))
        out = {"l1": None, "l2": None, "volume": None, "quadrics_P": None, "quadrics_L": None}
        if d == 3:
            inv = st.linear_invariants(tensor)
            for key in ("l1", "l2", "volume"):
                value = getattr(inv, key)
                out[key] = None if value is None else st.scalars.format_scalar(value)
        else:
            out["quadrics_P"] = [st.scalars.format_scalar(v) for v in st.quadric_family_eval(tensor, "P")]
            out["quadrics_L"] = [st.scalars.format_scalar(v) for v in st.quadric_family_eval(tensor, "L")]
        return out

    def newton_ok(doc):
        image = _image("pl", doc["matrix"], 4)
        if np.linalg.norm(image - newton_target) >= 1e-9 * np.linalg.norm(newton_target):
            return False
        with open(newton_file) as handle:
            target = st.LevelTensor.from_json(json.load(handle))
        result = st.gauss_newton_recover("pl", 2, 2, 4, target, tol=1e-10, seed=0)
        return doc == {
            "matrix": result.matrix.tolist(),
            "projective": False,
            "residual": result.residual,
            "multiplicity": 4,
            "restarts": result.restarts_used,
        }

    def mdm_ok(doc):
        with open(mdm_file) as handle:
            tensor = st.LevelTensor.from_json(json.load(handle))
        ok, witness = st.signature_matrix_witness(tensor, 2)
        generators = [st.scalars.format_scalar(v) for v in st.matrices.signature_matrix_generators(tensor, 2)]
        return ok is True and doc == {"ok": ok, "witness": witness, "generators": generators}

    left, right, *values = bad_violation
    calls = [
        ("compute", ["compute", pl_file, "--level", "3"], "exact", 0,
         lambda doc: list(st.LevelTensor.from_json(doc).entries) == series[3]),
        ("compute", ["compute", pl_file, "--trunc", "3"], "exact", 0, same_series(series)),
        ("compute", ["compute", pl_file, "--trunc", "3", "--scalar", "float"], "float", 0, same_series(series, near=True)),
        ("expected", ["expected", model_file, "--trunc", "4"], "exact", 0, same_series(expected)),
        ("expected", ["expected", model_file, "--trunc", "4", "--scalar", "float"], "float", 0, same_series(expected, near=True)),
        ("check", ["check", group_file, "--what", "grouplike"], "exact", 0, lambda doc: doc == {"ok": True, "witness": None}),
        ("check", ["check", bad_file, "--what", "grouplike"], "exact", 1,
         lambda doc: doc == {"ok": False, "witness": {"left": "".join(map(str, left)), "right": "".join(map(str, right)),
                                                      "values": [st.scalars.format_scalar(v) for v in values]}}),
        ("check", ["check", float_file, "--what", "grouplike", "--tol", "1e-9"], "float", 0,
         lambda doc: doc == {"ok": True, "witness": None}),
        ("check", ["check", mdm_file, "--what", "Mdm", "--m", "2"], "exact", 0, mdm_ok),
        ("lyndon", ["lyndon", "--d", "3", "--n", "5"], "exact", 0,
         lambda doc: doc["count"] == len(_lyndon_words(3, 5))
         and doc["words"] == ["".join(map(str, w)) for w in _lyndon_words(3, 5)]),
        ("normal-form", ["normal-form", "--d", "3", "--n", "4", "--word", word], "exact", 0,
         lambda doc: doc == st.lyndon.poly_to_json(tuple(inputs["word"]), st.normal_form(inputs["word"], 3, 4))),
        ("normal-form", ["normal-form", "--d", "2", "--n", "5"], "exact", 0,
         lambda doc: doc == st.NormalFormTable(2, 5).to_json()),
        *[
            ("invariants", ["invariants", file], "exact", 0, lambda doc, d=d, file=file: doc == invariants_answer(d, file))
            for d, file in inv_files
        ],
        ("verify-vanishing", ["verify-vanishing", axis_file, "--upto", "6"], "exact", 0,
         lambda doc: doc == {"firstNonzeroLevel": first, "latticeLength": "6", "upto": 6}),
        ("recover", ["recover", "--family", "pl", "--d", "2", "--m", "2", "--k", "3", "--input", two_file], "exact", 0,
         lambda doc: set(doc) == {"matrix", "projective", "residual", "multiplicity"}
         and _proportional([Fraction(v) for column in zip(*doc["matrix"]) for v in column], steps[0] + steps[1])
         and doc["projective"] is True and doc["residual"] < 1e-9 and doc["multiplicity"] == 3),
        ("recover", ["recover", "--family", "pl", "--d", "2", "--m", "2", "--k", "4", "--input", newton_file,
                     "--mode", "newton"], "float", 0, newton_ok),
        ("usage", ["compute", pl_file], "exact", 2, None),
        ("usage", ["lyndon", "--d", "2"], "exact", 2, None),
        ("usage", ["check", os.path.join(workdir, "missing.json"), "--what", "grouplike"], "exact", 2, None),
    ]
    return calls


def run_cli(argv, env):
    """One `python -m sigtensor.cli` call: (exit code, stdout bytes)."""
    proc = subprocess.run(
        [sys.executable, "-m", "sigtensor.cli", *argv],
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL,
        timeout=120,
    )
    return proc.returncode, proc.stdout


def check_cli(call, outcome) -> bool:
    _, _, _, want_code, check = call
    code, out = outcome
    if code != want_code:
        return False
    if check is None:
        return out == b""
    text = out.decode()
    if text.count("\n") != 1 or not text.endswith("\n"):
        return False
    return bool(check(json.loads(text)))


def _cli(st, inputs, workdir, env):
    ops = []
    for call in cli_calls(st, inputs, workdir):
        sub, argv, mode = call[:3]
        ops.append(
            Op(f"cli.{sub}", mode, lambda argv=argv: run_cli(argv, env), lambda out, call=call: check_cli(call, out), tuple(argv))
        )
    return ops


def build(st, workload, inputs, workdir=None, env=None):
    if workload == "forward":
        return _forward(st, inputs)
    if workload == "inverse":
        return _inverse(st, inputs)
    if workload == "algebra":
        return _algebra(st, inputs)
    if workload == "cli":
        return _cli(st, inputs, workdir, env)
    raise ValueError(f"unknown workload {workload!r}")
