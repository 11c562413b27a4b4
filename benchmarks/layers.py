"""Layer timings at fixed shapes, and their comparison between two source trees.

    python benchmarks/layers.py --src src
    python benchmarks/layers.py --compare OLD/src NEW/src > BENCH_N.json
    python benchmarks/layers.py --compare OLD/src NEW/src --only tensor. > BENCH_N.json

With --src, every layer is timed in this process on that tree and the
per-layer medians (ms) are printed as JSON.  Right after each layer the
process runs `bench/worker.py`'s `ref_loop`, a fixed mix of integer, float,
Fraction and Chen work, once, and records its time with the layer
("reference_ms"); the median of those runs is the last row, REFERENCE: it
tracks the host's speed while the layers ran.  With --compare, each of
ROUNDS rounds runs one fresh `--src` process per tree, alternating which
tree goes first; the output holds, per layer, shape and scalar mode, the
median and the interquartile range over the rounds for each tree (null for
a row that one tree does not time), and the same for each round's time
divided by the reference loop run right after it ("parent_scaled",
"change_scaled"), whose ratio ("scaled_speedup") discounts a host whose
speed changed while the layers ran.  --only PREFIX times only the rows
whose layer name starts with PREFIX (every row's input is still built), and
--compare passes it to both trees' processes.  Both trees must share the private calling convention
used below (`_core_level(...).to_float()`, `_core_level(...).as_integers()`,
`_image_and_jacobian(core, x, modulus)`, `matrices._residues`,
`matrices._PRIME`, `matrices._rank_mod_p`, `lyndon._tables.clear`
and `shuffle._shuffle.cache_clear`); the residue row
runs only on a tree with `_jacobian_residues`.
Polynomial signatures and group-element recovery are timed through their
public functions on seeded rational inputs (group elements: the top level
of a (d+1)-step path; at CHANGE_SHAPE that path's first coordinate returns
to 0, so the 1...1 entry vanishes and recovery descends along letter 2).  `tensor_congruence` acts
on the axis core prebuilt at each (m, k) of CONGRUENCE_SHAPES (the Chen
shapes and (4, 6, 8)) by a seeded d x m matrix, exact or float; a float
matrix meets the exact core, as in `pl_signature_congruence` of float steps, and uses the core's `to_float()`,
which the level keeps after the warm-up call.  The
shuffle-law tests `is_grouplike` and `is_lie` run on member inputs (the
series of a (d+1)-step path and its logarithm), so each call checks every
form; float calls pass tol=1e-9, as the algebra workload does, and exact
calls run without a tol and with tol=1e-9 (shape key "tol").  Chen
(`pl_signature`), `exp_series`/`log_series` (on the logarithm of a (d+1)-step
path, and on that path's series), `concat_product` (of that path's series and
the series of a seeded d-step path) and `expected_signature` run at fixed
shapes on seeded rationals, exact and float; `concat_product` also at
STEP_SHAPES on the series of a (d+1)-step path times the exponential of one
seeded step (shape key "right": "step_exponential"), the product that
`pl_signature` folds, where both constant terms are 1; `log_series` also at LOG_SHAPE,
and `exp_series` also on the exponent of the `expected_signature` model
(`drift_covariance_exponent`: only levels 1 and 2 nonzero, shape key
"exponent").  A call that returns a series or a
level also reads every entry of every level inside the timed region, so that
entries built lazily on first read are paid for.

The canonical cores `canonical_axis`/`canonical_mono` are timed cold at
CORE_SHAPES (each call builds a fresh core; the `_core_level` cache is
emptied first too, through `getattr(..., "cache_clear", None)`), and
`pl_signature_congruence` warm on seeded float steps at the Chen shapes.
`normal_form_table` is timed cold at COLD_TABLE_SHAPES: `lyndon._tables` and
the interleavings cache `shuffle._shuffle` are emptied before every call, as
in a fresh process.  `expand_from_lyndon` is
timed warm (its table built by the warm-up call) at EXPAND_SHAPES on the
Lyndon coordinates of a seeded (d+1)-step path, exact and as floats.  Two
rows time a call right after a larger or equal build in the same process
(shape key "after"): `normal_form_table` at the smaller EXPAND_SHAPES shape
after `normal_form_table` at the larger, and exact `expand_from_lyndon` at
the larger after `NormalFormTable` there.  Before each of their runs
the same caches are emptied and the earlier build is run, untimed (the
call's `setup`).
`recovery.gn_eval` times one evaluation of the image and Jacobian kernel
`_image_and_jacobian`: in floats at a seeded near-identity matrix, for family
pl at GN_SHAPES and for the poly shapes of SOLVE_SHAPES, and mod p
(`matrices._PRIME`, shape key "modulus") on the residues of the integer core
and `_integer_point`'s point at JACOBIAN_SHAPES, as `jacobian_rank` runs it.
The rows with shape key "plan": "cold" empty the kernel's plan cache
(`recovery._plan`, through `getattr(..., "cache_clear", None)`, so a tree
without it times the warm call) before each call, as a first call in a fresh
process pays it.
`gauss_newton_recover` solves, at each of SOLVE_SHAPES, for the signature
of a seeded near-identity matrix (identity plus entries in [-0.3, 0.3]), as
the inverse workload's solves do; the target is built before timing.
`exact_rank` takes the exact integer Jacobian at each of RANK_SHAPES (at a
seeded rational point, built before timing by the closed-form
`_image_and_jacobian` on the integer core and the point's integer multiple:
an object array of Python ints); the last shape has a deficient rank, so
its row pays for the fallback from the mod-p certificate to Bareiss
elimination.  At the same points, `recovery.jacobian_residues_rank` times
what `jacobian_rank` runs for each seed first: the residue Jacobian mod p
(`_jacobian_residues`) and its rank (`_rank_mod_p`).  `exact_det`
eliminates the order-2 monomial matrix of size DET_SIZE.  `pfaffian` takes a
seeded Fraction skew matrix A - A^T of each size in PFAFFIAN_SIZES, and
`signature_matrix_generators` a seeded Fraction d x d matrix at each
(d, m) of GENERATOR_SHAPES, and the same matrix in floats at MDM_SHAPE.
`signature_matrix_witness` takes, at MDM_SHAPE, the exact order-2 level of a
seeded m-step PL path in dimension d: a member, so both rank conditions are
checked, the second (rank m < d) by Bareiss after the mod-p certificate.
`LevelTensor.to_json` writes the top level of a seeded PL path at
JSON_SHAPE, exact and as its `to_float()`.

A layer is timed by one warm-up call, then calls until 0.2 s have passed (at
least 3); its time in a round is the median call.  Caches that persist across
calls in one process (such as cached canonical cores) are warm after the
warm-up call, except where a row empties them before each call.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import time

GN_SHAPES = [(d, k) for d in (2, 3, 4) for k in (3, 4)]  # d = m, family pl
SOLVE_SHAPES = [("pl", 2, 4), ("poly", 2, 3), ("poly", 2, 4), ("pl", 3, 4)]  # (family, d = m, k), as in inverse
JACOBIAN_SHAPES = [("pl", 3, 3, 3), ("pl", 4, 3, 4), ("poly", 3, 4, 3), ("pl", 6, 3, 6)]  # (family, d, k, m)
RANK_SHAPES = [("pl", 6, 3, 6), ("pl", 4, 4, 5), ("poly", 5, 4, 5), ("pl", 5, 2, 5)]  # (family, d, k, m) of exact_rank
DET_SIZE = 8  # exact_det of mono_matrix(DET_SIZE)
PFAFFIAN_SIZES = (8, 14)  # sizes of the skew matrices of pfaffian
GENERATOR_SHAPES = [(12, 6), (14, 13)]  # (d, m) of signature_matrix_generators: many pfaffians, and one large one
MDM_SHAPE = (12, 6)  # (d, m) of the float signature_matrix_generators and of signature_matrix_witness
POLY_SHAPES = [(2, 3, 6), (3, 3, 5)]  # (d, m, n), as in the forward workload
GROUP_SHAPES = [(2, 3), (2, 4), (3, 3), (3, 4)]  # (d, n), as in the inverse workload
SHUFFLE_SHAPES = [(2, 8), (3, 6), (4, 5)]  # (d, n)
# (d, n) of the cold normal_form_table: the shuffle shapes, and (2, 10), whose top level has waves that a
# bound by the level's largest coefficient puts on Python ints and a bound per row keeps on int64
COLD_TABLE_SHAPES = SHUFFLE_SHAPES + [(2, 10)]
EXPAND_SHAPES = [(3, 5), (3, 6)]  # (d, n), as in the algebra workload
CORE_SHAPES = [("pl", 4, 5), ("poly", 4, 5), ("pl", 6, 6), ("poly", 6, 6), ("pl", 10, 6)]  # (family, m, k)
CHEN_SHAPES = [(3, 3, 4), (2, 5, 6), (3, 5, 5), (3, 10, 6), (4, 4, 5)]  # (d, m, n), as in the forward workload
CONGRUENCE_SHAPES = CHEN_SHAPES + [(4, 6, 8)]  # (d, m, k) of tensor_congruence: 6^8 core entries at the last
SERIES_SHAPE = (3, 6)  # (d, n) of exp_series, log_series and concat_product
LOG_SHAPE = (3, 5)  # (d, n) of log_series, as in the algebra workload
STEP_SHAPES = [(3, 4), (3, 5)]  # (d, n) of concat_product by one step exponential, as inside pl_signature
EXPECTED_SHAPE = (3, 5)  # (d, n) of expected_signature, and of exp_series on its exponent
CHANGE_SHAPE = (3, 4)  # (d, n) of a group element whose 1...1 entry is 0
JSON_SHAPE = (4, 3, 7)  # (d, m, k) of the PL level that to_json writes: 4^7 = 16,384 entries
ROUNDS = 7
REFERENCE = "reference.ref_loop"  # the layer name of the host-speed row


def _rationals(seed, count):
    """Seeded nonzero rationals with small numerators and denominators."""
    from fractions import Fraction

    rng = random.Random(seed)
    return [Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 4)) for _ in range(count)]


def _gn_eval(recovery, family, d, k):
    """One Gauss-Newton evaluation (image and Jacobian) at a seeded near-identity
    d x d matrix, as inside a solve."""
    import numpy as np

    rng = np.random.default_rng(0)
    x = np.eye(d) + rng.uniform(-0.3, 0.3, (d, d))
    core = recovery._core_level(family, d, k).to_float().cube
    return lambda: recovery._image_and_jacobian(core, x)


def _residue_eval(recovery, matrices, family, d, k, m):
    """The image and Jacobian mod p of the integer core at `_integer_point`'s
    point, as `jacobian_rank` runs the kernel for each seed."""
    core, point = (matrices._residues(a) for a in _integer_point(recovery, family, d, k, m))
    return lambda: recovery._image_and_jacobian(core, point, matrices._PRIME)


def _gn_solve(gauss_newton_recover, signature_map, family, d, k):
    """One Gauss-Newton solve whose target is the signature of a seeded
    near-identity d x d matrix (identity plus entries in [-0.3, 0.3])."""
    rng = random.Random(d * 10 + k)
    x = [[float(i == j) + rng.uniform(-0.3, 0.3) for j in range(d)] for i in range(d)]
    target = signature_map(family, x, k)
    return lambda: gauss_newton_recover(family, d, d, k, target)


def _integer_point(recovery, family, d, k, m):
    """(core, point): the family's integer core and the integer multiple of a
    seeded rational d x m point, object arrays of Python ints; the Jacobian of
    `_image_and_jacobian` on them is the exact one times the core's and the
    point's denominators (row a*m+b is the partial in X[a, b])."""
    from sigtensor.tensor import LevelTensor

    values = _rationals(d * 100 + m * 10 + k + 6, d * m)
    core = recovery._core_level(family, m, k).as_integers()[0].reshape((m,) * k)
    return core, LevelTensor(d * m, 1, values).as_integers()[0].reshape(d, m)


def _cold(call, *clears):
    """The call after emptying the given caches (each a zero-argument clear, or None)."""

    def timed():
        for clear in clears:
            if clear is not None:
                clear()
        return call()

    return timed


def _after(call, *setups):
    """The call, with setup calls that `_time_call` runs untimed before each run of it."""

    def timed():
        return call()

    timed.setup = lambda: [setup() for setup in setups]
    return timed


def _reading(call):
    """The call, followed by a read of every entry of the series or level it returns."""

    def timed():
        result = call()
        for level in getattr(result, "levels", None) or ([result] if hasattr(result, "entries") else []):
            for _ in level.entries:
                pass
        return result

    return timed


def _brownian(d, seed, convert):
    """Seeded model with covariance A A^T and a skew part, as in the forward workload."""
    from sigtensor import BrownianModel

    values = _rationals(seed, d + 2 * d * d)
    mu, a, b = values[:d], values[d : d + d * d], values[d + d * d :]
    sigma = [[sum(a[i * d + t] * a[j * d + t] for t in range(d)) for j in range(d)] for i in range(d)]
    q = [[(b[i * d + j] - b[j * d + i]) / 2 for j in range(d)] for i in range(d)]
    return BrownianModel(
        tuple(map(convert, mu)), tuple(tuple(map(convert, r)) for r in sigma), tuple(tuple(map(convert, r)) for r in q)
    )


def layers():
    """(layer, shape, scalar mode, zero-argument call) for the tree on sys.path."""
    from fractions import Fraction

    from sigtensor import (
        canonical_axis,
        canonical_mono,
        concat_product,
        exact_det,
        exact_rank,
        exp_series,
        expected_signature,
        gauss_newton_recover,
        is_grouplike,
        is_lie,
        jacobian_rank,
        log_series,
        lyndon,
        matrices,
        mono_matrix,
        NormalFormTable,
        normal_form_table,
        pfaffian,
        pl_signature,
        pl_signature_congruence,
        poly_signature_integrate,
        project_level,
        recover_group_element,
        recovery,
        shuffle,
        signature_map,
        signature_matrix_generators,
        signature_matrix_witness,
        tensor_congruence,
    )
    from sigtensor.stochastic import drift_covariance_exponent

    out = []
    for d, m, n in CHEN_SHAPES:
        values = _rationals(d * 100 + m * 10 + n, d * m)
        steps = [values[j * d : (j + 1) * d] for j in range(m)]
        shape = {"d": d, "m": m, "n": n}
        for scalar, rows in (("exact", steps), ("float", [[float(v) for v in s] for s in steps])):
            out.append(("paths.pl_signature", shape, scalar, _reading(lambda r=rows, n=n: pl_signature(r, n))))
    d, n = SERIES_SHAPE
    values = _rationals(d * 10 + n + 1, d * (d + 1))
    group = pl_signature([values[j * d : (j + 1) * d] for j in range(d + 1)], n)
    lie = log_series(group)
    other = pl_signature([values[j * d + 1 : (j + 1) * d + 1] for j in range(d)], n)
    for scalar, (g, p, h) in (
        ("exact", (group, lie, other)),
        ("float", (group.to_float(), lie.to_float(), other.to_float())),
    ):
        out.append(("tensor.exp_series", {"d": d, "n": n}, scalar, _reading(lambda p=p: exp_series(p))))
        out.append(("tensor.log_series", {"d": d, "n": n}, scalar, _reading(lambda g=g: log_series(g))))
        call = _reading(lambda g=g, h=h: concat_product(g, h))
        out.append(("tensor.concat_product", {"d": d, "n": n}, scalar, call))
    for d, n in STEP_SHAPES:
        values = _rationals(d * 10 + n + 6, d * (d + 2))
        group = pl_signature([values[j * d : (j + 1) * d] for j in range(d + 1)], n)
        step = pl_signature([values[-d:]], n)
        shape = {"d": d, "n": n, "right": "step_exponential"}
        for scalar, (g, h) in (("exact", (group, step)), ("float", (group.to_float(), step.to_float()))):
            out.append(("tensor.concat_product", shape, scalar, _reading(lambda g=g, h=h: concat_product(g, h))))
    d, n = LOG_SHAPE
    values = _rationals(d * 10 + n + 1, d * (d + 1))
    group = pl_signature([values[j * d : (j + 1) * d] for j in range(d + 1)], n)
    for scalar, g in (("exact", group), ("float", group.to_float())):
        out.append(("tensor.log_series", {"d": d, "n": n}, scalar, _reading(lambda g=g: log_series(g))))
    d, n = EXPECTED_SHAPE
    for scalar, convert in (("exact", Fraction), ("float", float)):
        model = _brownian(d, 7, convert)
        call = _reading(lambda mo=model: expected_signature(mo, n))
        out.append(("stochastic.expected_signature", {"d": d, "n": n}, scalar, call))
        exponent = drift_covariance_exponent(model, n)
        shape = {"d": d, "n": n, "exponent": "drift_covariance"}
        out.append(("tensor.exp_series", shape, scalar, _reading(lambda p=exponent: exp_series(p))))
    clear_plans = getattr(getattr(recovery, "_plan", None), "cache_clear", None)
    for family, d, k in [("pl", d, k) for d, k in GN_SHAPES] + [s for s in SOLVE_SHAPES if s[0] == "poly"]:
        call = _gn_eval(recovery, family, d, k)
        out.append(("recovery.gn_eval", {"family": family, "d": d, "m": d, "k": k}, "float", call))
    for d, k in GN_SHAPES:
        call = _cold(_gn_eval(recovery, "pl", d, k), clear_plans)
        out.append(("recovery.gn_eval", {"family": "pl", "d": d, "m": d, "k": k, "plan": "cold"}, "float", call))
    for family, d, k, m in JACOBIAN_SHAPES:
        shape = {"family": family, "d": d, "m": m, "k": k, "modulus": "p"}
        call = _residue_eval(recovery, matrices, family, d, k, m)
        out.append(("recovery.gn_eval", shape, "exact", call))
        out.append(("recovery.gn_eval", {**shape, "plan": "cold"}, "exact", _cold(call, clear_plans)))
    for family, d, k in SOLVE_SHAPES:
        call = _gn_solve(gauss_newton_recover, signature_map, family, d, k)
        out.append(("recovery.gauss_newton_recover", {"family": family, "d": d, "m": d, "k": k}, "float", call))
    for family, d, k, m in JACOBIAN_SHAPES:
        shape = {"family": family, "d": d, "m": m, "k": k}
        out.append(("recovery.jacobian_rank", shape, "exact", lambda a=(family, d, k, m): jacobian_rank(*a)))
    for family, d, k, m in RANK_SHAPES:
        core, point = _integer_point(recovery, family, d, k, m)
        jacobian = recovery._image_and_jacobian(core, point)[1]
        rows, cols = jacobian.shape
        shape = {"family": family, "d": d, "m": m, "k": k, "rows": rows, "cols": cols}
        out.append(("matrices.exact_rank", shape, "exact", lambda j=jacobian: exact_rank(j)))
        if hasattr(recovery, "_jacobian_residues"):
            call = lambda c=core, p=point: matrices._rank_mod_p(recovery._jacobian_residues(c, p))
            out.append(("recovery.jacobian_residues_rank", shape, "exact", call))
    mono = mono_matrix(DET_SIZE)
    out.append(("matrices.exact_det", {"matrix": "mono_matrix", "d": DET_SIZE}, "exact", lambda: exact_det(mono)))
    for s in PFAFFIAN_SIZES:
        values = _rationals(s * 10 + 7, s * s)
        skew = [[values[i * s + j] - values[j * s + i] for j in range(s)] for i in range(s)]
        out.append(("matrices.pfaffian", {"s": s}, "exact", lambda q=skew: pfaffian(q)))
    for d, m in GENERATOR_SHAPES:
        values = _rationals(d * 100 + m, d * d)
        matrix = [values[i * d : (i + 1) * d] for i in range(d)]
        call = lambda a=matrix, m=m: signature_matrix_generators(a, m)
        out.append(("matrices.signature_matrix_generators", {"d": d, "m": m}, "exact", call))
        if (d, m) == MDM_SHAPE:
            floats = [[float(v) for v in row] for row in matrix]
            call = lambda a=floats, m=m: signature_matrix_generators(a, m)
            out.append(("matrices.signature_matrix_generators", {"d": d, "m": m}, "float", call))
    d, m = MDM_SHAPE
    values = _rationals(d * 100 + m + 1, d * m)
    member = project_level(pl_signature([values[j * d : (j + 1) * d] for j in range(m)], 2), 2)
    call = lambda t=member, m=m: signature_matrix_witness(t, m)
    out.append(("matrices.signature_matrix_witness", {"d": d, "m": m, "input": "member"}, "exact", call))
    for d, m, n in POLY_SHAPES:
        values = _rationals(d * 100 + m * 10 + n, d * m)
        coeffs = [values[i * m : (i + 1) * m] for i in range(d)]
        floats = [[float(c) for c in row] for row in coeffs]
        shape = {"d": d, "m": m, "n": n}
        for scalar, rows in (("exact", coeffs), ("float", floats)):
            call = _reading(lambda r=rows, n=n: poly_signature_integrate(r, n))
            out.append(("paths.poly_signature_integrate", shape, scalar, call))
    for d, n in GROUP_SHAPES:
        values = _rationals(d * 10 + n, d * (d + 1))
        top = pl_signature([values[j * d : (j + 1) * d] for j in range(d + 1)], n).levels[n]
        shape = {"d": d, "m": d + 1, "n": n}
        for scalar, mode in (("exact", "rational"), ("float", "real")):
            out.append(("recovery.recover_group_element", shape, scalar, lambda t=top, mode=mode: recover_group_element(t, mode=mode)))
    for d, m, n in CONGRUENCE_SHAPES:
        values = _rationals(d * 100 + m * 10 + n + 2, d * m)
        matrix = [values[i * m : (i + 1) * m] for i in range(d)]
        core = canonical_axis(m, n)
        shape = {"d": d, "m": m, "k": n}
        for scalar, rows in (("exact", matrix), ("float", [[float(v) for v in row] for row in matrix])):
            call = _reading(lambda c=core, r=rows: tensor_congruence(c, r))
            out.append(("paths.tensor_congruence", shape, scalar, call))
    d, n = CHANGE_SHAPE
    values = _rationals(d * 10 + n + 3, d * (d + 1))
    steps = [values[j * d : (j + 1) * d] for j in range(d + 1)]
    steps[-1][0] = -sum(step[0] for step in steps[:-1])
    top = pl_signature(steps, n).levels[n]
    shape = {"d": d, "m": d + 1, "n": n, "leading_entry": 0}
    for scalar, mode in (("exact", "rational"), ("float", "real")):
        out.append(("recovery.recover_group_element", shape, scalar, lambda t=top, mode=mode: recover_group_element(t, mode=mode)))
    clear_cores = getattr(recovery._core_level, "cache_clear", None)
    for family, m, k in CORE_SHAPES:
        build = canonical_axis if family == "pl" else canonical_mono
        call = _cold(_reading(lambda b=build, m=m, k=k: b(m, k)), clear_cores)
        out.append((f"paths.{build.__name__}", {"m": m, "k": k}, "exact", call))
    for d, m, n in CHEN_SHAPES:
        values = _rationals(d * 100 + m * 10 + n + 4, d * m)
        steps = [[float(v) for v in values[j * d : (j + 1) * d]] for j in range(m)]
        call = _reading(lambda s=steps, n=n: pl_signature_congruence(s, n))
        out.append(("paths.pl_signature_congruence", {"d": d, "m": m, "k": n}, "float", call))
    clears = (lyndon._tables.clear, shuffle._shuffle.cache_clear)
    for d, n in COLD_TABLE_SHAPES:
        call = _cold(lambda d=d, n=n: normal_form_table(d, n), *clears)
        out.append(("lyndon.normal_form_table", {"d": d, "n": n}, "exact", call))
    for d, n in EXPAND_SHAPES:
        values = _rationals(d * 10 + n + 5, d * (d + 1))
        coords = lyndon.lyndon_coordinates(pl_signature([values[j * d : (j + 1) * d] for j in range(d + 1)], n))
        for scalar, c in (("exact", coords), ("float", {w: float(v) for w, v in coords.items()})):
            call = _reading(lambda c=c, d=d, n=n: lyndon.expand_from_lyndon(c, d, n))
            out.append(("lyndon.expand_from_lyndon", {"d": d, "n": n}, scalar, call))
    (d, small), (_, n) = EXPAND_SHAPES  # coords: the exact coordinates at (d, n), from the loop above
    call = _after(lambda d=d, k=small: normal_form_table(d, k), *clears, lambda d=d, n=n: normal_form_table(d, n))
    out.append(("lyndon.normal_form_table", {"d": d, "n": small, "after": f"normal_form_table({d}, {n})"}, "exact", call))
    call = _after(
        _reading(lambda c=coords, d=d, n=n: lyndon.expand_from_lyndon(c, d, n)), *clears, lambda d=d, n=n: NormalFormTable(d, n)
    )
    out.append(("lyndon.expand_from_lyndon", {"d": d, "n": n, "after": f"NormalFormTable({d}, {n})"}, "exact", call))
    for d, n in SHUFFLE_SHAPES:
        values = _rationals(d * 10 + n, d * (d + 1))
        group = pl_signature([values[j * d : (j + 1) * d] for j in range(d + 1)], n)
        members = {"shuffle.is_grouplike": (is_grouplike, group), "shuffle.is_lie": (is_lie, log_series(group))}
        for name, (test, series) in members.items():
            out.append((name, {"d": d, "n": n}, "exact", lambda t=test, s=series: t(s)))
            out.append((name, {"d": d, "n": n, "tol": 1e-9}, "exact", lambda t=test, s=series: t(s, 1e-9)))
            out.append((name, {"d": d, "n": n}, "float", lambda t=test, s=series.to_float(): t(s, 1e-9)))
    d, m, k = JSON_SHAPE
    values = _rationals(d * 100 + m * 10 + k, d * m)
    top = pl_signature([values[j * d : (j + 1) * d] for j in range(m)], k).levels[k]
    for scalar, level in (("exact", top), ("float", top.to_float())):
        out.append(("tensor.to_json", {"d": d, "m": m, "k": k}, scalar, level.to_json))
    return out


def _time_call(call) -> float:
    setup = getattr(call, "setup", None) or (lambda: None)
    setup()
    call()
    times = []
    start = time.perf_counter()
    while len(times) < 3 or time.perf_counter() - start < 0.2:
        setup()
        t0 = time.perf_counter()
        call()
        times.append(time.perf_counter() - t0)
    return statistics.median(times) * 1e3


def measure(src: str, only: str = "") -> list:
    sys.path.insert(0, os.path.abspath(src))
    sys.path.insert(1, os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "bench"))
    from worker import ref_loop

    rows, reference = [], []
    for name, shape, scalar, call in layers():
        if not name.startswith(only):
            continue
        ms = _time_call(call)
        reference.append(ref_loop() * 1e3)
        rows.append({"layer": name, "shape": shape, "scalar": scalar, "ms": ms, "reference_ms": reference[-1]})
    return rows + [{"layer": REFERENCE, "shape": {}, "scalar": "mixed", "ms": statistics.median(reference)}]


def _quartiles(values):
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": q2, "iqr": q3 - q1}


def compare(old: str, new: str, only: str = "") -> dict:
    env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    runs: dict = {"parent": [], "change": []}
    for r in range(ROUNDS):
        order = [("parent", old), ("change", new)]
        for label, src in order if r % 2 == 0 else order[::-1]:
            command = [sys.executable, __file__, "--src", src, "--only", only]
            proc = subprocess.run(command, env=env, capture_output=True, text=True, check=True)
            runs[label].append(json.loads(proc.stdout))

    def key(row):
        return json.dumps([row["layer"], row["shape"], row["scalar"]])

    timed = {label: [{key(row): row for row in run} for run in tree_runs] for label, tree_runs in runs.items()}
    rows = []
    for row in {key(row): row for tree_runs in runs.values() for row in tree_runs[0]}.values():
        entry = {"layer": row["layer"], "shape": row["shape"], "scalar": row["scalar"], "unit": "ms"}
        for label in ("parent", "change"):
            found = [run[key(row)] for run in timed[label] if key(row) in run]
            times = [r["ms"] for r in found]
            scaled = [r["ms"] / r["reference_ms"] for r in found if "reference_ms" in r]
            entry[label] = _quartiles(times) if times else None
            entry[f"{label}_scaled"] = _quartiles(scaled) if scaled else None
        for ratio, label in (("speedup", ""), ("scaled_speedup", "_scaled")):
            parent, change = entry["parent" + label], entry["change" + label]
            entry[ratio] = parent["median"] / change["median"] if parent and change else None
        rows.append(entry)
    import numpy

    return {
        "method": f"{ROUNDS} alternating rounds, one fresh process per tree and round; "
        "median and IQR over rounds of each round's median call, and of that call over the "
        f"{REFERENCE} run right after it (benchmarks/layers.py)",
        "machine": {"python": platform.python_version(), "numpy": numpy.__version__, "nproc": os.cpu_count()},
        "layers": rows,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    group = parser.add_mutually_exclusive_group(required=True)
    group.add_argument("--src", help="time one tree in this process")
    group.add_argument("--compare", nargs=2, metavar=("OLD_SRC", "NEW_SRC"))
    parser.add_argument("--only", default="", metavar="PREFIX", help="time only the layers whose names start so")
    args = parser.parse_args(argv)
    result = measure(args.src, args.only) if args.src else compare(*args.compare, args.only)
    sys.stdout.write(json.dumps(result, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
