"""Layer timings at fixed shapes, and their comparison between two source trees.

    python benchmarks/layers.py --src src
    python benchmarks/layers.py --compare OLD/src NEW/src > BENCH_N.json

With --src, every layer is timed in this process on that tree and the
per-layer medians (ms) are printed as JSON.  With --compare, each of ROUNDS
rounds runs one fresh `--src` process per tree, alternating which tree goes
first; the output holds, per layer, shape and scalar mode, the median and the
interquartile range over the rounds for each tree.  Both trees must share
the private calling convention used below (`_core_array`, and
`_residual_and_jacobian(core, x, target)`).  Polynomial signatures and
group-element recovery are timed through their public functions on seeded
rational inputs (group elements: the top level of a (d+1)-step path; at
CHANGE_SHAPE that path's first coordinate returns to 0, so the 1...1 entry
vanishes and recovery runs a coordinate change).  `tensor_congruence` acts
on the axis core prebuilt at each Chen shape (m, n) by a seeded d x m
matrix, exact or float; a float matrix meets the exact core, as in
`pl_signature_congruence` of float steps, so the call converts the core.  The
shuffle-law tests `is_grouplike` and `is_lie` run on member inputs (the
series of a (d+1)-step path and its logarithm), so each call checks every
form; float calls pass tol=1e-9, as the algebra workload does.  Chen
(`pl_signature`), `exp_series`/`log_series` (on the logarithm of a (d+1)-step
path, and on that path's series) and `expected_signature` run at fixed shapes
on seeded rationals, exact and float.  A call that returns a series or a
level also reads every entry of every level inside the timed region, so that
entries built lazily on first read are paid for.

A layer is timed by one warm-up call, then calls until 0.2 s have passed (at
least 3); its time in a round is the median call.  Caches that persist across
calls in one process (such as cached canonical cores) are warm after the
warm-up call.
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
JACOBIAN_SHAPES = [("pl", 3, 3, 3), ("pl", 4, 3, 4), ("poly", 3, 4, 3), ("pl", 6, 3, 6)]  # (family, d, k, m)
POLY_SHAPES = [(2, 3, 6), (3, 3, 5)]  # (d, m, n), as in the forward workload
GROUP_SHAPES = [(2, 3), (2, 4), (3, 3), (3, 4)]  # (d, n), as in the inverse workload
SHUFFLE_SHAPES = [(2, 8), (3, 6), (4, 5)]  # (d, n)
CHEN_SHAPES = [(2, 5, 6), (3, 5, 5), (3, 10, 6), (4, 4, 5)]  # (d, m, n), as in the forward workload
SERIES_SHAPE = (3, 6)  # (d, n) of exp_series and log_series
EXPECTED_SHAPE = (3, 5)  # (d, n) of expected_signature
CHANGE_SHAPE = (3, 4)  # (d, n) of a group element whose 1...1 entry is 0
ROUNDS = 7


def _rationals(seed, count):
    """Seeded nonzero rationals with small numerators and denominators."""
    from fractions import Fraction

    rng = random.Random(seed)
    return [Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 4)) for _ in range(count)]


def _gn_eval(recovery, d, k):
    """One Gauss-Newton residual + Jacobian evaluation, as inside a solve."""
    import numpy as np

    rng = np.random.default_rng(0)
    x = np.eye(d) + rng.uniform(-0.3, 0.3, (d, d))
    target = np.zeros(d**k)
    core = recovery._core_array("pl", d, k, True)
    return lambda: recovery._residual_and_jacobian(core, x, target)


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
        exp_series,
        expected_signature,
        is_grouplike,
        is_lie,
        jacobian_rank,
        log_series,
        pl_signature,
        poly_signature_integrate,
        recover_group_element,
        recovery,
        tensor_congruence,
    )

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
    for scalar, (g, p) in (("exact", (group, lie)), ("float", (group.to_float(), lie.to_float()))):
        out.append(("tensor.exp_series", {"d": d, "n": n}, scalar, _reading(lambda p=p: exp_series(p))))
        out.append(("tensor.log_series", {"d": d, "n": n}, scalar, _reading(lambda g=g: log_series(g))))
    d, n = EXPECTED_SHAPE
    for scalar, convert in (("exact", Fraction), ("float", float)):
        model = _brownian(d, 7, convert)
        call = _reading(lambda mo=model: expected_signature(mo, n))
        out.append(("stochastic.expected_signature", {"d": d, "n": n}, scalar, call))
    for d, k in GN_SHAPES:
        out.append(("recovery.gn_eval", {"family": "pl", "d": d, "m": d, "k": k}, "float", _gn_eval(recovery, d, k)))
    for family, d, k, m in JACOBIAN_SHAPES:
        shape = {"family": family, "d": d, "m": m, "k": k}
        out.append(("recovery.jacobian_rank", shape, "exact", lambda a=(family, d, k, m): jacobian_rank(*a)))
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
    for d, m, n in CHEN_SHAPES:
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
    for d, n in SHUFFLE_SHAPES:
        values = _rationals(d * 10 + n, d * (d + 1))
        group = pl_signature([values[j * d : (j + 1) * d] for j in range(d + 1)], n)
        members = {"shuffle.is_grouplike": (is_grouplike, group), "shuffle.is_lie": (is_lie, log_series(group))}
        for name, (test, series) in members.items():
            out.append((name, {"d": d, "n": n}, "exact", lambda t=test, s=series: t(s)))
            out.append((name, {"d": d, "n": n}, "float", lambda t=test, s=series.to_float(): t(s, 1e-9)))
    return out


def _time_call(call) -> float:
    call()
    times = []
    start = time.perf_counter()
    while len(times) < 3 or time.perf_counter() - start < 0.2:
        t0 = time.perf_counter()
        call()
        times.append(time.perf_counter() - t0)
    return statistics.median(times) * 1e3


def measure(src: str) -> list:
    sys.path.insert(0, os.path.abspath(src))
    return [
        {"layer": name, "shape": shape, "scalar": scalar, "ms": _time_call(call)}
        for name, shape, scalar, call in layers()
    ]


def _quartiles(values):
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": q2, "iqr": q3 - q1}


def compare(old: str, new: str) -> dict:
    env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    runs: dict = {"parent": [], "change": []}
    for r in range(ROUNDS):
        order = [("parent", old), ("change", new)]
        for label, src in order if r % 2 == 0 else order[::-1]:
            proc = subprocess.run(
                [sys.executable, __file__, "--src", src], env=env, capture_output=True, text=True, check=True
            )
            runs[label].append(json.loads(proc.stdout))
    rows = []
    for i, row in enumerate(runs["parent"][0]):
        entry = {"layer": row["layer"], "shape": row["shape"], "scalar": row["scalar"], "unit": "ms"}
        for label in ("parent", "change"):
            entry[label] = _quartiles([run[i]["ms"] for run in runs[label]])
        entry["speedup"] = entry["parent"]["median"] / entry["change"]["median"]
        rows.append(entry)
    import numpy

    return {
        "method": f"{ROUNDS} alternating rounds, one fresh process per tree and round; "
        "median and IQR over rounds of each round's median call (benchmarks/layers.py)",
        "machine": {"python": platform.python_version(), "numpy": numpy.__version__, "nproc": os.cpu_count()},
        "layers": rows,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    group = parser.add_mutually_exclusive_group(required=True)
    group.add_argument("--src", help="time one tree in this process")
    group.add_argument("--compare", nargs=2, metavar=("OLD_SRC", "NEW_SRC"))
    args = parser.parse_args(argv)
    result = measure(args.src) if args.src else compare(*args.compare)
    sys.stdout.write(json.dumps(result, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
