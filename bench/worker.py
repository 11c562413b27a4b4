"""One pass of a workload in a fresh process; run.py starts it.

    python bench/worker.py --workload W --seed N --spawn-ns T --trace 0|1 --out DIR

Set-up (interpreter start from T, `import sigtensor`, input generation)
is timed, then the workload's operation list runs once, closed loop, one
operation at a time.  A short fixed reference loop runs between operations
(at most every REF_EVERY_S) so that run.py can scale every time by the
host's speed around it.  Outputs are checked after the timed region.
The last stdout line is one JSON object describing the pass.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import statistics
import sys
import time
from fractions import Fraction

import refalg

REF_ITERATIONS = 8_000
REF_FRACTIONS = 300
REF_STEPS = [[Fraction(1, 2), Fraction(-2, 3)], [Fraction(3), Fraction(1, 3)], [Fraction(-5, 2), Fraction(2)]]
REF_EVERY_S = 0.1


def ref_loop() -> float:
    """Fixed integer, float, Fraction and list-product work, like the kernels.

    Of the candidates tried (integer loop alone, Fraction sum, a small Chen
    product in refalg, a sort), a mix tracked the operations' time best on a
    shared 2-core host.
    """
    start = time.perf_counter()
    x, y, q = 0, 0.0, Fraction(0)
    for i in range(REF_ITERATIONS):
        x += i * i % 7
        y = y * 0.5 + i * 0.25
    for i in range(1, REF_FRACTIONS):
        q += Fraction(i, i + 1)
    refalg.chen(REF_STEPS, 4)
    refalg.chen([[float(v) for v in step] for step in REF_STEPS], 4)
    return time.perf_counter() - start


def exact_entries(result) -> int:
    """Fraction or int entries in a series or level result (0 for other results)."""
    levels = getattr(result, "levels", None) or ([result] if hasattr(result, "entries") else [])
    return sum(isinstance(v, (int, Fraction)) and not isinstance(v, bool) for lvl in levels for v in lvl.entries)


def run_ops(ops, tracer=None):
    """Time each op; returns (results, errors, [start, seconds] per op, [start, seconds] per reference loop)."""
    origin = time.perf_counter()
    refs = []

    def sample():
        start = time.perf_counter()
        refs.append([start - origin, ref_loop()])

    for _ in range(3):
        sample()
    results, errors, times = [], [], []
    last_ref = time.perf_counter()
    for index, op in enumerate(ops):
        if tracer is not None:
            tracer.op = index
        start = time.perf_counter()
        try:
            result, error = op.run(), None
        except Exception as exc:  # a failed operation is counted, not fatal
            result, error = None, f"{type(exc).__name__}: {exc}"
        times.append([start - origin, time.perf_counter() - start])
        results.append(result)
        errors.append(error)
        if time.perf_counter() - last_ref >= REF_EVERY_S:
            sample()
            last_ref = time.perf_counter()
    for _ in range(3):
        sample()
    return results, errors, times, refs


def check_ops(ops, results, errors):
    """Run every oracle; an oracle that raises marks its op failed."""
    for index, (op, result) in enumerate(zip(ops, results)):
        if errors[index] is not None:
            continue
        try:
            passed = bool(op.check(result))
        except Exception as exc:
            errors[index] = f"check raised {type(exc).__name__}: {exc}"
            continue
        if not passed:
            errors[index] = "wrong output"
    return [error is None for error in errors]


def in_process(cli, argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(list(argv))
    return code, out.getvalue().encode()


def cli_trace(st, ops, outcomes, tracer):
    """In-process replay of the pass's argv lists: untraced, then traced with cold caches."""
    import sigtensor.cli as cli

    argvs = [op.argv for op in ops]
    st.shuffle._shuffle.cache_clear()
    st.lyndon._tables.clear()
    plain = []
    for argv in argvs:
        start = time.perf_counter()
        got = in_process(cli, argv)
        plain.append((time.perf_counter() - start, got))
    st.shuffle._shuffle.cache_clear()
    st.lyndon._tables.clear()
    tracer.install(st)
    traced = []
    try:
        for index, argv in enumerate(argvs):
            tracer.op = index
            start = time.perf_counter()
            got = in_process(cli, argv)
            traced.append((time.perf_counter() - start, got))
    finally:
        tracer.uninstall()
    same = [a == b == outcome for (_, a), (_, b), outcome in zip(plain, traced, outcomes)]
    return [t for t, _ in plain], [t for t, _ in traced], same


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--spawn-ns", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    if args.workload == "cli":
        # The calls run in child processes, which the scheduler may place on
        # another CPU than this process and its reference loop.  One CPU for
        # all of them makes the loop see the same neighbours as the calls.
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

    import sigtensor as st

    import tracing
    import workloads

    workdir = os.path.join(args.out, f"work-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        inputs = workloads.generate(args.workload, args.seed)
        ops = workloads.build(st, args.workload, inputs, workdir, dict(os.environ))
        setup_s = (time.monotonic_ns() - args.spawn_ns) / 1e9

        tracer = tracing.Tracer() if args.trace and args.workload != "cli" else None
        if tracer is not None:
            tracer.install(st)
        try:
            results, errors, times, refs = run_ops(ops, tracer)
        finally:
            if tracer is not None:
                tracer.uninstall()
        who = resource.RUSAGE_CHILDREN if args.workload == "cli" else resource.RUSAGE_SELF
        rss_mb = resource.getrusage(who).ru_maxrss / 1024
        memo = st.shuffle._shuffle.cache_info()

        report = {
            "setup_s": setup_s,
            "ref_s": statistics.median(seconds for _, seconds in refs),
            "refs": refs,
            "rss_mb": rss_mb,
            "float_exact_entries": sum(
                exact_entries(r) for op, r in zip(ops, results) if op.mode == "float" and r is not None
            ),
            "numpy": sys.modules["numpy"].__version__,
            "trace": None,
        }
        if args.trace:
            if args.workload == "cli":
                tracer = tracing.Tracer()
                plain, traced, same = cli_trace(st, ops, results, tracer)
                memo = st.shuffle._shuffle.cache_info()
                report["cli"] = {"in_process_s": plain, "traced_s": traced}
                for index, equal in enumerate(same):
                    if not equal and errors[index] is None:
                        errors[index] = "in-process output differs from the subprocess"
                traced_wall = sum(traced)
            else:
                traced_wall = sum(seconds for _, seconds in times)
            layers = tracing.layer_metrics(tracer.spans)
            layers["shuffle.memo_hit_ratio"] = memo.hits / max(1, memo.hits + memo.misses)
            report["trace"] = {
                "wall_s": traced_wall,
                "layers": layers,
                "memo": [memo.hits, memo.hits + memo.misses],
                "modules": tracing.layer_table(tracer.spans),
                "spans": len(tracer.spans),
            }
            with open(os.path.join(args.out, f"spans-{args.workload}.json"), "w") as handle:
                json.dump(tracer.spans, handle)

        ok = check_ops(ops, results, errors)
        report["ops"] = [[op.name, op.mode, seconds, good, start] for op, (start, seconds), good in zip(ops, times, ok)]
        report["errors"] = sorted({f"{op.name}: {e}" for op, e in zip(ops, errors) if e})[:10]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
