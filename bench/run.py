"""sigtensor benchmark: one seeded workload, run from the root of a checkout.

    python3 bench/run.py --workload forward|inverse|algebra|cli|all --seed N --seconds S --trace 0|1

Each pass of the workload runs in a fresh single-threaded process
(bench/worker.py), so the package's process-global caches start cold the
same way every time.  Passes run one after another until the next one would
end after S seconds (at least MIN_PASSES passes and MIN_OPS operations).  With --trace 0 the last stdout
line carries the end-to-end metrics; with --trace 1 untraced and traced
passes alternate and it carries the per-layer metrics.  Earlier lines are a
readable report.  `--workload all` runs the four in turn (S seconds each)
and exits non-zero if any output check failed.  See bench/NOTES.md.
"""

from __future__ import annotations

import argparse
import bisect
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("forward", "inverse", "algebra", "cli")
MIN_PASSES = 3
MIN_OPS = 100  # so that at least ten latencies lie beyond p90
RUN_LIMIT_S = 170.0
#: Times are reported at the host speed where the reference loop of
#: worker.py takes REF_NOMINAL_S: measured time * REF_NOMINAL_S / loop time,
#: the loop time being the median of the loops run within WINDOW_S of the
#: measured interval.  Neighbours on a shared host change its speed for
#: seconds at a time; the loop tracks that.
REF_NOMINAL_S = 0.003
WINDOW_S = 0.5
CLI_SUBCOMMANDS = (
    "compute", "expected", "check", "lyndon", "normal-form", "invariants", "verify-vanishing", "recover",
)

#: layer -> the end-to-end metrics (per workload) a change in that layer should move.
PREDICTIONS = {
    "tensor": "forward: exact_ops_per_s, float_ops_per_s, op_p90_ms; algebra: both ops/s (log_series); "
    "cli: op_p50_ms (json only); inverse: no change",
    "scalars": "forward: float_ops_per_s (float polynomial paths computed in Fraction)",
    "paths": "forward: ops/s (pl, poly); inverse: float_ops_per_s, op_p50_ms (congruence, cores)",
    "dual": "inverse: float_ops_per_s (GN), exact_ops_per_s (jacobian_rank)",
    "shuffle": "algebra: both ops/s; inverse: slightly (recover_group_element)",
    "lyndon": "algebra: op_p90_ms, exact_ops_per_s; cli: normal-form latency",
    "stochastic": "forward: exact_ops_per_s",
    "matrices": "inverse: exact_ops_per_s",
    "recovery": "inverse: float_ops_per_s, op_p90_ms",
    "invariants": "cli: op_p50_ms (small)",
    "cli": "cli: op_p50_ms, op_p90_ms; setup_s on every workload; no change in library ops/s",
    "trace": "none: the cost of measuring",
}


def fail(message: str) -> int:
    print(f"bench: {message}", file=sys.stderr)
    return 2


def child_env(root: str) -> dict:
    env = dict(os.environ)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
        env[name] = "1"
    env["PYTHONHASHSEED"] = "0"
    return env


def run_pass(workload: str, seed: int, env: dict, out_dir: str, trace: int, timeout: float) -> dict:
    command = [
        sys.executable, os.path.join(HERE, "worker.py"), "--workload", workload, "--seed", str(seed),
        "--trace", str(trace), "--out", out_dir, "--spawn-ns",
    ]
    command.append(str(time.monotonic_ns()))
    proc = subprocess.run(command, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, timeout=timeout, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def probe_ms(env, code: str, repeats: int = 3) -> float:
    """Median wall time of `python -c code` in a fresh process."""
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=60)
        times.append((time.perf_counter() - start) * 1000)
    return statistics.median(times)


def scaled_ops(report: dict) -> list:
    """(name, mode, seconds, ok) per operation, seconds scaled by the reference
    loops that ran within WINDOW_S of the operation."""
    refs = sorted(report["refs"])
    starts = [start for start, _ in refs]
    out = []
    for name, mode, seconds, ok, start in report["ops"]:
        near = refs[bisect.bisect_left(starts, start - WINDOW_S) : bisect.bisect_right(starts, start + seconds + WINDOW_S)]
        loop = statistics.median(d for _, d in near) if near else report["ref_s"]
        out.append((name, mode, seconds * REF_NOMINAL_S / loop, ok))
    return out


def scaled_setup(report: dict) -> float:
    """Set-up time scaled by the reference loops that ran right after it."""
    return report["setup_s"] * REF_NOMINAL_S / statistics.median(d for _, d in report["refs"][:3])


def end_to_end(passes: list) -> dict:
    latencies, exact, flt = [], [0, 0.0], [0, 0.0]
    walls = []
    for report in passes:
        ops = scaled_ops(report)
        walls.append(sum(op[2] for op in ops))
        for _, mode, seconds, ok in ops:
            latencies.append(seconds * 1000)
            tally = exact if mode == "exact" else flt
            tally[0] += ok
            tally[1] += seconds
    return {
        "setup_s": (statistics.median(scaled_setup(r) for r in passes), "s"),
        "wall_s": (statistics.median(walls), "s"),
        "exact_ops_per_s": (exact[0] / exact[1], "ops/s"),
        "float_ops_per_s": (flt[0] / flt[1], "ops/s"),
        "op_p50_ms": (statistics.median(latencies), "ms"),
        "op_p90_ms": (statistics.quantiles(latencies, n=10)[8], "ms"),
        "peak_rss_mb": (statistics.median(r["rss_mb"] for r in passes), "MB"),
    }


def unit_of(name: str) -> str:
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_s"):
        return "s"
    if name.endswith(("ratio", "share")):
        return "ratio"
    return "count"


def per_layer(plain: list, traced: list, probes: dict, workload: str) -> dict:
    metrics = {}
    for name in traced[0]["trace"]["layers"]:
        metrics[name] = statistics.median(r["trace"]["layers"][name] for r in traced)
    metrics["scalars.float_mode_exact_entries"] = statistics.median(r["float_exact_entries"] for r in plain)
    metrics.update(probes)
    cli_ops = [(op[0].split(".", 1)[1], op[2] * 1000) for r in traced if workload == "cli" for op in scaled_ops(r)]
    for sub in CLI_SUBCOMMANDS:
        times = [t for name, t in cli_ops if name == sub]
        metrics[f"cli.{sub}.p50_ms"] = statistics.median(times) if times else 0.0
    if workload == "cli":
        metrics["cli.work_share"] = statistics.median(
            sum(r["cli"]["in_process_s"]) / sum(op[2] for op in r["ops"]) for r in traced
        )
        untraced_wall = statistics.median(sum(r["cli"]["in_process_s"]) for r in traced)
        traced_wall = statistics.median(r["trace"]["wall_s"] for r in traced)
    else:
        metrics["cli.work_share"] = 0.0
        untraced_wall = statistics.median(sum(op[2] for op in scaled_ops(r)) for r in plain)
        traced_wall = statistics.median(sum(op[2] for op in scaled_ops(r)) for r in traced)
    metrics["trace.overhead_ratio"] = traced_wall / untraced_wall
    return dict(sorted((name, (value, unit_of(name))) for name, value in metrics.items()))


def environment(root: str) -> dict:
    digest = hashlib.sha256()
    src = os.path.join(root, "src", "sigtensor")
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), "rb") as handle:
                digest.update(name.encode() + handle.read())
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, timeout=10
        ).stdout.strip() or "none"
    except OSError:
        commit = "none"
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "commit": commit,
        "src_sha256": digest.hexdigest()[:16],
    }


def run_workload(workload: str, args, root: str) -> bool:
    """Run one workload and print its report; the last line is the JSON result."""
    env = child_env(root)
    out_dir = os.path.join(root, ".bench_out")
    os.makedirs(out_dir, exist_ok=True)
    start = time.monotonic()
    deadline = start + args.seconds
    plain, traced = [], []
    probes = {}
    if args.trace:
        probes = {
            "cli.interp_ms": probe_ms(env, "pass"),
            "cli.numpy_import_ms": probe_ms(env, "import numpy"),
            "cli.import_ms": probe_ms(env, "import sigtensor"),
        }
    def more():
        if args.trace:
            return not plain
        return len(plain) < MIN_PASSES or sum(len(r["ops"]) for r in plain) < MIN_OPS

    last = 0.0
    while more() or time.monotonic() + last <= deadline:
        began = time.monotonic()
        timeout = max(30.0, RUN_LIMIT_S - (began - start))
        plain.append(run_pass(workload, args.seed, env, out_dir, 0, timeout))
        if args.trace:
            traced.append(run_pass(workload, args.seed, env, out_dir, 1, timeout))
        last = time.monotonic() - began
        if time.monotonic() - start > RUN_LIMIT_S / 2:
            break

    with open(os.path.join(out_dir, f"passes-{workload}-{args.seed}-{args.trace}.json"), "w") as handle:
        json.dump({"plain": plain, "traced": [dict(r, trace=dict(r["trace"], layers=None)) for r in traced]}, handle)
    versions = environment(root)
    versions["numpy"] = plain[0]["numpy"]
    passes = plain + traced
    attempted = sum(len(r["ops"]) for r in passes)
    failed = sum(not op[3] for r in passes for op in r["ops"])
    print(f"workload {workload} seed {args.seed}: {len(plain)} untraced + {len(traced)} traced passes, "
          f"{len(plain[0]['ops'])} operations each; environment {json.dumps(versions)}")
    for error in sorted({e for r in passes for e in r["errors"]}):
        print(f"  FAILED {error}")
    if args.trace:
        metrics = per_layer(plain, traced, probes, workload)
        last_trace = traced[-1]["trace"]
        print(f"  self time by module, last traced pass ({last_trace['spans']} spans, "
              f"traced wall {last_trace['wall_s']:.3f} s):")
        for module, seconds in sorted(last_trace["modules"].items(), key=lambda kv: -kv[1]):
            print(f"    {module:<12} {seconds:9.4f} s")
        print(f"    {'(untraced)':<12} {last_trace['wall_s'] - sum(last_trace['modules'].values()):9.4f} s")
        hits, lookups = last_trace["memo"]
        print(f"  shuffle memo: {hits} hits of {lookups} lookups")
        layer = None
        for name, (value, unit) in metrics.items():
            if name.split(".", 1)[0] != layer:
                layer = name.split(".", 1)[0]
                print(f"  [{layer}] should move {PREDICTIONS[layer]}")
            print(f"    {name:<40} {value:14.6g} {unit}")
    else:
        metrics = end_to_end(plain)
        ops = sum(len(r["ops"]) for r in plain)
        for name, (value, unit) in metrics.items():
            print(f"  {name:<16} {value:12.6g} {unit}")
        print(f"  fail_ratio       {failed}/{attempted} = {failed / attempted:.4g} ratio   "
              f"(latency samples: {ops}; p90 has {ops - int(0.9 * ops)} beyond it)")
        raw_wall = statistics.median(sum(op[2] for op in r["ops"]) for r in plain)
        ref_ms = [round(r["ref_s"] * 1000, 3) for r in plain]
        print(f"  unscaled wall_s {raw_wall:.4f}; reference loop medians {ref_ms} ms (nominal {REF_NOMINAL_S * 1000} ms)")
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
            }
        )
    )
    return failed == 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "sigtensor", "__init__.py")):
        return fail("src/sigtensor not found: run from the root of a sigtensor checkout")
    correct = True
    try:
        for workload in WORKLOADS if args.workload == "all" else (args.workload,):
            correct &= run_workload(workload, args, root)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        return fail(str(exc))
    return 0 if correct or args.workload != "all" else 1


if __name__ == "__main__":
    sys.exit(main())
