"""Which sigtensor modules each CLI subcommand loads, and how long a whole call takes.

    python benchmarks/cli_imports.py --src src                  # 10 rounds
    python benchmarks/cli_imports.py --src src --repeats 1      # a smoke run

Standard library only.  The tree under --src is copied twice into a temporary
directory: once as it is, without any `__pycache__`, and once compiled with
`compileall`.  Every call runs as a fresh `python -m sigtensor.cli` process
with PYTHONDONTWRITEBYTECODE=1, so the first copy compiles every module it
loads on every call, as a bytecode-free host does, and nothing is ever
written into the working tree.  The inputs are small JSON documents, the
series and tensors among them written by the CLI itself before timing.

For each call the output gives its exit code, the `sigtensor.*` modules it
loaded, in load order (from `python -X importtime`), and the min and median
wall time (ms) over --repeats rounds, once per copy ("as_run": no bytecode;
"precompiled").  Each round runs every call on both copies, so a host whose
speed drifts slows both alike.  The JSON document goes to stdout; the exit
status is 1 when a call exits with another code than the one listed below.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

PATH = {"type": "piecewise_linear", "dim": 2, "steps": [["1", "1/2"], ["-1", "2"]]}  # two steps, as exact recovery needs
AXIS = {"type": "axis_parallel", "dim": 2, "dirs": [1, 2, 1, 2], "lengths": ["1", "1", "-1", "-1"]}
MODEL = {"mu": ["1", "-1"], "sigma": [["1", "1/2"], ["1/2", "2"]], "q": [["0", "1"], ["-1", "0"]]}

#: (name, argv with {file} placeholders, exit code)
CALLS = [
    ("compute", ["compute", "{path}", "--trunc", "4"], 0),
    ("verify-vanishing", ["verify-vanishing", "{axis}", "--upto", "4"], 0),
    ("expected", ["expected", "{model}", "--trunc", "4"], 0),
    ("check grouplike", ["check", "{series}", "--what", "grouplike"], 0),
    ("check lie", ["check", "{series}", "--what", "lie"], 1),
    ("check Mdm", ["check", "{matrix}", "--what", "Mdm", "--m", "2"], 0),
    ("lyndon", ["lyndon", "--d", "3", "--n", "5"], 0),
    ("normal-form", ["normal-form", "--d", "2", "--n", "5"], 0),
    ("invariants", ["invariants", "{tensor}"], 0),
    ("recover", ["recover", "--family", "pl", "--d", "2", "--m", "2", "--k", "3", "--input", "{tensor}"], 0),
    ("usage error", ["lyndon", "--d", "2"], 2),
]

#: files the CLI writes from PATH before timing: name -> compute flags
DERIVED = {"series": ["--trunc", "3"], "tensor": ["--level", "3"], "matrix": ["--level", "2"]}


def _copy(src: str, dest: str) -> str:
    """A copy of the package tree at dest/sigtensor, without bytecode; returns dest."""
    shutil.copytree(os.path.join(src, "sigtensor"), os.path.join(dest, "sigtensor"),
                    ignore=shutil.ignore_patterns("__pycache__", "*.pyc"))
    return dest


def _env(tree: str) -> dict:
    return dict(os.environ, PYTHONPATH=tree, PYTHONDONTWRITEBYTECODE="1", PYTHONHASHSEED="0")


def _run(argv, env, cwd, flags=()):
    return subprocess.run([sys.executable, *flags, "-m", "sigtensor.cli", *argv], env=env, cwd=cwd,
                          capture_output=True, text=True, timeout=300)


def _loaded(stderr: str) -> list:
    """`sigtensor.*` modules in the order `-X importtime` reports them finished, which lists
    a module after the modules it imports."""
    names = []
    for line in stderr.splitlines():
        if line.startswith("import time:"):
            name = line.rsplit("|", 1)[-1].strip()
            if name.startswith("sigtensor."):
                names.append(name)
    return names


def _inputs(work: str, env: dict) -> dict:
    files = {}
    for name, payload in (("path", PATH), ("axis", AXIS), ("model", MODEL)):
        files[name] = os.path.join(work, f"{name}.json")
        with open(files[name], "w") as handle:
            json.dump(payload, handle)
    for name, flags in DERIVED.items():
        proc = _run(["compute", files["path"], *flags], env, work)
        if proc.returncode:
            raise SystemExit(f"compute {' '.join(flags)} failed: {proc.stderr}")
        files[name] = os.path.join(work, f"{name}.json")
        with open(files[name], "w") as handle:
            handle.write(proc.stdout)
    return files


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", default="src", help="the directory holding the sigtensor package")
    parser.add_argument("--repeats", type=int, default=10, help="timed rounds (every call on both copies)")
    args = parser.parse_args(argv)
    if args.repeats < 1:
        parser.error("--repeats must be >= 1")
    with tempfile.TemporaryDirectory(prefix="cli_imports-") as work:
        trees = {
            "as_run": _copy(args.src, os.path.join(work, "as_run")),
            "precompiled": _copy(args.src, os.path.join(work, "precompiled")),
        }
        if not compileall.compile_dir(trees["precompiled"], quiet=1):
            raise SystemExit("compileall failed")
        envs = {setting: _env(tree) for setting, tree in trees.items()}
        files = _inputs(work, envs["as_run"])
        calls = [(name, [arg.format(**files) for arg in template], code) for name, template, code in CALLS]

        rows, wrong = [], []
        for name, call, code in calls:
            proc = _run(call, envs["as_run"], work, ("-X", "importtime"))
            if proc.returncode != code:
                wrong.append(f"{name}: exit {proc.returncode}, expected {code}")
            rows.append({"call": name, "exit": proc.returncode, "modules": _loaded(proc.stderr)})
        times = {(name, setting): [] for name, _, _ in calls for setting in trees}
        for _ in range(args.repeats):
            for name, call, _ in calls:
                for setting, env in envs.items():
                    start = time.perf_counter()
                    _run(call, env, work)
                    times[name, setting].append((time.perf_counter() - start) * 1e3)
    for row in rows:
        for setting in trees:
            ms = times[row["call"], setting]
            row[f"{setting}_ms"] = {"min": round(min(ms), 1), "median": round(statistics.median(ms), 1)}
    report = {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "repeats": args.repeats,
        "calls": rows,
    }
    print(json.dumps(report, indent=1))
    for line in wrong:
        print(line, file=sys.stderr)
    return 1 if wrong else 0


if __name__ == "__main__":
    sys.exit(main())
