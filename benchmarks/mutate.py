"""Operator mutations of named package functions, each run against a test subset on a copy of the tree.

    python benchmarks/mutate.py tensor
    python benchmarks/mutate.py lyndon --list
    python benchmarks/mutate.py paths

A target (TARGETS) names a module of src/sigtensor, functions in it ("LevelTensor.scale" for a method)
and the test files to run.  Each mutant flips one operator inside those functions: + and -, * and //
(also in augmented assignments), < and <=, > and >=, == and !=, in and not in, is and is not, and and
or; or it turns one call statement into `pass` (a guard such as `_computable(...)` dropped).  The
harness copies src/, tests/ and pyproject.toml into a temporary directory, runs the test subset there
once unmutated (it must pass), then writes each mutant over the copied module, runs the subset with -x
and prints the mutant with its line and whether the tests killed it (they failed, or ran past ten
times the unmutated run plus 30 s) or it survived.  The operator is replaced in the source text,
so every other byte and line number stays as it was; bytecode is never written, so no stale cache
can stand in for a mutant.  The working tree is only read.  Too slow for CI: a killed mutant takes
seconds, a survivor the whole subset.  --list prints the mutants without running them.
"""

from __future__ import annotations

import argparse
import ast
import os
import re
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: name -> (module under src/sigtensor, functions to mutate, test files)
TARGETS = {
    "tensor": (
        "tensor.py",
        (
            "_computable",
            "_common",
            "_graded_product",
            "_horner",
            "LevelTensor.scale",
            "LevelTensor.tensor_product",
            "LevelTensor.negate",
            "LevelTensor._linear_map",
            "concat_product",
        ),
        ("tests/test_tensor.py", "tests/test_properties.py", "tests/test_paths.py"),
    ),
    "lyndon": (
        "lyndon.py",
        ("_build_level", "expand_from_lyndon"),
        ("tests/test_machine_integers.py", "tests/test_lyndon.py", "tests/test_tensor.py"),
    ),
    "paths": (
        "paths.py",
        ("poly_signature_integrate", "canonical_mono", "tensor_congruence"),
        ("tests/test_paths.py", "tests/test_properties.py"),
    ),
}

_FLIPS = {
    "+": "-",
    "-": "+",
    "*": "//",
    "//": "*",
    "<": "<=",
    "<=": "<",
    ">": ">=",
    ">=": ">",
    "==": "!=",
    "!=": "==",
    "in": "not in",
    "not in": "in",
    "is": "is not",
    "is not": "is",
    "and": "or",
    "or": "and",
}
_BINARY = (ast.Add, ast.Sub, ast.Mult, ast.FloorDiv)


def _functions(tree: ast.Module, names) -> list:
    """The function nodes of the given qualified names, a method as Class.method."""
    found = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            found[node.name] = node
        elif isinstance(node, ast.ClassDef):
            found.update((f"{node.name}.{f.name}", f) for f in node.body if isinstance(f, ast.FunctionDef))
    missing = [name for name in names if name not in found]
    if missing:
        raise SystemExit(f"no function {missing[0]!r} in the module")
    return [(name, found[name]) for name in names]


def _gaps(node):
    """(left, right) operand pairs whose source gap holds one mutable operator of the node."""
    if isinstance(node, ast.BinOp) and isinstance(node.op, _BINARY):
        yield node.left, node.right
    elif isinstance(node, ast.AugAssign) and isinstance(node.op, _BINARY):
        yield node.target, node.value
    elif isinstance(node, ast.Compare):
        yield from zip([node.left, *node.comparators], node.comparators)
    elif isinstance(node, ast.BoolOp):
        yield from zip(node.values, node.values[1:])


def mutants(source: bytes, names) -> list:
    """(function, line, operator, flipped, mutated source) for each mutable operator in the functions, and
    for each call statement, replaced by `pass`, in source order per function."""
    starts = [0]
    for line in source.splitlines(keepends=True):
        starts.append(starts[-1] + len(line))
    out = []
    for name, function in _functions(ast.parse(source), names):
        found = []
        for node in ast.walk(function):
            if isinstance(node, ast.Expr) and isinstance(node.value, ast.Call):
                lo, hi = starts[node.lineno - 1] + node.col_offset, starts[node.end_lineno - 1] + node.end_col_offset
                text = "pass" + "\n" * (node.end_lineno - node.lineno)  # the lines below keep their numbers
                call = ast.unparse(node.value.func)
                mutated = source[:lo] + text.encode() + source[hi:]
                found.append((node.lineno, node.col_offset, f"{call}(...)", "pass", mutated))
            for left, right in _gaps(node):
                lo = starts[left.end_lineno - 1] + left.end_col_offset  # ast offsets count UTF-8 bytes
                hi = starts[right.lineno - 1] + right.col_offset
                gap = source[lo:hi].decode()
                match = re.search(r"(?<![\w=<>!*/+-])(not\s+in|is\s+not|[a-z]+|//=?|[-+*<>=!]=?)(?![\w<>!*/])", gap)
                if match is None:
                    continue
                token = " ".join(match.group(1).split())
                aug = isinstance(node, ast.AugAssign)
                operator = token[:-1] if aug and token.endswith("=") else token
                if operator not in _FLIPS:
                    continue
                flipped = _FLIPS[operator] + ("=" if aug else "")
                text = gap[: match.start(1)] + flipped + gap[match.end(1) :]
                mutated = source[:lo] + text.encode() + source[hi:]
                found.append((left.end_lineno, left.end_col_offset, token, flipped, mutated))
        out += [(name, line, *rest) for line, _, *rest in sorted(found, key=lambda f: f[:2])]
    return out


def _run(tree: Path, tests, timeout: float | None) -> tuple:
    """(passed, seconds, timed out) of the test files run with -x in the copied tree."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")
    command = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *tests]
    start = time.perf_counter()
    try:
        output = {"stdout": subprocess.DEVNULL, "stderr": subprocess.DEVNULL}
        done = subprocess.run(command, cwd=tree, env=env, timeout=timeout, **output)
    except subprocess.TimeoutExpired:
        return False, time.perf_counter() - start, True
    return done.returncode == 0, time.perf_counter() - start, False


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("target", choices=sorted(TARGETS))
    parser.add_argument("--list", action="store_true", help="print the mutants without running them")
    args = parser.parse_args(argv)
    module, names, tests = TARGETS[args.target]
    path = ROOT / "src" / "sigtensor" / module
    source = path.read_bytes()
    found = mutants(source, names)
    if args.list:
        for name, line, token, flipped, _ in found:
            print(f"{module}:{line} {name}: {token!r} -> {flipped!r}")
        return 0
    with tempfile.TemporaryDirectory(prefix="mutate-") as temporary:
        tree = Path(temporary)
        ignore = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")
        for part in ("src", "tests"):
            shutil.copytree(ROOT / part, tree / part, ignore=ignore)
        shutil.copy2(ROOT / "pyproject.toml", tree)
        copy = tree / "src" / "sigtensor" / module
        passed, baseline, _ = _run(tree, tests, None)
        if not passed:
            print("the unmutated tests fail; no mutant run", file=sys.stderr)
            return 1
        print(f"unmutated: {len(found)} mutants, tests pass in {baseline:.1f} s", flush=True)
        survived = 0
        for name, line, token, flipped, mutated in found:
            copy.write_bytes(mutated)
            passed, seconds, timed_out = _run(tree, tests, 10 * baseline + 30)
            verdict = "survived" if passed else "killed (timeout)" if timed_out else "killed"
            survived += passed
            print(f"{verdict:16} {module}:{line} {name}: {token!r} -> {flipped!r} ({seconds:.1f} s)", flush=True)
        copy.write_bytes(source)
    print(f"{len(found) - survived} killed, {survived} survived")
    return 0


if __name__ == "__main__":
    sys.exit(main())
