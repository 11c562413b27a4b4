"""The golden-output corpus (`benchmarks/corpus.py`): a case for every computing name the package exports,
and typed leaves that keep every bit."""

import inspect
import math
import runpy
from fractions import Fraction
from pathlib import Path

import numpy as np

import sigtensor

CORPUS = runpy.run_path(str(Path(__file__).resolve().parents[1] / "benchmarks" / "corpus.py"))


def _computing(value) -> bool:
    """A function, or a class (not an exception) with a public method."""
    if inspect.isfunction(value):
        return True
    return (
        inspect.isclass(value)
        and not issubclass(value, BaseException)
        and any(inspect.isfunction(f) and not name.startswith("_") for name, f in vars(value).items())
    )


def test_every_computing_public_name_has_a_corpus_case():
    computing = {name for name in sigtensor.__all__ if _computing(getattr(sigtensor, name))}
    assert {"tensor_congruence", "signature_map", "LevelTensor", "NormalFormTable"} <= computing
    assert computing - {name for name, _ in CORPUS["cases"]()} == set()


def test_leaves_keep_type_and_every_bit():
    leaves = lambda value: [text for _, text in CORPUS["_leaves"](value, "")]
    assert leaves(-0.0) == ["float -0x0.0p+0"] and leaves(0.0) == ["float 0x0.0p+0"]
    assert leaves(np.float64(0.1)) == [f"float64 {(0.1).hex()}"] and leaves(math.nan) == ["float nan"]
    assert leaves([2**70, Fraction(-1, 3), True]) == ["list[3]", f"int {2**70}", "Fraction -1/3", "bool True"]
    assert leaves(np.array([[1, 2]], dtype=np.int64)) == ["ndarray int64 (1, 2)", "int64 1", "int64 2"]
    assert leaves(ValueError("ragged matrix")) == ["raise ValueError: ragged matrix"]
    assert leaves(sigtensor.LevelTensor(1, 1, [Fraction(1, 2)])) == ["LevelTensor d=1 k=1", "Fraction 1/2"]


def test_compare_pairs_lines_by_key_and_counts_per_function():
    old = ["f#0 = int 1", "f#0[0] = float 0x1p+0", "g#0 = str 'a'"]
    new = ["f#0 = int 1", "f#0[0] = float 0x1.0000000000001p+0", "h#0 = bool True"]
    differ, counts = CORPUS["compare"](old, new)
    assert differ == [
        "- f#0[0] = float 0x1p+0",
        "+ f#0[0] = float 0x1.0000000000001p+0",
        "- g#0 = str 'a'",
        "+ h#0 = bool True",
    ]
    assert counts == {"f": 1, "g": 1, "h": 1}
    assert CORPUS["compare"](old, old) == ([], {})
