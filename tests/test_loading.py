"""What an import loads: `import sigtensor` is empty, the first access through the package loads the
whole API at once, and each CLI subcommand loads only the submodules its handler runs.

Each check runs in a fresh interpreter, since this suite's own imports have loaded everything.
"""

import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import sigtensor
from sigtensor import RecoveryFailed, pl_signature, project_level
from sigtensor.cli import main

SRC = str(Path(__file__).resolve().parents[1] / "src")

SUBMODULES = {
    "dual", "invariants", "lyndon", "matrices", "paths", "recovery", "scalars", "shuffle", "stochastic",
    "tensor", "words",
}

#: `from sigtensor import *` of the eager package this namespace replaced: 94 API names and the 11 submodules.
PUBLIC = SUBMODULES | {
    "AxisParallel", "BrownianModel", "DegenerateRecovery", "GaussNewtonResult", "JacobianReport", "LevelTensor",
    "LinearInvariants", "LogLinear", "LyndonBasis", "MatrixPencil", "MixtureModel", "NonGenericInput",
    "NormalFormTable", "NumericalFailure", "PiecewiseLinear", "Polynomial", "RecoveryFailed", "RecoveryResult",
    "RootUnavailable", "TensorSeries", "WordCombination", "all_words", "axis_matrix", "basis_series", "bracketing",
    "canonical_axis", "canonical_mono", "cfl_factorization", "circuit_matrix", "commutator", "concat_product",
    "exact_det", "exact_rank", "exp_series", "expand_from_lyndon", "expected_signature",
    "find_grouplike_violation", "find_lie_violation", "from_vector", "gauss_newton_recover", "gaussian_moment",
    "index_word", "is_grouplike", "is_lie", "is_lyndon", "is_signature_matrix", "jacobian_rank",
    "linear_invariants", "log_series", "loglinear_level", "loglinear_signature", "lyndon_coordinates",
    "lyndon_count", "lyndon_words", "matrix_to_tensor", "mixture_expected_signature", "mono_matrix",
    "mono_matrix_det", "mono_slice_det", "mono_slice_matrix", "mono_to_axis_congruence", "negate_odd_levels",
    "normal_form", "normal_form_table", "path_from_json", "path_to_json", "pfaffian", "pl_level_direct",
    "pl_signature", "pl_signature_congruence", "poly_signature_congruence", "poly_signature_integrate",
    "project_level", "quadric_family_eval", "recover_group_element", "recover_quadratic_planar",
    "recover_two_step_planar", "series_from_level", "shuffle_form_eval", "shuffle_words", "signature_level",
    "signature_map", "signature_matrix_generators", "signature_matrix_witness", "signature_series",
    "split_pencil", "standard_factorization", "tensor_congruence", "unit_series", "volume_invariant",
    "word_from_string", "word_index", "word_to_string", "zero_series",
}


def fresh(code: str) -> dict:
    """Run `code` in a new interpreter on this tree; it prints one JSON line last, returned here."""
    env = dict(os.environ, PYTHONPATH=SRC + os.pathsep + os.environ.get("PYTHONPATH", ""))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


LOADED = "sorted(m.split('.', 1)[1] for m in sys.modules if m.startswith('sigtensor.') and m != 'sigtensor.cli')"


def test_importing_the_package_loads_no_submodule_and_no_numpy():
    got = fresh(
        "import json, sys, sigtensor\n"
        "public = sorted(n for n in dir(sigtensor) if not n.startswith('_'))\n"
        f"print(json.dumps([{LOADED}, 'numpy' in sys.modules, public]))"
    )
    assert got == [[], False, sorted(PUBLIC)]  # dir() names the API before it is loaded


@pytest.mark.parametrize("access", ["sigtensor.LevelTensor", "sigtensor.shuffle", "from sigtensor import dual"])
def test_the_first_public_access_loads_and_binds_the_whole_api(access):
    got = fresh(
        "import json, sys, sigtensor\n"
        f"{access}\n"
        "public = sorted(n for n in vars(sigtensor) if not n.startswith('_'))\n"
        f"print(json.dumps([{LOADED}, public]))"
    )
    assert got == [sorted(SUBMODULES), sorted(PUBLIC)]


def test_all_dir_and_star_import_name_the_same_public_names():
    assert len(PUBLIC) == 105
    assert set(sigtensor.__all__) == PUBLIC and len(sigtensor.__all__) == 105
    # this suite imported sigtensor.cli, and an import binds its submodule in the package as always
    assert {n for n in dir(sigtensor) if not n.startswith("_")} - {"cli"} == PUBLIC
    namespace = {}
    exec("from sigtensor import *", namespace)
    assert set(namespace) - {"__builtins__"} == PUBLIC
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        sigtensor.no_such_name


def test_numerical_failure_is_one_class_under_every_name_and_recovery_failures_exit_3(monkeypatch, capsys, tmp_path):
    from sigtensor import matrices, recovery, scalars

    assert sigtensor.NumericalFailure is matrices.NumericalFailure is scalars.NumericalFailure
    assert issubclass(RecoveryFailed, sigtensor.NumericalFailure) and issubclass(RecoveryFailed, RuntimeError)

    def fail(*args, **kwargs):
        raise RecoveryFailed("no restart converged")

    monkeypatch.setattr(recovery, "gauss_newton_recover", fail)
    tensor = tmp_path / "t.json"
    tensor.write_text(json.dumps(project_level(pl_signature([(1, 0), (0, 1)], 3), 3).to_float().to_json()))
    argv = ["recover", "--family", "pl", "--d", "2", "--m", "2", "--k", "3", "--input", str(tensor), "--mode", "newton"]
    assert main(argv) == 3
    assert capsys.readouterr() == ("", "numerical failure: no restart converged\n")


BASE = ["scalars", "words", "tensor"]


def _inputs(tmp_path) -> dict:
    steps = [(Fraction(1), Fraction(1, 2)), (Fraction(-1), Fraction(2))]
    series = pl_signature(steps, 3)
    files = {
        "path": {"type": "piecewise_linear", "dim": 2, "steps": [[str(v) for v in step] for step in steps]},
        "axis": {"type": "axis_parallel", "dim": 2, "dirs": [1, 2, 1, 2], "lengths": ["1", "1", "-1", "-1"]},
        "model": {"mu": ["1", "-1"], "sigma": [["1", "1/2"], ["1/2", "2"]], "q": [["0", "1"], ["-1", "0"]]},
        "series": series.to_json(),
        "tensor": project_level(series, 3).to_json(),
        "matrix": project_level(series, 2).to_json(),
    }
    for name, payload in files.items():
        (tmp_path / f"{name}.json").write_text(json.dumps(payload))
    return {name: str(tmp_path / f"{name}.json") for name in files}


#: (name, argv with {input} placeholders, exit code, the sigtensor submodules loaded after main(argv)).
CALLS = [
    ("compute", ["compute", "{path}", "--trunc", "3"], 0, BASE + ["shuffle", "paths"]),
    ("verify-vanishing", ["verify-vanishing", "{axis}", "--upto", "3"], 0, BASE + ["shuffle", "paths"]),
    ("expected", ["expected", "{model}", "--trunc", "3"], 0, BASE + ["stochastic"]),
    ("check-grouplike", ["check", "{series}", "--what", "grouplike"], 0, BASE + ["shuffle"]),
    ("check-lie", ["check", "{series}", "--what", "lie"], 1, BASE + ["shuffle"]),
    ("check-Mdm", ["check", "{matrix}", "--what", "Mdm", "--m", "2"], 0, BASE + ["shuffle", "paths", "matrices"]),
    ("lyndon", ["lyndon", "--d", "2", "--n", "4"], 0, BASE + ["shuffle", "lyndon"]),
    ("normal-form", ["normal-form", "--d", "2", "--n", "3"], 0, BASE + ["shuffle", "lyndon"]),
    ("invariants", ["invariants", "{tensor}"], 0, BASE + ["invariants"]),
    (
        "recover",
        ["recover", "--family", "pl", "--d", "2", "--m", "2", "--k", "3", "--input", "{tensor}"],
        0,
        sorted(SUBMODULES - {"lyndon", "stochastic", "invariants"}),
    ),
    ("usage-error", ["compute"], 2, ["scalars"]),  # refused by argparse
]


@pytest.mark.parametrize("argv, code, modules", [call[1:] for call in CALLS], ids=[call[0] for call in CALLS])
def test_each_subcommand_loads_only_the_modules_its_handler_runs(tmp_path, argv, code, modules):
    files = _inputs(tmp_path)
    argv = [arg.format(**files) for arg in argv]
    got = fresh(
        "import contextlib, io, json, sys\n"
        "from sigtensor.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):\n"
        f"    code = main({argv!r})\n"
        f"print(json.dumps([code, {LOADED}]))"
    )
    assert got == [code, sorted(modules)]
