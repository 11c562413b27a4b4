import contextlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sigtensor import (
    canonical_axis,
    canonical_mono,
    pl_signature,
    poly_signature_integrate,
    project_level,
)
from sigtensor.cli import main
from sigtensor.scalars import format_scalar
from sigtensor.tensor import LevelTensor

DATA = Path(__file__).resolve().parents[1] / "src" / "sigtensor" / "data"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_json(tmp_path, name, payload):
    target = tmp_path / name
    target.write_text(json.dumps(payload))
    return str(target)


def test_compute_axis_and_mono_matrices(tmp_path, capsys):
    axis = write_json(
        tmp_path,
        "axis.json",
        {"type": "axis_parallel", "dim": 3, "dirs": [1, 2, 3], "lengths": ["1", "1", "1"]},
    )
    code, out, _ = run_cli(capsys, "compute", axis, "--level", "2")
    assert code == 0
    assert LevelTensor.from_json(json.loads(out)) == canonical_axis(3, 2)
    mono = write_json(
        tmp_path,
        "mono.json",
        {"type": "polynomial", "dim": 3, "coeffs": [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]]},
    )
    code, out, _ = run_cli(capsys, "compute", mono, "--level", "2")
    assert code == 0
    assert LevelTensor.from_json(json.loads(out)) == canonical_mono(3, 2)


def test_compute_empty_path_unit_series(tmp_path, capsys):
    empty = write_json(tmp_path, "empty.json", {"type": "piecewise_linear", "dim": 2, "steps": []})
    code, out, _ = run_cli(capsys, "compute", empty, "--trunc", "3")
    assert code == 0
    data = json.loads(out)
    assert data["levels"][0] == "1"
    assert all(not lvl["entries"] for lvl in data["levels"][1:])


def test_compute_float_mode(tmp_path, capsys):
    path = write_json(
        tmp_path, "p.json", {"type": "piecewise_linear", "dim": 2, "steps": [["1/2", "1"]]}
    )
    code, out, _ = run_cli(capsys, "compute", path, "--level", "2", "--scalar", "float")
    payload = json.loads(out)
    assert code == 0 and payload["scalar"] == "float"
    assert payload["entries"]["11"] == pytest_approx(0.125)
    assert payload["entries"]["12"] == pytest_approx(0.25)


def pytest_approx(value):
    import pytest

    return pytest.approx(value, rel=1e-12)


def test_compute_rejects_bad_input(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _, err = run_cli(capsys, "compute", str(bad), "--level", "2")
    assert code == 2 and "error" in err
    missing_flag = write_json(tmp_path, "p.json", {"type": "piecewise_linear", "dim": 2, "steps": [["1", "0"]]})
    code, _, _ = run_cli(capsys, "compute", missing_flag)
    assert code == 2
    code, _, err = run_cli(capsys, "compute", missing_flag, "--level", "25")
    assert code == 2 and "cap" in err


def test_compute_rejects_an_empty_coefficient_row(tmp_path, capsys):
    path = write_json(tmp_path, "p.json", {"type": "polynomial", "dim": 1, "coeffs": [[]]})
    code, out, err = run_cli(capsys, "compute", path, "--level", "2")
    assert code == 2 and out == ""
    assert "coefficient rows are empty" in err and "Traceback" not in err


def test_compute_names_dim_and_rows_for_an_empty_polynomial(tmp_path, capsys):
    path = write_json(tmp_path, "p.json", {"type": "polynomial", "dim": 0, "coeffs": []})
    code, out, err = run_cli(capsys, "compute", path, "--trunc", "2")
    assert code == 2 and out == ""
    assert "dim >= 1, got dim 0" in err and "one non-empty coefficient row per coordinate" in err
    assert "Traceback" not in err


def test_compute_refuses_a_log_linear_dim_that_differs_from_the_lie_element(tmp_path, capsys):
    path = write_json(tmp_path, "p.json", {"type": "log_linear", "dim": 5, "lie": _SERIES})
    code, out, err = run_cli(capsys, "compute", path, "--trunc", "2")
    assert code == 2 and out == ""
    assert "dim 5" in err and "Lie element's dim 2" in err and "Traceback" not in err


def test_compute_check_round_trip(tmp_path, capsys):
    path = write_json(
        tmp_path,
        "path.json",
        {"type": "piecewise_linear", "dim": 2, "steps": [["1", "1/2"], ["-1/3", "2"]]},
    )
    code, out, _ = run_cli(capsys, "compute", path, "--trunc", "4")
    assert code == 0
    series_file = tmp_path / "series.json"
    series_file.write_text(out)
    code, out, _ = run_cli(capsys, "check", str(series_file), "--what", "grouplike")
    assert code == 0 and json.loads(out)["ok"] is True


def test_check_mdm_and_witness(tmp_path, capsys):
    steps = [(Fraction(1), Fraction(0), Fraction(2), Fraction(1)),
             (Fraction(0), Fraction(1), Fraction(1), Fraction(-1)),
             (Fraction(2), Fraction(1), Fraction(0), Fraction(3))]
    tensor = project_level(pl_signature(steps, 2), 2)
    tensor_file = write_json(tmp_path, "m.json", tensor.to_json())
    code, out, _ = run_cli(capsys, "check", tensor_file, "--what", "Mdm", "--m", "3")
    assert code == 0 and json.loads(out)["ok"] is True
    code, out, _ = run_cli(capsys, "check", tensor_file, "--what", "Mdm", "--m", "2")
    payload = json.loads(out)
    assert code == 1 and payload["ok"] is False and payload["witness"]
    code, _, _ = run_cli(capsys, "check", tensor_file, "--what", "Mdm")
    assert code == 2


def test_check_perturbed_series_names_witness(tmp_path, capsys):
    series = pl_signature([(Fraction(1), Fraction(2)), (Fraction(0), Fraction(1))], 3)
    data = series.to_json()
    data["levels"][3]["entries"]["111"] = "99"
    series_file = write_json(tmp_path, "broken.json", data)
    code, out, _ = run_cli(capsys, "check", series_file, "--what", "grouplike")
    payload = json.loads(out)
    assert code == 1 and payload["ok"] is False
    assert payload["witness"]["left"] and payload["witness"]["right"]


def test_lyndon_and_normal_form(capsys):
    code, out, _ = run_cli(capsys, "lyndon", "--d", "2", "--n", "2")
    payload = json.loads(out)
    assert code == 0 and payload["count"] == 3
    assert set(payload["words"]) == {"1", "2", "12"}
    code, out, _ = run_cli(capsys, "normal-form", "--d", "2", "--n", "3", "--word", "121")
    payload = json.loads(out)
    assert code == 0 and payload["word"] == "121"
    terms = {tuple(t["vars"]): t["coeff"] for t in payload["poly"]}
    assert terms == {("1", "12"): "1", ("112",): "-2"}
    code, out, _ = run_cli(capsys, "normal-form", "--d", "2", "--n", "2")
    payload = json.loads(out)
    assert code == 0 and {f["word"] for f in payload["forms"]} == {"11", "21", "22"}


def test_invariants_command(tmp_path, capsys):
    tensor = project_level(poly_signature_integrate([(Fraction(1), Fraction(2)), (Fraction(-1), Fraction(1, 2))], 3), 3)
    tensor_file = write_json(tmp_path, "t.json", tensor.to_json())
    code, out, _ = run_cli(capsys, "invariants", tensor_file)
    payload = json.loads(out)
    assert code == 0
    assert payload["quadrics_P"] == ["0", "0", "0"]
    assert any(v != "0" for v in payload["quadrics_L"])
    axis_file = write_json(tmp_path, "a.json", canonical_axis(2, 4).to_json())
    code, out, _ = run_cli(capsys, "invariants", axis_file)
    payload = json.loads(out)
    assert code == 0 and payload["l1"] == "0" and payload["l2"] == "1/4"


def test_verify_vanishing_bundled_path(capsys):
    code, out, _ = run_cli(capsys, "verify-vanishing", str(DATA / "lyons_xu.json"), "--upto", "4")
    payload = json.loads(out)
    assert code == 0
    assert payload["firstNonzeroLevel"] == 4
    assert payload["latticeLength"] == "14"


def test_verify_vanishing_simple_cases(tmp_path, capsys):
    single = write_json(
        tmp_path, "single.json", {"type": "axis_parallel", "dim": 2, "dirs": [1], "lengths": ["1"]}
    )
    code, out, _ = run_cli(capsys, "verify-vanishing", single, "--upto", "3")
    payload = json.loads(out)
    assert code == 0 and payload["firstNonzeroLevel"] == 1 and payload["latticeLength"] == "1"
    pair = write_json(
        tmp_path, "pair.json", {"type": "axis_parallel", "dim": 2, "dirs": [1, 1], "lengths": ["3", "-3"]}
    )
    code, out, _ = run_cli(capsys, "verify-vanishing", pair, "--upto", "4")
    payload = json.loads(out)
    assert code == 0 and payload["firstNonzeroLevel"] is None
    not_axis = write_json(
        tmp_path, "pl.json", {"type": "piecewise_linear", "dim": 2, "steps": [["1", "1"]]}
    )
    code, _, _ = run_cli(capsys, "verify-vanishing", not_axis, "--upto", "3")
    assert code == 2


def test_expected_at_truncation_zero_follows_the_scalar_mode(tmp_path, capsys):
    model = write_json(tmp_path, "model.json", {"mu": ["1", "-1"], "sigma": [["1", "1/2"], ["1/2", "2"]], "q": None})
    code, out, _ = run_cli(capsys, "expected", model, "--trunc", "0", "--scalar", "float")
    assert code == 0 and json.loads(out) == {"dim": 2, "trunc": 0, "levels": [1.0]}
    code, out, _ = run_cli(capsys, "expected", model, "--trunc", "0")
    assert code == 0 and json.loads(out) == {"dim": 2, "trunc": 0, "levels": ["1"]}


def test_expected_command(tmp_path, capsys):
    model = write_json(
        tmp_path,
        "model.json",
        {"mu": ["1", "-1"], "sigma": [["1", "1/2"], ["1/2", "2"]], "q": None},
    )
    code, out, _ = run_cli(capsys, "expected", model, "--trunc", "2")
    payload = json.loads(out)
    assert code == 0
    entries = payload["levels"][2]["entries"]
    assert entries["11"] == "1"  # (mu1^2 + s11)/2 = (1+1)/2
    assert entries["12"] == "-1/4"  # (mu1 mu2 + s12)/2 = (-1 + 1/2)/2
    mixture = write_json(
        tmp_path,
        "mix.json",
        {
            "components": [
                {"weight": "1/2", "model": {"mu": ["1", "0"], "sigma": [["1", "0"], ["0", "1"]], "q": None}},
                {"weight": "1/2", "model": {"mu": ["0", "1"], "sigma": [["1", "0"], ["0", "1"]], "q": None}},
            ]
        },
    )
    code, out, _ = run_cli(capsys, "expected", mixture, "--trunc", "2")
    assert code == 0
    payload = json.loads(out)
    assert payload["levels"][1]["entries"] == {"1": "1/2", "2": "1/2"}


def test_recover_exact_and_newton(tmp_path, capsys):
    tensor = project_level(pl_signature([(1, 0), (0, 1)], 3), 3)
    tensor_file = write_json(tmp_path, "t.json", tensor.to_json())
    code, out, _ = run_cli(
        capsys, "recover", "--family", "pl", "--d", "2", "--m", "2", "--k", "3",
        "--input", tensor_file, "--mode", "exact",
    )
    payload = json.loads(out)
    assert code == 0
    assert payload["matrix"] == [["1", "0"], ["0", "1"]]
    assert payload["multiplicity"] == 3
    assert payload["residual"] < 1e-12
    code, out, _ = run_cli(
        capsys, "recover", "--family", "pl", "--d", "2", "--m", "2", "--k", "3",
        "--input", tensor_file, "--mode", "newton", "--tol", "1e-10",
    )
    payload = json.loads(out)
    assert code == 0 and payload["residual"] < 1e-8
    # unsupported exact shape
    code, _, _ = run_cli(
        capsys, "recover", "--family", "pl", "--d", "2", "--m", "3", "--k", "3",
        "--input", tensor_file, "--mode", "exact",
    )
    assert code == 2


def test_recover_exact_poly_family(tmp_path, capsys):
    tensor = project_level(
        poly_signature_integrate([(Fraction(1), Fraction(1, 2)), (Fraction(-1), Fraction(2))], 3), 3
    )
    tensor_file = write_json(tmp_path, "q.json", tensor.to_json())
    code, out, _ = run_cli(
        capsys, "recover", "--family", "poly", "--d", "2", "--m", "2", "--k", "3",
        "--input", tensor_file, "--mode", "exact",
    )
    payload = json.loads(out)
    assert code == 0
    assert payload["matrix"] == [["2", "1"], ["-2", "4"]]  # 2x the true coefficients
    assert payload["residual"] < 1e-12


def test_recover_newton_failure_exit_code(tmp_path, capsys):
    tensor = project_level(pl_signature([(1, 0), (0, 1)], 3), 3)
    entries = [float(v) for v in tensor.entries]
    entries[0] += 0.5
    off = LevelTensor(2, 3, entries)
    tensor_file = write_json(tmp_path, "off.json", off.to_json())
    code, _, err = run_cli(
        capsys, "recover", "--family", "pl", "--d", "2", "--m", "2", "--k", "3",
        "--input", tensor_file, "--mode", "newton", "--tol", "1e-13", "--seed", "0",
    )
    assert code == 3 and "numerical failure" in err


def _unit_series_file(tmp_path):
    return write_json(tmp_path, "unit.json", pl_signature([], 3, d=2).to_json())


def test_check_rejects_an_infinite_tol(tmp_path, capsys):
    series = pl_signature([(Fraction(1), Fraction(2)), (Fraction(0), Fraction(1))], 3)
    data = series.to_json()
    data["levels"][3]["entries"]["111"] = "99"
    series_file = write_json(tmp_path, "broken.json", data)
    code, out, err = run_cli(capsys, "check", series_file, "--what", "grouplike", "--tol", "inf")
    assert code == 2 and out == "" and "--tol" in err


def test_check_rejects_a_negative_tol(tmp_path, capsys):
    code, out, err = run_cli(capsys, "check", _unit_series_file(tmp_path), "--what", "grouplike", "--tol", "-1")
    assert code == 2 and out == "" and "--tol" in err
    code, _, _ = run_cli(capsys, "check", _unit_series_file(tmp_path), "--what", "grouplike", "--tol", "0")
    assert code == 0


def test_check_rejects_a_nan_tol(tmp_path, capsys):
    code, out, err = run_cli(capsys, "check", _unit_series_file(tmp_path), "--what", "lie", "--tol", "nan")
    assert code == 2 and out == "" and "--tol" in err


def test_recover_rejects_a_tol_that_is_not_positive(tmp_path, capsys):
    tensor = project_level(pl_signature([(1, 0), (0, 1)], 3), 3)
    tensor_file = write_json(tmp_path, "t.json", tensor.to_json())
    for tol in ("-1", "0", "nan", "inf"):
        code, out, err = run_cli(
            capsys, "recover", "--family", "pl", "--d", "2", "--m", "2", "--k", "3",
            "--input", tensor_file, "--mode", "newton", "--tol", tol,
        )
        assert code == 2 and out == "" and "--tol" in err, tol


def test_check_rejects_a_tol_that_mdm_would_ignore(tmp_path, capsys):
    tensor = project_level(pl_signature([(1, 0, 2), (0, 1, 1)], 2), 2)
    tensor_file = write_json(tmp_path, "m.json", tensor.to_json())
    code, out, err = run_cli(capsys, "check", tensor_file, "--what", "Mdm", "--m", "2", "--tol", "1e-9")
    assert code == 2 and out == "" and "--tol" in err and "Mdm" in err


def test_recover_rejects_a_tol_that_exact_mode_would_ignore(tmp_path, capsys):
    tensor = project_level(pl_signature([(1, 0), (0, 1)], 3), 3)
    tensor_file = write_json(tmp_path, "t.json", tensor.to_json())
    code, out, err = run_cli(
        capsys, "recover", "--family", "pl", "--d", "2", "--m", "2", "--k", "3",
        "--input", tensor_file, "--mode", "exact", "--tol", "1e-10",
    )
    assert code == 2 and out == "" and "--tol" in err and "--mode exact" in err


def test_bundled_canonical_matrices():
    axis = LevelTensor.from_json(json.loads((DATA / "canonical_axis_d3_k2.json").read_text()))
    mono = LevelTensor.from_json(json.loads((DATA / "canonical_mono_d3_k2.json").read_text()))
    assert axis == canonical_axis(3, 2)
    assert mono == canonical_mono(3, 2)


def test_usage_exit_code(capsys):
    assert main(["no-such-command"]) == 2
    assert main([]) == 2


def test_compute_order_zero_is_the_unit(tmp_path, capsys):
    path = write_json(tmp_path, "p.json", {"type": "piecewise_linear", "dim": 2, "steps": [["1", "2"], ["3", "-1/2"]]})
    code, out, _ = run_cli(capsys, "compute", path, "--level", "0")
    assert code == 0
    assert json.loads(out) == {"dim": 2, "order": 0, "scalar": "rational", "entries": {"": "1"}}
    code, out, _ = run_cli(capsys, "compute", path, "--trunc", "0")
    assert code == 0
    assert json.loads(out) == {"dim": 2, "trunc": 0, "levels": ["1"]}


def test_negative_orders_are_usage_errors(tmp_path, capsys):
    path = write_json(tmp_path, "p.json", {"type": "piecewise_linear", "dim": 2, "steps": [["1", "2"]]})
    model = write_json(tmp_path, "m.json", {"mu": ["1", "0"], "sigma": [["1", "0"], ["0", "1"]]})
    for argv in (
        ("compute", path, "--level", "-1"),
        ("compute", path, "--trunc", "-1"),
        ("expected", model, "--trunc", "-1"),
    ):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == ""
        assert "must be >= 0" in err and argv[-2] in err


def test_normal_form_rejects_letters_outside_the_alphabet(capsys):
    code, out, err = run_cli(capsys, "normal-form", "--d", "2", "--n", "3", "--word", "13")
    assert code == 2 and out == ""
    assert "letter '3'" in err and "1..2" in err
    code, out, err = run_cli(capsys, "normal-form", "--d", "2", "--n", "3", "--word", "1x")
    assert code == 2 and "letter 'x'" in err


def test_normal_form_of_the_empty_word_is_a_one_line_usage_error(capsys):
    code, out, err = run_cli(capsys, "normal-form", "--d", "3", "--n", "4", "--word", "")
    assert code == 2 and out == ""
    assert err.count("\n") == 1 and "--word '' is empty" in err


def test_malformed_inputs_are_usage_errors_that_name_the_fault(tmp_path, capsys):
    listed = write_json(tmp_path, "list.json", [["1", "0"]])
    no_components = write_json(tmp_path, "mix.json", {"components": []})
    no_dim = write_json(tmp_path, "dim0.json", {"type": "piecewise_linear", "dim": 0, "steps": []})
    no_steps = write_json(tmp_path, "steps.json", {"type": "piecewise_linear", "dim": 2})
    for argv, message in (
        (("compute", listed, "--trunc", "2"), "expected a JSON object"),
        (("expected", no_components, "--trunc", "2"), "at least one component"),
        (("compute", no_dim, "--trunc", "2"), "dim >= 1"),
        (("compute", no_steps, "--trunc", "2"), "missing the field 'steps'"),
    ):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == ""
        assert message in err and "Traceback" not in err


@pytest.mark.parametrize(
    "command, payload, field",
    [
        ("expected", {"mu": 5, "sigma": [[1]]}, "mu"),
        ("expected", {"mu": [1], "sigma": [1]}, "sigma[0]"),
        ("expected", {"mu": [1], "sigma": [[1]], "q": 0}, "q"),
        ("expected", {"components": ["x"]}, "components[0]"),
        ("expected", {"components": {"weight": 1}}, "components"),
        ("expected", {"components": [{"weight": 1, "model": [1]}]}, "components[0].model"),
        ("compute", {"type": "piecewise_linear", "dim": 2, "steps": 3}, "steps"),
        ("compute", {"type": "piecewise_linear", "dim": 2, "steps": [3]}, "steps[0]"),
        ("compute", {"type": "polynomial", "dim": 1, "coeffs": 3}, "coeffs"),
        ("compute", {"type": "axis_parallel", "dim": 2, "dirs": 1, "lengths": [1]}, "dirs"),
        ("compute", {"type": "axis_parallel", "dim": 2, "dirs": [1], "lengths": 1}, "lengths"),
        ("compute", {"type": "log_linear", "dim": 2, "lie": [1]}, "lie"),
    ],
)
def test_model_and_path_fields_of_the_wrong_json_type_are_named(tmp_path, capsys, command, payload, field):
    code, out, err = run_cli(capsys, command, write_json(tmp_path, "in.json", payload), "--trunc", "2")
    assert code == 2 and out == ""
    assert f"'{field}' must be a JSON" in err


_SIGNED_COMPONENTS = [
    {"weight": 2, "model": {"mu": [0], "sigma": [[1]]}},
    {"weight": -1, "model": {"mu": [1], "sigma": [[1]]}},
]


@pytest.mark.parametrize(
    "signed, code, message",
    [
        ("false", 2, "'signed' must be a JSON boolean"),
        (0, 2, "'signed' must be a JSON boolean"),
        (None, 2, "'signed' must be a JSON boolean"),
        (True, 0, ""),
        (False, 2, "negative weight in an unsigned mixture"),
        ("absent", 2, "negative weight in an unsigned mixture"),
    ],
)
def test_mixture_signed_is_a_json_boolean_defaulting_to_false(tmp_path, capsys, signed, code, message):
    mixture = {"components": _SIGNED_COMPONENTS}
    if signed != "absent":
        mixture["signed"] = signed
    got, out, err = run_cli(capsys, "expected", write_json(tmp_path, "mix.json", mixture), "--trunc", "1")
    assert got == code and message in err and "Traceback" not in err
    if code == 0:  # 2 * mu_1 - 1 * mu_2 on level 1
        assert json.loads(out)["levels"][1]["entries"] == {"1": "-1"}
    else:
        assert out == ""


_MODEL_1D = {"mu": ["1"], "sigma": [["1"]]}


@pytest.mark.parametrize(
    "command, payload, message",
    [
        ("expected", {"mu": ["x"], "sigma": [["1"]]}, "mu[0]: Invalid literal for Fraction: 'x'"),
        ("expected", {"mu": ["1/0"], "sigma": [["1"]]}, "mu[0]: zero denominator in '1/0'"),
        ("expected", {"mu": ["1", "2"], "sigma": [["1", "0"], ["0", True]]}, "sigma[1][1]: booleans are not scalars"),
        ("expected", {"mu": ["1"], "sigma": [["1"]], "q": [["y"]]}, "q[0][0]: Invalid literal"),
        (
            "expected",
            {"components": [{"weight": "1", "model": _MODEL_1D}, {"weight": [1], "model": _MODEL_1D}]},
            "components[1].weight: cannot parse scalar from [1]",
        ),
        ("compute", {"type": "piecewise_linear", "dim": 2, "steps": [[1, [2]]]}, "steps[0][1]: cannot parse scalar"),
        ("compute", {"type": "polynomial", "dim": 1, "coeffs": [["1", "z"]]}, "coeffs[0][1]: Invalid literal"),
        ("compute", {"type": "axis_parallel", "dim": 2, "dirs": [1], "lengths": [1.5]}, "lengths[0]: non-integral"),
        ("invariants", {"dim": 3, "order": 3, "entries": {"123": "1/x"}}, "entries['123']: Invalid literal"),
        ("check", {"dim": 2, "trunc": 0, "levels": ["one"]}, "levels[0]: Invalid literal"),
    ],
)
def test_bad_scalars_are_usage_errors_that_name_the_field(tmp_path, capsys, command, payload, message):
    argv = {"compute": ["--trunc", "2"], "expected": ["--trunc", "2"], "check": ["--what", "grouplike"]}
    code, out, err = run_cli(capsys, command, write_json(tmp_path, "in.json", payload), *argv.get(command, []))
    assert code == 2 and out == ""
    assert message in err and "Traceback" not in err


def test_rewriting_polynomial_coefficients_name_their_item():
    from sigtensor.lyndon import poly_from_json

    with pytest.raises(ValueError, match=r"poly\[1\]\.coeff: Invalid literal"):
        poly_from_json({"word": "12", "poly": [{"vars": ["1"], "coeff": "1"}, {"vars": ["2"], "coeff": "a"}]}, 2)


def test_fuzz_found_inputs_are_usage_errors_that_name_the_field(tmp_path, capsys):
    listed_entries = write_json(tmp_path, "t.json", {"dim": 2, "order": 2, "entries": [{"12": "1"}]})
    infinite_dim = tmp_path / "inf.json"
    infinite_dim.write_text('{"type": "piecewise_linear", "dim": Infinity, "steps": []}')
    bad_level = write_json(
        tmp_path, "s.json", {"dim": 2, "trunc": 1, "levels": ["1", {"dim": 3, "order": 1, "entries": {}}]}
    )
    for argv, message in (
        (("invariants", listed_entries), "'entries' must be a JSON object"),
        (("check", listed_entries, "--what", "Mdm", "--m", "2"), "'entries' must be a JSON object"),
        (("compute", str(infinite_dim), "--trunc", "1"), "dim must be an integer, got inf"),
        (("check", bad_level, "--what", "lie"), "level 1 has dim 3 and order 1, expected dim 2 and order 1"),
    ):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == ""
        assert message in err and "Traceback" not in err


def test_non_finite_input_floats_are_usage_errors(tmp_path, capsys):
    # Python's json reads NaN and Infinity, which are not JSON numbers
    nan_step = tmp_path / "nan.json"
    nan_step.write_text('{"type": "piecewise_linear", "dim": 2, "steps": [[NaN, 1], [1, 2]]}')
    inf_entry = tmp_path / "inf.json"
    inf_entry.write_text('{"dim": 3, "order": 3, "scalar": "float", "entries": {"123": Infinity}}')
    huge = write_json(tmp_path, "huge.json", {"type": "piecewise_linear", "dim": 2, "steps": [["1e400", "1"]]})
    for argv, message in (
        (("compute", str(nan_step), "--trunc", "2", "--scalar", "float"), "non-finite float nan"),
        (("invariants", str(inf_entry)), "non-finite float inf"),
        (("compute", huge, "--trunc", "1", "--scalar", "float"), "'1e400' is beyond the float range"),
    ):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == "", argv
        assert message in err and "Traceback" not in err


def test_a_non_finite_result_is_a_numerical_failure_with_no_output(tmp_path, capsys):
    steps = write_json(tmp_path, "big.json", {"type": "piecewise_linear", "dim": 2, "steps": [[1e308, 1e308], [1e308, 2.0]]})
    # the overflow raises no numpy warning (an error under this suite's warning filter)
    code, out, err = run_cli(capsys, "compute", steps, "--trunc", "2", "--scalar", "float")
    assert code == 3 and out == ""
    assert err == "numerical failure: the result holds a NaN or infinite float, which JSON cannot carry\n"
    # the separating quadrics square Python floats, which raises OverflowError
    tensor = write_json(tmp_path, "q.json", {"dim": 2, "order": 3, "scalar": "float", "entries": {"111": 1e160, "112": 1e160}})
    code, out, err = run_cli(capsys, "invariants", tensor)
    assert code == 3 and out == "" and err.startswith("numerical failure: ")


def test_an_overflow_under_warnings_as_errors_is_a_numerical_failure(tmp_path):
    steps = write_json(tmp_path, "big.json", {"type": "piecewise_linear", "dim": 2, "steps": [[1e308, 1e308], [1e308, 2.0]]})
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    argv = [sys.executable, "-W", "error", "-m", "sigtensor.cli", "compute", steps, "--trunc", "3", "--scalar", "float"]
    proc = subprocess.run(argv, capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 3 and proc.stdout == ""
    assert proc.stderr == "numerical failure: the result holds a NaN or infinite float, which JSON cannot carry\n"


def test_inputs_beyond_the_entry_cap_are_refused_before_they_are_built(tmp_path, capsys, monkeypatch):
    import sigtensor.cli as cli

    monkeypatch.setattr(cli, "ENTRY_CAP", 5)
    axis = write_json(tmp_path, "a.json", {"type": "axis_parallel", "dim": 6, "dirs": [1], "lengths": ["1"]})
    tensor = write_json(tmp_path, "t.json", {"dim": 3, "order": 2, "entries": {}})
    series = write_json(tmp_path, "s.json", {"dim": 2, "trunc": 3, "levels": ["1"] + [{}] * 3})
    lie = write_json(tmp_path, "l.json", {"type": "log_linear", "dim": 2, "lie": json.loads(Path(series).read_text())})
    huge_order = write_json(tmp_path, "h.json", {"dim": 2, "order": 1e300, "entries": {}})
    for argv in (
        ("invariants", huge_order),
        ("compute", axis, "--trunc", "10000000000000000"),
        ("compute", axis, "--trunc", "0"),
        ("invariants", tensor),
        ("recover", "--family", "pl", "--d", "3", "--m", "2", "--k", "2", "--input", tensor),
        ("check", series, "--what", "lie"),
        ("compute", lie, "--trunc", "1"),
    ):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == "" and "entry cap" in err, argv


def test_mdm_checks_beyond_the_entry_cap_are_refused_before_any_pfaffian(tmp_path, capsys, monkeypatch):
    import sigtensor.cli as cli
    from sigtensor.matrices import signature_matrix_witness

    # C(30,16) pfaffians of size 16, charged 16^3 entries each
    big = write_json(tmp_path, "big.json", {"dim": 30, "order": 2, "entries": {}})
    code, out, err = run_cli(capsys, "check", big, "--what", "Mdm", "--m", "15")
    assert code == 2 and out == "" and "entry cap" in err
    # 18 x 18 with --m 17: 11,781 minors and one pfaffian of size 18 (18^3 = 5,832 entries)
    rng = np.random.default_rng(18)
    wide = LevelTensor(18, 2, [int(v) for v in rng.integers(-3, 4, 18 * 18)])
    wide_json = write_json(tmp_path, "wide.json", wide.to_json())
    code, out, _ = run_cli(capsys, "check", wide_json, "--what", "Mdm", "--m", "17")
    result = json.loads(out)
    assert len(result["generators"]) == 11_782
    assert result["ok"] is signature_matrix_witness(wide, 17)[0] and code == (0 if result["ok"] else 1)
    # d = 4, m = 2: 21 minors, 4^3 for the 4-pfaffian, C(4,2) = 6 shared 2-pfaffians at 2^3,
    # and C(4,3) = 4 circuit columns, each 4 entries plus 4 entries of P C_2(Q) of 4 products:
    # 21 + 64 + 6 * 8 + 4 * (4 + 16) = 213
    tensor = write_json(tmp_path, "t.json", {"dim": 4, "order": 2, "entries": {"11": "1"}})
    monkeypatch.setattr(cli, "ENTRY_CAP", 212)
    code, out, err = run_cli(capsys, "check", tensor, "--what", "Mdm", "--m", "2")
    assert code == 2 and out == "" and "entry cap" in err
    monkeypatch.setattr(cli, "ENTRY_CAP", 213)
    code, out, _ = run_cli(capsys, "check", tensor, "--what", "Mdm", "--m", "2")
    assert code == 0 and len(json.loads(out)["generators"]) == 21 + 1 + 16
    code, out, err = run_cli(capsys, "check", tensor, "--what", "Mdm", "--m", "0")
    assert code == 2 and out == "" and "--m >= 1" in err
    # --m 6 counts 5,925,765 on 15 x 15, under the cap of 10^7, and 11,438,108 on 16 x 16
    monkeypatch.undo()
    assert cli.ENTRY_CAP == 10**7
    rng = np.random.default_rng(15)
    for d, codes in ((15, (0, 1)), (16, (2,))):
        square = write_json(tmp_path, f"{d}.json", LevelTensor(d, 2, [int(v) for v in rng.integers(-3, 4, d * d)]).to_json())
        code, out, err = run_cli(capsys, "check", square, "--what", "Mdm", "--m", "6")
        assert code in codes, d
        assert out == "" and "entry cap" in err if code == 2 else json.loads(out)["ok"] is False


def test_input_checks_name_what_is_wrong(tmp_path, capsys):
    no_dim = write_json(tmp_path, "z.json", {"dim": 0, "order": 2, "entries": {}})
    short = write_json(tmp_path, "s.json", pl_signature([(1, 2)], 1).to_json())
    cubic = write_json(tmp_path, "c.json", {"dim": 2, "order": 3, "entries": {"111": "1"}})
    square = write_json(tmp_path, "q.json", {"dim": 3, "order": 2, "entries": {"12": "1"}})
    halves = write_json(tmp_path, "h.json", {"type": "piecewise_linear", "dim": 2, "steps": [[1.5, 2]]})
    # integer fields take ints and integral floats only; "scalar" is "rational" or "float"
    half_dim = write_json(tmp_path, "d.json", {"dim": 2.5, "order": 2, "entries": {}})
    true_order = write_json(tmp_path, "o.json", {"dim": 2, "order": True, "entries": {}})
    text_dim = write_json(tmp_path, "x.json", {"dim": "2", "order": 2, "entries": {}})
    complex_level = write_json(tmp_path, "k.json", {"dim": 2, "order": 2, "scalar": "complex", "entries": {}})
    complex_series = write_json(
        tmp_path, "ks.json", {"dim": 1, "trunc": 1, "levels": ["1", {"dim": 1, "order": 1, "scalar": "complex"}]}
    )
    text_level_dim = write_json(tmp_path, "ts.json", {"dim": 1, "trunc": 1, "levels": ["1", {"dim": "1", "order": 1}]})
    for argv, message in (
        (("check", no_dim, "--what", "Mdm", "--m", "2"), "dim 0: need dim >= 1"),
        (("check", short, "--what", "Mdm", "--m", "2"), "series has no level 2"),
        (("check", cubic, "--what", "Mdm", "--m", "2"), "Mdm check needs an order-2 tensor"),
        (("invariants", square), "no invariant applies to shape d=3, k=2"),
        (("compute", halves, "--level", "1"), "non-integral float 1.5 in exact mode"),
        (("check", half_dim, "--what", "Mdm", "--m", "1"), "dim must be an integer, got 2.5"),
        (("check", true_order, "--what", "Mdm", "--m", "1"), "order must be an integer, got True"),
        (("check", text_dim, "--what", "Mdm", "--m", "1"), "dim must be an integer, got '2'"),
        (("check", complex_level, "--what", "Mdm", "--m", "1"), "'scalar' must be \"rational\" or \"float\""),
        (("check", complex_series, "--what", "grouplike"), "got 'complex'"),
        (("check", text_level_dim, "--what", "grouplike"), "levels[1].dim must be an integer, got '1'"),
    ):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == "" and message in err, argv
    # an integral float is an exact integer; a series reaches Mdm through its level 2
    whole = write_json(tmp_path, "w.json", {"type": "piecewise_linear", "dim": 2, "steps": [[1.0, 2]]})
    code, out, _ = run_cli(capsys, "compute", whole, "--level", "1")
    assert code == 0 and json.loads(out)["entries"] == {"1": "1", "2": "2"}
    code, out, _ = run_cli(capsys, "compute", whole, "--trunc", "2")
    series = write_json(tmp_path, "g.json", json.loads(out))
    code, out, _ = run_cli(capsys, "check", series, "--what", "Mdm", "--m", "1")
    assert code == 0 and json.loads(out)["ok"] is True


def test_recover_newton_refuses_a_core_beyond_the_entry_cap_before_reading_the_input(tmp_path, capsys):
    # the 11^7-entry core exceeds the 10^7 cap; the input file does not exist
    code, out, err = run_cli(
        capsys, "recover", "--family", "pl", "--d", "2", "--m", "11", "--k", "7",
        "--input", str(tmp_path / "absent.json"), "--mode", "newton",
    )
    assert code == 2 and out == ""
    assert "core" in err and "entry cap" in err


def test_recover_newton_refuses_a_jacobian_beyond_the_entry_cap(tmp_path, capsys):
    # the input level has 10^7 entries, at the cap, but its (10*2) x 10^7 Jacobian does not fit
    tensor = write_json(tmp_path, "t.json", {"dim": 10, "order": 7, "entries": {}})
    code, out, err = run_cli(
        capsys, "recover", "--family", "pl", "--d", "10", "--m", "2", "--k", "7",
        "--input", tensor, "--mode", "newton",
    )
    assert code == 2 and out == ""
    assert "Jacobian" in err and "entry cap" in err


def test_word_listings_beyond_the_entry_cap_are_refused_before_enumerating(capsys, monkeypatch):
    import sigtensor.cli as cli
    import sigtensor.lyndon as lyndon

    def refuse(*args):
        raise AssertionError("enumerated words past the entry cap")

    # the handlers import these at call time, so a patch on their module reaches them
    monkeypatch.setattr(lyndon, "lyndon_words", refuse)
    monkeypatch.setattr(lyndon, "normal_form_table", refuse)
    for argv in (("lyndon", "--d", "30", "--n", "8"), ("normal-form", "--d", "30", "--n", "8", "--word", "12")):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == ""
        assert "entry cap" in err and argv[0] in err
    monkeypatch.undo()
    # at a cap of 5: d=2 has 2 + 1 + 2 Lyndon words up to length 3, and 2 + 4 words up to length 2
    monkeypatch.setattr(cli, "ENTRY_CAP", 5)
    code, out, _ = run_cli(capsys, "lyndon", "--d", "2", "--n", "3")
    assert code == 0 and json.loads(out)["count"] == 5
    for argv in (("lyndon", "--d", "2", "--n", "4"), ("normal-form", "--d", "2", "--n", "2")):
        code, _, err = run_cli(capsys, *argv)
        assert code == 2 and "entry cap" in err
    code, _, err = run_cli(capsys, "lyndon", "--d", "0", "--n", "4")
    assert code == 2 and "--d >= 1" in err


def test_one_letter_listings_are_bounded_at_any_truncation(capsys, monkeypatch):
    import sigtensor.cli as cli
    import sigtensor.lyndon as lyndon

    # one letter has one Lyndon word at every truncation: nothing grows with --n
    code, out, _ = run_cli(capsys, "lyndon", "--d", "1", "--n", str(10**9))
    assert code == 0 and json.loads(out) == {"dim": 1, "trunc": 10**9, "count": 1, "words": ["1"]}

    def refuse(*args):
        raise AssertionError("built a normal-form table past the entry cap")

    # the table over one letter holds n words but n(n+1)/2 letters
    monkeypatch.setattr(lyndon, "normal_form_table", refuse)
    code, out, err = run_cli(capsys, "normal-form", "--d", "1", "--n", str(10**9))
    assert code == 2 and out == "" and "entry cap" in err and "normal-form" in err
    monkeypatch.undo()
    monkeypatch.setattr(cli, "ENTRY_CAP", 10)
    for n, expected in ((4, 0), (5, 2)):
        code, _, _ = run_cli(capsys, "normal-form", "--d", "1", "--n", str(n))
        assert code == expected, n


def test_normal_form_writes_coefficients_past_the_digit_limit(capsys):
    # the word 1^1700 over one letter is x_1^1700 / 1700!, a 4,756-digit denominator
    code, out, err = run_cli(capsys, "normal-form", "--d", "1", "--n", "1700", "--word", "1" * 1700)
    assert code == 0 and err == ""
    coeff = format_scalar(Fraction(1, math.factorial(1700)))
    assert json.loads(out) == {"word": "1" * 1700, "poly": [{"vars": ["1"] * 1700, "coeff": coeff}]}


def test_words_at_twelve_letters_are_dot_separated(capsys):
    code, out, err = run_cli(capsys, "normal-form", "--d", "12", "--n", "2", "--word", "11.1")
    assert code == 0
    assert json.loads(out) == {"word": "11.1", "poly": [
        {"vars": ["1", "11"], "coeff": "1"}, {"vars": ["1.11"], "coeff": "-1"}]}
    code, out, err = run_cli(capsys, "lyndon", "--d", "12", "--n", "2")
    words = json.loads(out)["words"]
    assert len(set(words)) == len(words) == 78 and "1.11" in words


def test_closed_stdout_ends_the_call_quietly():
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    # About 0.7 MB of output: more than a pipe buffer holds, so the call is
    # still writing when the reader closes its end.
    proc = subprocess.Popen(
        [sys.executable, "-m", "sigtensor.cli", "lyndon", "--d", "12", "--n", "5"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
    )
    assert len(proc.stdout.read(100)) == 100
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 141
    assert err == b""


# --- fuzzing the input contract ---------------------------------------------------

FUZZ = settings(derandomize=True, deadline=None, max_examples=300, database=None)

_scalar_json = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-3, 4),
    st.sampled_from([0.5, -2.0, 1e300, float("inf"), float("nan")]),
    st.sampled_from(["1", "-1/2", "0", "3/4", "1/0", "x", "", "1.5", "2e3"]),
)
_json = st.recursive(
    _scalar_json,
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.sampled_from(["1", "12", "dim", "a"]), inner, max_size=3),
    max_leaves=6,
)

_TENSOR = {"dim": 2, "order": 2, "scalar": "rational", "entries": {"12": "1/2", "21": "-1/2"}}
_SERIES = {
    "dim": 2,
    "trunc": 2,
    "levels": ["0", {"dim": 2, "order": 1, "entries": {"1": "1"}}, {"dim": 2, "order": 2, "entries": {"12": "1"}}],
}
_MODEL = {"mu": ["1", "-1"], "sigma": [["1", "1/2"], ["1/2", "2"]], "q": [["0", "1"], ["-1", "0"]]}
_TEMPLATES = {
    "path": [
        {"type": "piecewise_linear", "dim": 2, "steps": [["1", "1/2"], ["-1", "2"]]},
        {"type": "polynomial", "dim": 2, "coeffs": [["1", "0"], ["0", "1"]]},
        {"type": "axis_parallel", "dim": 2, "dirs": [1, 2, 1], "lengths": ["1", "2", "-1"]},
        {"type": "log_linear", "dim": 2, "lie": _SERIES},
    ],
    "model": [_MODEL, {"signed": False, "components": [{"weight": "1", "model": _MODEL}]}],
    "tensor": [_TENSOR, _SERIES],
    # order-3 signature of the two-step planar path (1, 2), (3, -1)
    "planar": [project_level(pl_signature([[1, 2], [3, -1]], 3), 3).to_json()],
}


@st.composite
def _mutated(draw, value):
    """A template JSON value with some fields replaced, dropped or nested."""
    choice = draw(st.sampled_from(["keep"] * 9 + ["replace", "nest", "empty"]))
    if choice == "replace":
        return draw(_json)
    if choice == "nest":
        return [value]
    if choice == "empty":
        return type(value)() if isinstance(value, (list, dict, str)) else None
    if isinstance(value, dict):
        out = {}
        for key, item in value.items():
            if not draw(st.booleans()) or draw(st.integers(0, 5)):
                out[key] = draw(_mutated(item))
        return out
    if isinstance(value, list):
        return [draw(_mutated(item)) for item in value]
    return value


_order = st.sampled_from(["-1", "0", "1", "2", "3"])
_dim = st.sampled_from(["-1", "0", "1", "2", "3"])


@st.composite
def _calls(draw):
    """(argv with FILE for the input path, JSON document or None)."""
    command = draw(st.sampled_from(
        ["compute", "expected", "check", "invariants", "verify-vanishing", "recover", "lyndon", "normal-form"]
    ))
    if command in ("lyndon", "normal-form"):
        argv = [command, "--d", draw(_dim), "--n", draw(_order)]
        if command == "normal-form" and draw(st.booleans()):
            argv += ["--word", draw(st.sampled_from(["1", "12", "21", "3", "", "1.2", "x"]))]
        return argv, None
    kinds = {"compute": "path", "verify-vanishing": "path", "expected": "model", "recover": "planar"}
    kind = kinds.get(command, "tensor")
    document = draw(st.sampled_from(_TEMPLATES[kind]))
    if draw(st.integers(0, 3)):
        document = draw(_mutated(document))
    if command == "compute":
        argv = [command, "FILE", draw(st.sampled_from(["--level", "--trunc"])), draw(_order)]
        argv += ["--scalar", draw(st.sampled_from(["exact", "float"]))]
    elif command == "expected":
        argv = [command, "FILE", "--trunc", draw(_order), "--scalar", draw(st.sampled_from(["exact", "float"]))]
    elif command == "check":
        argv = [command, "FILE", "--what", draw(st.sampled_from(["grouplike", "lie", "Mdm"]))]
        argv += draw(st.sampled_from([[], ["--m", "2"], ["--m", "0"], ["--tol", "1e-9"]]))
    elif command == "verify-vanishing":
        argv = [command, "FILE", "--upto", draw(_order)]
    elif command == "recover":
        planar = st.just("2") | _dim
        argv = [command, "--family", draw(st.sampled_from(["pl", "poly"])), "--d", draw(planar), "--m", draw(planar)]
        argv += ["--k", draw(st.just("3") | _order), "--input", "FILE"]
        argv += ["--mode", draw(st.sampled_from(["exact", "newton"]))]
    else:
        argv = [command, "FILE"]
    return argv, document


def _refuse_constant(name):
    raise AssertionError(f"stdout holds {name}, which is not JSON")


@FUZZ
@given(_calls())
def test_fuzzed_inputs_exit_with_a_contract_code_and_at_most_one_document(call):
    argv, document = call
    with tempfile.TemporaryDirectory() as folder:
        target = Path(folder) / "input.json"
        target.write_text(json.dumps(document))
        argv = [str(target) if arg == "FILE" else arg for arg in argv]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    assert code in (0, 1, 2, 3), (argv, document, err.getvalue())
    assert "Traceback" not in err.getvalue()
    if out.getvalue():
        assert out.getvalue().endswith("\n") and out.getvalue().count("\n") == 1
        json.loads(out.getvalue(), parse_constant=_refuse_constant)
    if code in (2, 3):
        assert out.getvalue() == "" and err.getvalue().startswith(("error: ", "numerical failure: ", "usage: "))
