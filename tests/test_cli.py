import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

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
    tensor = project_level(poly_signature_integrate([("1", "2"), ("-1", "1/2")], 3), 3)
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


def test_word_listings_beyond_the_entry_cap_are_refused_before_enumerating(capsys, monkeypatch):
    import sigtensor.cli as cli

    def refuse(*args):
        raise AssertionError("enumerated words past the entry cap")

    monkeypatch.setattr(cli, "lyndon_words", refuse)
    monkeypatch.setattr(cli, "normal_form_table", refuse)
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

    # one letter has one Lyndon word at every truncation: nothing grows with --n
    code, out, _ = run_cli(capsys, "lyndon", "--d", "1", "--n", str(10**9))
    assert code == 0 and json.loads(out) == {"dim": 1, "trunc": 10**9, "count": 1, "words": ["1"]}

    def refuse(*args):
        raise AssertionError("built a normal-form table past the entry cap")

    # the table over one letter holds n words but n(n+1)/2 letters
    monkeypatch.setattr(cli, "normal_form_table", refuse)
    code, out, err = run_cli(capsys, "normal-form", "--d", "1", "--n", str(10**9))
    assert code == 2 and out == "" and "entry cap" in err and "normal-form" in err
    monkeypatch.undo()
    monkeypatch.setattr(cli, "ENTRY_CAP", 10)
    for n, expected in ((4, 0), (5, 2)):
        code, _, _ = run_cli(capsys, "normal-form", "--d", "1", "--n", str(n))
        assert code == expected, n


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
        json.loads(out.getvalue())
    if code in (2, 3):
        assert out.getvalue() == "" and err.getvalue().startswith(("error: ", "numerical failure: ", "usage: "))
