"""Tests of the benchmark's own machinery: oracles, tracing, self time, inputs.

Run from the repository root:  python -m pytest -q bench/tests
"""

from __future__ import annotations

import dataclasses
import importlib
import json
import os
import pkgutil
import subprocess
import sys
from fractions import Fraction

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import sigtensor as st  # noqa: E402

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

#: Operations left out of the corruption test only because they take long.
HEAVY = ("(3, 10, 6)", "(4, 4, 5)", "(3, 5, 5)", "('pl', 6, 3, 6)", "(pl,3,4)", "NormalFormTable(3, 6)",
         "NormalFormTable(2, 8)", "NormalFormTable(4, 5)")


def _mutate_last_leaf(doc):
    """Copy of a JSON document with its last scalar changed."""
    if isinstance(doc, dict) and doc:
        key = list(doc)[-1]
        return {**doc, key: _mutate_last_leaf(doc[key])}
    if isinstance(doc, list) and doc:
        return doc[:-1] + [_mutate_last_leaf(doc[-1])]
    if isinstance(doc, bool):
        return not doc
    if isinstance(doc, (int, float)):
        return doc + 1
    if isinstance(doc, str):
        return doc + "1"
    return 0


def corrupt(result):
    if isinstance(result, bool):
        return not result
    if isinstance(result, st.TensorSeries):
        levels = [list(level.entries) for level in result.levels]
        levels[-1][-1] += 1
        return st.TensorSeries(result.d, result.n, [st.LevelTensor(result.d, k, e) for k, e in enumerate(levels)])
    if isinstance(result, st.LevelTensor):
        return st.LevelTensor(result.d, result.k, [result.entries[0] + 1, *result.entries[1:]])
    if isinstance(result, st.GaussNewtonResult):
        return dataclasses.replace(result, matrix=result.matrix + 0.01)
    if isinstance(result, st.JacobianReport):
        return dataclasses.replace(result, rank=result.rank - 1)
    if isinstance(result, st.RecoveryResult):
        return dataclasses.replace(result, series=corrupt(result.series))
    if isinstance(result, st.NormalFormTable):
        for word, poly in result.table.items():
            if not result.is_lyndon_word(word):
                result.table[word] = {mono: 2 * c for mono, c in poly.items()}
        return result
    if isinstance(result, tuple) and all(isinstance(v, Fraction) for v in result):
        return (result[0] + 1,) + result[1:]
    code, out = result  # a cli call: (exit code, stdout bytes)
    if not out:
        return (0, out)
    doc = _mutate_last_leaf(json.loads(out))
    return (code, (json.dumps(doc, separators=(",", ":")) + "\n").encode())


def _rejects(op, result) -> bool:
    try:
        return not op.check(result)
    except Exception:  # an oracle that cannot read the output rejects it
        return True


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_each_oracle_accepts_the_output_and_rejects_a_corrupted_one(workload, tmp_path):
    env = run.child_env(ROOT)
    inputs = workloads.generate(workload, 7)
    ops = [op for op in workloads.build(st, workload, inputs, str(tmp_path), env) if not op.name.endswith(HEAVY)]
    assert len(ops) >= 10
    for op in ops:
        result = op.run()
        assert op.check(result), op.name
        assert _rejects(op, corrupt(result)), op.name


def _namespaces():
    modules = [st] + [importlib.import_module(f"sigtensor.{m.name}") for m in pkgutil.iter_modules(st.__path__)]
    classes = [st.LevelTensor, st.TensorSeries, st.WordCombination, st.NormalFormTable]
    return {owner: dict(vars(owner)) for owner in modules + classes}


def test_tracer_records_spans_and_restores_every_wrapped_attribute():
    before = _namespaces()
    tracer = tracing.Tracer()
    tracer.install(st)
    try:
        during = _namespaces()
        changed = [
            (owner, name) for owner, names in before.items() for name, value in names.items()
            if during[owner][name] is not value
        ]
        assert (st.tensor, "concat_product") in changed and (st.paths, "concat_product") in changed
        assert (st.LevelTensor, "tensor_product") in changed
        assert not any(owner is st.words or owner is st.scalars for owner, _ in changed)
        st.pl_signature([[Fraction(1), Fraction(2)]], 2)
    finally:
        tracer.uninstall()
    labels = {span[0] for span in tracer.spans}
    assert {"paths.pl_signature", "tensor.concat_product", "tensor.LevelTensor.tensor_product"} <= labels
    after = _namespaces()
    for owner, names in before.items():
        assert set(after[owner]) == set(names), owner
        for name, value in names.items():
            assert after[owner][name] is value, (owner, name)


def test_self_time_subtracts_the_union_of_child_intervals():
    spans = [
        ["root", 0, 100, -1, 0, None],
        ["a", 10, 40, 0, 0, None],
        ["b", 30, 60, 0, 0, None],  # overlaps a: 10..60 is covered once
        ["c", 15, 20, 1, 0, None],
        ["d", 90, 120, 0, 0, None],  # only 90..100 lies inside root
    ]
    assert tracing.self_times(spans) == [100 - 50 - 10, 30 - 5, 30, 5, 30]


def test_layer_metrics_attribute_self_time_to_the_nearest_named_call():
    spans = [
        ["paths.pl_signature", 0, 1000, -1, 0, None],
        ["tensor.exp_series", 100, 600, 0, 0, None],
        ["tensor.concat_product", 150, 450, 1, 0, None],
        ["tensor.LevelTensor.tensor_product", 200, 300, 2, 0, 8],
        ["tensor.concat_product", 700, 900, 0, 0, None],
    ]
    metrics = tracing.layer_metrics(spans)
    assert metrics["paths.pl_signature.self_s"] == pytest.approx(300e-9)
    assert metrics["tensor.exp_series.self_s"] == pytest.approx(200e-9)
    assert metrics["tensor.concat_product.self_s"] == pytest.approx(500e-9)
    assert metrics["tensor.concat_product.calls"] == 2
    assert metrics["tensor.tensor_product.entries"] == 8
    assert sum(tracing.layer_table(spans).values()) == pytest.approx(1000e-9)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_one_seed_gives_the_same_inputs_and_two_seeds_different_ones(workload):
    assert workloads.generate(workload, 3) == workloads.generate(workload, 3)
    assert workloads.generate(workload, 3) != workloads.generate(workload, 4)


def test_benchmark_json_names_every_metric_the_runs_print():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS) == list(run.WORKLOADS)

    def report(seconds):
        ops = [["x", mode, seconds, True, 10.0 * i] for i, mode in enumerate(["exact", "float"] * 10)]
        return {"ref_s": run.REF_NOMINAL_S, "refs": [[10.0 * i, run.REF_NOMINAL_S] for i in range(20)],
                "float_exact_entries": 0, "rss_mb": 1.0, "setup_s": 1.0, "ops": ops}

    plain = report(1.0)
    traced = dict(report(2.0), trace={"layers": dict(tracing.layer_metrics([]), **{"shuffle.memo_hit_ratio": 0.5})})
    probes = {"cli.interp_ms": 1.0, "cli.numpy_import_ms": 1.0, "cli.import_ms": 1.0}
    layers = run.per_layer([plain], [traced], probes, "forward")
    assert sorted(layers) == sorted(m["name"] for m in spec["per_layer"])
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {k: unit for k, (_, unit) in layers.items()}
    assert layers["trace.overhead_ratio"][0] == pytest.approx(2.0)
    e2e = run.end_to_end([plain])
    assert e2e["wall_s"][0] == pytest.approx(20.0)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == {k: unit for k, (_, unit) in e2e.items()}


def test_run_refuses_a_directory_without_the_package(tmp_path):
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH, "run.py"), "--workload", "forward", "--seed", "1", "--seconds", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
