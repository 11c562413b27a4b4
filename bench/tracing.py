"""Span tracing of sigtensor from outside the package.

Tracer.install() replaces every public function of every sigtensor module
namespace that bound it (so `paths.concat_product` is traced as well as
`tensor.concat_product`), plus a few methods, with a wrapper that records a
span: label, start, end, parent span and operation id.  Spans stay in
memory until the pass ends.  uninstall() puts every original back.

The per-entry helpers of `words` and `scalars` are not wrapped: a span per
entry read would cost more than the read and the trace would mostly measure
itself.  Their time lands in the self time of the caller.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import pkgutil
import time

SKIPPED_MODULES = ("sigtensor.words", "sigtensor.scalars")

#: (module, class, attribute) traced besides the public functions.
METHODS = (
    ("tensor", "LevelTensor", "tensor_product"),
    ("tensor", "LevelTensor", "to_json"),
    ("tensor", "LevelTensor", "from_json"),
    ("tensor", "TensorSeries", "to_json"),
    ("tensor", "TensorSeries", "from_json"),
    ("shuffle", "WordCombination", "eval_on"),
    ("lyndon", "NormalFormTable", "__init__"),
)


def _entries_written(args, kwargs, result):
    return len(result.entries)


def _core_key(args, kwargs, result):
    return tuple(args)


def _holds_duals(args, kwargs, result):
    matrix = args[1] if len(args) > 1 else kwargs["matrix"]
    first = matrix[0][0] if len(matrix) and len(matrix[0]) else None
    return type(first).__name__ == "Dual"


def _gn_result(args, kwargs, result):
    return (result.restarts_used, result.iterations)


#: label -> function(args, kwargs, result) whose value is stored on the span.
HOOKS = {
    "tensor.LevelTensor.tensor_product": _entries_written,
    "paths.canonical_axis": _core_key,
    "paths.canonical_mono": _core_key,
    "paths.tensor_congruence": _holds_duals,
    "recovery.gauss_newton_recover": _gn_result,
}


class Tracer:
    """Collects spans [label, start_ns, end_ns, parent, op, note]."""

    def __init__(self):
        self.spans: list = []
        self.op = None
        self._stack: list = []
        self._saved: list = []

    def _wrap(self, fn, label):
        hook = HOOKS.get(label)
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [label, 0, 0, stack[-1] if stack else -1, self.op, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter_ns()
                stack.pop()
            if hook is not None:
                span[5] = hook(args, kwargs, result)
            return result

        return traced

    def install(self, package):
        """Wrap the package's public functions and METHODS in place."""
        if self._saved:
            raise RuntimeError("tracer already installed")
        modules = [package] + [
            importlib.import_module(f"{package.__name__}.{info.name}")
            for info in pkgutil.iter_modules(package.__path__)
        ]
        wrappers = {}
        for module in modules:
            for name, obj in list(vars(module).items()):
                if name.startswith("_") or not inspect.isfunction(obj):
                    continue
                origin = obj.__module__
                if not origin.startswith(package.__name__ + ".") or origin in SKIPPED_MODULES:
                    continue
                if id(obj) not in wrappers:
                    label = f"{origin.rsplit('.', 1)[1]}.{name}"
                    wrappers[id(obj)] = self._wrap(obj, label)
                self._saved.append((module, name, obj))
                setattr(module, name, wrappers[id(obj)])
        for module_name, class_name, attr in METHODS:
            cls = getattr(importlib.import_module(f"{package.__name__}.{module_name}"), class_name)
            raw = cls.__dict__[attr]
            label = f"{module_name}.{class_name}.{attr}"
            if isinstance(raw, classmethod):
                wrapped = classmethod(self._wrap(raw.__func__, label))
            else:
                wrapped = self._wrap(raw, label)
            self._saved.append((cls, attr, raw))
            setattr(cls, attr, wrapped)

    def uninstall(self):
        """Restore every attribute install() replaced."""
        while self._saved:
            owner, name, original = self._saved.pop()
            setattr(owner, name, original)


def self_times(spans) -> list:
    """Span duration minus the part of its interval that child spans cover (ns)."""
    children: dict = {}
    for index, span in enumerate(spans):
        if span[3] >= 0:
            children.setdefault(span[3], []).append(index)
    out = []
    for index, (_, start, end, *_rest) in enumerate(spans):
        covered, reach = 0, start
        for lo, hi in sorted((spans[c][1], spans[c][2]) for c in children.get(index, ())):
            lo, hi = max(lo, reach), min(hi, end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(end - start - covered)
    return out


#: Labels whose "<layer>.<name>.self_s" metric collects the self time of the
#: same-module spans beneath them (down to the next such label).
ROOTS = {
    "tensor.concat_product",
    "tensor.exp_series",
    "tensor.log_series",
    "paths.pl_signature",
    "paths.poly_signature_integrate",
    "paths.tensor_congruence",
    "paths.canonical_axis",
    "paths.canonical_mono",
    "shuffle.is_grouplike",
    "shuffle.find_grouplike_violation",
    "shuffle.is_lie",
    "shuffle.find_lie_violation",
    "lyndon.NormalFormTable.__init__",
    "lyndon.expand_from_lyndon",
    "stochastic.expected_signature",
    "matrices.exact_rank",
    "matrices.exact_det",
    "matrices.matrix_inverse",
    "recovery.gauss_newton_recover",
    "recovery.jacobian_rank",
    "recovery.recover_group_element",
    "recovery.recover_two_step_planar",
    "recovery.recover_quadratic_planar",
}


def _module(label):
    return label.split(".", 1)[0]


def _root_of(spans, index):
    """Nearest span at or above index in the same module whose label is a root."""
    module = _module(spans[index][0])
    while index >= 0 and _module(spans[index][0]) == module:
        if spans[index][0] in ROOTS:
            return index
        index = spans[index][3]
    return -1


def _under(spans, index, label):
    parent = spans[index][3]
    while parent >= 0:
        if spans[parent][0] == label:
            return True
        parent = spans[parent][3]
    return False


def layer_metrics(spans) -> dict:
    """Per-layer metrics of one traced pass (times in s, eval_ms in ms)."""
    own = self_times(spans)
    calls: dict = {}
    module_ns: dict = {}
    rooted_ns: dict = {}
    dual_ns = 0
    for index, (span, t) in enumerate(zip(spans, own)):
        calls[span[0]] = calls.get(span[0], 0) + 1
        module_ns[_module(span[0])] = module_ns.get(_module(span[0]), 0) + t
        root = _root_of(spans, index)
        if root >= 0:
            rooted_ns[spans[root][0]] = rooted_ns.get(spans[root][0], 0) + t
            if spans[root][0] == "paths.tensor_congruence" and spans[root][5]:
                dual_ns += t

    def count(*labels):
        return sum(calls.get(label, 0) for label in labels)

    def secs(*labels):
        return sum(rooted_ns.get(label, 0) for label in labels) / 1e9

    def ratio(num, den):
        return num / den if den else 0.0

    core_keys = [(s[0], s[5]) for s in spans if s[0] in ("paths.canonical_axis", "paths.canonical_mono")]
    core_seen: set = set()
    core_rebuilds = 0
    for key in core_keys:
        core_rebuilds += key in core_seen
        core_seen.add(key)

    gn_results = [s[5] for s in spans if s[0] == "recovery.gauss_newton_recover" and s[5]]
    gn_evals = [
        (s[2] - s[1]) / 1e6
        for i, s in enumerate(spans)
        if s[0] == "recovery.signature_map" and _under(spans, i, "recovery.gauss_newton_recover")
    ]
    table_calls = calls.get("lyndon.normal_form_table", 0)
    table_misses = sum(
        1 for i, s in enumerate(spans)
        if s[0] == "lyndon.NormalFormTable.__init__" and _under(spans, i, "lyndon.normal_form_table")
    )
    restarts = sum(r for r, _ in gn_results)
    return {
        "tensor.concat_product.calls": count("tensor.concat_product"),
        "tensor.concat_product.self_s": secs("tensor.concat_product"),
        "tensor.exp_series.self_s": secs("tensor.exp_series"),
        "tensor.log_series.self_s": secs("tensor.log_series"),
        "tensor.tensor_product.calls": count("tensor.LevelTensor.tensor_product"),
        "tensor.tensor_product.entries": sum(
            s[5] for s in spans if s[0] == "tensor.LevelTensor.tensor_product"
        ),
        "tensor.json.self_s": sum(
            t for s, t in zip(spans, own) if s[0].startswith(("tensor.LevelTensor.", "tensor.TensorSeries."))
            and s[0].endswith("_json")
        ) / 1e9,
        "paths.pl_signature.self_s": secs("paths.pl_signature"),
        "paths.poly_signature_integrate.self_s": secs("paths.poly_signature_integrate"),
        "paths.tensor_congruence.calls": count("paths.tensor_congruence"),
        "paths.tensor_congruence.self_s": secs("paths.tensor_congruence"),
        "paths.canonical_core.calls": len(core_keys),
        "paths.canonical_core.self_s": secs("paths.canonical_axis", "paths.canonical_mono"),
        "paths.canonical_core.rebuild_ratio": ratio(core_rebuilds, len(core_keys)),
        "dual.seed_matrix.calls": count("dual.seed_matrix"),
        "dual.congruence.self_s": dual_ns / 1e9,
        "shuffle.form_evals": count("shuffle.WordCombination.eval_on"),
        "shuffle.self_s": module_ns.get("shuffle", 0) / 1e9,
        "shuffle.grouplike.self_s": secs("shuffle.is_grouplike", "shuffle.find_grouplike_violation"),
        "shuffle.lie.self_s": secs("shuffle.is_lie", "shuffle.find_lie_violation"),
        "lyndon.table_builds": count("lyndon.NormalFormTable.__init__"),
        "lyndon.table_build.self_s": secs("lyndon.NormalFormTable.__init__"),
        "lyndon.table_hit_ratio": ratio(table_calls - table_misses, table_calls),
        "lyndon.expand.self_s": secs("lyndon.expand_from_lyndon"),
        "stochastic.expected_signature.self_s": secs("stochastic.expected_signature"),
        "matrices.exact_rank.calls": count("matrices.exact_rank"),
        "matrices.exact_rank.self_s": secs("matrices.exact_rank"),
        "matrices.exact_det.self_s": secs("matrices.exact_det"),
        "matrices.matrix_inverse.self_s": secs("matrices.matrix_inverse"),
        "recovery.gn.solves": len(gn_results),
        "recovery.gn.self_s": secs("recovery.gauss_newton_recover"),
        "recovery.gn.evals": len(gn_evals),
        "recovery.gn.eval_ms": ratio(sum(gn_evals), len(gn_evals)),
        "recovery.gn.restarts": restarts,
        "recovery.gn.useful_restart_ratio": ratio(len(gn_results), restarts),
        "recovery.gn.iterations": sum(i for _, i in gn_results),
        "recovery.jacobian_rank.self_s": secs("recovery.jacobian_rank"),
        "recovery.group_element.self_s": secs("recovery.recover_group_element"),
        "recovery.closed_form.self_s": secs("recovery.recover_two_step_planar", "recovery.recover_quadratic_planar"),
        "invariants.self_s": module_ns.get("invariants", 0) / 1e9,
    }


def layer_table(spans) -> dict:
    """Self time per module (s); with the untraced remainder it sums to the pass wall."""
    out: dict = {}
    for span, t in zip(spans, self_times(spans)):
        out[_module(span[0])] = out.get(_module(span[0]), 0.0) + t / 1e9
    return out
