"""Command-line interface over the JSON schemas.

Subcommands: compute, expected, recover, lyndon, normal-form, check,
invariants, verify-vanishing.  stdout carries exactly one JSON document;
diagnostics go to stderr.  Exit codes: 0 success / property true,
1 checked property false, 2 usage or input error, 3 numerical failure,
141 (128 + SIGPIPE) when the reader closes stdout early, with no message.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import sys

import numpy as np

# Each handler imports the modules it runs, as `from .module import name`, so a call loads only
# those.  `from . import module` would not do: it reads the package's lazy namespace, which loads
# the whole API.  Only `scalars` is needed by every call.
from . import __version__
from .scalars import NumericalFailure, format_scalar, parse_int, parse_list, parse_object

EXIT_OK = 0
EXIT_FALSE = 1
EXIT_USAGE = 2
EXIT_NUMERICAL = 3
EXIT_BROKEN_PIPE = 141

ENTRY_CAP = 10**7


class UsageError(ValueError):
    pass


def _load_json(path: str) -> dict:
    try:
        with open(path) as handle:
            data = json.load(handle)
    except (OSError, json.JSONDecodeError) as exc:
        raise UsageError(f"cannot read JSON from {path}: {exc}") from exc
    if not isinstance(data, dict):
        raise UsageError(f"{path} holds a JSON {type(data).__name__}; expected a JSON object")
    return data


def _emit(payload) -> None:
    """One line of JSON on stdout; a NaN or infinite float, which JSON cannot
    carry, is a numerical failure raised before anything is written."""
    try:
        text = json.dumps(payload, separators=(",", ":"), allow_nan=False) + "\n"
    except ValueError:
        raise NumericalFailure("the result holds a NaN or infinite float, which JSON cannot carry") from None
    _write([text])


def _write(parts) -> None:
    """The concatenated strings on stdout, in writes of PIPE_BUF bytes: a longer write to a pipe
    may be cut short when the reader leaves, and an unbuffered stdout (python -u) drops the rest
    silently."""
    held = ""
    for part in parts:
        text = held + part
        full = len(text) - len(text) % 4096
        for start in range(0, full, 4096):
            sys.stdout.write(text[start : start + 4096])
        held = text[full:]
    sys.stdout.write(held)
    sys.stdout.flush()


def _check_order(d: int, k: int, flag: str) -> None:
    """Reject a negative order, or a level (or a d-entry step vector) with more entries than the cap."""
    if k < 0:
        raise UsageError(f"{flag} {k}: the order must be >= 0")
    k = max(k, 1)
    # for |d| >= 2 and k >= bit_length(cap), |d|**k > cap: the power is not built for huge k
    if abs(d) >= 2 and k >= ENTRY_CAP.bit_length() or d**k > ENTRY_CAP:
        raise UsageError(f"level {k} in dimension {d} exceeds the {ENTRY_CAP}-entry cap")


def _load_path(path: str, exact: bool):
    from .paths import path_from_json

    data = _load_json(path)
    if data.get("type") == "log_linear" and isinstance(data.get("lie"), dict):
        _check_input_size(data["lie"], "trunc")
    return path_from_json(data, exact=exact)


def cmd_compute(args) -> int:
    from .paths import signature_series
    from .tensor import project_level

    exact = args.scalar == "exact"
    path = _load_path(args.path, exact)
    if args.level is None and args.trunc is None:
        raise UsageError("one of --level or --trunc is required")
    order = args.level if args.level is not None else args.trunc
    _check_order(path.d, order, "--level" if args.level is not None else "--trunc")
    series = signature_series(path, order)
    if not exact:
        series = series.to_float()
    if args.level is not None:
        _emit(project_level(series, args.level).to_json())
    else:
        _emit(series.to_json())
    return EXIT_OK


def cmd_expected(args) -> int:
    from .stochastic import BrownianModel, MixtureModel, expected_signature, mixture_expected_signature

    exact = args.scalar == "exact"
    data = _load_json(args.model)
    _check_order_from_model(data, args.trunc)
    if "components" in data:
        mixture = MixtureModel.from_json(data, exact=exact)
        series = mixture_expected_signature(mixture, args.trunc)
    else:
        model = BrownianModel.from_json(data, exact=exact)
        series = expected_signature(model, args.trunc)
    _emit(series.to_json())
    return EXIT_OK


def _check_order_from_model(data: dict, n: int) -> None:
    if "components" in data:
        components = parse_list(data["components"], "components")
        if not components:
            raise UsageError("'components' is empty: a mixture needs at least one component")
        data = parse_object(parse_object(components[0], "components[0]")["model"], "components[0].model")
    _check_order(len(parse_list(data["mu"], "mu")), n, "--trunc")


def _word_count(command: str, d: int, n: int, level_count) -> int:
    """Sum of level_count(d, k) over the levels k = 1..n; bad --d/--n, or a sum
    beyond ENTRY_CAP, is a UsageError raised before any word is enumerated."""
    if d < 1 or n < 1:
        raise UsageError(f"need --d >= 1 and --n >= 1, got --d {d} --n {n}")
    total = 0
    for k in range(1, n + 1):
        total += level_count(d, k)
        if total > ENTRY_CAP:
            raise UsageError(f"{command} --d {d} --n {n} builds more than {ENTRY_CAP} entries (the entry cap)")
    return total


def cmd_lyndon(args) -> int:
    from .lyndon import _longest_lyndon, lyndon_count_level, lyndon_words
    from .words import word_to_string

    count = _word_count("lyndon", args.d, _longest_lyndon(args.d, args.n), lyndon_count_level)
    basis = lyndon_words(args.d, args.n)
    payload = {"dim": args.d, "trunc": args.n, "count": count}
    if not args.count_only:
        payload["words"] = [word_to_string(w, args.d) for w in basis.words]
    _emit(payload)
    return EXIT_OK


def cmd_normal_form(args) -> int:
    from .lyndon import normal_form_table, poly_to_json
    from .words import word_from_string

    if args.word is not None:
        if not args.word:
            raise UsageError(
                f"--word '' is empty: give a word of 1 to {args.n} letters, or leave out --word for the whole table"
            )
        word = word_from_string(args.word, args.d)
        if len(word) > args.n:
            raise UsageError(f"word {args.word!r} longer than truncation {args.n}")
    # the table keys every word of length <= n: count their letters
    _word_count("normal-form", args.d, args.n, lambda d, k: k * d**k)
    table = normal_form_table(args.d, args.n)
    if args.word is not None:
        _emit(poly_to_json(word, table.phi(word), args.d))
    else:  # table.to_json(), one form at a time: the whole table is never held as JSON
        forms = (("," if i else "") + json.dumps(form, separators=(",", ":")) for i, form in enumerate(table.forms()))
        _write(itertools.chain([f'{{"dim":{args.d},"trunc":{args.n},"forms":['], forms, ["]}\n"]))
    return EXIT_OK


def _load_series_or_tensor(path: str):
    from .tensor import LevelTensor, TensorSeries

    data = _load_json(path)
    if "trunc" in data:
        _check_input_size(data, "trunc")
        return TensorSeries.from_json(data)
    if "order" in data:
        _check_input_size(data, "order")
        return LevelTensor.from_json(data)
    raise UsageError("input is neither a series ('trunc') nor a tensor ('order') JSON")


def _check_input_size(data: dict, field: str) -> None:
    """Refuse an input tensor or series whose top level exceeds the entry cap, before it is built."""
    d, k = parse_int(data["dim"], "dim"), parse_int(data[field], field)
    if d < 1:
        raise UsageError(f"dim {d}: need dim >= 1")
    _check_order(d, k, field)


def cmd_check(args) -> int:
    from .shuffle import find_grouplike_violation, find_lie_violation
    from .tensor import LevelTensor, TensorSeries, project_level
    from .words import word_to_string

    if args.tol is not None and args.what == "Mdm":
        raise UsageError("--tol has no effect with --what Mdm: its ranks are exact, or cut at 1e-9 * sigma_max on floats")
    if args.tol is not None and not 0 <= args.tol < math.inf:
        raise UsageError(f"--tol must be a finite value >= 0, got {args.tol}")
    value = _load_series_or_tensor(args.input)
    if args.what in ("grouplike", "lie"):
        if isinstance(value, LevelTensor):
            raise UsageError(f"--what {args.what} needs a series JSON")
        finder = find_grouplike_violation if args.what == "grouplike" else find_lie_violation
        violation = finder(value, args.tol)
        if violation is None:
            _emit({"ok": True, "witness": None})
            return EXIT_OK
        left, right, *values = violation
        _emit(
            {
                "ok": False,
                "witness": {
                    "left": word_to_string(left, value.d),
                    "right": word_to_string(right, value.d),
                    "values": [format_scalar(v) for v in values],
                },
            }
        )
        return EXIT_FALSE
    if args.m is None:  # --what Mdm, the one choice left
        raise UsageError("--what Mdm requires --m")
    from .matrices import signature_matrix_generators, signature_matrix_witness

    if isinstance(value, TensorSeries):
        if value.n < 2:
            raise UsageError("series has no level 2")
        value = project_level(value, 2)
    if value.k != 2:
        raise UsageError("Mdm check needs an order-2 tensor")
    _check_mdm_size(value.d, args.m)
    ok, witness = signature_matrix_witness(value, args.m)
    generators = [format_scalar(v) for v in signature_matrix_generators(value, args.m)]
    _emit({"ok": ok, "witness": witness, "generators": generators})
    return EXIT_OK if ok else EXIT_FALSE


def _check_mdm_size(d: int, m: int) -> None:
    """Refuse an Mdm check whose generators and pfaffian work exceed the cap, from d
    and m alone.  A pfaffian of size s counts s^3, which bounds the entries its
    elimination updates.  The 2-minors of P number C(C(d,2)+1, 2).  Odd m adds the
    C(d,m+1) pfaffians of size m+1.  Even m adds the C(d,m+2) pfaffians of size m+2,
    the C(d,m) of size m shared by the circuit columns, and per column its d entries
    and the d entries of P C_m(Q) it gives, each a sum of d products."""
    if m < 1:
        raise UsageError(f"--m {m}: need --m >= 1")
    count = math.comb(math.comb(d, 2) + 1, 2)
    if m % 2:
        count += math.comb(d, m + 1) * (m + 1) ** 3
    else:
        count += math.comb(d, m + 2) * (m + 2) ** 3 + math.comb(d, m) * m**3 + math.comb(d, m + 1) * (d + d * d)
    if count > ENTRY_CAP:
        raise UsageError(f"--what Mdm --m {m} in dimension {d} builds more than {ENTRY_CAP} terms (the entry cap)")


def cmd_invariants(args) -> int:
    from .invariants import linear_invariants, quadric_family_eval
    from .tensor import TensorSeries

    tensor = _load_series_or_tensor(args.input)
    if isinstance(tensor, TensorSeries):
        raise UsageError("invariants needs a tensor JSON")
    payload = {"l1": None, "l2": None, "volume": None, "quadrics_P": None, "quadrics_L": None}
    if tensor.d == 2 and tensor.k == 4 or tensor.k == tensor.d:
        inv = linear_invariants(tensor)
        payload["l1"] = None if inv.l1 is None else format_scalar(inv.l1)
        payload["l2"] = None if inv.l2 is None else format_scalar(inv.l2)
        payload["volume"] = None if inv.volume is None else format_scalar(inv.volume)
    if tensor.d == 2 and tensor.k == 3:
        payload["quadrics_P"] = [format_scalar(v) for v in quadric_family_eval(tensor, "P")]
        payload["quadrics_L"] = [format_scalar(v) for v in quadric_family_eval(tensor, "L")]
    if all(v is None for v in payload.values()):
        raise UsageError(f"no invariant applies to shape d={tensor.d}, k={tensor.k}")
    _emit(payload)
    return EXIT_OK


def cmd_verify_vanishing(args) -> int:
    from .paths import AxisParallel, signature_series

    path = _load_path(args.path, True)
    if not isinstance(path, AxisParallel):
        raise UsageError("verify-vanishing needs an axis_parallel path")
    _check_order(path.d, args.upto, "--upto")
    series = signature_series(path, args.upto)
    first = next((k for k in range(1, args.upto + 1) if not series.levels[k].is_zero()), None)
    _emit(
        {
            "firstNonzeroLevel": first,
            "latticeLength": format_scalar(path.lattice_length()),
            "upto": args.upto,
        }
    )
    return EXIT_OK


def cmd_recover(args) -> int:
    from .recovery import gauss_newton_recover, recover_quadratic_planar, recover_two_step_planar
    from .tensor import LevelTensor

    if args.tol is not None and args.mode == "exact":
        raise UsageError("--tol has no effect with --mode exact: it applies to --mode newton only")
    if args.tol is not None and not 0 < args.tol < math.inf:
        raise UsageError(f"--tol must be a finite value > 0, got {args.tol}")
    if args.mode == "newton":
        _check_newton_size(args.d, args.m, args.k)
    data = _load_json(args.input)
    _check_input_size(data, "order")
    tensor = LevelTensor.from_json(data)
    if tensor.d != args.d or tensor.k != args.k:
        raise UsageError(f"tensor shape (d={tensor.d}, k={tensor.k}) does not match flags")
    if args.mode == "exact":
        if (args.d, args.m, args.k) != (2, 2, 3):
            raise UsageError("exact recovery is implemented for --d 2 --m 2 --k 3")
        if args.family == "pl":
            # point is step-major: (step1, step2) each with two coordinates
            point = recover_two_step_planar(tensor)
            matrix = [[point[0], point[2]], [point[1], point[3]]]
        else:
            # point is coordinate-major: rows already match the d x m layout
            point = recover_quadratic_planar(tensor)
            matrix = [[point[0], point[1]], [point[2], point[3]]]
        residual = _projective_residual(args.family, matrix, args.k, tensor)
        _emit(
            {
                "matrix": [[format_scalar(v) for v in row] for row in matrix],
                "projective": True,
                "residual": residual,
                "multiplicity": args.k,
            }
        )
        return EXIT_OK
    tol = {} if args.tol is None else {"tol": args.tol}
    result = gauss_newton_recover(args.family, args.d, args.m, args.k, tensor, seed=args.seed, **tol)
    _emit(
        {
            "matrix": [[float(v) for v in row] for row in result.matrix],
            "projective": False,
            "residual": result.residual,
            "multiplicity": args.k,
            "restarts": result.restarts_used,
        }
    )
    return EXIT_OK


def _check_newton_size(d: int, m: int, k: int) -> None:
    """Refuse a Gauss-Newton run whose m^k core or (d*m) x d^k Jacobian has more
    entries than the cap, from the flags alone; other bad flags are refused later."""
    if min(d, m, k) < 1:
        return
    steep = k >= ENTRY_CAP.bit_length()  # any base >= 2 to such a k exceeds the cap: the power is not built
    for part, base, factor in (("m^k core", m, 1), ("(d*m) x d^k Jacobian", d, d * m)):
        if base >= 2 and steep or factor * base**k > ENTRY_CAP:
            raise UsageError(f"--d {d} --m {m} --k {k}: the {part} exceeds the {ENTRY_CAP}-entry cap")


def _projective_residual(family: str, matrix, k: int, tensor) -> float:
    from .recovery import signature_map

    image = signature_map(family, [[float(v) for v in row] for row in matrix], k)
    a = image.to_float().array
    b = tensor.to_float().array
    denom = float(a @ a)
    scale = float(a @ b) / denom if denom else 0.0
    norm_b = float(np.linalg.norm(b)) or 1.0
    return float(np.linalg.norm(scale * a - b)) / norm_b


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sigtensor", description="signature tensors of paths over exact or float scalars"
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("compute", help="signature tensor or series of a path JSON")
    p.add_argument("path")
    group = p.add_mutually_exclusive_group()
    group.add_argument("--level", type=int)
    group.add_argument("--trunc", type=int)
    p.add_argument("--scalar", choices=("exact", "float"), default="exact")
    p.set_defaults(func=cmd_compute)

    p = sub.add_parser("expected", help="expected signature series of a Brownian model JSON")
    p.add_argument("model")
    p.add_argument("--trunc", type=int, required=True)
    p.add_argument("--scalar", choices=("exact", "float"), default="exact")
    p.set_defaults(func=cmd_expected)

    p = sub.add_parser("recover", help="invert a signature tensor to a path matrix")
    p.add_argument("--family", choices=("pl", "poly"), required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--input", required=True)
    p.add_argument("--mode", choices=("exact", "newton"), default="exact")
    p.add_argument("--tol", type=float, default=None)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_recover)

    p = sub.add_parser("lyndon", help="Lyndon words and their count")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--count-only", action="store_true")
    p.set_defaults(func=cmd_lyndon)

    p = sub.add_parser("normal-form", help="rewriting polynomials over Lyndon coordinates")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--word")
    p.set_defaults(func=cmd_normal_form)

    p = sub.add_parser("check", help="group-like / Lie / signature-matrix membership")
    p.add_argument("input")
    p.add_argument("--what", "--variety", dest="what", choices=("grouplike", "lie", "Mdm"), required=True)
    p.add_argument("--m", type=int)
    p.add_argument("--tol", type=float, default=None)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("invariants", help="linear invariants and separating quadrics")
    p.add_argument("input")
    p.set_defaults(func=cmd_invariants)

    p = sub.add_parser("verify-vanishing", help="first nonzero level of an axis-parallel path")
    p.add_argument("path")
    p.add_argument("--upto", type=int, required=True)
    p.set_defaults(func=cmd_verify_vanishing)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits with 2 on usage errors and 0 on --help/--version
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        with np.errstate(all="ignore"):  # non-finite results are reported by `_emit` (exit 3)
            return args.func(args)
    except BrokenPipeError:
        # Point stdout at devnull so the flush at interpreter exit stays quiet.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_BROKEN_PIPE
    except (NumericalFailure, OverflowError) as exc:  # RecoveryFailed is one; OverflowError: a float result out of range
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except KeyError as exc:
        print(f"error: the input JSON is missing the field {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (UsageError, ValueError, TypeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
