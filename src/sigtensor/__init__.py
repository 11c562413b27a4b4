"""Signature tensors of paths over exact rational or float scalars.

The package computes iterated-integral signature tensors for
piecewise-linear, polynomial, axis-parallel and log-linear paths, checks
the shuffle-algebra laws they satisfy, evaluates the rank and invariant
conditions that carve out signature matrices and low-complexity tensor
families, produces expected signatures of Brownian models and their
mixtures, and inverts signature maps exactly or by least squares.

`import sigtensor` loads no submodule.  The first access to any public name
or submodule through the package (`sigtensor.pl_signature`,
`from sigtensor import dual`, `from sigtensor import *`) loads the whole API
at once and binds every name below (PEP 562 module `__getattr__`), so later
accesses are plain attribute reads.  `import sigtensor.paths` and the CLI
load only the submodules they use.
"""

__version__ = "0.1.0"

#: Each submodule, in the order the first access loads it, with the public
#: names the package re-exports from it.  `dual` and `scalars` re-export
#: nothing and are loaded by the others before their turn comes.
_EXPORTS = {
    "invariants": ("LinearInvariants", "linear_invariants", "quadric_family_eval", "volume_invariant"),
    "lyndon": (
        "LyndonBasis",
        "NormalFormTable",
        "bracketing",
        "cfl_factorization",
        "expand_from_lyndon",
        "is_lyndon",
        "lyndon_coordinates",
        "lyndon_count",
        "lyndon_words",
        "normal_form",
        "normal_form_table",
        "standard_factorization",
    ),
    "matrices": (
        "MatrixPencil",
        "NumericalFailure",
        "axis_matrix",
        "circuit_matrix",
        "exact_det",
        "exact_rank",
        "is_signature_matrix",
        "matrix_to_tensor",
        "mono_matrix",
        "mono_matrix_det",
        "mono_slice_det",
        "mono_slice_matrix",
        "mono_to_axis_congruence",
        "pfaffian",
        "signature_matrix_generators",
        "signature_matrix_witness",
        "split_pencil",
    ),
    "paths": (
        "AxisParallel",
        "LogLinear",
        "PiecewiseLinear",
        "Polynomial",
        "canonical_axis",
        "canonical_mono",
        "loglinear_level",
        "loglinear_signature",
        "path_from_json",
        "path_to_json",
        "pl_level_direct",
        "pl_signature",
        "pl_signature_congruence",
        "poly_signature_congruence",
        "poly_signature_integrate",
        "signature_level",
        "signature_series",
        "tensor_congruence",
    ),
    "recovery": (
        "DegenerateRecovery",
        "GaussNewtonResult",
        "JacobianReport",
        "NonGenericInput",
        "RecoveryFailed",
        "RecoveryResult",
        "RootUnavailable",
        "gauss_newton_recover",
        "jacobian_rank",
        "negate_odd_levels",
        "recover_group_element",
        "recover_quadratic_planar",
        "recover_two_step_planar",
        "signature_map",
    ),
    "shuffle": (
        "WordCombination",
        "find_grouplike_violation",
        "find_lie_violation",
        "is_grouplike",
        "is_lie",
        "shuffle_form_eval",
        "shuffle_words",
    ),
    "stochastic": (
        "BrownianModel",
        "MixtureModel",
        "expected_signature",
        "gaussian_moment",
        "mixture_expected_signature",
    ),
    "tensor": (
        "LevelTensor",
        "TensorSeries",
        "basis_series",
        "commutator",
        "concat_product",
        "exp_series",
        "from_vector",
        "log_series",
        "project_level",
        "series_from_level",
        "unit_series",
        "zero_series",
    ),
    "words": ("all_words", "index_word", "word_from_string", "word_index", "word_to_string"),
    "dual": (),
    "scalars": (),
}

__all__ = [*_EXPORTS, *(name for names in _EXPORTS.values() for name in names)]


def __getattr__(name):
    """Load every submodule and bind every public name, on the first access to one of them.

    All at once, not name by name: a caller that touches one name before it
    starts timing must not pay for loading the rest inside the timed part.
    """
    if name not in __all__:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    namespace = globals()
    for module_name, names in _EXPORTS.items():
        module = import_module(f"{__name__}.{module_name}")  # the import binds the submodule name here
        namespace.update((each, getattr(module, each)) for each in names)
    return namespace[name]


def __dir__():
    return sorted({*globals(), *__all__})
