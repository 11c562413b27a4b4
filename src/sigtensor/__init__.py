"""Signature tensors of paths over exact rational or float scalars.

The package computes iterated-integral signature tensors for
piecewise-linear, polynomial, axis-parallel and log-linear paths, checks
the shuffle-algebra laws they satisfy, evaluates the rank and invariant
conditions that carve out signature matrices and low-complexity tensor
families, produces expected signatures of Brownian models and their
mixtures, and inverts signature maps exactly or by least squares.
"""

__version__ = "0.1.0"

from .invariants import LinearInvariants, linear_invariants, quadric_family_eval, volume_invariant
from .lyndon import (
    LyndonBasis,
    NormalFormTable,
    bracketing,
    cfl_factorization,
    expand_from_lyndon,
    is_lyndon,
    lyndon_coordinates,
    lyndon_count,
    lyndon_words,
    normal_form,
    normal_form_table,
    standard_factorization,
)
from .matrices import (
    MatrixPencil,
    NumericalFailure,
    axis_matrix,
    circuit_matrix,
    exact_det,
    exact_rank,
    is_signature_matrix,
    matrix_to_tensor,
    mono_matrix,
    mono_matrix_det,
    mono_slice_det,
    mono_slice_matrix,
    mono_to_axis_congruence,
    pfaffian,
    signature_matrix_generators,
    signature_matrix_witness,
    split_pencil,
)
from .paths import (
    AxisParallel,
    LogLinear,
    PiecewiseLinear,
    Polynomial,
    canonical_axis,
    canonical_mono,
    loglinear_level,
    loglinear_signature,
    path_from_json,
    path_to_json,
    pl_level_direct,
    pl_signature,
    pl_signature_congruence,
    poly_signature_congruence,
    poly_signature_integrate,
    signature_level,
    signature_series,
    tensor_congruence,
)
from .recovery import (
    DegenerateRecovery,
    GaussNewtonResult,
    JacobianReport,
    NonGenericInput,
    RecoveryFailed,
    RecoveryResult,
    RootUnavailable,
    gauss_newton_recover,
    jacobian_rank,
    negate_odd_levels,
    recover_group_element,
    recover_quadratic_planar,
    recover_two_step_planar,
    signature_map,
)
from .shuffle import (
    WordCombination,
    find_grouplike_violation,
    find_lie_violation,
    is_grouplike,
    is_lie,
    shuffle_form_eval,
    shuffle_words,
)
from .stochastic import (
    BrownianModel,
    MixtureModel,
    expected_signature,
    gaussian_moment,
    mixture_expected_signature,
)
from .tensor import (
    LevelTensor,
    TensorSeries,
    basis_series,
    commutator,
    concat_product,
    exp_series,
    from_vector,
    log_series,
    project_level,
    series_from_level,
    unit_series,
    zero_series,
)
from .words import all_words, index_word, word_from_string, word_index, word_to_string
