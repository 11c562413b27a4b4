import math
from fractions import Fraction

import numpy as np
import pytest

from sigtensor import (
    LevelTensor,
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
    pl_signature,
    poly_signature_integrate,
    project_level,
    recover_two_step_planar,
    signature_matrix_generators,
    signature_matrix_witness,
    split_pencil,
)
from sigtensor import matrices
from sigtensor.matrices import _PRIME, _rank_mod_p, _residues, matrix_inverse

from conftest import rand_fraction, rand_skew, rand_vector


def test_split_pencil_axis_block():
    s = axis_matrix(3, 2)
    assert s == [
        [Fraction(1, 2), Fraction(1), Fraction(0)],
        [Fraction(0), Fraction(1, 2), Fraction(0)],
        [Fraction(0), Fraction(0), Fraction(0)],
    ]
    pencil = split_pencil(s)
    assert pencil.P[0][0] == Fraction(1, 2) and pencil.P[0][1] == Fraction(1, 2)
    assert pencil.P[1][1] == Fraction(1, 2)
    assert pencil.Q[0][1] == Fraction(1, 2) and pencil.Q[1][0] == -Fraction(1, 2)
    assert pencil.reconstruct() == s


def test_split_pencil_pure_cases(rng):
    sym = [[rand_fraction(rng) for _ in range(3)] for _ in range(3)]
    sym = [[sym[min(i, j)][max(i, j)] for j in range(3)] for i in range(3)]
    pencil = split_pencil(sym)
    assert all(v == 0 for row in pencil.Q for v in row)
    skew = rand_skew(rng, 3)
    pencil = split_pencil(skew)
    assert all(v == 0 for row in pencil.P for v in row)
    with pytest.raises(ValueError):
        split_pencil([[1, 2, 3], [4, 5, 6]])


def test_exact_rank_basics():
    assert exact_rank([[1, 1, 1]] * 3) == 1
    assert exact_rank(mono_matrix(3)) == 3
    assert exact_rank([[0, 0], [0, 0]]) == 0
    assert exact_rank(np.array([[1.0, 2.0], [2.0, 4.0]])) == 1
    assert exact_rank(np.array([[1.0, 0.0], [0.0, 1e-15]])) == 1
    # numpy integers are exact: float singular values would see rank 1
    assert exact_rank(np.array([[2**52, 2**52 + 1], [2**52, 2**52]])) == 2


def _counting_eliminations(monkeypatch):
    calls = []
    eliminate = matrices._eliminate

    def counted(work):
        calls.append(work.shape)
        return eliminate(work)

    monkeypatch.setattr(matrices, "_eliminate", counted)
    return calls


def test_full_rank_mod_p_is_returned_without_bareiss(monkeypatch):
    calls = _counting_eliminations(monkeypatch)
    assert exact_rank(mono_matrix(4)) == 4
    assert exact_rank([[1, 2, 3], [Fraction(1, 2), 0, 7]]) == 2
    assert calls == []


@pytest.mark.parametrize("rows", [[[_PRIME, 0], [0, 1]], [[_PRIME, 1], [0, 1]], [[1, 1], [1, 1 + _PRIME]]])
def test_a_maximal_minor_divisible_by_p_reaches_bareiss_and_keeps_full_rank(monkeypatch, rows):
    calls = _counting_eliminations(monkeypatch)
    assert _rank_mod_p(_residues(np.array(rows, dtype=object))) == 1
    assert exact_rank(rows) == 2
    assert calls == [(2, 2)]


def test_exact_rank_of_huge_negative_zero_and_empty_matrices():
    big = 2**64 + 13
    assert exact_rank([[big, -(2**63)], [-1, 2**70]]) == 2
    assert exact_rank([[big, -big], [-3 * big, 3 * big]]) == 1
    assert exact_rank([[2**100, 2**100 + _PRIME], [1, 1]]) == 2  # proportional rows mod p
    assert exact_rank([[-2, 4, -6], [3, -6, 9], [-1, 2, -3]]) == 1
    assert exact_rank([[0, 0, 0], [0, 0, 0]]) == 0
    assert exact_rank([[Fraction(0)] * 4] * 3) == 0
    assert exact_rank([[], [], []]) == 0  # 3 x 0
    assert exact_rank(np.zeros((0, 3), dtype=object)) == 0  # 0 x 3
    assert exact_rank([]) == 0
    for shape in ((0, 3), (3, 0), (0, 0)):
        assert _rank_mod_p(_residues(np.zeros(shape, dtype=object))) == 0
    assert _rank_mod_p(_residues(np.array([[-1, big], [2**200, -_PRIME]], dtype=object))) == 2


def test_residues_of_every_integer_dtype_match_python_ints():
    top, low = 2**63 - 1, -(2**63)
    cases = [
        np.array([[top, low], [-1, 0]], dtype=object),
        np.array([[2**64 - 1, 2**63], [_PRIME, 0]], dtype=object),
        np.array([[2**200, -(2**90)], [-_PRIME - 1, 3]], dtype=object),
    ]
    for array in cases:
        residues = _residues(array)
        assert residues.dtype == np.int64
        assert residues.tolist() == [[int(v) % _PRIME for v in row] for row in array.tolist()]


def _rank_inputs_near_the_word_size():
    top, low = 2**63 - 1, -(2**63)
    return [
        np.array([[top, low], [low, top]], dtype=np.int64),  # det = top^2 - low^2 != 0
        np.array([[top, top - 1], [top - 1, top - 2]], dtype=np.int64),  # full rank, det = -1
        np.array([[low, top], [low, top], [2, -2]], dtype=np.int64),
        np.array([[top, low, 1], [-2, 4, -6], [1, -2, 3]], dtype=np.int64),  # rows 2, 3 proportional
        np.array([[2**64 - 1, 2**63], [2**64 - 1, 2**63]], dtype=np.uint64),
        np.array([[2**64 - 1, 1], [2**63, 2**63 + _PRIME]], dtype=np.uint64),
        np.array([[_PRIME, 0], [0, 1]], dtype=np.int32),  # full rank, rank 1 mod p
        np.array([[2**100, 2**100 + _PRIME], [1, 1]], dtype=object),
        np.array([[-3, 6, 9], [1, -2, -3]], dtype=object),
        np.array([[True, False], [True, False]]),
        np.array([[True, False], [False, True]]),
    ]


@pytest.mark.parametrize("array", _rank_inputs_near_the_word_size(), ids=lambda a: str(a.dtype))
def test_exact_rank_of_integer_arrays_equals_the_list_input(array):
    before = array.copy()
    assert exact_rank(array) == exact_rank(array.tolist())
    assert array.tolist() == before.tolist()  # the elimination works on a copy


def test_determinant_closed_forms():
    assert mono_matrix_det(1) == Fraction(1, 2)
    assert mono_matrix_det(2) == Fraction(1, 36)
    assert mono_slice_det(1) == Fraction(1, 6)
    for d in range(1, 7):
        assert exact_det(mono_matrix(d)) == mono_matrix_det(d)
        assert exact_det(mono_slice_matrix(d)) == mono_slice_det(d)


def test_pfaffian_examples_and_squares(rng):
    assert pfaffian([[0, 5], [-5, 0]]) == 5
    with pytest.raises(ValueError):
        pfaffian([[Fraction(0)] * 3 for _ in range(3)])
    with pytest.raises(ValueError):
        pfaffian([[0, 1], [1, 0]])
    for d in (4, 6):
        q = rand_skew(rng, d)
        assert pfaffian(q) ** 2 == exact_det(q)


def test_circuit_matrix_golden_column(rng):
    q = rand_skew(rng, 3)
    cm = circuit_matrix(q, 2)
    assert [cm[0][0], cm[1][0], cm[2][0]] == [q[1][2], -q[0][2], q[0][1]]
    with pytest.raises(ValueError):
        circuit_matrix(q, 1)
    with pytest.raises(ValueError):
        circuit_matrix(q, 4)


def _random_skew_of_rank(rng, d, m):
    base = [[Fraction(0)] * d for _ in range(d)]
    for b in range(m // 2):
        base[2 * b][2 * b + 1] = Fraction(1)
        base[2 * b + 1][2 * b] = Fraction(-1)
    while True:
        a = [[Fraction(rng.randint(-3, 3)) for _ in range(d)] for _ in range(d)]
        q = [
            [
                sum(a[i][r] * base[r][c] * a[j][c] for r in range(d) for c in range(d))
                for j in range(d)
            ]
            for i in range(d)
        ]
        if exact_rank(q) == m:
            return q


def test_circuit_columns_span_kernel(rng):
    for d, m in [(3, 2), (4, 2), (5, 2), (6, 2), (5, 4), (6, 4)]:
        q = _random_skew_of_rank(rng, d, m)
        cm = circuit_matrix(q, m)
        cols = len(cm[0])
        for c in range(cols):
            for i in range(d):
                assert sum(q[i][r] * cm[r][c] for r in range(d)) == 0, (d, m, c, i)


def test_membership_accepts_paths_and_chain(rng):
    for d in (2, 3, 4, 5):
        for m in range(1, d + 1):
            steps = [rand_vector(rng, d) for _ in range(m)]
            s = project_level(pl_signature(steps, 2), 2)
            assert is_signature_matrix(s, m), (d, m)
            assert is_signature_matrix(s, m + 1), (d, m)
            coeffs = [tuple(rand_fraction(rng) for _ in range(m)) for _ in range(d)]
            sp = project_level(poly_signature_integrate(coeffs, 2), 2)
            assert is_signature_matrix(sp, m), (d, m, "poly")


def test_membership_rejections(rng):
    # generic two-step data has nonzero skew part, so m=1 fails
    steps = [rand_vector(rng, 3), rand_vector(rng, 3)]
    s = project_level(pl_signature(steps, 2), 2)
    ok, witness = signature_matrix_witness(s, 1)
    assert not ok and "rank([P Q])" in witness
    # a generic matrix has full-rank symmetric part
    generic = [[Fraction(i * 7 + j * 3 + 1, 1 + ((i * j) % 3)) for j in range(3)] for i in range(3)]
    generic[0][0] += Fraction(5)
    ok, witness = signature_matrix_witness(generic, 3)
    assert not ok and "rank(P)" in witness
    # perturbing one entry of a member breaks the rank-1 condition
    entries = list(s.entries)
    entries[0] += Fraction(1)
    perturbed = type(s)(s.d, s.k, entries)
    assert not is_signature_matrix(perturbed, 2)


def test_generators_d3_m2(rng):
    steps = [rand_vector(rng, 3), rand_vector(rng, 3)]
    s = project_level(pl_signature(steps, 2), 2)
    values = signature_matrix_generators(s, 2)
    assert len(values) == 9
    assert all(v == 0 for v in values)
    # rank-1 symmetric with zero skew satisfies the m=1 generators
    v = rand_vector(rng, 3, nonzero=True)
    rank1 = [[v[i] * v[j] for j in range(3)] for i in range(3)]
    values = signature_matrix_generators(rank1, 1)
    assert all(x == 0 for x in values)
    # a random matrix violates some generator
    generic = [[Fraction(1), Fraction(2), Fraction(3)],
               [Fraction(4), Fraction(6), Fraction(6)],
               [Fraction(7), Fraction(8), Fraction(10)]]
    assert any(x != 0 for x in signature_matrix_generators(generic, 2))


def test_matrix_tensor_round_trip():
    s = axis_matrix(3, 2)
    t = matrix_to_tensor(s)
    assert t.d == 3 and t.k == 2
    assert split_pencil(t).reconstruct() == s


def test_congruence_construction_residuals():
    assert mono_to_axis_congruence(1).tolist() == [[1.0]]
    for d in range(2, 7):
        h = mono_to_axis_congruence(d)
        m = np.array([[float(v) for v in row] for row in mono_matrix(d)])
        a = np.array([[float(v) for v in row] for row in axis_matrix(d)])
        residual = np.max(np.abs(h @ m @ h.T - a))
        assert residual < (1e-9 if d == 2 else 1e-8), (d, residual)
        assert abs(np.linalg.det(h)) > 1e-12
    with pytest.raises(NumericalFailure):
        mono_to_axis_congruence(6, tol=1e-300)


def test_matrix_inverse_is_exact_and_rejects_non_square_or_singular():
    a = [[2, 1], [Fraction(1, 3), 4]]
    assert matrix_inverse(a) == [[Fraction(12, 23), Fraction(-3, 23)], [Fraction(-1, 23), Fraction(6, 23)]]
    with pytest.raises(ValueError, match="square"):
        matrix_inverse([[1, 2, 3], [4, 5, 6]])
    with pytest.raises(ValueError, match="singular"):
        matrix_inverse([[1, 2], [2, 4]])


@pytest.mark.parametrize(
    "call, matrix",
    [
        (exact_rank, [[1.0, 2.0], [-math.inf, 0.0]]),
        (exact_rank, np.array([[math.nan, 1.0], [0.0, 1.0]])),
        (lambda a: signature_matrix_witness(a, 1), [[math.inf, 1.0], [0.0, 1.0]]),
        (pfaffian, [[0.0, math.inf], [-math.inf, 0.0]]),
        (lambda a: signature_matrix_generators(a, 1), [[0.0, math.inf], [-math.inf, 0.0]]),
        (split_pencil, LevelTensor(2, 2, [1.0, math.nan, 0.0, 1.0])),
        (exact_det, [[1, math.inf], [0, 1]]),
        (recover_two_step_planar, LevelTensor(2, 3, [math.inf] + [1.0] * 7)),
    ],
)
def test_non_finite_float_matrices_are_refused(call, matrix):
    with pytest.raises(ValueError, match="matrix entries must be finite"):
        call(matrix)


def test_mixed_exact_and_float_entries_are_read_as_floats():
    mixed = [[1, 0.5], [Fraction(1, 3), 2]]
    pencil = split_pencil(mixed)
    assert all(type(v) is float for row in pencil.P + pencil.Q for v in row)
    assert pencil.Q[0][1] == (0.5 - 1 / 3) / 2
    assert all(type(v) is float for v in signature_matrix_generators(mixed, 1))
    assert exact_det(mixed) == Fraction(11, 6)  # the determinant reads each float as its rational
