import dataclasses
from fractions import Fraction

import numpy as np
import pytest

from sigtensor import (
    DegenerateRecovery,
    JacobianReport,
    NonGenericInput,
    RecoveryFailed,
    RecoveryResult,
    RootUnavailable,
    basis_series,
    commutator,
    exp_series,
    gauss_newton_recover,
    is_grouplike,
    jacobian_rank,
    negate_odd_levels,
    pl_signature,
    poly_signature_integrate,
    project_level,
    recover_group_element,
    recover_quadratic_planar,
    recover_two_step_planar,
    signature_map,
)
from sigtensor import matrices, recovery
from sigtensor.dual import Dual, seed_matrix
from sigtensor.tensor import LevelTensor

from conftest import rand_fraction, rand_vector, random_grouplike


def _proportional(a, b):
    return all(a[i] * b[j] == a[j] * b[i] for i in range(len(a)) for j in range(len(a)))


def test_dual_arithmetic():
    x = Dual(Fraction(3), (Fraction(1), Fraction(0)))
    moved = x + 1  # a value-and-tangent record: adding a scalar moves the value, and nothing else computes
    assert moved.a == 4 and moved.b == x.b and (x.a, x.b) == (3, (1, 0))
    with pytest.raises(TypeError):
        x * 2
    seeded = seed_matrix([[1, 2], [3, 4]])
    assert seeded[1][0].b == (0, 0, 1, 0)
    assert [[v.a for v in row] for row in seeded] == [[1, 2], [3, 4]]


def test_universal_recovery_round_trip_odd(rng):
    for d, n in [(2, 3), (3, 3), (2, 5), (3, 5)]:
        g = random_grouplike(rng, d, n, nonzero_level1=True)
        result = recover_group_element(project_level(g, n), "rational")
        assert result.series == g
        assert result.multiplicity == n and result.real_count == 1
        assert is_grouplike(result.series)


def test_universal_recovery_even_pair(rng):
    for d in (2, 3):
        g = random_grouplike(rng, d, 4, nonzero_level1=True)
        tensor = project_level(g, 4)
        result = recover_group_element(tensor, "rational")
        assert result.real_count == 2 and result.multiplicity == 4
        sibling = negate_odd_levels(result.series)
        assert result.series == g or sibling == g
        assert project_level(sibling, 4) == tensor
        assert is_grouplike(sibling)
        # the returned representative takes the positive first coordinate
        assert result.series.coefficient((1,)) > 0 or result.series.coefficient((1,)) == 0


@pytest.mark.parametrize("mode", ["rational", "real"])
def test_recovery_uses_linear_change_when_axis_degenerates(rng, mode):
    # zero first coordinate on level 1, but a recoverable group element
    values = {}
    from sigtensor import lyndon_words

    for w in lyndon_words(2, 3).words:
        values[w] = rand_fraction(rng, nonzero=True)
    values[(1,)] = Fraction(0)
    from sigtensor import expand_from_lyndon

    g = expand_from_lyndon(values, 2, 3)
    result = recover_group_element(project_level(g, 3), mode)
    if mode == "rational":
        assert result.series == g
    else:
        assert result.series.equals(g.to_float(), tol=1e-9)


def test_recovery_non_generic_error():
    e1, e2 = basis_series(2, 3, 1), basis_series(2, 3, 2)
    tensor = project_level(exp_series(commutator(e1, commutator(e1, e2))), 3)
    with pytest.raises(NonGenericInput):
        recover_group_element(tensor, "rational")


def test_recovery_root_unavailable():
    # level-3 tensor of exp(2^(1/3) e1): rational entries, irrational root
    tensor = LevelTensor.from_map(2, 3, {(1, 1, 1): Fraction(1, 3)})
    with pytest.raises(RootUnavailable):
        recover_group_element(tensor, "rational")


def test_recovery_real_mode(rng):
    g = random_grouplike(rng, 2, 3, nonzero_level1=True)
    tensor = project_level(g, 3).to_float()
    result = recover_group_element(tensor, "real")
    for k in range(4):
        assert result.series.levels[k].equals(g.levels[k].to_float(), tol=1e-9)
    with pytest.raises(TypeError):
        recover_group_element(tensor, "rational")


def test_real_mode_recovery_after_a_coordinate_change_holds_only_floats():
    steps = [[Fraction(1), Fraction(0)], [Fraction(-1), Fraction(1)], [Fraction(0), Fraction(2)]]
    top = pl_signature(steps, 3).levels[3]
    assert top[(1, 1, 1)] == 0  # the descent reads letter 2
    result = recover_group_element(top, "real")
    assert all(type(v) is float for level in result.series.levels for v in level.entries)
    assert result.series.levels[3].equals(top.to_float(), tol=1e-9)


@pytest.mark.parametrize("mode", ["rational", "real"])
def test_descent_takes_the_first_letter_whose_diagonal_has_a_real_root(monkeypatch, rng, mode):
    descend, letters = recovery._descend, []

    def spy(tensor, letter, sigma):
        letters.append(letter)
        return descend(tensor, letter, sigma)

    def refuse(*args):
        raise AssertionError("the letter rule needs no change of coordinates and no elimination")

    monkeypatch.setattr(recovery, "_descend", spy)
    monkeypatch.setattr(recovery, "tensor_congruence", refuse)
    monkeypatch.setattr(matrices, "_eliminate", refuse)
    g = random_grouplike(rng, 3, 3, nonzero_level1=True)
    assert recover_group_element(project_level(g, 3), mode).series.equals(g, tol=1e-9)
    steps = [[Fraction(1), Fraction(0)], [Fraction(-1), Fraction(1)], [Fraction(0), Fraction(2)]]
    g = pl_signature(steps, 3)
    assert g.levels[3][(1, 1, 1)] == 0  # level 1 is (0, 3): the descent reads letter 2
    result = recover_group_element(g.levels[3], mode)
    assert result.series.equals(g, tol=1e-9) and (mode == "real" or result.series == g)
    # even order: the first positive diagonal entry, past a negative one and a zero
    result = recover_group_element(LevelTensor(3, 2, [-1, 5, 0, 0, 0, 0, 0, 0, 2]), mode)
    assert result.series.levels[1].equals(LevelTensor(3, 1, [0, 0, 2]), tol=1e-12)
    assert letters == [1, 2, 3]


@pytest.mark.parametrize("mode", ["rational", "real"])
def test_a_level_one_on_the_second_axis_recovers_in_both_modes(mode):
    steps = [[1, 0, -4], [Fraction(4, 3), Fraction(-1, 3), 3], [Fraction(-7, 3), Fraction(2, 3), 1]]
    g = pl_signature(steps, 3)
    assert g.levels[1].entries == (0, Fraction(1, 3), 0)
    result = recover_group_element(g.levels[3], mode)
    if mode == "rational":
        assert result.series == g
    else:
        assert result.series.equals(g.to_float(), tol=1e-9)


def test_even_order_with_no_positive_diagonal_entry_has_no_real_root():
    for mode in ("rational", "real"):
        with pytest.raises(RootUnavailable):
            recover_group_element(LevelTensor(2, 2, [-1, 3, 1, 0]), mode)
        with pytest.raises(RootUnavailable):
            recover_group_element(LevelTensor(2, 4, [-1] + [0] * 15), mode)
        with pytest.raises(NonGenericInput):
            recover_group_element(LevelTensor(2, 2, [0, 3, 1, 0]), mode)


def test_two_step_recovery_round_trips(rng):
    done = 0
    while done < 5:
        steps = [rand_vector(rng, 2), rand_vector(rng, 2)]
        tensor = project_level(pl_signature(steps, 3), 3)
        try:
            point = recover_two_step_planar(tensor)
        except DegenerateRecovery:
            continue
        truth = (steps[0][0], steps[0][1], steps[1][0], steps[1][1])
        assert _proportional(point, truth)
        done += 1
    # unit axis steps
    tensor = project_level(pl_signature([(1, 0), (0, 1)], 3), 3)
    assert recover_two_step_planar(tensor) == (1, 0, 0, 1)
    # effectively one step: relations degenerate
    tensor = project_level(pl_signature([(Fraction(2), Fraction(1)), (Fraction(4), Fraction(2))], 3), 3)
    with pytest.raises(DegenerateRecovery):
        recover_two_step_planar(tensor)
    with pytest.raises(ValueError):
        recover_two_step_planar(LevelTensor.zeros(3, 3))


def test_quadratic_recovery_round_trips(rng):
    done = 0
    while done < 5:
        coeffs = [
            (rand_fraction(rng), rand_fraction(rng)),
            (rand_fraction(rng), rand_fraction(rng)),
        ]
        tensor = project_level(poly_signature_integrate(coeffs, 3), 3)
        try:
            point = recover_quadratic_planar(tensor)
        except DegenerateRecovery:
            continue
        truth = (coeffs[0][0], coeffs[0][1], coeffs[1][0], coeffs[1][1])
        assert _proportional(point, truth)
        done += 1
    tensor = project_level(poly_signature_integrate([(1, 0), (0, 1)], 3), 3)
    assert recover_quadratic_planar(tensor) == (1, 0, 0, 1)
    # purely linear path degenerates
    tensor = project_level(poly_signature_integrate([(Fraction(1), Fraction(0)), (Fraction(3), Fraction(0))], 3), 3)
    with pytest.raises(DegenerateRecovery):
        recover_quadratic_planar(tensor)


def test_closed_form_recovery_of_float_tensors_is_the_normalised_exact_point(rng):
    # float relations are solved by an SVD, not read as binary fractions
    done = 0
    while done < 10:
        steps = [rand_vector(rng, 2), rand_vector(rng, 2)]
        coeffs = [rand_vector(rng, 2), rand_vector(rng, 2)]
        cases = (
            (project_level(pl_signature(steps, 3), 3), recover_two_step_planar),
            (project_level(poly_signature_integrate(coeffs, 3), 3), recover_quadratic_planar),
        )
        for tensor, recover in cases:
            try:
                exact = np.array([float(v) for v in recover(tensor)])
            except DegenerateRecovery:
                continue
            point = recover(tensor.to_float())
            assert all(type(v) is float for v in point)
            # unit length, first nonzero entry positive, as the exact point scaled
            assert np.abs(np.array(point) - exact / np.linalg.norm(exact)).max() < 1e-12
            done += 1
    tensor = project_level(pl_signature([(Fraction(2), Fraction(1)), (Fraction(4), Fraction(2))], 3), 3)
    with pytest.raises(DegenerateRecovery):
        recover_two_step_planar(tensor.to_float())
    with pytest.raises(DegenerateRecovery):
        recover_two_step_planar(LevelTensor.zeros(2, 3, 0.0))


def test_recovered_point_reproduces_tensor_projectively(rng):
    steps = [(Fraction(1), Fraction(2)), (Fraction(-1, 2), Fraction(1, 3))]
    tensor = project_level(pl_signature(steps, 3), 3)
    point = recover_two_step_planar(tensor)
    again = project_level(pl_signature([(point[0], point[1]), (point[2], point[3])], 3), 3)
    # proportional as flat vectors
    assert _proportional(list(again.entries), list(tensor.entries))


def test_jacobian_ranks_match_dimension_table():
    assert jacobian_rank("pl", 2, 3, 2).projective_dim == 3
    assert jacobian_rank("pl", 2, 4, 2).projective_dim == 3
    assert jacobian_rank("pl", 2, 4, 3).projective_dim == 5
    assert jacobian_rank("pl", 3, 3, 2).projective_dim == 5
    report = jacobian_rank("pl", 3, 2, 2)
    assert report.rank == 5 and report.projective_dim == 4
    assert report.parameter_count == 6
    for d in (2, 3, 4, 5):
        for m in range(1, d + 1):
            expected = m * d - m * (m - 1) // 2
            assert jacobian_rank("pl", d, 2, m, seed_count=2).rank == expected
            assert jacobian_rank("poly", d, 2, m, seed_count=2).rank == expected


def test_jacobian_rank_stops_at_full_rank(monkeypatch):
    # every seed takes one rank of its residue Jacobian; only a deficient one
    # also builds the exact Jacobian and eliminates it (Bareiss)
    residue_ranks, fallbacks = [], []

    def counted_rank(residues):
        assert residues.dtype == np.int64
        residue_ranks.append(residues.shape)
        return rank_mod_p(residues)

    def counted_elimination(work):
        fallbacks.append(work.shape)
        return eliminate(work)

    rank_mod_p, eliminate = matrices._rank_mod_p, matrices._eliminate
    monkeypatch.setattr(matrices, "_rank_mod_p", counted_rank)
    monkeypatch.setattr(matrices, "_eliminate", counted_elimination)
    cases = [
        # (family, d, k, m, seed_count), rank, residue ranks, Bareiss fallbacks
        (("pl", 4, 3, 4, 3), 16, 1, 0),
        (("pl", 5, 2, 5, 3), 15, 3, 3),  # rank 15 < min(25, 25): every seed runs
        (("pl", 3, 1, 4, 4), 3, 1, 0),  # full rank d^k = 3 < d*m = 12
    ]
    for (family, d, k, m, seed_count), rank, residues, eliminations in cases:
        residue_ranks.clear()
        fallbacks.clear()
        assert jacobian_rank(family, d, k, m, seed_count=seed_count).rank == rank
        assert len(residue_ranks) == residues and set(residue_ranks) == {(d * m, d**k)}
        assert fallbacks == [(d * m, d**k)] * eliminations


def test_jacobian_reports_say_whether_the_residues_decided_the_rank():
    assert jacobian_rank("pl", 4, 3, 4, seed_count=3).certified  # full rank mod p at the first seed
    report = jacobian_rank("pl", 5, 2, 5, seed_count=3)  # rank 15 < 25: every seed falls back to Bareiss
    assert report.rank == 15 and report.certified is False
    assert dataclasses.replace(report, rank=14).certified is False
    assert JacobianReport("pl", 2, 3, 2, 4, 4).certified  # the field is last, with a default
    full, deficient = np.eye(3, dtype=np.int64), np.diag(np.array([1, 1, 0], dtype=np.int64))

    def no_bareiss():
        raise AssertionError("eliminated a matrix whose residues have full rank")

    assert matrices._certified_rank(full, no_bareiss) == (3, True)
    assert matrices._certified_rank(deficient, lambda: deficient.astype(object)) == (2, False)


def test_recovery_results_name_the_letter_the_descent_used():
    # x = (0, 2): T_111 = 0, so the descent takes its root along letter 2
    g = pl_signature([(1, 1), (-1, 1)], 3)
    result = recover_group_element(project_level(g, 3), "rational")
    assert result.letter == 2 and result.series == g
    assert recover_group_element(project_level(pl_signature([(1, 2)], 4), 4), "real").letter == 1
    assert dataclasses.replace(result, multiplicity=1).letter == 2
    assert RecoveryResult(g, 3, 1, "unique real root").letter is None  # the field is last, with a default


@pytest.mark.parametrize("seed_count", [0, -1])
def test_jacobian_rank_needs_at_least_one_seed(seed_count):
    with pytest.raises(ValueError, match="seed_count"):
        jacobian_rank("pl", 2, 3, 2, seed_count=seed_count)


def test_jacobian_full_rank_squares():
    for m in (2, 3, 4):
        assert jacobian_rank("pl", m, 3, m, seed_count=2).rank == m * m
        assert jacobian_rank("poly", m, 3, m, seed_count=2).rank == m * m


def test_gauss_newton_round_trips(rng):
    for trial in range(10):
        x = np.array([[rng.uniform(-2, 2) for _ in range(2)] for _ in range(2)])
        tensor = signature_map("pl", x.tolist(), 3)
        result = gauss_newton_recover("pl", 2, 2, 3, tensor, seed=trial)
        assert result.residual < 1e-8
        assert result.converged
        recovered = signature_map("pl", result.matrix.tolist(), 3)
        target = np.asarray([float(v) for v in tensor.entries])
        got = np.asarray([float(v) for v in recovered.entries])
        assert np.linalg.norm(got - target) <= 1e-7 * max(1.0, np.linalg.norm(target))


def test_gauss_newton_zero_tensor():
    tensor = LevelTensor.zeros(2, 3).to_float()
    result = gauss_newton_recover("pl", 2, 2, 3, tensor)
    assert result.residual < 1e-10 and result.restarts_used == 1


def test_gauss_newton_off_variety(rng):
    x = np.array([[1.0, -0.5], [0.25, 1.5]])
    tensor = signature_map("pl", x.tolist(), 3)
    entries = [float(v) for v in tensor.entries]
    entries[0] += 1e-3
    perturbed = LevelTensor(2, 3, entries)
    # tight tolerance cannot be met off the variety
    with pytest.raises(RecoveryFailed) as info:
        gauss_newton_recover("pl", 2, 2, 3, perturbed, tol=1e-12, restarts=3)
    assert info.value.residual is not None
    # a tolerance at the perturbation scale is reachable
    result = gauss_newton_recover("pl", 2, 2, 3, perturbed, tol=5e-3)
    assert result.residual < 5e-3
    assert result.residual > 1e-8  # genuinely off the variety


def test_signature_map_matches_forward_engines(rng):
    steps = [rand_vector(rng, 3) for _ in range(2)]
    x = [[steps[j][i] for j in range(2)] for i in range(3)]
    assert signature_map("pl", x, 3) == project_level(pl_signature(steps, 3), 3)
    coeffs = [tuple(rand_fraction(rng) for _ in range(2)) for _ in range(3)]
    assert signature_map("poly", coeffs, 3) == project_level(poly_signature_integrate(coeffs, 3), 3)
    with pytest.raises(ValueError):
        signature_map("spline", x, 3)


def test_gauss_newton_solves_each_damped_system_once(monkeypatch):
    # Off the variety every start ends at a damping sweep that fails up to
    # the cap 1e12.  A repeated sweep, or a repeated try at the cap, would
    # solve the same system (x, lambda) again.  Lambdas far below the
    # Hessian's scale give the same step, and near the cap a step rounds back
    # to x: such a trial is not evaluated again.  So every evaluation is a
    # start or the trial of one solve, and no start evaluates a matrix twice
    # (two starts may meet at one point).  The solve with restarts=r repeats
    # the r - 1 starts of the one before it, so each start's own evaluations
    # are what one more restart adds.
    log = {}
    solve, evaluate = np.linalg.solve, recovery._image_and_jacobian
    monkeypatch.setattr(np.linalg, "solve", lambda a, b: log["solves"].append(a.tobytes() + b.tobytes()) or solve(a, b))
    monkeypatch.setattr(recovery, "_image_and_jacobian", lambda c, x: log["xs"].append(x.tobytes()) or evaluate(c, x))
    x = np.array([[1.0, -0.5], [0.25, 1.5]])
    entries = [float(v) for v in signature_map("pl", x.tolist(), 3).entries]
    entries[0] += 1e-3
    runs = [[]]
    for restarts in (1, 2, 3):
        log.update(solves=[], xs=[])
        with pytest.raises(RecoveryFailed, match=rf"with restarts={restarts}$") as info:
            gauss_newton_recover("pl", 2, 2, 3, LevelTensor(2, 3, entries), tol=1e-12, restarts=restarts)
        assert log["xs"][: len(runs[-1])] == runs[-1]
        start = log["xs"][len(runs[-1]) :]
        assert start and len(start) == len(set(start))
        runs.append(log["xs"])
    assert len(log["solves"]) == len(set(log["solves"]))
    assert len(log["xs"]) <= 3 + len(log["solves"])
    assert info.value.matrix.shape == (2, 2) and info.value.residual > 1e-8


def _falls(residuals):
    return all(a > b for a, b in zip(residuals, residuals[1:]))


def test_gauss_newton_records_every_start():
    tensor = signature_map("pl", [[1.0, 0.5], [-0.25, 1.0]], 3)
    spread = (np.linalg.norm(np.array(tensor.entries)) * 6) ** (1 / 3) / 2 + 1e-3  # the random matrix's standard deviation
    result = gauss_newton_recover("pl", 2, 2, 3, tensor, restarts=8, seed=0)
    assert len(result.starts) == result.restarts_used == 2  # the first start stalls
    for start in result.starts:
        assert isinstance(start, recovery.GaussNewtonStart)
        assert start.scale == pytest.approx(spread, rel=1e-12)
        assert 1e-14 <= start.damping <= 1e12 and _falls(start.residuals)
        assert len(start.residuals) in (start.iterations, start.iterations + 1)
    last = result.starts[-1]
    # converged: the loop stops at the iteration that finds the residual below tol
    assert last.iterations == result.iterations == len(last.residuals)
    assert last.residuals[-1] == result.residual < 1e-10 <= result.starts[0].residuals[-1]
    assert last.residuals[0] > last.residuals[-1]
    # the field is last, with a default
    assert recovery.GaussNewtonResult(result.matrix, 0.0, True, 1, 1).starts == ()
    assert RecoveryFailed("failed", result.matrix, 0.5).starts == ()


def test_a_failed_gauss_newton_records_its_best_start():
    entries = [float(v) for v in signature_map("pl", [[1.0, -0.5], [0.25, 1.5]], 3).entries]
    entries[0] += 1e-3
    with pytest.raises(RecoveryFailed) as info:
        gauss_newton_recover("pl", 2, 2, 3, LevelTensor(2, 3, entries), tol=1e-12, restarts=3)
    starts = info.value.starts
    assert len(starts) == 3 and all(_falls(s.residuals) for s in starts)
    assert min(s.residuals[-1] for s in starts) == info.value.residual
    # a start ends when no damping up to the cap lowers the residual, or after 200 iterations
    assert all(s.damping == 1e12 or s.iterations == 200 for s in starts)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_gauss_newton_names_a_non_finite_tensor(bad):
    entries = [float(v) for v in signature_map("pl", [[1.0, 0.5], [-0.25, 1.0]], 3).entries]
    entries[3] = bad
    with pytest.raises(ValueError, match="^tensor must have finite entries") as info:
        gauss_newton_recover("pl", 2, 2, 3, LevelTensor(2, 3, entries))
    assert not isinstance(info.value, RecoveryFailed)


def test_gauss_newton_rejects_a_tensor_of_another_shape():
    tensor = signature_map("pl", [[1.0, 0.5], [-0.25, 1.0]], 3)
    with pytest.raises(ValueError, match=r"tensor has d=2, k=3, but d=3, k=3"):
        gauss_newton_recover("pl", 3, 3, 3, tensor)
    with pytest.raises(ValueError, match=r"tensor has d=2, k=3, but d=2, k=4"):
        gauss_newton_recover("pl", 2, 2, 4, tensor)
    with pytest.raises(ValueError, match="family must be"):
        gauss_newton_recover("spline", 2, 2, 3, tensor)


def test_signature_map_names_an_empty_matrix():
    with pytest.raises(ValueError, match="d=0, m=0"):
        signature_map("pl", [], 3)
    with pytest.raises(ValueError, match="d=2, m=0"):
        signature_map("pl", [[], []], 3)


def test_jacobian_rank_names_a_bad_dimension():
    with pytest.raises(ValueError, match="d=0, m=2"):
        jacobian_rank("pl", 0, 3, 2)
    with pytest.raises(ValueError, match="d=2, m=0"):
        jacobian_rank("poly", 2, 3, 0)


@pytest.mark.parametrize(
    "name, arguments",
    [
        ("d", ("pl", 2.0, 2, 2)),
        ("k", ("pl", 2, True, 2)),
        ("m", ("poly", 2, 2, "2")),
        ("seed_count", ("pl", 2, 2, 2, 1.5)),
        ("seed_count", ("pl", 2, 2, 2, False)),
    ],
)
def test_jacobian_rank_refuses_non_integer_counts(name, arguments):
    with pytest.raises(ValueError, match=f"^{name} must be an integer"):
        jacobian_rank(*arguments)


def test_jacobian_rank_reads_integer_counts_through_index():
    report = jacobian_rank("pl", np.int64(3), np.uint8(2), np.int32(2), seed_count=np.int16(2))
    assert report == jacobian_rank("pl", 3, 2, 2, seed_count=2)
    assert type(report.d) is int and report.rank == 5


@pytest.mark.parametrize(
    "name, options",
    [
        ("tol", {"tol": -1}),
        ("tol", {"tol": 0.0}),
        ("tol", {"tol": float("nan")}),
        ("tol", {"tol": float("inf")}),
        ("tol", {"tol": "1e-10"}),
        ("restarts", {"restarts": 0}),
        ("restarts", {"restarts": -3}),
        ("restarts", {"restarts": 2.5}),
        ("restarts", {"restarts": True}),
        ("m", {"m": True}),
        ("m", {"m": 2.0}),
        ("d", {"d": "2"}),
        ("k", {"k": 3.0}),
    ],
)
def test_gauss_newton_names_a_bad_argument(name, options):
    tensor = signature_map("pl", [[1.0, 0.5], [-0.25, 1.0]], 3)
    arguments = {"family": "pl", "d": 2, "m": 2, "k": 3, "tensor": tensor, **options}
    with pytest.raises(ValueError, match=f"(^{name} must be|need .*{name}.*>= 1)") as info:
        gauss_newton_recover(**arguments)
    assert not isinstance(info.value, RecoveryFailed)


def test_gauss_newton_accepts_one_restart_and_integer_counts():
    tensor = signature_map("pl", [[1.0, 0.5], [-0.25, 1.0]], 3)
    counts = np.int64(2), np.int32(2), np.uint8(3)
    result = gauss_newton_recover("pl", *counts, tensor, tol=np.float32(1e-9), restarts=np.int16(8))
    plain = gauss_newton_recover("pl", 2, 2, 3, tensor, tol=float(np.float32(1e-9)), restarts=8)
    assert result.converged and (result.matrix == plain.matrix).all()
    assert (result.restarts_used, result.iterations) == (plain.restarts_used, plain.iterations)
    with pytest.raises(ValueError, match=r"need d, m >= 1, got d=2, m=0"):
        gauss_newton_recover("pl", 2, 0, 3, tensor)
    # restarts counts random starts: one is enough near the identity at k = 4
    one = gauss_newton_recover("pl", 2, 2, 4, signature_map("pl", [[1.0, 0.5], [-0.25, 1.0]], 4), restarts=np.int8(1))
    assert one.converged and one.restarts_used == 1 and one.residual < 1e-10


@pytest.mark.parametrize(
    "k, message", [(2.0, "^k must be an integer"), (True, "^k must be an integer"), (0, "need k >= 1")]
)
def test_signature_map_names_a_bad_order(k, message):
    with pytest.raises(ValueError, match=message):
        signature_map("pl", [[1.0, 0.5], [-0.25, 1.0]], k)
    assert signature_map("pl", [[1, 2]], np.int64(2)) == signature_map("pl", [[1, 2]], 2)
