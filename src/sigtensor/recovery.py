"""Inverting signature maps: universal recovery, closed forms, least squares.

A generic order-n tensor on the group-like locus determines its whole
series once an n-th root fixes the first level; planar two-step and
quadratic paths at order 3 admit linear closed-form recovery; any family
admits damped Gauss-Newton recovery in float mode; and Jacobian ranks of
the parametrizations certify dimensions.

signature_map of a plain matrix is `paths.tensor_congruence` of the cached
canonical core.  Gauss-Newton, jacobian_rank and signature_map of `Dual`
matrices share one kernel (`_image_and_jacobian`): the image of
X -> core . X^(x)k and its closed-form multilinear Jacobian, a sum over
modes of the core contracted with X on the other modes.  Both run their
mode products as `paths._mode_steps` steps through `paths._run`, the
kernel's from a plan cached per (d, m, k) (`_plan`), on float64 arrays,
object arrays of Fractions, or int64 residues mod the one word-size prime
p = 2^28 - 57 (`matrices._PRIME`) reduced after every step.
jacobian_rank runs it on residues first while m <= 127, where no sum of m
products of residues reaches 2^63, and builds the exact integer Jacobian
only for a seed whose rank mod p is deficient.  Each canonical core is the
exact level that `paths._core_level` caches per (family, m, k); float code
reads its `to_float()`, which the level keeps.

Reduction recipe for d > m (not automated here): a rank-m path matrix X
factors through its column space, so with any left inverse G of an
orthonormal-ish basis B of that space, the order-3 tensor of X equals the
congruence by B of the order-3 tensor of G @ X; recovering the smaller
m x m problem and mapping back with B reduces recovery to the d = m case
handled by gauss_newton_recover or the closed forms.
"""

from __future__ import annotations

import functools
import math
import numbers
import operator
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .dual import Dual
from .matrices import (
    _PRIME,
    _certified_rank,
    _eliminate,
    _float_rank,
    _read_matrix,
    _residues,
)
from .paths import _core_level, _mode_steps, _run, tensor_congruence
from .scalars import NumericalFailure, fraction_nth_root, real_nth_root, scalar_mode
from .tensor import LevelTensor, TensorSeries, _frozen


class NonGenericInput(ValueError):
    """The required shuffle-form denominators vanish."""


class RootUnavailable(ValueError):
    """No n-th root exists in the requested scalar mode."""


class DegenerateRecovery(ValueError):
    """The closed-form linear relations do not determine a unique point."""


class RecoveryFailed(NumericalFailure):
    """No Gauss-Newton restart converged; carries the best attempt, and one
    `GaussNewtonStart` record per start in `starts`."""

    def __init__(self, message, matrix=None, residual=None, starts=()):
        super().__init__(message)
        self.matrix = matrix
        self.residual = residual
        self.starts = starts


@dataclass(frozen=True)
class RecoveryResult:
    """A group-like series projecting onto the input level tensor, and the
    letter (1-based) whose diagonal entry the descent took its root of."""

    series: TensorSeries
    multiplicity: int
    real_count: int
    root_choice: str
    letter: int | None = None


@dataclass(frozen=True)
class JacobianReport:
    """The rank of a parametrization's Jacobian; `certified` is True when every
    seed's rank was decided mod p, False when the Bareiss fallback ran."""

    family: str
    d: int
    k: int
    m: int
    parameter_count: int
    rank: int
    certified: bool = True

    @property
    def projective_dim(self) -> int:
        return self.rank - 1


# --- universal n-to-1 recovery ---------------------------------------------


def recover_group_element(tensor: LevelTensor, mode: str = "rational") -> RecoveryResult:
    """Reconstruct the group-like series from its top-level tensor.

    On a group-like series the diagonal entry T_i...i is x_i^n / n!, so the
    level-1 coordinate x_i is an n-th root of n! T_i...i.  The descent reads
    along the first letter i whose n! T_i...i has a nonzero real n-th root
    (nonzero for odd n, positive for even n), and takes that root: exact in
    rational mode, the real root (positive for even n) in real mode.  Lower
    levels follow by dividing shuffle forms by it (`_descend`).  When every
    diagonal entry vanishes, level 1 of a group-like input is 0, and no
    change of coordinates helps: <c^(x)n, T> = (c.x)^n / n! = 0 for every c.
    """
    if mode not in ("rational", "real"):
        raise ValueError("mode must be 'rational' or 'real'")
    n = tensor.k
    if n < 1:
        raise ValueError("need a tensor of order >= 1")
    if mode == "rational" and not tensor.is_exact():
        raise TypeError("rational mode needs exact entries")
    if mode == "real":
        tensor = tensor.to_float()
    step = sum(tensor.d**j for j in range(n))  # the flat index of the word i...i is (i - 1) * step
    radicands = [math.factorial(n) * t for t in tensor.entries[::step]]
    letter = next((i for i, r in enumerate(radicands, 1) if r > 0 or (n % 2 == 1 and r != 0)), None)
    if letter is None:
        if any(radicands):
            raise RootUnavailable("root unavailable: no diagonal entry of the even-order tensor is positive")
        raise NonGenericInput("non-generic input: every diagonal entry vanishes, so level 1 is 0")
    radicand = radicands[letter - 1]
    root = fraction_nth_root(radicand, n) if mode == "rational" else real_nth_root(radicand, n)
    if root is None:
        raise RootUnavailable("root unavailable in this scalar mode")
    if n % 2 == 1:
        real_count, choice = 1, "unique real root"
    else:
        real_count, choice = 2, "positive real root (sibling: negate odd levels)"
    if mode == "rational":
        choice = "exact rational root; " + choice
    return RecoveryResult(_descend(tensor, letter, root), n, real_count, choice, letter)


def _descend(tensor: LevelTensor, letter: int, sigma) -> TensorSeries:
    """Fill levels n-1 .. 1 downward from the top level, dividing by sigma.

    Level k at a word w is the shuffle form of (w, i) on level k+1, over
    sigma, for the letter i; on the level-(k+1) cube that form is the sum
    over the k+1 places p of the slice with letter i at place p.  The slices
    act on the level's values and keep its denominator, so one rule serves
    every scalar mode.  Level 1 so reads n! T_i...i / sigma^(n-1) at i, which
    is sigma when sigma^n = n! T_i...i (in floats, up to rounding).
    """
    d, n = tensor.d, tensor.k
    levels: list = [None] * (n + 1)
    levels[0] = LevelTensor(d, 0, [sigma / sigma])
    levels[n] = tensor
    slices = lambda upper: sum(np.take(upper, letter - 1, axis=p) for p in range(upper.ndim))
    for k in range(n - 1, 0, -1):
        levels[k] = levels[k + 1]._linear_map(k, slices).scale(1 / sigma)
    return TensorSeries(d, n, levels)


def negate_odd_levels(series: TensorSeries) -> TensorSeries:
    """The second real preimage for even order: scale level k by (-1)^k."""
    return series.eta_scale(-1)


# --- closed-form planar recovery at order 3 ---------------------------------


def _swapped_tensor(tensor: LevelTensor) -> LevelTensor:
    """The planar tensor with letters 1 and 2 exchanged in every word."""
    return tensor._linear_map(tensor.k, np.flip)


def _kernel_point(rows: list) -> tuple:
    """Unique (up to scale) kernel vector of the rows, else error.

    Exact rows give coprime integers by fraction-free elimination.  Other
    rows are read as floats: the kernel is the last right singular vector,
    the rank is counted as `exact_rank` counts it on floats, and the vector
    has unit length.  Either way the first nonzero entry (in floats, the
    first above 1e-9) is positive.
    """
    cols = len(rows[0])
    mode, array, _ = _read_matrix(rows)
    if mode is float:
        _, sigma, vt = np.linalg.svd(array)
        rank = _float_rank(sigma)
    else:
        echelon = _eliminate(array)
        rank = len(echelon.pivots)
    if cols - rank != 1:
        raise DegenerateRecovery(f"relations determine a {cols - rank}-dimensional solution space")
    if mode is float:
        sol = vt[-1] / np.linalg.norm(vt[-1])
        sign = 1.0 if next(v for v in sol if abs(v) > 1e-9) > 0 else -1.0
        return tuple((sign * sol).tolist())
    sol = echelon.kernel_vector([int(c not in echelon.pivots) for c in range(cols)])
    # normalize to coprime integers with the first nonzero entry positive
    ints = LevelTensor(cols, 1, sol).as_integers()[0].tolist()
    g = math.gcd(*ints) * (1 if next(v for v in ints if v) > 0 else -1)
    return tuple(Fraction(v // g) for v in ints)


def _planar_kernel_point(tensor: LevelTensor, relations, perm: tuple) -> tuple:
    """Kernel point of the relations on the tensor and on its axis swap.

    The swap permutes the unknowns by perm, so each relation read on the
    swapped tensor is re-indexed by perm before it joins the rows.
    """
    if tensor.d != 2 or tensor.k != 3:
        raise ValueError("closed-form recovery needs d=2, k=3")
    rows = relations(tensor)
    for row in relations(_swapped_tensor(tensor)):
        rows.append([row[perm.index(c)] for c in range(4)])
    return _kernel_point(rows)


def _two_step_rows(t: LevelTensor) -> list:
    """Linear relations in (x11, x12, x21, x22) for planar two-step recovery."""
    s = t.__getitem__
    return [
        # underlined leading unknowns x21, x12, x11 in the three relations
        [0, 0, s((1, 2, 2)) - s((2, 1, 2)), -(s((1, 2, 1)) - s((2, 1, 1)))],
        [0, s((1, 2, 1)) - s((2, 1, 1)), -(s((2, 1, 2)) - s((2, 2, 1))), 0],
        [3 * s((2, 1, 1)), -3 * s((1, 1, 1)), s((2, 1, 1)) - s((1, 2, 1)), 0],
    ]


def recover_two_step_planar(tensor: LevelTensor) -> tuple:
    """Projective parameters (x11:x12:x21:x22) of a planar two-step path.

    Rows are the closed-form linear relations together with their images
    under swapping the two plane axes (which permutes both the tensor and
    the unknowns); the unique kernel direction is returned as coprime
    integers.  x_ij is coordinate j of step i.
    """
    # swapping the plane axes maps (x11,x12,x21,x22) -> (x12,x11,x22,x21)
    return _planar_kernel_point(tensor, _two_step_rows, (1, 0, 3, 2))


def _quadratic_rows(t: LevelTensor) -> list:
    """Linear relations in (x11, x12, x21, x22) for planar quadratic recovery.

    The x21/x22 relation is the unique (up to scale) one with coefficients
    linear in the tensor entries; it can be re-derived by substituting the
    degree-3 entries of a general quadratic plane path into an ansatz.
    """
    s = t.__getitem__
    return [
        [0, 0, 5 * (s((1, 2, 2)) - 2 * s((2, 1, 2)) + s((2, 2, 1))),
         2 * (s((1, 2, 2)) - 5 * s((2, 1, 2)) + 4 * s((2, 2, 1)))],
        [0, s((1, 2, 2)) - 2 * s((2, 1, 2)) + s((2, 2, 1)), 0,
         s((1, 1, 2)) - 2 * s((1, 2, 1)) + s((2, 1, 1))],
        [5 * s((1, 2, 1)), -(s((1, 1, 2)) - 5 * s((1, 2, 1)) - s((2, 1, 1))),
         -5 * s((1, 1, 1)), -5 * s((1, 1, 1))],
    ]


def recover_quadratic_planar(tensor: LevelTensor) -> tuple:
    """Projective parameters (x11:x12:x21:x22) of a planar quadratic path.

    x_i1 and x_i2 are the linear and quadratic coefficients of coordinate
    i.  Same elimination strategy as the two-step recovery.
    """
    # swapping the plane axes maps (x11,x12,x21,x22) -> (x21,x22,x11,x12)
    return _planar_kernel_point(tensor, _quadratic_rows, (2, 3, 0, 1))


# --- families shared by the numerical code ----------------------------------

_FAMILIES = {"pl": "pl", "L": "pl", "poly": "poly", "P": "poly"}


def _family_name(family: str) -> str:
    try:
        return _FAMILIES[family]
    except (KeyError, TypeError):
        raise ValueError("family must be 'pl' or 'poly'") from None


@functools.lru_cache(maxsize=32)
def _plan(d: int, m: int, k: int) -> tuple:
    """(steps, slots, spots) of `_image_and_jacobian` for a d x m matrix and
    an order-k core.

    The k partials come by halving: the modes split in two halves, and the
    core contracted on either half is split again, down to single modes, in
    about k log2(k) contractions, not k(k-1).  `steps` unrolls that, depth
    first, into `paths._mode_steps` steps: slot 0 holds the core, slot h the
    core contracted at depth h, slot k + p partial p (`slots[p]`), slot 2k
    the image.  `spots[p]` holds the flat Jacobian positions, d rows of
    (word i, mode p at b, word j), where partial p lands for letter p = a.
    A plan holds k m d^k positions, k/d of one Jacobian; at the CLI entry cap
    of 10^7 Jacobian entries the 32 plans kept hold at most 32 k/d times it.
    """
    steps, slots, spots = [], [0] * k, []
    todo = [(0, (m,) * k, range(k), range(0))]  # (slot, shape, modes to keep, modes to contract first)
    while todo:
        slot, shape, keep, drop = todo.pop()
        target = k + keep[0] if len(keep) == 1 else slot + 1
        found, shape = _mode_steps(shape, drop, d, slot, target)
        steps, slot = steps + found, target if found else slot
        if len(keep) == 1:
            slots[keep[0]] = slot
        else:  # the left half is popped, and split down to single modes, first
            left, right = keep[: len(keep) // 2], keep[len(keep) // 2 :]
            todo += [(slot, shape, right, left), (slot, shape, left, right)]
    steps += _mode_steps((m,) + (d,) * (k - 1), (0,), d, slots[0], 2 * k)[0]
    index = np.arange(d * m * d**k)
    for p in range(k):
        # spots[p][a, i, b, j] = the flat position of jac[a, b, i, a, j]: i the letters before p, j after
        diagonal = index.reshape(d, m, d**p, d, -1).diagonal(0, 0, 3)  # axes b, i, j, a
        spots.append(_frozen(diagonal.transpose(3, 1, 0, 2).reshape(d, -1)))  # shared by every caller
    return tuple(steps), tuple(slots), tuple(spots)


def _image_and_jacobian(core: np.ndarray, x: np.ndarray, modulus: int | None = None):
    """Flat image core . X^(x)k and its (d*m) x d^k Jacobian.

    Closed form: d image / d X[a, b] = sum over modes p of the core
    contracted with X on every mode but p (the partial of mode p), with
    mode p fixed to b, placed where output letter p equals a.  Row a*m + b
    is the partial in X[a, b].  `paths._run` runs the steps of `_plan`, and
    the partials are added at their positions in mode order onto zeros: a
    float result is bit for bit one mode product at a time in the same
    halving order.  With a modulus, core and X hold int64 residues and every
    step, and the result, is reduced mod it; the caller keeps
    m (modulus-1)^2 below 2^63, so no sum of m non-negative products
    overflows, in any order (`_jacobian_residues`).
    """
    d, m = x.shape
    k = core.ndim
    steps, slots, spots = _plan(d, m, k)
    t = _run(steps, core, x, modulus)
    jac = np.zeros(d * m * d**k, dtype=x.dtype)
    for slot, spot in zip(slots, spots):
        jac[spot] += t[slot].reshape(-1)
    jac = jac.reshape(d * m, d**k)
    return t[2 * k].reshape(-1), jac if modulus is None else jac % modulus


def signature_map(family: str, matrix: Sequence[Sequence], k: int) -> LevelTensor:
    """Order-k signature of the family member encoded by a d x m matrix.

    Float entries give a float result and exact entries an exact one.  On a
    matrix of `Dual` entries each output entry is Dual(value, J^T . B), where
    J is the closed-form Jacobian and B stacks the entries' derivative tuples
    (row-major), so Fraction seeds keep rational partials.  k >= 1 is an
    integer (`operator.index`, bools refused).
    """
    family, k = _family_name(family), _count("k", k)
    if k < 1:
        raise ValueError(f"need k >= 1, got k={k}")
    rows = [list(r) for r in matrix]
    d = len(rows)
    m = len(rows[0]) if rows else 0
    if d < 1 or m < 1:
        raise ValueError(f"need a d x m matrix with d, m >= 1, got d={d}, m={m}")
    if any(len(r) != m for r in rows):
        raise ValueError("ragged matrix")
    flat = [v for r in rows for v in r]
    seeds = [v.b for v in flat if isinstance(v, Dual)]
    core = _core_level(family, m, k)
    if not seeds:
        return tensor_congruence(core, rows)
    width = len(seeds[0])
    tangents = [v.b if isinstance(v, Dual) else (0,) * width for v in flat]
    if any(len(b) != width for b in tangents):
        raise ValueError("Dual entries carry derivative tuples of different lengths")
    mode, values = scalar_mode(v.a if isinstance(v, Dual) else v for v in flat)
    if mode is not float:  # float derivatives make the map float too
        mode, values = scalar_mode(values + tuple(t for b in tangents for t in b))
        values, tangents = values[: d * m], values[d * m :]
    core, dtype = (core.to_float(), np.float64) if mode is float else (core, object)
    image, jac = _image_and_jacobian(core.cube, np.array(values, dtype=dtype).reshape(d, m))
    partials = jac.T @ np.array(tangents, dtype=dtype).reshape(d * m, width)
    return LevelTensor(d, k, [Dual(v, b) for v, b in zip(image.tolist(), partials.tolist())])


# --- Jacobian ranks ----------------------------------------------------------


#: The largest m whose residue Jacobian `_jacobian_residues` contracts in
#: int64: a contraction sums m products of two residues, and
#: 127 (_PRIME - 1)^2 < 2^63.
_RESIDUE_MAX_M = 127


def _jacobian_residues(core: np.ndarray, point: np.ndarray) -> np.ndarray:
    """The Jacobian of `_image_and_jacobian(core, point)` mod _PRIME, as int64
    residues, for an integer core and d x m point (object arrays of Python
    ints): contracted on residues while m <= _RESIDUE_MAX_M, else reduced
    from the exact integer Jacobian."""
    if point.shape[1] > _RESIDUE_MAX_M:
        return _residues(_image_and_jacobian(core, point)[1])
    return _image_and_jacobian(_residues(core), _residues(point), _PRIME)[1]


def _count(name: str, value) -> int:
    """An integer argument read through `operator.index`; bools and other
    non-integers raise a ValueError that names the parameter."""
    if not isinstance(value, bool):
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise ValueError(f"{name} must be an integer, got {value!r}")


def jacobian_rank(
    family: str, d: int, k: int, m: int, seed_count: int = 3, seed: int = 0
) -> JacobianReport:
    """Exact rank of the (d*m) x d^k Jacobian of the parametrization.

    The closed-form Jacobian is evaluated at seed_count >= 1 random rational
    points; the report keeps the maximum rank over the seeds, and stops
    early once a seed reaches min(d*m, d^k), which no seed can exceed.
    Scaling the core by L and the point by D scales the Jacobian by
    L * D^(k-1) and keeps its rank, so the kernel needs only integers.  A
    seed's rank is `_certified_rank` of its Jacobian mod the one word-size
    prime p = _PRIME (`_jacobian_residues`, in int64 for m <= 127): a full
    rank mod p is proved, and the exact integer Jacobian is built and
    eliminated (Bareiss) only when it is deficient; the report's `certified`
    is False when that happened for any seed.  d, k, m and seed_count
    are integers (`operator.index`, bools refused).
    """
    d, k, m, seed_count = _count("d", d), _count("k", k), _count("m", m), _count("seed_count", seed_count)
    if d < 1 or m < 1 or k < 1:
        raise ValueError(f"need d, m, k >= 1, got d={d}, m={m}, k={k}")
    if seed_count < 1:
        raise ValueError(f"need seed_count >= 1, got {seed_count}")
    core = _core_level(_family_name(family), m, k).as_integers()[0].reshape((m,) * k)
    rng = random.Random(seed)
    best, full, certified = 0, min(d * m, d**k), True
    for _ in range(seed_count):
        point = [
            [Fraction(rng.randint(1, 12), rng.randint(1, 4)) * (-1) ** rng.randint(0, 1) for _ in range(m)]
            for _ in range(d)
        ]
        point = _read_matrix(point)[1]
        rank, decided = _certified_rank(_jacobian_residues(core, point), lambda: _image_and_jacobian(core, point)[1])
        best, certified = max(best, rank), certified and decided
        if best == full:
            break
    return JacobianReport(family, d, k, m, d * m, best, certified)


# --- damped Gauss-Newton recovery --------------------------------------------


@dataclass(frozen=True)
class GaussNewtonStart:
    """One Gauss-Newton start: its random entries' standard deviation, its
    iterations, its last damping lambda, and its relative residuals, at the
    start and after each accepted step (so they fall strictly)."""

    scale: float
    iterations: int
    damping: float
    residuals: tuple


@dataclass(frozen=True)
class GaussNewtonResult:
    """A converged solve; `starts` holds one `GaussNewtonStart` per start that ran."""

    matrix: np.ndarray
    residual: float
    converged: bool
    restarts_used: int
    iterations: int
    starts: tuple = ()


def _dampings(lam: float):
    """lam, then x10 up to the cap 1e12, which is tried once."""
    yield lam
    while lam < 1e12:
        lam = min(lam * 10.0, 1e12)
        yield lam


def gauss_newton_recover(
    family: str,
    d: int,
    m: int,
    k: int,
    tensor: LevelTensor,
    tol: float = 1e-10,
    restarts: int = 8,
    seed: int = 0,
) -> GaussNewtonResult:
    """Least-squares path recovery by damped Gauss-Newton (float mode).

    Minimizes the squared distance between the family signature of a d x m
    matrix and the target tensor.  Each evaluation computes the image and
    the closed-form multilinear Jacobian on the cached float core.  Each of
    the `restarts` starts is a seeded random matrix and runs at most 200
    iterations.  An iteration raises the damping lambda x10 from its last
    value until a step lowers the residual; a start ends when no lambda up
    to the cap 1e12 does, since x and lambda then stay where they are.
    The first start that meets tol is returned, with `restarts_used` its
    number; otherwise RecoveryFailed carries the best start's matrix and
    residual.  Either way `starts` records every start that ran.  d, m, k
    and restarts >= 1 are integers (`operator.index`, bools refused), tol is
    a finite number > 0, and the tensor's entries are finite.
    """
    d, m, k, restarts = _count("d", d), _count("m", m), _count("k", k), _count("restarts", restarts)
    if d < 1 or m < 1:
        raise ValueError(f"need d, m >= 1, got d={d}, m={m}")
    if k < 3:
        raise ValueError("need k >= 3 for tensor recovery")
    if restarts < 1:
        raise ValueError(f"need restarts >= 1, got {restarts}")
    if not (isinstance(tol, numbers.Real) and 0 < tol < math.inf):
        raise ValueError(f"tol must be a finite number > 0, got {tol!r}")
    if (tensor.d, tensor.k) != (d, k):
        raise ValueError(f"tensor has d={tensor.d}, k={tensor.k}, but d={d}, k={k} were given")
    core = _core_level(_family_name(family), m, k).to_float().cube
    target = tensor.to_float().array
    if not np.isfinite(target).all():
        raise ValueError("tensor must have finite entries")
    denom = float(np.linalg.norm(target)) or 1.0
    rng = random.Random(seed)
    scale = (np.linalg.norm(target) * math.factorial(k)) ** (1.0 / k) / max(1.0, math.sqrt(d * m))
    spread = (float(scale) if scale > 0 else 1.0) + 1e-3
    eye = np.eye(d * m)

    best, starts = (math.inf, None), []  # (residual, matrix) of the best start so far, and each start's record
    for start in range(1, restarts + 1):
        x = np.array([rng.gauss(0.0, spread) for _ in range(d * m)]).reshape(d, m)
        image, jac = _image_and_jacobian(core, x)
        residual = image - target
        norm = math.sqrt(residual.dot(residual)) / denom  # np.linalg.norm's sum, in its order
        history = [norm]
        lam, seen = 1e-3, {x.tobytes()}  # every matrix this start has evaluated
        for iterations in range(1, 201):
            if norm < tol:
                break
            g, h = jac @ residual, jac @ jac.T
            for lam in _dampings(lam):
                try:
                    step = np.linalg.solve(h + lam * eye, -g)
                except np.linalg.LinAlgError:
                    continue
                trial = x + step.reshape(d, m)
                if trial.tobytes() in seen:
                    continue  # evaluated already: its residual is no lower than x's, which only falls
                seen.add(trial.tobytes())
                image, trial_jac = _image_and_jacobian(core, trial)
                trial_res = image - target
                trial_norm = math.sqrt(trial_res.dot(trial_res)) / denom
                if trial_norm < norm:
                    break
            else:
                break  # no damping up to the cap lowers the residual: the start ends
            x, residual, jac, norm = trial, trial_res, trial_jac, trial_norm
            history.append(norm)
            lam = max(lam / 10.0, 1e-14)
        starts.append(GaussNewtonStart(spread, iterations, lam, tuple(history)))
        if norm < tol:
            return GaussNewtonResult(x, norm, True, start, iterations, tuple(starts))
        if norm < best[0]:
            best = (norm, x)
    raise RecoveryFailed(
        f"recovery failed: best relative residual {best[0]:.3e} with restarts={restarts}",
        matrix=best[1],
        residual=best[0],
        starts=tuple(starts),
    )
