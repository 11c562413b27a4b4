"""Inverting signature maps: universal recovery, closed forms, least squares.

A generic order-n tensor on the group-like locus determines its whole
series once an n-th root fixes the first level; planar two-step and
quadratic paths at order 3 admit linear closed-form recovery; any family
admits damped Gauss-Newton recovery in float mode; and Jacobian ranks of
the parametrizations certify dimensions.

signature_map of a plain matrix is `paths.tensor_congruence` of the cached
canonical core.  Gauss-Newton, jacobian_rank and signature_map of `Dual`
matrices share one kernel: the image of X -> core . X^(x)k and its
closed-form multilinear Jacobian (a sum over modes of the core contracted
with X, by `paths._contract`, on the other modes), on float64 arrays or on
object arrays of Fractions, over a core array cached per (family, m, k,
scalar mode).

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
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .dual import Dual
from .matrices import _eliminate, exact_det, exact_rank, matrix_inverse
from .paths import _contract, canonical_axis, canonical_mono, tensor_congruence
from .scalars import fraction_nth_root, real_nth_root
from .tensor import LevelTensor, TensorSeries, _integer_multiple


class NonGenericInput(ValueError):
    """The required shuffle-form denominators vanish."""


class RootUnavailable(ValueError):
    """No n-th root exists in the requested scalar mode."""


class DegenerateRecovery(ValueError):
    """The closed-form linear relations do not determine a unique point."""


class RecoveryFailed(RuntimeError):
    """No Gauss-Newton restart converged; carries the best attempt."""

    def __init__(self, message, matrix=None, residual=None):
        super().__init__(message)
        self.matrix = matrix
        self.residual = residual


@dataclass(frozen=True)
class RecoveryResult:
    """A group-like series projecting onto the input level tensor."""

    series: TensorSeries
    multiplicity: int
    real_count: int
    root_choice: str


@dataclass(frozen=True)
class JacobianReport:
    family: str
    d: int
    k: int
    m: int
    parameter_count: int
    rank: int

    @property
    def projective_dim(self) -> int:
        return self.rank - 1


# --- universal n-to-1 recovery ---------------------------------------------


def _random_change(d: int, rng: random.Random) -> list:
    """Small invertible integer matrix."""
    while True:
        a = [[Fraction(rng.randint(-3, 3)) for _ in range(d)] for _ in range(d)]
        if exact_det(a) != 0:
            return a


def recover_group_element(
    tensor: LevelTensor, mode: str = "rational", seed: int = 0, attempts: int = 4
) -> RecoveryResult:
    """Reconstruct the group-like series from its top-level tensor.

    The leading coordinate is an n-th root of n! times the 1...1 entry
    (exact in rational mode, the positive real root for even order in real
    mode); lower levels follow by dividing shuffle forms by that
    coordinate.  When the 1...1 entry vanishes, or an even-order root has
    a negative radicand, a few seeded random linear changes of coordinates
    are tried before giving up.
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

    rng = random.Random(seed)
    saw_negative = False
    for attempt in range(attempts + 1):
        change = None if attempt == 0 else _random_change(tensor.d, rng)
        working = tensor if change is None else tensor_congruence(tensor, change)
        leading = working[(1,) * n]
        if leading == 0:
            continue
        base = math.factorial(n) * leading
        if mode == "rational":
            root = fraction_nth_root(Fraction(base), n)
            if root is None:
                if n % 2 == 0 and base < 0:
                    saw_negative = True
                    continue
                raise RootUnavailable("root unavailable in this scalar mode")
        else:
            if n % 2 == 0 and base < 0:
                saw_negative = True
                continue
            root = real_nth_root(float(base), n)
        series = _descend(working, root)
        if change is not None:
            inverse = matrix_inverse(change)
            if mode == "real":
                inverse = [[float(v) for v in row] for row in inverse]
            series = TensorSeries(
                series.d,
                series.n,
                [tensor_congruence(level, inverse) if level.k else level for level in series.levels],
            )
        if n % 2 == 1:
            real_count, choice = 1, "unique real root"
        else:
            real_count, choice = 2, "positive real root (sibling: negate odd levels)"
        if mode == "rational":
            choice = "exact rational root; " + choice
        return RecoveryResult(series, n, real_count, choice)
    if saw_negative:
        raise RootUnavailable("root unavailable in this scalar mode")
    raise NonGenericInput("non-generic input: the leading shuffle denominators vanish")


def _descend(tensor: LevelTensor, sigma1) -> TensorSeries:
    """Fill levels n-1 .. 1 downward from the top level, dividing by sigma1.

    Level k (2 <= k < n) at a word w is the shuffle form of (w, 1) on level
    k+1, over sigma1; on the level-(k+1) cube that form is the sum over the
    k+1 places p of the slice with letter 1 at place p.  Level 1 is read off
    the top cube instead: the form of ((i), 1^(n-1)) is the sum of the n
    one-axis slices with letter 1 on every other axis, scaled by
    (n-1)! / sigma1^(n-1); its first coordinate is sigma1 itself.
    """
    d, n = tensor.d, tensor.k
    levels: list = [None] * (n + 1)
    levels[0] = LevelTensor(d, 0, [sigma1 / sigma1])
    levels[n] = tensor
    if n >= 2:
        top = tensor.cube
        forms = sum(top[(0,) * p + (slice(None),) + (0,) * (n - 1 - p)] for p in range(n))
        vec = math.factorial(n - 1) * forms / sigma1 ** (n - 1)
        vec[0] = sigma1
        levels[1] = LevelTensor._from_array(d, 1, vec)
    for k in range(n - 1, 1, -1):
        upper = levels[k + 1].cube
        forms = sum(np.take(upper, 0, axis=p) for p in range(k + 1))
        levels[k] = LevelTensor._from_array(d, k, (forms / sigma1).reshape(-1))
    return TensorSeries(d, n, levels)


def negate_odd_levels(series: TensorSeries) -> TensorSeries:
    """The second real preimage for even order: scale level k by (-1)^k."""
    return series.eta_scale(-1)


# --- closed-form planar recovery at order 3 ---------------------------------


def _swapped_tensor(tensor: LevelTensor) -> LevelTensor:
    """The planar tensor with letters 1 and 2 exchanged in every word."""
    return LevelTensor._from_array(2, tensor.k, np.flip(tensor.cube).reshape(-1))


def _kernel_point(rows: list) -> tuple:
    """Unique (up to scale) kernel vector of an exact matrix, else error."""
    cols = len(rows[0])
    echelon = _eliminate(rows)
    if cols - len(echelon.pivots) != 1:
        raise DegenerateRecovery(
            f"relations determine a {cols - len(echelon.pivots)}-dimensional solution space"
        )
    sol = echelon.kernel_vector([int(c not in echelon.pivots) for c in range(cols)])
    # normalize to coprime integers with the first nonzero entry positive
    lcm = math.lcm(*(v.denominator for v in sol))
    ints = [int(v * lcm) for v in sol]
    g = math.gcd(*ints)
    ints = [v // g for v in ints]
    lead = next(v for v in ints if v != 0)
    if lead < 0:
        ints = [-v for v in ints]
    return tuple(Fraction(v) for v in ints)


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
def _core_level(family: str, m: int, k: int) -> LevelTensor:
    """The exact canonical core of a family, built once per (family, m, k)."""
    return canonical_axis(m, k) if family == "pl" else canonical_mono(m, k)


@functools.lru_cache(maxsize=32)
def _core_array(family: str, m: int, k: int, floats: bool) -> np.ndarray:
    """Read-only (m,)*k core of a family: float64, or object holding Fractions.

    Built once per (family, m, k, scalar mode); the float core is converted
    from the cached exact one, so each canonical core is computed once.
    """
    if floats:
        array = _core_array(family, m, k, False).astype(np.float64)
    else:
        array = _core_level(family, m, k).cube
    array.flags.writeable = False
    return array


def _image_and_jacobian(core: np.ndarray, x: np.ndarray):
    """Flat image core . X^(x)k and its (d*m) x d^k Jacobian.

    Closed form: d image / d X[a, b] = sum over modes p of the core
    contracted with X on every mode but p, with mode p fixed to b, placed
    where output letter p equals a.  Row a*m + b is the partial in X[a, b].
    Runs on float64 arrays, or on object arrays of Python Fractions/ints.
    """
    d, m = x.shape
    k = core.ndim
    partials = []
    for p in range(k):
        t = core
        for q in range(k):
            if q != p:
                t = _contract(t, x, q)
        partials.append(t)
    image = _contract(partials[0], x, 0).reshape(-1)
    jac = np.zeros((d, m) + (d,) * k, dtype=x.dtype)
    for p, t in enumerate(partials):
        t = np.moveaxis(t, p, 0)
        for a in range(d):
            jac[(a, slice(None)) + (slice(None),) * p + (a,)] += t
    return image, jac.reshape(d * m, d**k)


def _any_float(values) -> bool:
    return any(isinstance(v, (float, np.floating)) for v in values)


def signature_map(family: str, matrix: Sequence[Sequence], k: int) -> LevelTensor:
    """Order-k signature of the family member encoded by a d x m matrix.

    Float entries give a float result and exact entries an exact one.  On a
    matrix of `Dual` entries each output entry is Dual(value, J^T . B), where
    J is the closed-form Jacobian and B stacks the entries' derivative tuples
    (row-major), so Fraction seeds keep rational partials.
    """
    family = _family_name(family)
    rows = [list(r) for r in matrix]
    d = len(rows)
    m = len(rows[0]) if rows else 0
    if d < 1 or m < 1:
        raise ValueError(f"need a d x m matrix with d, m >= 1, got d={d}, m={m}")
    if any(len(r) != m for r in rows):
        raise ValueError("ragged matrix")
    flat = [v for r in rows for v in r]
    seeds = [v.b for v in flat if isinstance(v, Dual)]
    if not seeds:
        return tensor_congruence(_core_level(family, m, k), rows)
    values = [v.a if isinstance(v, Dual) else v for v in flat]
    floats = _any_float(values) or any(_any_float(b) for b in seeds)
    dtype = np.float64 if floats else object
    x = np.array(values, dtype=dtype).reshape(d, m)
    core = _core_array(family, m, k, floats)
    width = len(seeds[0])
    tangents = [v.b if isinstance(v, Dual) else (0,) * width for v in flat]
    if any(len(b) != width for b in tangents):
        raise ValueError("Dual entries carry derivative tuples of different lengths")
    image, jac = _image_and_jacobian(core, x)
    partials = jac.T @ np.array(tangents, dtype=dtype).reshape(d * m, width)
    return LevelTensor(d, k, [Dual(v, b) for v, b in zip(image.tolist(), partials.tolist())])


# --- Jacobian ranks ----------------------------------------------------------


def jacobian_rank(
    family: str, d: int, k: int, m: int, seed_count: int = 3, seed: int = 0
) -> JacobianReport:
    """Exact rank of the (d*m) x d^k Jacobian of the parametrization.

    The closed-form Jacobian is evaluated exactly at random rational
    points; the report keeps the maximum rank over the seeds.  Scaling the
    core by L and the point by D scales the Jacobian by L * D^(k-1) and
    keeps its rank, so the kernel runs on Python ints.
    """
    if d < 1 or m < 1 or k < 1:
        raise ValueError(f"need d, m, k >= 1, got d={d}, m={m}, k={k}")
    core = _core_level(_family_name(family), m, k).as_integers()[0].reshape((m,) * k)
    rng = random.Random(seed)
    best = 0
    for _ in range(seed_count):
        point = [
            [Fraction(rng.randint(1, 12), rng.randint(1, 4)) * (-1) ** rng.randint(0, 1) for _ in range(m)]
            for _ in range(d)
        ]
        _, jac = _image_and_jacobian(core, _integer_multiple(np.array(point, dtype=object))[0])
        best = max(best, exact_rank(jac.tolist()))
    return JacobianReport(family, d, k, m, d * m, best)


# --- damped Gauss-Newton recovery --------------------------------------------


@dataclass(frozen=True)
class GaussNewtonResult:
    matrix: np.ndarray
    residual: float
    converged: bool
    restarts_used: int
    iterations: int


def gauss_newton_recover(
    family: str,
    d: int,
    m: int,
    k: int,
    tensor: LevelTensor,
    tol: float = 1e-10,
    max_iter: int = 200,
    restarts: int = 8,
    seed: int = 0,
) -> GaussNewtonResult:
    """Least-squares path recovery by damped Gauss-Newton (float mode).

    Minimizes the squared distance between the family signature of a d x m
    matrix and the target tensor.  Each evaluation computes the image and
    the closed-form multilinear Jacobian on the cached float core.  Restarts
    draw seeded random starting matrices; a start whose gradient is exactly
    zero (the zero matrix at k >= 3) is abandoned, since no damped step can
    leave it.  The best residual wins, and RecoveryFailed (carrying the best
    attempt) is raised when no restart meets tol.
    """
    if k < 3:
        raise ValueError("need k >= 3 for tensor recovery")
    if (tensor.d, tensor.k) != (d, k):
        raise ValueError(f"tensor has d={tensor.d}, k={tensor.k}, but d={d}, k={k} were given")
    core = _core_array(_family_name(family), m, k, True)
    target = np.asarray([float(v) for v in tensor.entries])
    denom = float(np.linalg.norm(target)) or 1.0
    rng = random.Random(seed)
    scale = (np.linalg.norm(target) * math.factorial(k)) ** (1.0 / k) / max(1.0, math.sqrt(d * m))
    scale = float(scale) if scale > 0 else 1.0

    starts = [np.zeros((d, m))]
    starts += [
        np.array([[rng.gauss(0.0, scale + 1e-3) for _ in range(m)] for _ in range(d)])
        for _ in range(max(0, restarts - 1))
    ]

    best = (math.inf, starts[0], False, 0, 0)
    for restart_index, x0 in enumerate(starts):
        x = x0.copy()
        lam = 1e-3
        stalled = 0
        residual, jac = _residual_and_jacobian(core, x, target)
        norm = float(np.linalg.norm(residual)) / denom
        iterations = 0
        for iterations in range(1, max_iter + 1):
            if norm < tol:
                break
            g = jac @ residual
            if not g.any():
                break
            h = jac @ jac.T
            accepted = False
            for _ in range(40):
                try:
                    step = np.linalg.solve(h + lam * np.eye(d * m), -g)
                except np.linalg.LinAlgError:
                    lam = min(lam * 10.0, 1e12)
                    continue
                trial = x + step.reshape(d, m)
                trial_res, trial_jac = _residual_and_jacobian(core, trial, target)
                trial_norm = float(np.linalg.norm(trial_res)) / denom
                if trial_norm < norm:
                    x, residual, jac, norm = trial, trial_res, trial_jac, trial_norm
                    lam = max(lam / 10.0, 1e-14)
                    accepted = True
                    break
                lam = min(lam * 10.0, 1e12)
            if not accepted:
                stalled += 1
                if stalled >= 3:
                    break
        if norm < best[0]:
            best = (norm, x.copy(), norm < tol, restart_index + 1, iterations)
        if norm < tol:
            break
    residual, matrix, converged, used, iterations = (
        best[0],
        best[1],
        best[2],
        best[3],
        best[4],
    )
    if not converged:
        raise RecoveryFailed(
            f"recovery failed: best relative residual {residual:.3e} after {used} restarts",
            matrix=matrix,
            residual=residual,
        )
    return GaussNewtonResult(matrix, residual, converged, used, iterations)


def _residual_and_jacobian(core: np.ndarray, x: np.ndarray, target: np.ndarray):
    image, jac = _image_and_jacobian(core, x)
    return image - target, jac
