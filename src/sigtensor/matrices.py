"""Signature matrices: pencil split, exact rank, pfaffians, membership.

An order-2 signature tensor S splits into a symmetric part P and a skew
part Q.  S comes from an m-piece piecewise-linear path (equivalently a
degree-m polynomial path) exactly when rank(P) <= 1 and the concatenated
d x 2d matrix [P Q] has rank <= m; the generating equations are 2-minors
of P together with pfaffian data of Q.  A float congruence transports the
monomial matrix onto the axis matrix constructively.

Each function reads its matrix once (`_read_matrix`): exact as A / L, Python
ints over one denominator, float as float64.  An exact S = A / L has the pencil
B = A + A^T and C = A - A^T over 2L (`_pencil`); ranks, minors, sub-pfaffians
and P C_m(Q) are taken on B and C, and become `Fraction`s once, at the end.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .paths import _core_level
from .scalars import NumericalFailure, integer_multiple, scalar_mode
from .tensor import LevelTensor


def _read_matrix(matrix, square: bool = False, exact: bool = False) -> tuple:
    """(mode, A, L): rows, a numpy array or an order-2 `LevelTensor` (its cube) as a new
    2-d array over L.  Exact entries (`scalar_mode`) give mode `int` or `Fraction` and
    Python ints, matrix == A / L; floats, also beside exact entries, give float64 over 1,
    or with `exact` their rationals; other entries (bools) are read as `Fraction`s.
    Ragged, non-square (with `square`) and non-finite matrices are refused."""
    if isinstance(matrix, LevelTensor):
        if matrix.k != 2:
            raise ValueError("expected an order-2 tensor")
        matrix = matrix.cube
    if isinstance(matrix, np.ndarray):
        matrix = matrix.tolist()
    rows = [list(r) for r in matrix]
    if rows and any(len(r) != len(rows[0]) for r in rows):
        raise ValueError("ragged matrix")
    if square and any(len(r) != len(rows) for r in rows):
        raise ValueError("matrix must be square")
    shape = (len(rows), len(rows[0]) if rows else 0)
    mode, values = scalar_mode(v for row in rows for v in row)
    if mode not in (int, Fraction):
        if any(isinstance(v, float) and not math.isfinite(v) for v in values):
            raise ValueError("matrix entries must be finite")
        if mode is float and not exact:
            return float, np.array(values, dtype=np.float64).reshape(shape), 1
        mode, values = Fraction, [Fraction(v) for v in values]
    array, scale = integer_multiple(values)
    return mode, array.reshape(shape), scale


def _scalars(mode, values: np.ndarray, den: int) -> list:
    """values / den as nested lists of floats (float mode), ints (int mode over 1) or `Fraction`s."""
    if mode is float or mode is int and den == 1:
        return values.tolist()
    return np.frompyfunc(lambda v: Fraction(v, den), 1, 1)(values).tolist()


def matrix_to_tensor(rows: Sequence[Sequence]) -> LevelTensor:
    mode, array, scale = _read_matrix(rows, square=True)
    return LevelTensor(len(array), 2, _scalars(mode, array.reshape(-1), scale))


@dataclass(frozen=True)
class MatrixPencil:
    """Symmetric part P and skew-symmetric part Q with P + Q = S."""

    P: tuple
    Q: tuple

    @property
    def d(self):
        return len(self.P)

    def reconstruct(self) -> list:
        return [[p + q for p, q in zip(prow, qrow)] for prow, qrow in zip(self.P, self.Q)]


def _pencil(matrix) -> tuple:
    """(mode, B, C, D) with P = B / D, Q = C / D: exact, the integer arrays B = A + A^T
    and C = A - A^T over D = 2L of a matrix A / L; float, P and Q over D = 1."""
    mode, a, scale = _read_matrix(matrix, square=True)
    b, c = a + a.T, a - a.T
    return (mode, b / 2, c / 2, 1) if mode is float else (mode, b, c, 2 * scale)


def split_pencil(matrix) -> MatrixPencil:
    """Exact halves S = P + Q with P symmetric and Q skew."""
    mode, b, c, den = _pencil(matrix)
    return MatrixPencil(*(tuple(map(tuple, _scalars(mode, x, den))) for x in (b, c)))


# --- exact linear algebra -------------------------------------------------


@dataclass(frozen=True)
class _Echelon:
    """Integer echelon form of an integer matrix A.

    `rows` is the (n_rows x n_cols) object array of Python ints that
    fraction-free (Bareiss) elimination leaves from A, so the k-th pivot is
    a k x k minor of A; `sign` is the sign of the row swaps and `pivots` the
    pivot column of each row, in order.
    """

    rows: np.ndarray
    pivots: tuple
    sign: int

    def kernel_vector(self, free: Sequence) -> list:
        """Solution v of rows @ v = 0 that agrees with `free` off the pivots."""
        v = [Fraction(x) for x in free]
        for row, col in reversed(list(zip(self.rows.tolist(), self.pivots))):
            total = sum(row[c] * v[c] for c in range(col + 1, len(v)) if row[c])
            v[col] = -Fraction(total) / row[col]
        return v


def _eliminate(work: np.ndarray) -> _Echelon:
    """Fraction-free forward elimination, in place, of an object array of Python
    ints.  Each pivot clears its column below it and updates the rows below in
    one array expression (its division by the previous pivot is exact); stops
    once every row has a pivot."""
    n_rows, n_cols = work.shape
    pivots, sign, prev = [], 1, 1
    for col in range(n_cols):
        top = len(pivots)
        if top == n_rows:
            break
        pivot = next((r for r in range(top, n_rows) if work[r, col]), None)
        if pivot is None:
            continue
        if pivot != top:
            work[[top, pivot]] = work[[pivot, top]]
            sign = -sign
        p = work[top, col]
        below = work[top + 1 :]
        below[:, col:] = (p * below[:, col:] - np.multiply.outer(below[:, col], work[top, col:])) // prev
        prev = p
        pivots.append(col)
    return _Echelon(work, tuple(pivots), sign)


#: The one word-size prime of residue arithmetic (`_residues`, `_rank_mod_p`
#: and the residue Jacobians of `recovery.jacobian_rank`): below 2^28, so a
#: sum of up to 127 products of two residues, 127 (p-1)^2, fits in int64.
_PRIME = 2**28 - 57


def _residues(array: np.ndarray) -> np.ndarray:
    """The int64 residues mod _PRIME, in [0, _PRIME), of an object array of Python ints."""
    return (array % _PRIME).astype(np.int64)


def _rank_mod_p(residues: np.ndarray) -> int:
    """Rank over GF(_PRIME) of a matrix given by its int64 residues (`_residues`).

    Row reduction on a copy: each pivot row is scaled to a leading 1 and
    cleared from the rows below in one array update.
    """
    work = residues.copy()
    n_rows, n_cols = work.shape
    top = 0
    for col in range(n_cols):
        if top == n_rows:
            break
        nonzero = np.flatnonzero(work[top:, col])
        if not nonzero.size:
            continue
        pivot = top + int(nonzero[0])
        if pivot != top:
            work[[top, pivot]] = work[[pivot, top]]
        row = work[top, col:] * pow(int(work[top, col]), -1, _PRIME) % _PRIME
        below = work[top + 1 :, col:]
        below -= np.multiply.outer(below[:, 0], row)
        below %= _PRIME
        top += 1
    return top


def _certified_rank(residues: np.ndarray, exact) -> tuple:
    """(rank, certified): the rank over Q of an integer matrix A from its int64
    residues mod _PRIME, and whether the residues alone decided it.

    A nonzero minor mod p is a nonzero integer, so rank_p <= rank(A) <=
    min(rows, cols), and a full rank_p is returned as proved (certified).  A
    lower one may only mean that p divides every maximal minor, so the rank
    then comes from Bareiss elimination of `exact()`, which builds A as an
    object array of Python ints (not certified).
    """
    full = min(residues.shape)
    if _rank_mod_p(residues) == full:
        return full, True
    return len(_eliminate(exact()).pivots), False


def _rank(mode, array: np.ndarray) -> int:
    """Rank of an array read by `_read_matrix`: `_certified_rank` or `_float_rank`."""
    if mode is float:
        return _float_rank(np.linalg.svd(array, compute_uv=False))
    return _certified_rank(_residues(array), array.copy)[0]


def exact_rank(matrix) -> int:
    """Rank of a matrix, certified mod a prime or by fraction-free elimination.

    An exact matrix A / L has the rank of A (`_certified_rank`); a float one
    counts its singular values above 1e-9 * sigma_max.
    """
    return _rank(*_read_matrix(matrix)[:2])


def _float_rank(singular_values: np.ndarray) -> int:
    """The rank of a float matrix: its singular values above 1e-9 * sigma_max."""
    return int(np.sum(singular_values > 1e-9 * singular_values[0]))


def exact_det(matrix):
    """Determinant of M = A / L: sign times the last fraction-free pivot, over L^n."""
    _, array, scale = _read_matrix(matrix, square=True, exact=True)
    if not len(array):
        return Fraction(1)
    echelon = _eliminate(array)
    if len(echelon.pivots) < len(array):
        return Fraction(0)
    return Fraction(echelon.sign * echelon.rows[-1, -1], scale ** len(array))


def matrix_inverse(matrix) -> list:
    """Exact inverse, read off the kernel of [A | L*I]: column j solves M x = e_j."""
    _, array, scale = _read_matrix(matrix, square=True, exact=True)
    n = len(array)
    echelon = _eliminate(np.hstack([array, scale * np.eye(n, dtype=object)]))
    if echelon.pivots != tuple(range(n)):
        raise ValueError("matrix is singular")
    columns = [echelon.kernel_vector([0] * n + [-int(i == j) for i in range(n)]) for j in range(n)]
    return [[columns[j][i] for j in range(n)] for i in range(n)]


# --- pfaffians and circuit matrices ----------------------------------------


def pfaffian(matrix, subset: Sequence[int] | None = None):
    """Pfaffian of a skew matrix (or of its principal submatrix on subset), by
    fraction-free skew elimination; its square is that principal minor.  Size s
    of M = A / L is Pf(A_sub) / L^(s/2): an int for int M, else a `Fraction`, a
    float for float M; the empty one is Fraction(1)."""
    mode, array, scale = _read_matrix(matrix, square=True)
    if (array != -array.T).any():
        raise ValueError("matrix is not skew-symmetric")
    idx = tuple(range(len(array))) if subset is None else tuple(subset)
    if len(idx) % 2 != 0:
        raise ValueError("pfaffian needs an even index set")
    if not idx:
        return Fraction(1)
    value = np.array([_pfaffian(array[np.ix_(idx, idx)])], dtype=array.dtype)
    return _scalars(mode, value, scale ** (len(idx) // 2))[0]


def _pfaffian(work: np.ndarray):
    """Pfaffian of an even-size skew array of Python ints (or floats), in place: each
    step swaps the largest entry of row 0 into (0, 1), in rows and columns (the sign
    flips), and sets a_ij <- (p a_ij - a_0i a_1j + a_0j a_1i) / prev, the pfaffian of a
    bordered principal submatrix, so on ints the division is exact; Pf = sign * last p."""
    divide = np.floor_divide if work.dtype == object else np.true_divide
    sign, prev = 1, 1
    while len(work):
        j = 1 + int(np.argmax(abs(work[0, 1:])))
        if not work[0, j]:
            return work.dtype.type(0)
        if j != 1:
            work[[1, j]] = work[[j, 1]]
            work[:, [1, j]] = work[:, [j, 1]]
            sign = -sign
        p, r, s = work[0, 1], work[0, 2:], work[1, 2:]
        work = work[2:, 2:]
        work[...] = divide(p * work - np.multiply.outer(r, s) + np.multiply.outer(s, r), prev)
        prev = p
    return sign * prev


def _circuit(c: np.ndarray, m: int) -> np.ndarray:
    """`circuit_matrix` of the skew array c in its dtype, over c's denominator^(m/2), and
    zero off each column's subset; each size-m sub-pfaffian is taken once."""
    pf = {s: _pfaffian(c[np.ix_(s, s)]) if s else Fraction(1) for s in itertools.combinations(range(len(c)), m)}
    subsets = list(itertools.combinations(range(len(c)), m + 1))
    circuit = np.zeros((len(c), len(subsets)), dtype=c.dtype)
    for col, s in enumerate(subsets):
        circuit[s, col] = [(-1) ** pos * pf[s[:pos] + s[pos + 1 :]] for pos in range(m + 1)]
    return circuit


def circuit_matrix(matrix, m: int) -> list:
    """d x C(d, m+1) matrix of signed sub-pfaffians (m even).

    Column I (an (m+1)-subset, in lexicographic order) has entry Fraction(0) at
    rows outside I and (-1)^pos * pfaffian(Q on I minus {i}) at row i, where pos
    is the 0-based position of i inside I.  Each column lies in ker(Q)
    whenever rank(Q) = m.
    """
    mode, array, scale = _read_matrix(matrix, square=True)
    if m % 2 != 0 or m < 0:
        raise ValueError("circuit matrix needs even m >= 0")
    if m + 1 > len(array):
        raise ValueError(f"no (m+1)-subsets of 1..{len(array)} for m={m}")
    if (array != -array.T).any():
        raise ValueError("matrix is not skew-symmetric")
    inside = [[i in s for s in itertools.combinations(range(len(array)), m + 1)] for i in range(len(array))]
    values = np.array(_scalars(mode, _circuit(array, m), scale ** (m // 2)), dtype=object)
    return np.where(inside, values, Fraction(0)).tolist()


# --- membership and generators ---------------------------------------------


def is_signature_matrix(matrix, m: int) -> bool:
    """Whether S = P + Q satisfies rank(P) <= 1 and rank([P Q]) <= m."""
    return signature_matrix_witness(matrix, m)[0]


def signature_matrix_witness(matrix, m: int):
    """Membership boolean plus a description of the violated rank condition."""
    mode, b, c, _ = _pencil(matrix)
    rank_p = _rank(mode, b)
    if rank_p > 1:
        return False, f"rank(P) = {rank_p} > 1"
    rank_pq = _rank(mode, np.hstack([b, c]))
    if rank_pq > m:
        return False, f"rank([P Q]) = {rank_pq} > {m}"
    return True, None


def signature_matrix_generators(matrix, m: int) -> list:
    """Values of the generating equations at S, for the given m.

    Odd m: 2-minors of P and (m+1)-pfaffians of Q.  Even m: 2-minors of P,
    (m+2)-pfaffians of Q, and the entries of P * C_m(Q).  All values vanish
    exactly on signature matrices of m-piece or degree-m paths.
    """
    if m < 1:
        raise ValueError("need m >= 1")
    mode, b, c, den = _pencil(matrix)
    d = len(b)
    pairs = np.array(list(itertools.combinations(range(d), 2)), dtype=int).reshape(-1, 2)
    first, second = np.triu_indices(len(pairs))
    (i, j), (k, l) = pairs[first].T, pairs[second].T
    size = m + 1 if m % 2 else m + 2
    top = [_pfaffian(c[np.ix_(s, s)]) for s in itertools.combinations(range(d), size)]
    parts = [(b[i, k] * b[j, l] - b[i, l] * b[j, k], 2), (np.array(top, dtype=c.dtype), size // 2)]
    if m % 2 == 0:
        parts.append(((b @ _circuit(c, m)).reshape(-1), m // 2 + 1))
    return [v for values, power in parts for v in _scalars(mode, values, den**power)]


# --- canonical matrices and the constructive congruence ---------------------


def _core_matrix(family: str, d: int, m: int | None) -> list:
    """d x d matrix with an order-2 canonical core in its upper-left m x m block."""
    m = d if m is None else m
    if not 1 <= m <= d:
        raise ValueError("need 1 <= m <= d")
    values, den = _core_level(family, m, 2).as_integers()
    out = [[Fraction(0)] * d for _ in range(d)]
    for row, block in zip(out, _scalars(Fraction, values.reshape(m, m), den)):
        row[:m] = block
    return out


def axis_matrix(d: int, m: int | None = None) -> list:
    """d x d matrix with the order-2 axis core in its upper-left m x m block."""
    return _core_matrix("pl", d, m)


def mono_matrix(d: int, m: int | None = None) -> list:
    """d x d matrix with the order-2 monomial core in its upper-left block."""
    return _core_matrix("poly", d, m)


def _cauchy_det(d: int, shift: int) -> Fraction:
    """d! * prod over i < j of (j-i)^2, over the product of (i+j+shift) for i, j in 1..d."""
    if d < 1:
        raise ValueError("need d >= 1")
    pairs = itertools.combinations(range(1, d + 1), 2)
    num = math.factorial(d) * math.prod((j - i) ** 2 for i, j in pairs)
    return Fraction(num, math.prod(i + j + shift for i in range(1, d + 1) for j in range(1, d + 1)))


def mono_matrix_det(d: int):
    """Closed form for det of the order-2 monomial matrix (Cauchy-type)."""
    return _cauchy_det(d, 0)


def mono_slice_matrix(d: int) -> list:
    """First slice of the order-3 monomial core: entry (j,k) = jk/((j+1)(j+k+1))."""
    values, den = _core_level("poly", d, 3).as_integers()
    return _scalars(Fraction, values[: d * d].reshape(d, d), den)


def mono_slice_det(d: int):
    """Closed form for det of the order-3 monomial first slice."""
    return _cauchy_det(d, 1) / (d + 1)


def mono_to_axis_congruence(d: int, tol: float = 1e-8) -> np.ndarray:
    """Invertible float H with H * mono_matrix(d) * H^T = axis_matrix(d).

    Built inductively: each dimension step solves the border equations for
    the new row parametrically in the corner entry y, selects the real root
    of the single quadratic that makes the block identity hold, and keeps
    the candidate with the smaller residual.  Raises NumericalFailure when
    the final residual exceeds tol.
    """
    if d < 1:
        raise ValueError("need d >= 1")
    h = np.array([[1.0]])
    for size in range(1, d):
        m_big, target = (_core_level(family, size + 1, 2).to_float().cube for family in ("poly", "pl"))
        row = m_big[size, :size]
        a_mat = m_big[:size, :size] @ h.T
        x0 = np.linalg.solve(a_mat.T, np.ones(size))
        x1 = np.linalg.solve(a_mat.T, -(row @ h.T))
        # y * (row . x(y) + y/2) = 1/2 with x(y) = x0 + y*x1
        qa = float(row @ x1) + 0.5
        qb = float(row @ x0)
        roots = np.roots([qa, qb, -0.5]) if abs(qa) > 1e-14 else np.array([0.5 / qb])
        best = None
        for y in roots:
            if abs(y.imag) > 1e-9:
                continue
            y = float(y.real)
            x = x0 + y * x1
            cand = np.zeros((size + 1, size + 1))
            cand[0, :size] = x
            cand[0, size] = y
            cand[1:, :size] = h
            residual = np.max(np.abs(cand @ m_big @ cand.T - target))
            if best is None or residual < best[0]:
                best = (residual, cand)
        if best is None:
            raise NumericalFailure(f"no real root at dimension {size + 1}")
        h = best[1]
    mono, axis = (_core_level(family, d, 2).to_float().cube for family in ("poly", "pl"))
    final = np.max(np.abs(h @ mono @ h.T - axis))
    if final > tol:
        raise NumericalFailure(f"congruence residual {final:.3e} exceeds {tol:.1e}")
    return h
