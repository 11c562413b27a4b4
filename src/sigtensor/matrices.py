"""Signature matrices: pencil split, exact rank, pfaffians, membership.

An order-2 signature tensor S splits into a symmetric part P and a skew
part Q.  S comes from an m-piece piecewise-linear path (equivalently a
degree-m polynomial path) exactly when rank(P) <= 1 and the concatenated
d x 2d matrix [P Q] has rank <= m; the generating equations are 2-minors
of P together with pfaffian data of Q.  A float congruence transports the
monomial matrix onto the axis matrix constructively.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .paths import _core_level
from .scalars import integer_multiple, scalar_mode
from .tensor import LevelTensor


class NumericalFailure(RuntimeError):
    """A float construction failed to meet its tolerance."""


def _as_rows(matrix) -> list:
    if isinstance(matrix, LevelTensor):
        if matrix.k != 2:
            raise ValueError("expected an order-2 tensor")
        d = matrix.d
        return [[matrix.entries[i * d + j] for j in range(d)] for i in range(d)]
    rows = [list(r) for r in matrix]
    if rows and any(len(r) != len(rows[0]) for r in rows):
        raise ValueError("ragged matrix")
    return rows


def _square_rows(matrix) -> list:
    rows = _as_rows(matrix)
    if any(len(r) != len(rows) for r in rows):
        raise ValueError("matrix must be square")
    return rows


def matrix_to_tensor(rows: Sequence[Sequence]) -> LevelTensor:
    rows = _square_rows(rows)
    d = len(rows)
    return LevelTensor(d, 2, [rows[i][j] for i in range(d) for j in range(d)])


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


def split_pencil(matrix) -> MatrixPencil:
    """Exact halves S = P + Q with P symmetric and Q skew."""
    rows = _square_rows(matrix)
    d = len(rows)
    half = Fraction(1, 2)
    P = tuple(tuple(half * (rows[i][j] + rows[j][i]) for j in range(d)) for i in range(d))
    Q = tuple(tuple(half * (rows[i][j] - rows[j][i]) for j in range(d)) for i in range(d))
    return MatrixPencil(P, Q)


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


def _integer_matrix(rows: list) -> tuple:
    """(A, L): the matrix as A / L over the lcm L of its denominators
    (`scalars.integer_multiple`); entries that are not exact enter as `Fraction`s."""
    mode, values = scalar_mode(v for row in rows for v in row)
    array, scale = integer_multiple(values if mode in (int, Fraction) else [Fraction(v) for v in values])
    return array.reshape(len(rows), len(rows[0]) if rows else 0), scale


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


def _certified_rank(residues: np.ndarray, exact) -> int:
    """Rank over Q of an integer matrix A from its int64 residues mod _PRIME.

    A nonzero minor mod p is a nonzero integer, so rank_p <= rank(A) <=
    min(rows, cols), and a full rank_p is returned as proved.  A lower one
    may only mean that p divides every maximal minor, so the rank then comes
    from Bareiss elimination of `exact()`, which builds A as an object array
    of Python ints.
    """
    full = min(residues.shape)
    if _rank_mod_p(residues) == full:
        return full
    return len(_eliminate(exact()).pivots)


def exact_rank(matrix) -> int:
    """Rank of a matrix, certified mod a prime or by fraction-free elimination.

    An exact matrix M = A / L (numpy integers read as ints) has the rank of
    the integer matrix A, which `_certified_rank` takes.  Matrices whose
    scalar mode is not exact fall back to counting singular values above
    1e-9 * sigma_max.
    """
    rows = _as_rows(matrix)
    mode, values = scalar_mode(v for row in rows for v in row)
    shape = (len(rows), len(rows[0]) if rows else 0)
    if mode in (int, Fraction):
        array = integer_multiple(values)[0].reshape(shape)
        return _certified_rank(_residues(array), lambda: array)
    return _float_rank(np.linalg.svd(np.array(values, dtype=float).reshape(shape), compute_uv=False))


def _float_rank(singular_values: np.ndarray) -> int:
    """The rank of a float matrix: its singular values above 1e-9 * sigma_max."""
    return int(np.sum(singular_values > 1e-9 * singular_values[0]))


def exact_det(matrix):
    """Determinant of M = A / L: sign times the last fraction-free pivot, over L^n."""
    rows = _square_rows(matrix)
    if not rows:
        return Fraction(1)
    array, scale = _integer_matrix(rows)
    echelon = _eliminate(array)
    if len(echelon.pivots) < len(rows):
        return Fraction(0)
    return Fraction(echelon.sign * echelon.rows[-1, -1], scale ** len(rows))


def matrix_inverse(matrix) -> list:
    """Exact inverse, read off the kernel of [A | L*I]: column j solves M x = e_j."""
    rows = _square_rows(matrix)
    n = len(rows)
    array, scale = _integer_matrix(rows)
    echelon = _eliminate(np.hstack([array, scale * np.eye(n, dtype=object)]))
    if echelon.pivots != tuple(range(n)):
        raise ValueError("matrix is singular")
    columns = [echelon.kernel_vector([0] * n + [-int(i == j) for i in range(n)]) for j in range(n)]
    return [[columns[j][i] for j in range(n)] for i in range(n)]


# --- pfaffians and circuit matrices ----------------------------------------


def pfaffian(matrix, subset: Sequence[int] | None = None):
    """Pfaffian of a skew matrix (or of its principal submatrix on subset), by
    fraction-free skew elimination; its square is that principal minor."""
    rows = _square_rows(matrix)
    idx = tuple(range(len(rows))) if subset is None else tuple(subset)
    if len(idx) % 2 != 0:
        raise ValueError("pfaffian needs an even index set")
    return _sub_pfaffians(rows)(idx)


def _sub_pfaffians(rows: list):
    """Pfaffian of each principal submatrix of a skew matrix, by its index tuple: exact
    rows are read once as A / L (`_integer_matrix`), so size s gives Pf(A_sub) / L^(s/2),
    an int for int rows, else a `Fraction`; float rows give floats; () gives Fraction(1)."""
    mode = scalar_mode(v for row in rows for v in row)[0]
    array, scale = (np.array(rows, dtype=float), 1) if mode is float else _integer_matrix(rows)
    if (array != -array.T).any():
        raise ValueError("matrix is not skew-symmetric")

    def pf(idx: tuple):
        if not idx:
            return Fraction(1)
        value = _pfaffian(array[np.ix_(idx, idx)])
        return mode(value) if mode in (int, float) else Fraction(value, scale ** (len(idx) // 2))

    return pf


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
            return 0
        if j != 1:
            work[[1, j]] = work[[j, 1]]
            work[:, [1, j]] = work[:, [j, 1]]
            sign = -sign
        p, r, s = work[0, 1], work[0, 2:], work[1, 2:]
        work = work[2:, 2:]
        work[...] = divide(p * work - np.multiply.outer(r, s) + np.multiply.outer(s, r), prev)
        prev = p
    return sign * prev


def circuit_matrix(matrix, m: int) -> list:
    """d x C(d, m+1) matrix of signed sub-pfaffians (m even).

    Column I (an (m+1)-subset, in lexicographic order) has entry 0 at rows
    outside I and (-1)^pos * pfaffian(Q on I minus {i}) at row i, where pos
    is the 0-based position of i inside I.  Each column lies in ker(Q)
    whenever rank(Q) = m.
    """
    rows = _square_rows(matrix)
    if m % 2 != 0 or m < 0:
        raise ValueError("circuit matrix needs even m >= 0")
    if m + 1 > len(rows):
        raise ValueError(f"no (m+1)-subsets of 1..{len(rows)} for m={m}")
    return [list(row) for row in zip(*_circuit_columns(_sub_pfaffians(rows), len(rows), m))]


def _circuit_columns(pf, d: int, m: int):
    """The columns of `circuit_matrix`, one by one, from the sub-pfaffians `pf` of Q."""
    for subset in itertools.combinations(range(d), m + 1):
        col = [Fraction(0)] * d
        for pos, i in enumerate(subset):
            col[i] = (-1) ** pos * pf(subset[:pos] + subset[pos + 1 :])
        yield col


# --- membership and generators ---------------------------------------------


def is_signature_matrix(matrix, m: int) -> bool:
    """Whether S = P + Q satisfies rank(P) <= 1 and rank([P Q]) <= m."""
    ok, _ = signature_matrix_witness(matrix, m)
    return ok


def signature_matrix_witness(matrix, m: int):
    """Membership boolean plus a description of the violated rank condition."""
    pencil = split_pencil(matrix)
    rank_p = exact_rank(pencil.P)
    if rank_p > 1:
        return False, f"rank(P) = {rank_p} > 1"
    stacked = [list(prow) + list(qrow) for prow, qrow in zip(pencil.P, pencil.Q)]
    rank_pq = exact_rank(stacked)
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
    pencil = split_pencil(matrix)
    d = pencil.d
    P = [list(r) for r in pencil.P]
    Q = [list(r) for r in pencil.Q]
    values = []
    pairs = list(itertools.combinations(range(d), 2))
    for a, (i, j) in enumerate(pairs):
        for k, l in pairs[a:]:
            values.append(P[i][k] * P[j][l] - P[i][l] * P[j][k])
    pf = _sub_pfaffians(Q)
    values += [pf(subset) for subset in itertools.combinations(range(d), m + 1 if m % 2 else m + 2)]
    if m % 2 == 0:
        columns = list(_circuit_columns(pf, d, m))
        values += [sum((P[i][j] * col[j] for j in range(d)), Fraction(0)) for i in range(d) for col in columns]
    return values


# --- canonical matrices and the constructive congruence ---------------------


def _core_matrix(family: str, d: int, m: int | None) -> list:
    """d x d matrix with an order-2 canonical core in its upper-left m x m block."""
    m = d if m is None else m
    if not 1 <= m <= d:
        raise ValueError("need 1 <= m <= d")
    out = [[Fraction(0)] * d for _ in range(d)]
    for row, values in zip(out, _core_level(family, m, 2).cube.tolist()):
        row[:m] = values
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
    return _core_level("poly", d, 3).cube[0].tolist()


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
        m_small = np.array(mono_matrix(size), dtype=float)
        m_big = np.array(mono_matrix(size + 1), dtype=float)
        col = m_big[:size, size]
        row = m_big[size, :size]
        a_mat = m_small @ h.T
        ones = np.ones(size)
        x0 = np.linalg.solve(a_mat.T, ones)
        x1 = np.linalg.solve(a_mat.T, -(row @ h.T))
        # y * (row . x(y) + y/2) = 1/2 with x(y) = x0 + y*x1
        qa = float(row @ x1) + 0.5
        qb = float(row @ x0)
        roots = np.roots([qa, qb, -0.5]) if abs(qa) > 1e-14 else np.array([0.5 / qb])
        target = np.array(axis_matrix(size + 1), dtype=float)
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
    final = np.max(
        np.abs(h @ np.array(mono_matrix(d), dtype=float) @ h.T - np.array(axis_matrix(d), dtype=float))
    )
    if final > tol:
        raise NumericalFailure(f"congruence residual {final:.3e} exceeds {tol:.1e}")
    return h
