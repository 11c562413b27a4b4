"""Dual numbers as value-and-tangent records for `recovery.signature_map`.

A Dual carries a value `a` and a tuple `b` of partial derivatives.  It has
no ring operations: `recovery.signature_map` accepts a matrix of Duals and
returns Duals, computed from the closed-form multilinear Jacobian, and no
tensor operation computes with Duals, since a level of them only holds its
entries.
"""

from __future__ import annotations

from typing import Sequence


class Dual:
    __slots__ = ("a", "b")

    def __init__(self, a, b: tuple):
        self.a = a
        self.b = tuple(b)

    def __repr__(self):
        return f"Dual({self.a}, {self.b})"

    def __add__(self, other):
        """The Dual whose value is moved by the scalar `other`, its tangent kept.  No package code adds
        to a Dual; the benchmark self-tests (`bench/tests/test_bench.py` `corrupt`) add 1 to an entry of
        a `signature_map` output to check that its oracle rejects it."""
        return Dual(self.a + other, self.b)


def seed_matrix(matrix: Sequence[Sequence]) -> list:
    """Seed every entry of a matrix with its own partial direction."""
    rows = [list(r) for r in matrix]
    total = sum(len(r) for r in rows)
    out = []
    index = 0
    for row in rows:
        seeded = []
        for value in row:
            basis = [0] * total
            basis[index] = 1
            seeded.append(Dual(value, tuple(basis)))
            index += 1
        out.append(seeded)
    return out
