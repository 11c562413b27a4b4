"""Vector-mode forward differentiation with dual numbers.

A Dual carries a value and a tuple of partial derivatives and supports the
ring operations, so pushing Duals through any of the polynomial signature
maps yields exact Jacobians: rational partials for Fraction seeds, floats
for float seeds.

Dual stays the public forward-mode type: `recovery.signature_map` accepts a
matrix of Duals and returns Duals, but computes them from the closed-form
multilinear Jacobian rather than by Dual arithmetic.  Gauss-Newton and
`jacobian_rank` use that Jacobian directly.  `paths.tensor_congruence` of a
Dual matrix contracts object arrays, so its derivatives come from Dual
products alone; the tests keep it as the oracle for the closed form.
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

    def __bool__(self):
        return self.a != 0 or any(v != 0 for v in self.b)

    def _lift(self, other):
        if isinstance(other, Dual):
            return other
        return Dual(other, (0,) * len(self.b))

    def __add__(self, other):
        other = self._lift(other)
        return Dual(self.a + other.a, tuple(x + y for x, y in zip(self.b, other.b)))

    __radd__ = __add__

    def __neg__(self):
        return Dual(-self.a, tuple(-x for x in self.b))

    def __sub__(self, other):
        return self + (-self._lift(other))

    def __rsub__(self, other):
        return self._lift(other) + (-self)

    def __mul__(self, other):
        if isinstance(other, Dual):
            return Dual(
                self.a * other.a,
                tuple(self.a * y + x * other.a for x, y in zip(self.b, other.b)),
            )
        return Dual(self.a * other, tuple(x * other for x in self.b))

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, Dual):
            inv = 1 / other.a
            value = self.a * inv
            return Dual(value, tuple((x - value * y) * inv for x, y in zip(self.b, other.b)))
        return Dual(self.a / other, tuple(x / other for x in self.b))


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
