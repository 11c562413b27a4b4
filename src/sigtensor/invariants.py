"""Invariants separating path families at fixed tensor shapes.

For 2x2x2x2 tensors the two linear forms l1, l2 have a constant ratio on
each congruence orbit; planar two-step and quadratic paths are told apart
by a triple of quadrics that differ in a single integer coefficient (9 for
two-step data, 10 for quadratic data).  The signed volume form applies to
order-d tensors in dimension d.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

from .tensor import LevelTensor


@dataclass(frozen=True)
class LinearInvariants:
    """Values of the applicable linear invariants; None where shape forbids."""

    l1: object = None
    l2: object = None
    volume: object = None


def _perm_sign(perm) -> int:
    """The sign of a permutation: -1 to the number of its inversions."""
    return (-1) ** sum(a > b for a, b in itertools.combinations(perm, 2))


def volume_invariant(tensor: LevelTensor):
    """Alternating sum over permutation words; zero on co-dimension-1 data."""
    if tensor.k != tensor.d:
        raise ValueError("volume invariant needs order equal to dimension")
    total = 0
    for perm in itertools.permutations(range(tensor.d)):
        word = tuple(p + 1 for p in perm)
        total = total + _perm_sign(perm) * tensor[word]
    return total


def linear_invariants(tensor: LevelTensor) -> LinearInvariants:
    """Evaluate l1, l2 (d=2, k=4) and/or the volume form (k=d)."""
    l1 = l2 = vol = None
    if tensor.d == 2 and tensor.k == 4:
        l1 = (
            tensor[(1, 2, 1, 2)]
            - tensor[(1, 2, 2, 1)]
            - tensor[(2, 1, 1, 2)]
            + tensor[(2, 1, 2, 1)]
        )
        l2 = (
            tensor[(1, 1, 2, 2)]
            - tensor[(1, 2, 2, 1)]
            - tensor[(2, 1, 1, 2)]
            + tensor[(2, 2, 1, 1)]
        )
    if tensor.k == tensor.d:
        vol = volume_invariant(tensor)
    if l1 is None and vol is None:
        raise ValueError(f"no linear invariant for shape d={tensor.d}, k={tensor.k}")
    return LinearInvariants(l1=l1, l2=l2, volume=vol)


def module_coordinates(tensor: LevelTensor) -> dict:
    """Decompose a 2x2x2 tensor into symmetric/mixed module coordinates.

    Inverts the change of basis in which the separating quadrics are stated:
    alpha spans the symmetric part, (beta, gamma) the two mixed parts.
    """
    if tensor.d != 2 or tensor.k != 3:
        raise ValueError("module coordinates need d=2, k=3")
    s = tensor.__getitem__
    a2 = (s((1, 1, 2)) + s((1, 2, 1)) + s((2, 1, 1))) * Fraction(1, 6)
    a3 = (s((1, 2, 2)) + s((2, 1, 2)) + s((2, 2, 1))) * Fraction(1, 6)
    return {
        "alpha1": s((1, 1, 1)) * Fraction(1, 6),
        "alpha2": a2,
        "alpha3": a3,
        "alpha4": s((2, 2, 2)) * Fraction(1, 6),
        "beta1": 2 * a2 - s((1, 1, 2)),
        "gamma1": 2 * a2 - s((1, 2, 1)),
        "beta2": 2 * a3 - s((2, 2, 1)),
        "gamma2": 2 * a3 - s((2, 1, 2)),
    }


def quadric_family_eval(tensor: LevelTensor, family: str) -> tuple:
    """Evaluate the three separating quadrics on a 2x2x2 tensor.

    family "P" uses coefficient 10 and vanishes on quadratic-path data;
    family "L" uses coefficient 9 and vanishes on two-step data.
    """
    if family not in ("P", "L"):
        raise ValueError("family must be 'P' (quadratic) or 'L' (two-step)")
    c = 10 if family == "P" else 9
    m = module_coordinates(tensor)
    a1, a2, a3, a4 = m["alpha1"], m["alpha2"], m["alpha3"], m["alpha4"]
    b1, g1, b2, g2 = m["beta1"], m["gamma1"], m["beta2"], m["gamma2"]
    return (
        (2 * b1 + g1) ** 2 - c * (a2 * g1 + 3 * a1 * g2),
        (2 * b1 + g1) * (2 * b2 + g2) + c * (a3 * g1 + a2 * g2),
        (2 * b2 + g2) ** 2 - c * (a3 * g2 + 3 * a4 * g1),
    )
