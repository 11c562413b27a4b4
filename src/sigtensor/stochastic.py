"""Expected signatures of Brownian paths, mixtures, and Gaussian moments.

The expected signature of a Brownian path with drift mu and covariance
Sigma is the tensor exponential of mu + Sigma/2; a skew perturbation Q of
the second-level data (non-reversible noise) adds Q to the exponent.
Mixtures are convex combinations of component series, and every moment of
the underlying Gaussian is a shuffle linear form in the series, a multiple
of a sum of entries (`gaussian_moment`).
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .scalars import format_scalar, parse_list, parse_object, parse_rows, parse_scalar, scalar_mode
from .tensor import LevelTensor, TensorSeries, exp_series


@dataclass(frozen=True)
class BrownianModel:
    """Drift mu, symmetric covariance sigma, optional skew perturbation q.

    Symmetry and skewness are enforced exactly; positive-definiteness is
    deliberately not (the algebra makes sense without it) but can be
    requested through validate(strict=True).
    """

    mu: tuple
    sigma: tuple
    q: tuple | None = None

    def __post_init__(self):
        mu = tuple(self.mu)
        sigma = tuple(tuple(r) for r in self.sigma)
        d = len(mu)
        if len(sigma) != d or any(len(r) != d for r in sigma):
            raise ValueError("sigma must be d x d")
        for i in range(d):
            for j in range(d):
                if sigma[i][j] != sigma[j][i]:
                    raise ValueError("sigma must be symmetric")
        q = None
        if self.q is not None:
            q = tuple(tuple(r) for r in self.q)
            if len(q) != d or any(len(r) != d for r in q):
                raise ValueError("q must be d x d")
            for i in range(d):
                for j in range(d):
                    if q[i][j] != -q[j][i]:
                        raise ValueError("q must be skew-symmetric")
        object.__setattr__(self, "mu", mu)
        object.__setattr__(self, "sigma", sigma)
        object.__setattr__(self, "q", q)

    @property
    def d(self):
        return len(self.mu)

    def validate(self, strict: bool = False) -> None:
        """strict=True additionally requires sigma to be positive semidefinite."""
        if strict:
            eigs = np.linalg.eigvalsh(np.asarray(self.sigma, dtype=float))
            if eigs.min() < -1e-12:
                raise ValueError("sigma is not positive semidefinite")

    def to_json(self) -> dict:
        data = {
            "mu": [format_scalar(v) for v in self.mu],
            "sigma": [[format_scalar(v) for v in r] for r in self.sigma],
            "q": None,
        }
        if self.q is not None:
            data["q"] = [[format_scalar(v) for v in r] for r in self.q]
        return data

    @classmethod
    def from_json(cls, data: dict, exact: bool = True) -> "BrownianModel":
        mu = tuple(parse_scalar(v, f"mu[{i}]", exact) for i, v in enumerate(parse_list(data["mu"], "mu")))
        sigma = tuple(map(tuple, parse_rows(data["sigma"], "sigma", exact)))
        q = data.get("q")
        if q is not None:
            q = tuple(map(tuple, parse_rows(q, "q", exact)))
        return cls(mu, sigma, q)


@dataclass(frozen=True)
class MixtureModel:
    """Weighted components; weights must sum to 1 (and be >= 0 unless signed)."""

    components: tuple
    signed: bool = False

    def __post_init__(self):
        comps = tuple((w, m) for w, m in self.components)
        if not comps:
            raise ValueError("a mixture needs at least one component")
        total = sum((w for w, _ in comps), Fraction(0))
        if total != 1:
            raise ValueError(f"mixture weights sum to {total}, expected 1")
        if not self.signed and any(w < 0 for w, _ in comps):
            raise ValueError("negative weight in an unsigned mixture")
        dims = {m.d for _, m in comps}
        if len(dims) != 1:
            raise ValueError("components must share one dimension")
        object.__setattr__(self, "components", comps)

    @property
    def d(self):
        return self.components[0][1].d

    def to_json(self) -> dict:
        return {
            "signed": self.signed,
            "components": [
                {"weight": format_scalar(w), "model": m.to_json()} for w, m in self.components
            ],
        }

    @classmethod
    def from_json(cls, data: dict, exact: bool = True) -> "MixtureModel":
        comps = []
        for i, raw in enumerate(parse_list(data["components"], "components")):
            c = parse_object(raw, f"components[{i}]")
            weight = parse_scalar(c["weight"], f"components[{i}].weight", exact)
            comps.append((weight, BrownianModel.from_json(parse_object(c["model"], f"components[{i}].model"), exact)))
        signed = data.get("signed", False)
        if not isinstance(signed, bool):
            raise ValueError(f"'signed' must be a JSON boolean (true or false), got {signed!r}")
        return cls(comps, signed=signed)


def drift_covariance_exponent(model: BrownianModel, n: int) -> TensorSeries:
    """The exponent mu + (sigma + 2q)/2 as a series (levels 1 and 2)."""
    d = model.d
    parts = []
    if n >= 1:
        parts.append(LevelTensor(d, 1, list(model.mu)))
    if n >= 2:
        value = Fraction(1, 2) * np.array(model.sigma, dtype=object)
        if model.q is not None:
            value = value + np.array(model.q, dtype=object)
        parts.append(LevelTensor(d, 2, value.reshape(-1).tolist()))
    # the constant and the other levels are zeros in the model's mode
    values = [*model.mu, *(v for row in model.sigma + (model.q or ()) for v in row)]
    zero = 0.0 if scalar_mode(values)[0] is float else Fraction(0)
    levels = [LevelTensor(d, 0, [zero]), *parts]
    levels += [LevelTensor.zeros(d, k, zero) for k in range(len(levels), n + 1)]
    return TensorSeries(d, n, levels)


def expected_signature(model: BrownianModel, n: int) -> TensorSeries:
    """Expected step-n signature: exp(mu + (sigma + 2q)/2).

    The result is generally not group-like; it is the exponential of an
    inhomogeneous element with a symmetric level-2 part.
    """
    return exp_series(drift_covariance_exponent(model, n))


def mixture_expected_signature(mixture: MixtureModel, n: int) -> TensorSeries:
    """Weighted sum of the component expected signatures."""
    total = None
    for weight, model in mixture.components:
        term = expected_signature(model, n).scale(weight)
        total = term if total is None else total.add(term)
    return total


def gaussian_moment(u: Sequence[int], series: TensorSeries):
    """Moment E(Z_1^u1 ... Z_d^ud) read off an expected-signature series.

    1^u1 ⧢ ... ⧢ d^ud holds each word of letter content u u1!...ud! times: the
    moment is that times the sum of level |u| at those words, in word order.
    """
    u = tuple(u)
    if len(u) != series.d:
        raise ValueError(f"multi-index length {len(u)} != dimension {series.d}")
    for i, v in enumerate(u):
        if not (isinstance(v, numbers.Real) and v >= 0 and v % 1 == 0):
            raise ValueError(f"multi-index entry u[{i}] = {v!r} is not an integer >= 0")
    u = tuple(map(int, u))
    d, total = series.d, sum(u)
    if total > series.n:
        raise ValueError(f"moment order {total} exceeds truncation {series.n}")
    # the words of level |u| with letter i + 1 taken u[i] times
    index, match = np.arange(d**total), np.ones(d**total, bool)
    for letter, power in enumerate(u):
        match &= sum(index // d**j % d == letter for j in range(total)) == power
    entries, acc = series.levels[total].entries, 0
    for i in np.flatnonzero(match).tolist():
        acc = acc + entries[i]
    return math.prod(map(math.factorial, u)) * acc
