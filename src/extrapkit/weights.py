"""Muckenhoupt / reverse-Hoelder weights on grids: power weights, grid
weights, and the estimation of the class constants of
:class:`~extrapkit.exponents.WeightClassSpec` by a supremum of the defining
functionals over dyadic subintervals of [-L, L].

The closed-form membership of a power weight |x|^alpha is exact and lives
in :mod:`extrapkit.exponents` (:func:`power_membership`).  The constructive
factorization v = v1^(1/s) * v2^(1-p) with v1, v2 in A_1 is not built on
grids; for power weights its exponent algebra reduces to those closed forms.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import DomainError
from .exponents import WeightClassSpec
from .grid import Grid

__all__ = [
    "PowerWeight",
    "GridWeight",
    "estimate_class_constants",
]


# --------------------------------------------------------------------------
# power weights
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class PowerWeight:
    """w(x) = |x|^alpha on the line, alpha an exact rational; alpha = 0 is the unit weight."""

    alpha: Fraction

    def __post_init__(self):
        object.__setattr__(self, "alpha", Fraction(self.alpha))

    def __str__(self) -> str:  # the report form
        return f"power:{self.alpha}" if self.alpha else "unit"

    def on_grid(self, grid: Grid) -> "GridWeight":
        return GridWeight._checked(lambda: np.abs(grid.x()) ** float(self.alpha), f"|x|^{self.alpha}", grid)


# --------------------------------------------------------------------------
# grid weights
# --------------------------------------------------------------------------


@dataclass(eq=False)
class GridWeight:
    """A strictly positive, finite weight sampled on a midpoint grid."""

    samples: np.ndarray
    grid: Grid

    def __post_init__(self):
        self.samples = np.asarray(self.samples, dtype=float)
        if self.samples.shape != (self.grid.N,):
            raise DomainError(
                f"expected {self.grid.N} samples, got shape {self.samples.shape}"
            )
        if not np.all(np.isfinite(self.samples)) or np.any(self.samples <= 0):
            raise DomainError("weight samples must be strictly positive and finite")

    @classmethod
    def _checked(cls, samples, what: str, grid: Grid) -> "GridWeight":
        """The weight samples() on grid; a DomainError naming `what` if they
        overflow or underflow to 0."""
        with np.errstate(over="ignore"):
            values = samples()
        fault = "overflows" if np.isinf(values).any() else None if values.all() else "underflows to 0"
        if fault:
            raise DomainError(f"the weight {what} {fault} on the grid (L={grid.L}, N={grid.N})")
        return cls(values, grid)

    def power(self, e) -> "GridWeight":
        """Pointwise self**e for a rational (possibly signed) exponent."""
        return GridWeight._checked(lambda: self.samples ** float(e), f"power w^{e}", self.grid)

    def __mul__(self, other: "GridWeight") -> "GridWeight":
        self.grid.require_same(other.grid, "weight grids")
        return GridWeight._checked(lambda: self.samples * other.samples, "product w1*w2", self.grid)


# --------------------------------------------------------------------------
# constant estimation on dyadic subintervals
# --------------------------------------------------------------------------


def estimate_class_constants(
    w: GridWeight, spec: WeightClassSpec, depth: int
) -> list[tuple[float, float]]:
    """Table of estimated ([w]_{A_p}, [w]_{RH_s}), one pass over the dyadic levels.

    Entry d-1, for d = 1..depth, is the supremum over every dyadic
    subinterval of [-L, L] from the whole interval down to d halvings, so
    the table is monotone nondecreasing.  Each interval must hold a sample:
    a depth outside 1..log2 N is a DomainError.

    Overflow is reported as +inf in the corresponding slot, never raised.
    """
    if depth < 1:
        raise DomainError(f"depth must be >= 1, got {depth}")
    v = w.samples
    if depth > v.size.bit_length() - 1:
        raise DomainError(f"depth {depth} needs at least 2^{depth} samples, got {v.size}")

    p, s = spec.p, spec.s
    pf = float(p.frac)

    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        if p == 1:
            dual = 1.0 / v
        else:
            pprime = pf / (pf - 1.0)
            dual = v ** (1.0 - pprime)
        vs = None if s.is_inf or s == 1 else v ** float(s.frac)

        table = []
        ap_best = 0.0
        rh_best = 0.0
        for level in range(depth + 1):
            k = 2**level  # dyadic subintervals of [-L, L] at this level
            mv = v.reshape(k, -1).mean(axis=1)
            if p == 1:
                ap = mv * dual.reshape(k, -1).max(axis=1)
            else:
                ap = mv * dual.reshape(k, -1).mean(axis=1) ** (pf - 1.0)
            ap_best = max(ap_best, float(np.max(ap)))

            if s == 1:
                rh = np.ones_like(mv)
            elif s.is_inf:
                rh = v.reshape(k, -1).max(axis=1) / mv
            else:
                rh = vs.reshape(k, -1).mean(axis=1) ** (1.0 / float(s.frac)) / mv
            rh_best = max(rh_best, float(np.max(rh)))
            if level:
                table.append((ap_best, rh_best))
    return table
