"""Muckenhoupt / reverse-Hoelder weights: power weights and grid weights.

Two layers over the exact class specifications of :mod:`extrapkit.exponents`
(:class:`WeightClassSpec`, with the index rule :func:`cjn_index`):

* closed-form membership for power weights |x|^alpha on the line,
* grid-based estimation of the class constants by a supremum of the
  defining functionals over dyadic subintervals of [-L, L].

The constructive factorization v = v1^(1/s) * v2^(1-p) with v1, v2 in A_1
is not built on grids; for power weights its exponent algebra reduces to
the closed forms below.

All closed forms are one-dimensional: on R (n = 1),

    |x|^alpha in A_p  <=>  -1 < alpha < p-1      (p > 1)
                      <=>  -1 < alpha <= 0       (p = 1)
    |x|^alpha in RH_s <=>  alpha > -1/s          (s < inf)
                      <=>  alpha >= 0            (s = inf)
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import DomainError
from .exponents import WeightClassSpec, rec
from .grid import Grid

__all__ = [
    "PowerWeight",
    "GridWeight",
    "power_in_class",
    "power_membership",
    "estimate_class_constants",
]


# --------------------------------------------------------------------------
# power weights
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class PowerWeight:
    """w(x) = |x|^alpha on the line; alpha is an exact rational."""

    alpha: Fraction

    def __post_init__(self):
        object.__setattr__(self, "alpha", Fraction(self.alpha))

    def on_grid(self, grid: Grid) -> "GridWeight":
        return GridWeight._checked(lambda: np.abs(grid.x()) ** float(self.alpha), f"|x|^{self.alpha}", grid)


def power_in_class(w: PowerWeight, spec: WeightClassSpec) -> bool:
    """Closed-form membership verdict for |x|^alpha in A_p & RH_s on R."""
    ok, _ = power_membership(w, spec)
    return ok


def power_membership(w: PowerWeight, spec: WeightClassSpec):
    """Membership verdict plus per-condition reasons (for reports)."""
    a = w.alpha
    p, s = spec.p, spec.s
    reasons = []

    if p == 1:
        in_ap = Fraction(-1) < a <= 0
        reasons.append(f"A_1 on R requires -1 < alpha <= 0: alpha={a} -> {in_ap}")
    else:
        in_ap = Fraction(-1) < a < p.frac - 1
        reasons.append(
            f"A_{p} on R requires -1 < alpha < p-1 = {p.frac - 1}: alpha={a} -> {in_ap}"
        )

    if s.is_inf:
        in_rh = a >= 0
        reasons.append(f"RH_inf on R requires alpha >= 0: alpha={a} -> {in_rh}")
    elif s == 1:
        in_rh = True
        reasons.append("RH_1 is trivial")
    else:
        bound = -rec(s)
        in_rh = a > bound
        reasons.append(
            f"RH_{s} on R requires alpha > -1/s = {bound}: alpha={a} -> {in_rh}"
        )

    return bool(in_ap and in_rh), reasons


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
    def unit(cls, grid: Grid) -> "GridWeight":
        return cls(np.ones(grid.N), grid)

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

    with np.errstate(over="ignore", divide="ignore"):
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
