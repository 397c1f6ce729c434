"""Uniform midpoint grids on the symmetric interval [-L, L].

All numerics in this package live on one grid family: N cells of width
h = 2L/N, sampled at cell midpoints.  Midpoint sampling never touches x = 0,
so power weights |x|^alpha stay finite on the grid while their cell averages
converge to the continuum ones.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError

__all__ = ["Grid"]


@dataclass(frozen=True)
class Grid:
    """Geometry of a uniform midpoint grid over [-L, L]; N is a power of two."""

    L: float
    N: int

    def __post_init__(self):
        if not (0 < self.L and 2.0 * self.L < np.inf):  # h = 2L/N must be finite
            raise DomainError(f"half-width must be positive with 2L finite, got {self.L}")
        if self.N < 2 or self.N & (self.N - 1) != 0:
            raise DomainError(f"sample count must be a power of two >= 2, got {self.N}")
        if self.h < np.finfo(float).tiny:  # a subnormal h loses its precision
            raise DomainError(
                f"half-width {self.L} is too small for N={self.N}: the cell width 2L/N is subnormal"
            )

    @property
    def h(self) -> float:
        return 2.0 * self.L / self.N

    def x(self) -> np.ndarray:
        """Midpoint coordinates, strictly increasing, symmetric about 0."""
        i = np.arange(self.N, dtype=float)
        return -self.L + (i + 0.5) * self.h

    def require_same(self, other: "Grid", what: str = "grids") -> None:
        if self != other:
            raise DomainError(
                f"{what} differ: (L={self.L}, N={self.N}) vs (L={other.L}, N={other.N})"
            )
