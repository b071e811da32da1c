"""Cutoff samples: complex integral values on an ascending grid of cutoffs.

The container that ``integrate`` writes and ``fit`` and ``regularize`` read.
It holds tuples of Python floats and complex numbers and imports no numpy, so
a stage that reads samples from a CSV file loads neither numpy nor the
quadrature modules; :mod:`scatreg.ballquad` re-exports it.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field

__all__ = ["CutoffSamples"]


def _column(items, kind):
    """``items`` as a tuple of ``kind``; a scalar or an array of more than one
    dimension is refused."""
    if getattr(items, "ndim", 1) == 1:
        try:
            return tuple(map(kind, items))
        except TypeError:
            pass
    raise ValueError("grid, values and errors must be 1-d and congruent")


@dataclass(frozen=True)
class CutoffSamples:
    """Complex integral values on an ascending grid of positive cutoff radii,
    with finite, non-negative error estimates."""

    grid: tuple
    values: tuple
    errors: tuple = field(default=None)

    def __post_init__(self):
        grid = _column(self.grid, float)
        values = _column(self.values, complex)
        errors = (0.0,) * len(grid) if self.errors is None else _column(self.errors, float)
        if not len(values) == len(errors) == len(grid):
            raise ValueError("grid, values and errors must be 1-d and congruent")
        if not all(b > a for a, b in zip(grid, grid[1:])):
            raise ValueError("cutoff grid must be strictly ascending")
        if not (all(map(math.isfinite, grid)) and all(map(cmath.isfinite, values))):
            raise ValueError("cutoff samples must be finite")
        if not all(L > 0 for L in grid):
            raise ValueError("cutoffs must be positive")
        if not all(math.isfinite(e) and e >= 0 for e in errors):
            raise ValueError("error estimates must be finite and non-negative")
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "errors", errors)

    def __len__(self):
        return len(self.grid)
