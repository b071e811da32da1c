"""Cutoff samples: complex integral values on an ascending grid of cutoffs.

The container that ``integrate`` writes and ``fit`` and ``regularize`` read.
It imports only numpy, so a stage that reads samples from a CSV file loads
none of the quadrature modules; :mod:`scatreg.ballquad` re-exports it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = ["CutoffSamples"]


@dataclass(frozen=True)
class CutoffSamples:
    """Complex integral values on an ascending grid of positive cutoff radii,
    with finite, non-negative error estimates."""

    grid: np.ndarray
    values: np.ndarray
    errors: np.ndarray = field(default=None)

    def __post_init__(self):
        grid = np.asarray(self.grid, dtype=float)
        values = np.asarray(self.values, dtype=complex)
        errors = (
            np.zeros_like(grid)
            if self.errors is None
            else np.asarray(self.errors, dtype=float)
        )
        if grid.ndim != 1 or values.shape != grid.shape or errors.shape != grid.shape:
            raise ValueError("grid, values and errors must be 1-d and congruent")
        if not np.all(np.diff(grid) > 0):
            raise ValueError("cutoff grid must be strictly ascending")
        if not (np.all(np.isfinite(grid)) and np.all(np.isfinite(values))):
            raise ValueError("cutoff samples must be finite")
        if not np.all(grid > 0):
            raise ValueError("cutoffs must be positive")
        if not np.all(np.isfinite(errors) & (errors >= 0)):
            raise ValueError("error estimates must be finite and non-negative")
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "errors", errors)

    def __len__(self):
        return len(self.grid)
