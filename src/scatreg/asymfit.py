"""Least-squares extraction of divergence coefficients from cutoff samples.

Three asymptotic models for a coefficient a(q, L) as L grows:

* ``Log``       i [phi ln L + psi + O(1/L)]
* ``PowerLog``  i [phi L^2 + psi L + nu ln L + mu + O(1/L)]
* ``PolyLog``   i [sum_p phi_p ln^p L + O(1/L)]

All coefficients are real; samples must be purely imaginary up to quadrature
noise, which is policed rather than silently absorbed.  Fits are ordinary
linear least squares of Im(values) on the model basis over a tail window of
the grid, and the unquantified O(1/L) remainder becomes a concrete check:
sup over the tail of |residual * L| must not exceed 10x the median of
|residual * L| over the first half of the tail.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "ModelMismatchError",
    "IllPosedFitError",
    "UnclassifiedDivergenceError",
    "LogModel",
    "PowerLogModel",
    "PolyLogModel",
    "FitReport",
    "model_from_dict",
    "fit",
    "classify",
    "evaluate_model",
]

_KINDS = ("log", "powerlog", "polylog")
_COEFFICIENT_NAMES = {"log": ("phi", "psi"), "powerlog": ("phi", "psi", "nu", "mu")}


class ModelMismatchError(ValueError):
    """Samples are not purely imaginary on the tail, so the models do not apply."""


class IllPosedFitError(ValueError):
    """The model basis is rank deficient on the chosen window."""


class UnclassifiedDivergenceError(ValueError):
    """No model's remainder check passed; carries every attempted report."""

    def __init__(self, reports):
        super().__init__(
            "no divergence model fits: remainder decay fails for "
            + ", ".join(r.model.kind for r in reports)
        )
        self.reports = tuple(reports)


@dataclass(frozen=True)
class LogModel:
    phi: float
    psi: float
    kind: str = "log"

    def basis(self, L):
        return np.column_stack([np.log(L), np.ones_like(L)])

    @property
    def coefficients(self):
        return np.array([self.phi, self.psi])

    def divergent_part(self, L):
        """The terms subtracted under regularization (constant excluded)."""
        return self.phi * np.log(L)


@dataclass(frozen=True)
class PowerLogModel:
    phi: float
    psi: float
    nu: float
    mu: float
    kind: str = "powerlog"

    def basis(self, L):
        return np.column_stack([L**2, L, np.log(L), np.ones_like(L)])

    @property
    def coefficients(self):
        return np.array([self.phi, self.psi, self.nu, self.mu])

    def divergent_part(self, L):
        return self.phi * L**2 + self.psi * L + self.nu * np.log(L)


@dataclass(frozen=True)
class PolyLogModel:
    """Coefficients phi_p of ln^p L, p = 0..degree, for the series order
    ``order`` (the power of the coupling this coefficient multiplies)."""

    table: tuple
    order: int = 2
    kind: str = "polylog"

    @property
    def degree(self):
        return len(self.table) - 1

    def basis(self, L):
        return np.column_stack([np.log(L) ** p for p in range(len(self.table))])

    @property
    def coefficients(self):
        return np.asarray(self.table, dtype=float)

    def divergent_part(self, L):
        logl = np.log(L)
        return sum(c * logl**p for p, c in enumerate(self.table) if p >= 1)


def evaluate_model(model, L):
    """i * (basis . coefficients), the model value without its remainder."""
    L = np.asarray(L, dtype=float)
    return 1j * (model.basis(np.atleast_1d(L)) @ model.coefficients).reshape(L.shape)[()]


@dataclass(frozen=True)
class FitReport:
    model: object
    window: tuple  # (L_lo, L_hi)
    stderr: np.ndarray
    residuals: np.ndarray  # Im(value) - fit, over the window
    grid: np.ndarray  # window L values
    max_scaled_residual: float  # sup |residual * L|
    decay_ok: bool  # remainder behaves like O(1/L) on the tail

    def to_dict(self):
        model = {"kind": self.model.kind}
        if self.model.kind == "polylog":
            model["table"] = list(self.model.coefficients)
            model["order"] = self.model.order
        else:
            names = _COEFFICIENT_NAMES[self.model.kind]
            for name, value in zip(names, self.model.coefficients):
                model[name] = float(value)
        return {
            "model": model,
            "window": [float(self.window[0]), float(self.window[1])],
            "stderr": [float(s) for s in self.stderr],
            "residuals": [float(r) for r in self.residuals],
            "grid": [float(x) for x in self.grid],
            "max_scaled_residual": float(self.max_scaled_residual),
            "decay_ok": bool(self.decay_ok),
        }


def model_from_dict(payload):
    """The model of a ``FitReport.to_dict()["model"]`` dict; other keys are
    ignored.  Raises ``ValueError`` on an unknown kind or a missing or
    non-numeric entry."""
    kind = payload.get("kind")
    if kind not in _KINDS:
        raise ValueError(f"unknown model kind {kind!r} (one of {_KINDS})")
    try:
        if kind == "polylog":
            table = [float(c) for c in payload["table"]]
            return _make_model(kind, table, int(payload.get("order", 2)))
        coeffs = [float(payload[name]) for name in _COEFFICIENT_NAMES[kind]]
        return _make_model(kind, coeffs, None)
    except (KeyError, TypeError) as exc:  # a missing or a non-numeric entry
        raise ValueError(f"malformed {kind} model dict: {exc!r}") from None


def _make_model(kind, coeffs, order):
    if kind == "log":
        return LogModel(*coeffs)
    if kind == "powerlog":
        return PowerLogModel(*coeffs)
    return PolyLogModel(table=tuple(coeffs), order=order)


def _prototype(kind, degree):
    ncoef = len(_COEFFICIENT_NAMES[kind]) if kind in _COEFFICIENT_NAMES else degree + 1
    return _make_model(kind, [0.0] * ncoef, 2)


def _tail_length(n, tail_fraction):
    """Number of samples in the tail window: the last ``tail_fraction`` of n."""
    if not 0.0 < tail_fraction <= 1.0:
        raise ValueError("tail_fraction must lie in (0, 1]")
    return int(np.ceil(tail_fraction * n))


def _median(values):
    """``np.median`` of a 1-d float array, bit for bit, without the import of
    ``numpy.ma`` that ``np.median`` costs a fresh process: like it, the mean
    of the middle value, or of the middle two, of the sorted array.  A NaN is
    not special-cased; in :func:`fit` it also reaches the max, which fails
    the decay check either way."""
    n = len(values)
    return np.mean(np.sort(values)[(n - 1) // 2 : n // 2 + 1])


def fit(samples, kind, tail_fraction=0.5, degree=2):
    """Fit one divergence model to cutoff samples over a tail window.

    ``tail_fraction`` selects the last fraction of the grid; ``degree`` is the
    highest ln power for the polylog model, whose coupling order is 2.
    """
    if kind not in _KINDS:
        raise ValueError(f"unknown model kind '{kind}' (one of {_KINDS})")
    n = len(samples.grid)
    start = n - _tail_length(n, tail_fraction)
    proto = _prototype(kind, degree)
    ncoef = len(proto.coefficients)
    grid = samples.grid[start:]
    values = samples.values[start:]
    if len(grid) <= ncoef:
        raise IllPosedFitError(
            f"need more than {ncoef} tail samples for {ncoef} coefficients, "
            f"got {len(grid)}"
        )
    scale = np.abs(values)
    bad = np.abs(values.real) > 1e-6 * np.where(scale > 0, scale, 1.0)
    if np.any(bad):
        raise ModelMismatchError(
            "samples have non-negligible real parts on the tail; the divergence "
            "models are purely imaginary"
        )
    design = proto.basis(grid)
    coeffs, _, rank, _ = np.linalg.lstsq(design, values.imag, rcond=None)
    if rank < ncoef:
        raise IllPosedFitError(f"model basis has rank {rank} < {ncoef} on the window")
    residuals = values.imag - design @ coeffs
    dof = max(len(grid) - ncoef, 1)
    sigma2 = float(residuals @ residuals) / dof
    cov = sigma2 * np.linalg.inv(design.T @ design)
    stderr = np.sqrt(np.maximum(np.diag(cov), 0.0))
    scaled = np.abs(residuals * grid)
    half = max(len(scaled) // 2, 1)
    floor = 1e-9 * max(np.max(np.abs(values.imag)), 1.0)
    decay_ok = bool(np.max(scaled) <= max(10.0 * _median(scaled[:half]), floor))
    return FitReport(
        model=_make_model(kind, coeffs, 2),
        window=(float(grid[0]), float(grid[-1])),
        stderr=stderr,
        residuals=residuals,
        grid=grid,
        max_scaled_residual=float(np.max(scaled)),
        decay_ok=decay_ok,
    )


def classify(samples, tail_fraction=0.5, max_degree=4):
    """Smallest model whose O(1/L) remainder check passes.

    Tries log, then powerlog, then polylog with increasing degree; raises
    :class:`UnclassifiedDivergenceError` with all reports when none passes.
    """
    if len(samples.grid) < 8:
        raise IllPosedFitError("classification needs at least 8 samples")
    reports = []
    # fit refuses a polylog of degree d unless d + 1 < the tail length, and
    # then refuses every higher degree too
    top = min(max_degree, _tail_length(len(samples.grid), tail_fraction) - 2)
    attempts = [("log", 0), ("powerlog", 0)] + [("polylog", d) for d in range(2, top + 1)]
    for kind, degree in attempts:
        try:
            report = fit(samples, kind, tail_fraction, degree=degree)
        except IllPosedFitError:
            continue
        reports.append(report)
        if report.decay_ok:
            return report
    raise UnclassifiedDivergenceError(reports)
