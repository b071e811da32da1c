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

from dataclasses import dataclass, fields

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
]

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


def _number(key, value):
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"model entry {key!r} must be a number, not {value!r}")
    return float(value)


def _basis(terms, L):
    logl = np.log(L)
    return np.column_stack([L**a * logl**b for a, b in terms])


class _Model:
    """Each model lists its terms once, one (a, b) pair per coefficient
    meaning L^a ln^b L, with (0, 0) the finite constant; the basis, the
    divergent part, the coefficient names and the model dict follow."""

    order = 2  # the power of the coupling that the fitted coefficient multiplies
    # each sum over terms starts here: -0.0 is the identity of float addition,
    # so a log or power-log sum is its terms' bit for bit; a poly-log sum has
    # always started from +0.0, which turns a -0.0 sum into +0.0
    zero = -0.0

    @property
    def names(self):
        return tuple(f.name for f in fields(self) if f.name != "kind")

    @property
    def coefficients(self):
        return np.array([getattr(self, name) for name in self.names], dtype=float)

    def divergent_terms(self):
        """((a, b), c) for each term but the constant, in term order."""
        return [(t, c) for t, c in zip(self.terms, self.coefficients) if t != (0, 0)]

    def divergent_part(self, L):
        """The terms subtracted under regularization (constant excluded)."""
        logl = np.log(L)
        return sum((c * (L**a * logl**b) for (a, b), c in self.divergent_terms()), self.zero)

    def to_dict(self):
        """The model's entry in ``fit.json``; :func:`model_from_dict` reads it."""
        return {"kind": self.kind, **dict(zip(self.names, self.coefficients.tolist()))}

    @classmethod
    def _from_dict(cls, payload):
        return cls(*[_number(f.name, payload.get(f.name)) for f in fields(cls) if f.name != "kind"])


@dataclass(frozen=True)
class LogModel(_Model):
    phi: float
    psi: float
    kind: str = "log"
    terms = ((0, 1), (0, 0))


@dataclass(frozen=True)
class PowerLogModel(_Model):
    phi: float
    psi: float
    nu: float
    mu: float
    kind: str = "powerlog"
    terms = ((2, 0), (1, 0), (0, 1), (0, 0))


def _polylog_terms(degree):
    return tuple((0, p) for p in range(degree + 1))


@dataclass(frozen=True)
class PolyLogModel(_Model):
    """Coefficients phi_p of ln^p L, p = 0..degree, for the series order
    ``order`` (the power of the coupling this coefficient multiplies)."""

    table: tuple
    order: int = 2
    kind: str = "polylog"
    zero = 0.0

    @property
    def degree(self):
        return len(self.table) - 1

    @property
    def terms(self):
        return _polylog_terms(self.degree)

    @property
    def names(self):
        return tuple(f"ln^{b}" for _, b in self.terms)

    @property
    def coefficients(self):
        return np.asarray(self.table, dtype=float)

    def to_dict(self):
        return {"kind": self.kind, "table": self.coefficients.tolist(), "order": self.order}

    @classmethod
    def _from_dict(cls, payload):
        table, order = payload.get("table"), payload.get("order", 2)
        if not (isinstance(table, list) and table and type(order) is int and order >= 1):
            raise ValueError("model entry 'table' must be a non-empty list, 'order' an int >= 1")
        return cls(tuple(_number("table", c) for c in table), order)


_MODELS = {model.kind: model for model in (LogModel, PowerLogModel, PolyLogModel)}
_KINDS = tuple(_MODELS)


@dataclass(frozen=True)
class FitReport:
    model: object
    stderr: np.ndarray
    residuals: np.ndarray  # Im(value) - fit, over the window
    grid: np.ndarray  # window L values
    max_scaled_residual: float  # sup |residual * L|
    decay_ok: bool  # remainder behaves like O(1/L) on the tail

    def to_dict(self):
        return {
            "model": self.model.to_dict(),
            "window": [float(self.grid[0]), float(self.grid[-1])],
            "stderr": [float(s) for s in self.stderr],
            "residuals": [float(r) for r in self.residuals],
            "grid": [float(x) for x in self.grid],
            "max_scaled_residual": float(self.max_scaled_residual),
            "decay_ok": bool(self.decay_ok),
        }


def model_from_dict(payload):
    """The model of a ``FitReport.to_dict()["model"]`` dict; other keys are
    ignored.  Raises ``ValueError`` on an unknown kind, a coefficient that is
    missing or not a JSON number, or a poly-log's empty table or order < 1."""
    kind = payload.get("kind")
    if kind not in _KINDS:
        raise ValueError(f"unknown model kind {kind!r} (one of {_KINDS})")
    return _MODELS[kind]._from_dict(payload)


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
    if kind == "polylog" and degree < 0:
        raise ValueError(f"polylog degree must be at least 0, got {degree}")
    n = len(samples.grid)
    start = n - _tail_length(n, tail_fraction)
    ncoef = degree + 1 if kind == "polylog" else len(_MODELS[kind].terms)
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
    design = _basis(_polylog_terms(degree) if kind == "polylog" else _MODELS[kind].terms, grid)
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
        model=PolyLogModel(tuple(coeffs)) if kind == "polylog" else _MODELS[kind](*coeffs),
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
