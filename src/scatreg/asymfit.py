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
|residual * L| over the first half of the tail, or the floor 1e-9 of the
largest |Im| on the tail, whichever is larger.  The floor is relative, so the
verdict does not depend on the samples' units.
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


# each named kind's coefficients in term order, with the (a, b) of the L^a ln^b L
# that each multiplies, (0, 0) the finite constant; a poly-log's are ln^0 L up
# to ln^degree L, named ln^b
_TERMS = {
    "log": {"phi": (0, 1), "psi": (0, 0)},
    "powerlog": {"phi": (2, 0), "psi": (1, 0), "nu": (0, 1), "mu": (0, 0)},
}
_KINDS = (*_TERMS, "polylog")


def _polylog_terms(degree):
    return {f"ln^{b}": (0, b) for b in range(degree + 1)}


def _kind_terms(kind, degree):
    """Each coefficient's name -> its (a, b), in term order."""
    return _polylog_terms(degree) if kind == "polylog" else _TERMS[kind]


@dataclass(frozen=True)
class _Model:
    """A divergence model: its kind, its coefficients in term order (the
    ``table``), and ``order``, the power of the coupling that the fitted
    coefficients multiply.  The basis, the divergent part, the coefficient
    names and the model dict follow from the kind's terms."""

    kind: str
    table: tuple
    order: int = 2

    def __getattr__(self, name):
        # a named kind's coefficient; copy and pickle look attributes up
        # before ``kind`` is set, so it is read from the instance dict
        names = tuple(_TERMS.get(self.__dict__.get("kind"), ()))
        if name not in names:
            raise AttributeError(name)
        return self.table[names.index(name)]

    @property
    def names(self):
        return tuple(_kind_terms(self.kind, len(self.table) - 1))

    @property
    def terms(self):
        return tuple(_kind_terms(self.kind, len(self.table) - 1).values())

    @property
    def degree(self):
        """The highest power of ln L among the terms."""
        return max(b for _, b in self.terms)

    @property
    def coefficients(self):
        return np.asarray(self.table, dtype=float)

    def divergent_terms(self):
        """((a, b), c) for each term but the constant, in term order."""
        return [(t, c) for t, c in zip(self.terms, self.coefficients) if t != (0, 0)]

    def divergent_part(self, L):
        """The terms subtracted under regularization (constant excluded); the sum
        starts from -0.0, the identity of float addition, so it keeps its terms' bits."""
        logl = np.log(L)
        return sum((c * (L**a * logl**b) for (a, b), c in self.divergent_terms()), -0.0)

    def to_dict(self):
        """The model's entry in ``fit.json``; :func:`model_from_dict` reads it."""
        if self.kind == "polylog":
            return {"kind": self.kind, "table": self.coefficients.tolist(), "order": self.order}
        return {"kind": self.kind, **dict(zip(self.names, self.coefficients.tolist()))}


def LogModel(phi, psi):
    return _Model("log", (phi, psi))


def PowerLogModel(phi, psi, nu, mu):
    return _Model("powerlog", (phi, psi, nu, mu))


def PolyLogModel(table, order=2):
    """Coefficients phi_p of ln^p L, p = 0..degree, for the series order
    ``order`` (the power of the coupling this coefficient multiplies)."""
    return _Model("polylog", tuple(table), order)


@dataclass(frozen=True)
class FitReport:
    model: object
    stderr: np.ndarray
    residuals: np.ndarray  # Im(value) - fit, over the window
    grid: np.ndarray  # window L values
    decay_ok: bool  # remainder behaves like O(1/L) on the tail

    def to_dict(self):
        return {
            "model": self.model.to_dict(),
            "stderr": [float(s) for s in self.stderr],
            "residuals": [float(r) for r in self.residuals],
            "grid": [float(x) for x in self.grid],
            "decay_ok": bool(self.decay_ok),
        }


def model_from_dict(payload):
    """The model of a ``FitReport.to_dict()["model"]`` dict.  Raises
    ``ValueError`` on an unknown kind, a key other than ``kind`` and the
    kind's fields, a coefficient that is missing or not a JSON number, or a
    poly-log's empty table or order < 1."""
    kind = payload.get("kind")
    if kind not in _KINDS:
        raise ValueError(f"unknown model kind {kind!r} (one of {_KINDS})")
    keys = ("table", "order") if kind == "polylog" else _TERMS[kind]
    if unknown := sorted(set(payload) - {"kind", *keys}):
        raise ValueError(f"unknown model keys: {', '.join(unknown)}")
    if kind != "polylog":
        return _Model(kind, tuple(_number(name, payload.get(name)) for name in keys))
    table, order = payload.get("table"), payload.get("order", 2)
    if not (isinstance(table, list) and table and type(order) is int and order >= 1):
        raise ValueError("model entry 'table' must be a non-empty list, 'order' an int >= 1")
    return _Model(kind, tuple(_number("table", c) for c in table), order)


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


def _stderr(unit, k, design, dof, kind):
    """sqrt(diag(sigma^2 (D^T D)^-1)), sigma^2 = r.r / dof, taken on the residuals
    ``unit`` = r / 2^k and scaled back by 2^k; refused if not finite."""
    inverse = np.linalg.inv(design.T @ design)
    with np.errstate(over="ignore", invalid="ignore"):
        stderr = np.ldexp(np.sqrt(np.maximum(np.diag(float(unit @ unit) / dof * inverse), 0.0)), k)
    if not np.isfinite(stderr).all():
        raise ValueError(f"the {kind} fit's standard errors overflow")
    return stderr


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
    # a poly-log's terms are built only once the tail is known to hold them
    ncoef = degree + 1 if kind == "polylog" else len(_TERMS[kind])
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
    design = _basis(_kind_terms(kind, degree).values(), grid)
    coeffs, _, rank, _ = np.linalg.lstsq(design, values.imag, rcond=None)
    if rank < ncoef:
        raise IllPosedFitError(f"model basis has rank {rank} < {ncoef} on the window")
    residuals = values.imag - design @ coeffs
    # r / 2^k, k the exponent of max |r|, has its largest entry in [0.5, 1): scaled
    # back by 2^k, what is taken on it has the plain formula's bits wherever they
    # are normal floats, and stays finite where r.r or |r L| overflows
    k = np.frexp(np.max(np.abs(residuals)))[1]
    unit = np.ldexp(residuals, -k)
    stderr = _stderr(unit, k, design, max(len(grid) - ncoef, 1), kind)
    half = max(len(grid) // 2, 1)
    floor = 1e-9 * np.max(np.abs(values.imag))
    scaled = np.abs(unit) * grid
    with np.errstate(over="ignore"):
        decay_ok = bool(np.max(scaled) <= max(10.0 * _median(scaled[:half]), np.ldexp(floor, -k)))
    return FitReport(
        model=_Model(kind, tuple(coeffs)),
        stderr=stderr,
        residuals=residuals,
        grid=grid,
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
