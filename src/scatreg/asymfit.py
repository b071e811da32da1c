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

The fits run on Python floats, by a one-sided Jacobi SVD of the design (see
:func:`_solve`): the module imports no numpy, so neither do the stages that
fit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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


def _term(L, logl, a, b):
    """L^a ln^b L as products of floats, which overflow to inf where ``**``
    would raise."""
    return math.prod([L] * a, start=1.0) * math.prod([logl] * b, start=1.0)


def _basis(terms, grid):
    """One column per (a, b) term: L^a ln^b L at each cutoff of ``grid``."""
    logs = [math.log(L) for L in grid]
    return [[_term(L, logl, a, b) for L, logl in zip(grid, logs)] for a, b in terms]


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
        return tuple(map(float, self.table))

    def divergent_terms(self):
        """((a, b), c) for each term but the constant, in term order."""
        return [(t, c) for t, c in zip(self.terms, self.coefficients) if t != (0, 0)]

    def divergent_part(self, L):
        """The terms subtracted under regularization (constant excluded) at the
        cutoff L; the sum starts from -0.0, the identity of float addition, so
        it keeps its terms' bits."""
        logl, total = math.log(L), -0.0
        for (a, b), c in self.divergent_terms():
            total += c * _term(L, logl, a, b)
        return total

    def to_dict(self):
        """The model's entry in ``fit.json``; :func:`model_from_dict` reads it."""
        if self.kind == "polylog":
            return {"kind": self.kind, "table": list(self.coefficients), "order": self.order}
        return {"kind": self.kind, **dict(zip(self.names, self.coefficients))}


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
    stderr: tuple
    residuals: tuple  # Im(value) - fit, over the window
    grid: tuple  # window L values
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
    return math.ceil(tail_fraction * n)


def _median(values):
    """The mean of the middle value, or of the middle two, of the sorted
    values.  A NaN is not special-cased; in :func:`fit` it also reaches the
    max, which fails the decay check either way."""
    n, ordered = len(values), sorted(values)
    middle = ordered[(n - 1) // 2 : n // 2 + 1]
    return middle[0] if n % 2 else (middle[0] + middle[1]) / 2


def _ldexp(x, e):
    """x 2^e, or inf of x's sign where that overflows."""
    try:
        return math.ldexp(x, e)
    except OverflowError:
        return math.copysign(math.inf, x)


def _exponent(values):
    """k with max |value| / 2^k in [0.5, 1), or 0 if every value is 0."""
    return math.frexp(max(map(abs, values)))[1]


def _dot(x, y):
    return math.fsum(p * q for p, q in zip(x, y))


def _rotate(x, y, c, s):
    """Overwrite the columns x, y with c x - s y and s x + c y."""
    x[:], y[:] = [c * a - s * b for a, b in zip(x, y)], [s * a + c * b for a, b in zip(x, y)]


def _jacobi(columns):
    """The one-sided Jacobi SVD of the matrix A of ``columns``: (W, V), lists of
    columns with W = A V and V orthogonal, W's columns orthogonal to round-off,
    so that A = U Sigma V^T with sigma_k = |W_k| and U_k = W_k / sigma_k.  Each
    sweep rotates every pair of columns of W orthogonal, and V's alike, until
    no pair is off by more than round-off.  Small singular values keep their
    relative accuracy, whatever the scales of A's columns."""
    n = len(columns)
    w = [list(column) for column in columns]
    v = [[float(i == k) for i in range(n)] for k in range(n)]
    for _ in range(64):
        rotated = False
        for p in range(n):
            for q in range(p + 1, n):
                xx, yy, xy = _dot(w[p], w[p]), _dot(w[q], w[q]), _dot(w[p], w[q])
                if abs(xy) <= 2.0**-53 * math.sqrt(xx * yy):
                    continue
                rotated = True
                zeta = (yy - xx) / (2.0 * xy)
                t = math.copysign(1.0, zeta) / (abs(zeta) + math.hypot(1.0, zeta))
                c = 1.0 / math.hypot(1.0, t)
                s = c * t
                _rotate(w[p], w[q], c, s)
                _rotate(v[p], v[q], c, s)
        if not rotated:
            break
    return w, v


def _residual(columns, x, b):
    """b - A x, A the matrix of ``columns``, each entry summed by fsum."""
    return [math.fsum([y, *(-c[i] * xj for c, xj in zip(columns, x))]) for i, y in enumerate(b)]


def _unit(residuals):
    """(r / 2^k, k), k the exponent of max |r|: the largest entry of r / 2^k
    lies in [0.5, 1), so what is taken on it and scaled back by 2^k has the
    plain formula's bits wherever they are normal floats, and stays finite
    where r.r or |r L| overflows."""
    k = _exponent(residuals)
    return [math.ldexp(x, -k) for x in residuals], k


def _solve(terms, grid, values):
    """Least squares of the real ``values`` on the terms' basis over ``grid``:
    (coefficients, residuals, (unit, k), stderr), with (unit, k) the
    residuals' :func:`_unit`.

    The design D and the values are each scaled by a power of two to a
    largest entry in [0.5, 1), which is exact, and the scaled D is taken
    apart by :func:`_jacobi`.  The rank is read on its singular values with
    the cut of ``numpy.linalg.lstsq``'s default rcond, 2^-52 max(m, n) times
    the largest, and a rank below n, or a basis that overflows, is refused.
    The coefficients are V Sigma^-1 U^T b, refined once, and the stderr is
    sqrt(s^2 diag (D^T D)^-1), s^2 = r.r / dof, with
    diag (D^T D)^-1 = sum_k V_jk^2 / sigma_k^2, taken on r / 2^k.  A value
    that overflows is inf.
    """
    m, n = len(grid), len(terms)
    design = _basis(terms, grid)
    if not all(math.isfinite(x) for column in design for x in column):
        raise IllPosedFitError("model basis overflows on the window")
    ka, kb = max(map(_exponent, design)), _exponent(values)
    columns = [[math.ldexp(x, -ka) for x in column] for column in design]
    b = [math.ldexp(y, -kb) for y in values]
    w, v = _jacobi(columns)
    squares = [_dot(c, c) for c in w]
    sizes = list(map(math.sqrt, squares))
    rank = sum(size > 2.0**-52 * max(m, n) * max(sizes) for size in sizes)
    if rank < n:
        raise IllPosedFitError(f"model basis has rank {rank} < {n} on the window")
    rows = list(zip(*v))  # V's rows, one per coefficient
    # x = V Sigma^-1 U^T b, from -0.0, the identity of float addition; then
    # once more on the residual of that x, which takes out most of the first
    # pass's round-off (iterative refinement)
    x = [-0.0] * n
    for _ in range(2):
        r = _residual(columns, x, b)
        weights = [_dot(c, r) / square for c, square in zip(w, squares)]
        x = [xj + _dot(row, weights) for xj, row in zip(x, rows)]
    residuals = [_ldexp(ri, kb) for ri in _residual(columns, x, b)]
    unit, k = _unit(residuals)
    spread = math.fsum(u * u for u in unit) / (m - n)
    stderr = [
        _ldexp(math.sqrt(spread * math.fsum(vj * vj / s for vj, s in zip(row, squares))), k - ka)
        for row in rows
    ]
    coefficients = [_ldexp(xj, kb - ka) for xj in x]
    return tuple(coefficients), tuple(residuals), (unit, k), tuple(stderr)


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
    # math.hypot, not abs, which raises where |v| overflows
    if any(abs(v.real) > 1e-6 * (math.hypot(v.real, v.imag) or 1.0) for v in values):
        raise ModelMismatchError(
            "samples have non-negligible real parts on the tail; the divergence "
            "models are purely imaginary"
        )
    imag = [v.imag for v in values]
    terms = tuple(_kind_terms(kind, degree).values())
    coefficients, residuals, (unit, k), stderr = _solve(terms, grid, imag)
    # a coefficient that overflows leaves no finite standard error either
    if not all(map(math.isfinite, (*coefficients, *stderr))):
        raise ValueError(f"the {kind} fit's standard errors overflow")
    half = max(len(grid) // 2, 1)
    floor = 1e-9 * max(map(abs, imag))
    scaled = [abs(u) * L for u, L in zip(unit, grid)]
    decay_ok = max(scaled) <= max(10.0 * _median(scaled[:half]), _ldexp(floor, -k))
    return FitReport(
        model=_Model(kind, coefficients),
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
