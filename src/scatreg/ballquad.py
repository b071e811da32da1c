"""Cutoff integrals over the Euclidean 4-ball |P| <= L.

The rules are products of Gauss-Legendre quadratures in hyperspherical
coordinates

    P = r (cos chi, sin chi cos theta, sin chi sin theta cos phi,
           sin chi sin theta sin phi),      d^4P = r^3 sin^2(chi) sin(theta)

with r in [0, L], chi, theta in [0, pi], phi in [0, 2 pi).  Which product
runs follows from the integrand alone:

* An O(4)-invariant integrand, one that names no coordinate p0..p3, q0..q3
  and depends on P and Q only through P2, PQ and Q2, is integrated on the 2-D
  rule in (r, chi): q is rotated onto the p0 axis, theta and phi integrate
  to 4 pi, and only ``angular_orders[0]`` of the spec is used.
* Any other integrand is integrated on the 4-D tensor rule in
  (r, chi, theta, phi) with all three angular orders.

The radial axis is split at a = 4 max(|m|, |q|), graded on [0, a] and
logarithmic on [a, L]; the error estimate is |I(n) - I(n/2)|, orders halved.
Before either rule runs, the singularity screen scans each denominator on a
coarse grid that the rules' point map places in the ball.

The product rules are summed in chunks of ``_CHUNK`` consecutive grid points,
each built from the axis nodes it uses, so memory stays bounded whatever the
quadrature orders.  The chunk edges and the order in which the chunk sums are
reduced are fixed, so results are reproducible bit for bit.
"""

from __future__ import annotations

import collections
import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .integrand import evaluate, o4_invariant, scan_denominators

__all__ = [
    "SingularIntegrandError",
    "BallRegion",
    "QuadratureSpec",
    "CutoffSamples",
    "integrate_ball",
    "sample_over_cutoffs",
    "screen_singularities",
]

_CHUNK = 1 << 19  # evaluation points per reduction chunk
_MAX_ORDER = 1024  # leggauss(n) eigen-solves an n x n matrix, O(n^2) memory


class SingularIntegrandError(ValueError):
    """The singularity screen flagged a denominator inside the ball."""

    def __init__(self, report):
        super().__init__(f"integrand flagged as singular on the ball:\n{report}")
        self.report = report


@dataclass(frozen=True)
class BallRegion:
    """The 4-ball of radius ``radius`` centered at the origin."""

    radius: float

    def __post_init__(self):
        if not (math.isfinite(self.radius) and self.radius > 0):
            raise ValueError(f"cutoff radius must be finite and positive: {self.radius}")


@dataclass(frozen=True)
class QuadratureSpec:
    """Gauss-Legendre orders of the product rules."""

    method = "tensor-gauss"  # a class constant, not a field: bench/tracing.py reads it
    radial_order: int = 64
    angular_orders: tuple = (32, 32, 32)

    def __post_init__(self):
        orders = np.asarray(self.angular_orders)
        if orders.shape != (3,) or orders.dtype.kind not in "iu":
            raise ValueError(f"need three integer angular_orders: {self.angular_orders}")
        if not all(2 <= n <= _MAX_ORDER for n in (self.radial_order, *self.angular_orders)):
            raise ValueError(f"quadrature orders must be between 2 and {_MAX_ORDER}")


@dataclass(frozen=True)
class CutoffSamples:
    """Complex integral values on an ascending grid of cutoff radii."""

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
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "errors", errors)

    def __len__(self):
        return len(self.grid)


def _kinematics(q, m):
    q = np.asarray(q, dtype=float)
    if q.shape == (3,):
        q = np.concatenate([[0.0], q])
    if q.shape != (4,):
        raise ValueError(f"q must have 3 or 4 components, got shape {q.shape}")
    if not (np.all(np.isfinite(q)) and math.isfinite(m)):
        raise ValueError("kinematic point must be finite")
    return q, float(m)


@functools.lru_cache(maxsize=None)
def _legendre(n):
    """Gauss-Legendre nodes and weights on [-1, 1], solved once per order:
    a cutoff grid integrates every radius at the same few orders.  The arrays
    are shared by every caller, so they are read-only."""
    x, w = np.polynomial.legendre.leggauss(n)
    x.flags.writeable = w.flags.writeable = False
    return x, w


def _gauss(n, a, b):
    x, w = _legendre(n)
    return 0.5 * (b - a) * x + 0.5 * (b + a), 0.5 * (b - a) * w


def _radial(radius, n, split=0.0):
    # n nodes on the graded map r = a t^2 over [0, a], clustered toward the
    # origin; for 0 < split < L, a = split and n more on the log map r = e^u,
    # dr = r du, over [a, L] give each decade above the mass scale its share
    a = split if 0.0 < split < radius else radius
    t, wt = _gauss(n, 0.0, 1.0)
    r, wr = a * t**2, wt * 2.0 * a * t
    if a == radius:
        return r, wr
    u, wu = _gauss(n, math.log(a), math.log(radius))
    outer = np.exp(u)
    return np.concatenate([r, outer]), np.concatenate([wr, wu * outer])


def _point_map(r, chi, theta=None, phi=None):
    """p0..p3 at the given axis-node indices: (i, j, k, l) on the axes (r, chi,
    theta, phi), or (i, j) on the theta = phi = 0 slice of (r, chi) when only
    chi is given, where p2 = p3 = 0 (cos 0 = 1 and sin 0 = 0 exactly)."""
    coschi, sinchi = np.cos(chi), np.sin(chi)
    if theta is None:
        return lambda i, j: {"p0": r[i] * coschi[j], "p1": r[i] * sinchi[j], "p2": 0.0, "p3": 0.0}
    costh, sinth, cosphi, sinphi = np.cos(theta), np.sin(theta), np.cos(phi), np.sin(phi)

    def points(i, j, k, l):
        r_sinchi = r[i] * sinchi[j]
        r_sinchi_sinth = r_sinchi * sinth[k]
        return {"p0": r[i] * coschi[j], "p1": r_sinchi * costh[k],
                "p2": r_sinchi_sinth * cosphi[l], "p3": r_sinchi_sinth * sinphi[l]}

    return points


def _rotated(q4):
    """q rotated onto the p0 axis, where an O(4)-invariant integrand sees only |q|."""
    return np.array([np.linalg.norm(q4), 0.0, 0.0, 0.0])


def _flat(points, shape, run=slice(None)):
    # each array coordinate broadcast to the grid's shape, flattened, cut to run
    return {
        k: v if np.ndim(v) == 0 else np.broadcast_to(v, shape).reshape(-1)[run]
        for k, v in points.items()
    }


def _tensor_rule(q4, radius, spec, split=0.0):
    """The 4-D product rule in (r, chi, theta, phi): axis weights, point map, q."""
    r, wr = _radial(radius, spec.radial_order, split)
    chi, wchi = _gauss(spec.angular_orders[0], 0.0, np.pi)
    theta, wth = _gauss(spec.angular_orders[1], 0.0, np.pi)
    phi, wphi = _gauss(spec.angular_orders[2], 0.0, 2 * np.pi)
    weights = (wr * r**3, wchi * np.sin(chi) ** 2, wth * np.sin(theta), wphi)
    return weights, _point_map(r, chi, theta, phi), q4


def _reduced_rule(q4, radius, spec, split=0.0):
    """The 2-D product rule in (r, chi) for O(4)-invariant integrands.

    q is rotated onto the p0 axis, so the integrand depends on the direction
    of P only through chi, the angle between P and q; theta and phi integrate
    to the area 4 pi of the unit 2-sphere.  Only ``angular_orders[0]`` is used.
    """
    r, wr = _radial(radius, spec.radial_order, split)
    chi, wchi = _gauss(spec.angular_orders[0], 0.0, np.pi)
    weights = (wr * r**3, 4 * np.pi * wchi * np.sin(chi) ** 2)
    return weights, _point_map(r, chi), _rotated(q4)


def _scan_grid(radius, full=True):
    """p0..p3 on the screen's coarse grid of the ball, flattened in C order of
    (r, chi, theta, phi): 24 radial nodes r = L t^2, biased toward the origin,
    and 10 per angle, phi without its endpoint.  ``full=False`` keeps the
    theta = phi = 0 slice, the (r, chi) grid."""
    angle = np.linspace(0.0, np.pi, 10)
    axes = [radius * np.linspace(0.0, 1.0, 24) ** 2, angle]
    if full:
        axes += [angle, np.linspace(0.0, 2 * np.pi, 10, endpoint=False)]
    shape = tuple(axis.size for axis in axes)
    return _flat(_point_map(*axes)(*np.ix_(*map(np.arange, shape))), shape)


def screen_singularities(expr, q, m, radius):
    """Scan every denominator of ``expr`` on the coarse grid ``_scan_grid``.
    An O(4)-invariant ``expr`` is scanned at q rotated onto p0, where its
    value depends only on (r, chi): the (r, chi) slice stands for the grid.
    Flags are set as :class:`scatreg.integrand.SingularityReport` says."""
    full = not o4_invariant(expr)
    q = np.asarray(q, dtype=float) if full else _rotated(q)
    ctx = _scan_grid(radius, full) | {f"q{i}": q[i] for i in range(4)}
    return scan_denominators(expr, ctx | {"m": float(m), "L": float(radius)})


def _rule_sum(exprs, rule, m, radius):
    """Weighted sums of each expr over one rule, in chunks of ``_CHUNK``
    consecutive points of the flattened grid.  Each chunk is built from the
    rows of the last axis that it touches, so no array spans the whole grid."""
    weights, points, q4 = rule
    fixed = {f"q{i}": q4[i] for i in range(4)} | {"m": m, "L": radius}
    shape = tuple(w.size for w in weights)
    width, size = shape[-1], math.prod(shape)

    chunk_sums = [[] for _ in exprs]
    for start in range(0, size, _CHUNK):
        first, end = start // width, -(-min(start + _CHUNK, size) // width)
        index = [i[:, None] for i in np.unravel_index(np.arange(first, end), shape[:-1])]
        index.append(np.arange(width))
        run = slice(start - first * width, start - first * width + _CHUNK)
        weight = functools.reduce(np.multiply, [w[i] for w, i in zip(weights, index)])
        ctx = _flat(points(*index), weight.shape, run) | fixed
        weight = weight.reshape(-1)[run]
        for expr, sums in zip(exprs, chunk_sums):
            if expr is not None:
                sums.append(np.sum(evaluate(expr, ctx) * weight))
    return [float(np.sum(np.asarray(sums))) if sums else 0.0 for sums in chunk_sums]


# the orders a product rule reads; unlike a QuadratureSpec's they may be 1
_Orders = collections.namedtuple("_Orders", "radial_order angular_orders")


def _halved(spec):
    return _Orders(spec.radial_order // 2, tuple(n // 2 for n in spec.angular_orders))


def integrate_ball(f_re, f_im, q, m, region, spec=QuadratureSpec()):
    """Integral of f_re + i f_im over the 4-ball, with an error estimate.

    The integral runs on the 2-D (r, chi) rule when both given parts are
    O(4)-invariant (see the module docstring; only ``angular_orders[0]`` is
    used), and on the 4-D tensor rule otherwise.  Either rule splits its
    radial axis at a = 4 max(|m|, |q|) when 0 < a < L and reports
    |I(n) - I(n/2)|, the difference to the same rule with every order halved.
    First the singularity screen scans every denominator on a coarse grid,
    its (r, chi) slice at the rotated q for an invariant part, and flagged
    singular integrands are refused with the screen report attached.
    """
    if not isinstance(region, BallRegion):
        region = BallRegion(float(region))
    q4, m = _kinematics(q, m)
    exprs = (f_re, f_im)
    for expr in exprs:
        if expr is None:
            continue
        report = screen_singularities(expr, q4, m, region.radius)
        if report.flagged:
            raise SingularIntegrandError(report)
    invariant = all(expr is None or o4_invariant(expr) for expr in exprs)
    rule = _reduced_rule if invariant else _tensor_rule
    radius, split = region.radius, 4 * max(abs(m), float(np.linalg.norm(q4)))
    re, im = _rule_sum(exprs, rule(q4, radius, spec, split), m, radius)
    re_h, im_h = _rule_sum(exprs, rule(q4, radius, _halved(spec), split), m, radius)
    return complex(re, im), abs(complex(re - re_h, im - im_h))


def sample_over_cutoffs(f_re, f_im, q, m, grid, spec=QuadratureSpec()):
    """One ball integral per cutoff radius on an ascending grid."""
    grid = np.asarray(grid, dtype=float)
    if not np.all(np.diff(grid) > 0):
        raise ValueError("cutoff grid must be strictly ascending")
    q4, m = _kinematics(q, m)
    values = np.empty(grid.size, dtype=complex)
    errors = np.empty(grid.size)
    for i, radius in enumerate(grid):
        values[i], errors[i] = integrate_ball(
            f_re, f_im, q4, m, BallRegion(float(radius)), spec
        )
    return CutoffSamples(grid=grid, values=values, errors=errors)
