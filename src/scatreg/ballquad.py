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

One builder, ``_rule``, makes both: they differ only on the sphere.  The
radial axis is split at a = 4 max(|m|, |q|), graded on [0, a] and logarithmic
on [a, L]; the error estimate is |I(n) - I(n/2)|, every order halved.
Before either rule runs, the singularity screen scans each denominator on a
coarse grid that the rules' point map places in the ball.

The product rules are summed in chunks of ``_CHUNK`` consecutive grid points,
each built from the axis nodes it uses, so memory stays bounded whatever the
quadrature orders.  The chunk edges and the order in which the chunk sums are
reduced are fixed, so results are reproducible bit for bit.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .integrand import evaluate, o4_invariant, scan_denominators
from .samples import CutoffSamples

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


def _kinematics(q, m):
    """q as a 4-vector, m as a float, and |q|: np.linalg.norm's bits wherever
    q.q is finite, and ``math.hypot``, which scales by the largest component,
    where q.q overflows."""
    q = np.asarray(q, dtype=float)
    if q.shape == (3,):
        q = np.concatenate([[0.0], q])
    if q.shape != (4,):
        raise ValueError(f"q must have 3 or 4 components, got shape {q.shape}")
    if not (np.all(np.isfinite(q)) and math.isfinite(m)):
        raise ValueError("kinematic point must be finite")
    with np.errstate(over="ignore"):
        norm = float(np.linalg.norm(q))
    return q, float(m), math.hypot(*q) if math.isinf(norm) else norm


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


def _rotated(norm):
    """q rotated onto the p0 axis, where an O(4)-invariant integrand sees only |q|."""
    return np.array([norm, 0.0, 0.0, 0.0])


def _flat(points, shape, run=slice(None)):
    # each array coordinate broadcast to the grid's shape, flattened, cut to run
    return {
        k: v if np.ndim(v) == 0 else np.broadcast_to(v, shape).reshape(-1)[run]
        for k, v in points.items()
    }


def _weights(radius, wr, r, *angular):
    """The axis weights of a product rule, r^3 dr first; refused when the
    largest point weight, the product of their maxima, is not finite."""
    with np.errstate(over="ignore"):
        weights = (wr * r**3, *angular)
        largest = math.prod(float(np.max(w)) for w in weights)
    if not math.isfinite(largest):
        raise ValueError(f"cutoff {radius:g} is too large: its quadrature weights are not finite")
    return weights


def _rule(radius, orders, split, invariant):
    """Axis weights and point map of the product rule of the (radial, chi,
    theta, phi) ``orders``, which may be 1.  Both rules share the radial axis,
    split at ``split``, and the chi axis.  An ``invariant`` integrand, seen at
    q rotated onto p0, depends on the direction of P only through chi, the
    angle between P and q, so it gets the (r, chi) rule: theta and phi
    integrate to the area 4 pi of the unit 2-sphere.  Any other integrand
    gets the theta and phi axes too."""
    radial, chi_order, theta_order, phi_order = orders
    r, wr = _radial(radius, radial, split)
    chi, wchi = _gauss(chi_order, 0.0, np.pi)
    if invariant:
        return _weights(radius, wr, r, 4 * np.pi * wchi * np.sin(chi) ** 2), _point_map(r, chi)
    theta, wth = _gauss(theta_order, 0.0, np.pi)
    phi, wphi = _gauss(phi_order, 0.0, 2 * np.pi)
    weights = _weights(radius, wr, r, wchi * np.sin(chi) ** 2, wth * np.sin(theta), wphi)
    return weights, _point_map(r, chi, theta, phi)


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
    q and m are read as :func:`integrate_ball` reads them.  Flags are set as
    :class:`scatreg.integrand.SingularityReport` says."""
    q, m, norm = _kinematics(q, m)
    full = not o4_invariant(expr)
    q = q if full else _rotated(norm)
    ctx = _scan_grid(radius, full) | {f"q{i}": q[i] for i in range(4)}
    return scan_denominators(expr, ctx | {"m": m, "L": float(radius)})


@np.errstate(over="ignore", invalid="ignore")
def _rule_sum(exprs, rule, q4, m, radius):
    """Weighted sums of each expr over one rule at q4, in chunks of ``_CHUNK``
    consecutive points of the flattened grid.  Each chunk is built from the
    rows of the last axis that it touches, so no array spans the whole grid."""
    weights, points = rule
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
    totals = [float(np.sum(np.asarray(sums))) if sums else 0.0 for sums in chunk_sums]
    if not np.isfinite(totals).all():
        raise ValueError(f"cutoff {radius:g} is too large: its integral is not finite")
    return totals


def integrate_ball(f_re, f_im, q, m, region, spec=QuadratureSpec()):
    """Integral of f_re + i f_im over the 4-ball ``region``, a
    :class:`BallRegion`, with an error estimate.

    The integral runs on the 2-D (r, chi) rule when both given parts are
    O(4)-invariant (see the module docstring; only ``angular_orders[0]`` is
    used), and on the 4-D tensor rule otherwise.  Either rule splits its
    radial axis at a = 4 max(|m|, |q|) when 0 < a < L and reports
    |I(n) - I(n/2)|, the difference to the same rule with every order halved.
    First the singularity screen scans every denominator on a coarse grid,
    its (r, chi) slice at the rotated q for an invariant part, and flagged
    singular integrands are refused with the screen report attached, and a
    cutoff whose rule weights or integral overflow with a ValueError.
    """
    q4, m, norm = _kinematics(q, m)
    exprs = (f_re, f_im)
    for expr in exprs:
        if expr is None:
            continue
        report = screen_singularities(expr, q4, m, region.radius)
        if report.flagged:
            raise SingularIntegrandError(report)
    invariant = all(expr is None or o4_invariant(expr) for expr in exprs)
    q4 = _rotated(norm) if invariant else q4
    radius, split = region.radius, 4 * max(abs(m), norm)
    orders = (spec.radial_order, *spec.angular_orders)
    re, im = _rule_sum(exprs, _rule(radius, orders, split, invariant), q4, m, radius)
    halved = _rule(radius, [n // 2 for n in orders], split, invariant)
    re_h, im_h = _rule_sum(exprs, halved, q4, m, radius)
    return complex(re, im), abs(complex(re - re_h, im - im_h))


def sample_over_cutoffs(f_re, f_im, q, m, grid, spec=QuadratureSpec()):
    """One ball integral per cutoff radius on an ascending grid."""
    grid = np.asarray(grid, dtype=float)
    if not np.all(np.diff(grid) > 0):
        raise ValueError("cutoff grid must be strictly ascending")
    q4, m, _ = _kinematics(q, m)
    values = np.empty(grid.size, dtype=complex)
    errors = np.empty(grid.size)
    for i, radius in enumerate(grid):
        values[i], errors[i] = integrate_ball(
            f_re, f_im, q4, m, BallRegion(float(radius)), spec
        )
    return CutoffSamples(grid=grid, values=values, errors=errors)
