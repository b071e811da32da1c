"""Deviation factors: unit-modulus phases absorbing divergent integral growth.

A deviation factor is exp(i [c2 L^2 + c1 L + sum_p cp ln^p L + gauge]) with
real coefficients, so its modulus is exactly 1.  Dividing the truncated
scattering series by it removes the divergent part of each coefficient and
leaves a convergent remainder.  The module also implements the membership
test for the class of factors whose finite-shift ratio tends to 1, and the
Coulomb-type resummation identity where dividing by L^(i eps phi) turns the
log-laden series coefficients back into their generating constants.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

__all__ = [
    "DeviationFactor",
    "ClassAResult",
    "ResummationResult",
    "RegularizedSeries",
    "factor_from_model",
    "regularize_coefficient",
    "regularized_series",
    "series_exp",
    "class_a_check",
    "resum_coulomb_series",
]


def _exponent(quad_coeff, linear_coeff, log_coeffs, gauge, L):
    """quad L^2 + linear L + sum_p log_coeffs[p-1] ln^p L + gauge; the
    coefficients broadcast against L, ``log_coeffs`` runs over p first."""
    logl = np.log(L)
    # a zero quad_coeff skips L**2, since 0 * L**2 is NaN once L**2 overflows;
    # times 1.0 it keeps its sign, so every finite result keeps its bits
    out = quad_coeff * (L**2 if np.any(quad_coeff) else 1.0) + linear_coeff * L + gauge
    for p, c in enumerate(log_coeffs, start=1):
        out = out + c * logl**p
    return out


@dataclass(frozen=True)
class DeviationFactor:
    """exp(i [quad L^2 + linear L + sum_p log_coeffs[p-1] ln^p L + gauge]).

    Coefficients are real and carry their coupling powers already multiplied
    in; ``eps_order`` records which power of the coupling the whole exponent
    sits at (needed only for order-by-order series expansion) and ``eps`` the
    coupling value used to build it.
    """

    quad_coeff: float = 0.0
    linear_coeff: float = 0.0
    log_coeffs: tuple = ()
    gauge: float = 0.0
    eps: float | None = None
    eps_order: int | None = None

    def __post_init__(self):
        for c in (self.quad_coeff, self.linear_coeff, self.gauge, *self.log_coeffs):
            if not (isinstance(c, (int, float)) and math.isfinite(c)):
                raise ValueError(f"exponent coefficients must be finite reals: {c!r}")

    def exponent(self, L):
        L = np.asarray(L, dtype=float)
        if not np.all((L > 0) & (L < np.inf)):
            raise ValueError("the cutoff must be positive and finite")
        return _exponent(self.quad_coeff, self.linear_coeff, self.log_coeffs, self.gauge, L)

    def exponent_shift(self, L, shift):
        """exponent(L + shift) - exponent(L), computed without cancellation."""
        L = np.asarray(L, dtype=float)
        out = self.quad_coeff * shift * (2 * L + shift) + self.linear_coeff * shift
        dlog = np.log1p(shift / L)
        logl = np.log(L)
        for p, c in enumerate(self.log_coeffs, start=1):
            # ln^p(L+s) - ln^p(L), binomial expansion: no cancellation
            increment = sum(
                math.comb(p, k) * logl ** (p - k) * dlog**k for k in range(1, p + 1)
            )
            out = out + c * increment
        return out

    def __call__(self, L):
        return np.exp(1j * self.exponent(L))

    def inverse_at(self, L):
        return np.exp(-1j * self.exponent(L))

    @property
    def pure_log(self):
        """True iff only ln-power terms are present (the class-A criterion)."""
        return self.quad_coeff == 0.0 and self.linear_coeff == 0.0

    def to_dict(self):
        return {
            "c_L2": self.quad_coeff,
            "c_L": self.linear_coeff,
            "c_ln": list(self.log_coeffs),
            "gauge": self.gauge,
        }


def factor_from_model(model, eps):
    """Deviation factor absorbing a fitted model's divergent terms.

    Each divergent term c L^a ln^b L puts eps^order c into the L^2, L or
    ln^b L slot, where ``order`` is the model's own coupling order; every
    model lists its ln terms by ascending power from 1.  Constant model terms
    are left out: they are finite and stay in the convergent remainder.
    """
    eps = float(eps)
    slots = {term: model.zero + eps**model.order * c for term, c in model.divergent_terms()}
    quad, linear = slots.pop((2, 0), 0.0), slots.pop((1, 0), 0.0)
    return DeviationFactor(quad, linear, tuple(slots.values()), eps=eps, eps_order=model.order)


def regularize_coefficient(samples, model):
    """Subtract i * (divergent model terms) pointwise from cutoff samples.

    The model's constant term is kept: only the basis terms that grow with L
    are removed, so the result converges as L increases when the model
    matches the samples' divergence.
    """
    return replace(samples, values=samples.values - 1j * model.divergent_part(samples.grid))


def series_exp(poly, nmax):
    """Coefficients of exp(P(x)) to order ``nmax`` for P with P(0) = 0.

    ``poly`` maps order -> complex coefficient; uses the derivative recurrence
    e_n = (1/n) sum_k k p_k e_{n-k}.
    """
    p = np.zeros(nmax + 1, dtype=complex)
    for k, c in poly.items():
        if k == 0 and c != 0:
            raise ValueError("exponent polynomial must vanish at order 0")
        if 1 <= k <= nmax:
            p[k] = c
    e = np.zeros(nmax + 1, dtype=complex)
    e[0] = 1.0
    for n in range(1, nmax + 1):
        e[n] = sum(k * p[k] * e[n - k] for k in range(1, n + 1)) / n
    return e


@dataclass(frozen=True)
class RegularizedSeries:
    """U0^{-1} d(q, L) with, when available, its per-order coefficients."""

    value: complex
    coefficients: np.ndarray | None  # tilde-a_m, m = 0..N, or None


def regularized_series(a_coeffs, factor, eps, L):
    """Apply the inverse deviation factor to the truncated series at (eps, L).

    ``a_coeffs`` holds a_1..a_N evaluated at this L.  Per-order regularized
    coefficients are computed by expanding exp(-i theta(L) eps^k) against the
    series when the factor records its coupling order k; a gauge phase only
    rescales the whole series and is kept out of the per-order expansion.
    """
    a_coeffs = np.asarray(a_coeffs, dtype=complex)
    n = len(a_coeffs)
    d = 1.0 + np.sum(a_coeffs * eps ** np.arange(1, n + 1))
    value = factor.inverse_at(L) * d
    coefficients = None
    if factor.eps_order is not None and factor.eps not in (None, 0.0):
        theta = (factor.exponent(L) - factor.gauge) / factor.eps**factor.eps_order
        inv = series_exp({factor.eps_order: -1j * theta}, n)
        series = np.concatenate([[1.0], a_coeffs])
        coefficients = np.convolve(inv, series)[: n + 1]
        coefficients *= np.exp(-1j * factor.gauge)
    return RegularizedSeries(value=complex(value), coefficients=coefficients)


@dataclass(frozen=True)
class ClassAResult:
    """Finite-shift ratio diagnostics U0(L + L0) / U0(L) on a grid."""

    verdict: bool
    shift: float
    grid: np.ndarray
    ratios: np.ndarray


def class_a_check(factor, shift, grid):
    """Does U0(L + L0) U0(L)^{-1} tend to 1 as L grows?

    Decided analytically from the exponent structure: true iff the L^2 and L
    terms vanish, since ln-power increments ln^p(L + L0) - ln^p(L) all decay.
    The numerical ratio curve is returned as a diagnostic.
    """
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 1 or not np.all(np.diff(grid) > 0):
        raise ValueError("grid must be 1-d and strictly ascending")
    if not (math.isfinite(shift) and shift > 0):
        raise ValueError("shift must be finite and positive")
    ratios = np.exp(1j * factor.exponent_shift(grid, shift))
    return ClassAResult(
        verdict=factor.pure_log, shift=float(shift), grid=grid, ratios=ratios
    )


@dataclass(frozen=True)
class ResummationResult:
    """Coulomb-type resummation: the series coefficients built from a log
    phase, and the per-order check that dividing the phase out restores the
    generating constants."""

    a_coeffs: np.ndarray  # a_m(q, L), m = 1..N
    d_value: complex  # truncated d(q, L) at the given coupling
    d_tilde_value: complex  # L^{-i eps phi} d(q, L)
    recovered: np.ndarray  # per-order coefficients of the regularized series
    residuals: np.ndarray  # |recovered_m - psi_m|


def resum_coulomb_series(psi, phi, eps, nmax, L):
    """Build a_m = sum_k psi_{m-k} (i phi ln L)^k / k! and verify that the
    order-by-order expansion of L^{-i eps phi} d(q, L) returns psi_m exactly.
    """
    psi = np.asarray(psi, dtype=float)
    if psi.ndim != 1 or psi.size == 0 or psi[0] != 1.0:
        raise ValueError("the constant list must start with psi_0 = 1")
    if not np.isfinite(psi).all():
        raise ValueError("the constants psi must be finite")
    if nmax > psi.size - 1:
        raise ValueError(f"order {nmax} exceeds the {psi.size - 1} supplied constants")
    if not 0 < L < math.inf:
        raise ValueError("the cutoff must be positive and finite")
    if eps == 0:
        raise ValueError("the coupling must be nonzero to recover per-order terms")
    x = 1j * phi * math.log(L)
    powers = np.array([x**k / math.factorial(k) for k in range(nmax + 1)])
    a = np.array(
        [np.sum(psi[m::-1][: m + 1] * powers[: m + 1]) for m in range(nmax + 1)]
    )
    factor = DeviationFactor(log_coeffs=(eps * phi,), eps=eps, eps_order=1)
    reg = regularized_series(a[1:], factor, eps, L)
    residuals = np.abs(reg.coefficients - psi[: nmax + 1])
    d = 1.0 + np.sum(a[1:] * eps ** np.arange(1, nmax + 1))
    return ResummationResult(
        a_coeffs=a[1:],
        d_value=complex(d),
        d_tilde_value=reg.value,
        recovered=reg.coefficients,
        residuals=residuals,
    )
