"""Deviation factors: unit-modulus phases absorbing divergent integral growth.

A deviation factor is exp(i [c2 L^2 + c1 L + sum_p cp ln^p L + gauge]) with
real coefficients, so its modulus is exactly 1.  Dividing the truncated
scattering series by it removes the divergent part of each coefficient and
leaves a convergent remainder.  The module also implements the membership
test for the class of factors whose finite-shift ratio tends to 1, and the
Coulomb-type resummation identity where dividing by L^(i eps phi) turns the
log-laden series coefficients back into their generating constants.  Both
series expansions convolve the terms x^k/k! of exp(x), each the last one
times x/k, and refuse by name a term, sum or coefficient that overflows.

Building a factor from a model and regularizing cutoff samples run on Python
floats; numpy is imported only by the helpers that take arrays, so
``regularize`` loads none.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, replace

__all__ = [
    "DeviationFactor",
    "ClassAResult",
    "ResummationResult",
    "RegularizedSeries",
    "factor_from_model",
    "regularize_coefficient",
    "regularized_series",
    "class_a_check",
    "resum_coulomb_series",
]


@dataclass(frozen=True)
class DeviationFactor:
    """exp(i [quad L^2 + linear L + sum_p log_coeffs[p-1] ln^p L + gauge]).

    Coefficients are real and carry their coupling powers already multiplied
    in; ``eps_order`` records which power of the coupling the whole exponent
    sits at (needed only for order-by-order series expansion).
    """

    quad_coeff: float = 0.0
    linear_coeff: float = 0.0
    log_coeffs: tuple = ()
    gauge: float = 0.0
    eps_order: int | None = None

    def __post_init__(self):
        for c in (self.quad_coeff, self.linear_coeff, self.gauge, *self.log_coeffs):
            if not (isinstance(c, (int, float)) and math.isfinite(c)):
                raise ValueError(f"exponent coefficients must be finite reals: {c!r}")

    def exponent(self, L):
        import numpy as np

        L = np.asarray(L, dtype=float)
        if not np.all((L > 0) & (L < np.inf)):
            raise ValueError("the cutoff must be positive and finite")
        logl = np.log(L)
        # a zero quad_coeff squares 1.0, since 0 * L**2 is NaN once L**2 overflows;
        # times 1.0 it keeps its sign, so every finite result keeps its bits
        out = self.quad_coeff * (L if self.quad_coeff else 1.0) ** 2
        out = out + self.linear_coeff * L + self.gauge
        for p, c in enumerate(self.log_coeffs, start=1):
            out = out + c * logl**p
        return out

    def exponent_shift(self, L, shift):
        """exponent(L + shift) - exponent(L), computed without cancellation."""
        import numpy as np

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
        import numpy as np

        return np.exp(1j * self.exponent(L))

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

    Each divergent term c L^a ln^b L puts eps^order c, bit for bit (so a
    -0.0 keeps its sign), into the L^2, L or ln^b L slot, where ``order`` is
    the model's own coupling order; every model lists its ln terms by
    ascending power from 1.  Constant model terms are left out: they are
    finite and stay in the convergent remainder.  A coupling that is not
    finite, or whose eps^order or eps^order c overflows, is refused by name.
    """
    eps = float(eps)
    if not math.isfinite(eps):
        raise ValueError(f"the coupling must be finite, got eps={eps!r}")
    try:
        power = eps**model.order
    except OverflowError:
        raise ValueError(f"eps^order overflows at eps={eps!r}, order={model.order}") from None
    slots = {}
    for term, c in model.divergent_terms():
        slots[term] = power * c
        # a c that is not finite is DeviationFactor's to refuse
        if math.isinf(slots[term]) and math.isfinite(c):
            raise ValueError(f"eps^order c overflows at eps={eps!r}, order={model.order}")
    quad, linear = slots.pop((2, 0), 0.0), slots.pop((1, 0), 0.0)
    return DeviationFactor(quad, linear, tuple(slots.values()), eps_order=model.order)


def regularize_coefficient(samples, model):
    """Subtract i * (divergent model terms) pointwise from cutoff samples.

    The model's constant term is kept: only the basis terms that grow with L
    are removed, so the result converges as L increases when the model
    matches the samples' divergence.  A divergent part or regularized value
    that overflows is refused by name, at its first cutoff.
    """
    divergent = [model.divergent_part(L) for L in samples.grid]
    values = [v - 1j * d for v, d in zip(samples.values, divergent)]
    for name, part in (("the divergent part", divergent), ("the regularized value", values)):
        for L, x in zip(samples.grid, part):
            if not cmath.isfinite(x):
                raise ValueError(f"{name} overflows at L={L!r}")
    return replace(samples, values=values)


def _finite(values, name, where):
    """``values``, or a ValueError naming them as ``name`` if any is not finite."""
    import numpy as np

    if not np.all(np.isfinite(values)):
        raise ValueError(f"{name} overflows at {where}")
    return values


def _exp_terms(x, n, name, where):
    """x^k/k! for k = 0..n, each term the last one times x/k; refused if one overflows."""
    import numpy as np

    with np.errstate(over="ignore", invalid="ignore"):
        terms = np.cumprod(np.concatenate([[1.0], x / np.arange(1, n + 1)]))
    return _finite(terms, name, where)


@dataclass(frozen=True)
class RegularizedSeries:
    """U0^{-1} d(q, L) with, when available, its per-order coefficients."""

    value: complex
    coefficients: np.ndarray | None  # tilde-a_m, m = 0..N, or None


def regularized_series(a_coeffs, factor, eps, L):
    """Apply the inverse deviation factor to the truncated series at (eps, L).

    ``a_coeffs`` holds a_1..a_N evaluated at this L.  Per-order regularized
    coefficients are computed by expanding exp(-i theta(L) eps^k), whose terms
    (-i theta)^j/j! sit at the orders jk, against the series when the factor
    records its coupling order k and eps is not 0; a gauge phase only rescales
    the whole series and is kept out of the per-order expansion.  A sum d,
    value or coefficient that overflows is refused by name.
    """
    import numpy as np

    a_coeffs = np.asarray(a_coeffs, dtype=complex)
    n = len(a_coeffs)
    where = f"eps={eps!r}, L={L!r}"
    coefficients = None
    # numpy's eps^k in theta may overflow or underflow to 0, where Python's raises
    with np.errstate(all="ignore"):
        d = _finite(1.0 + np.sum(a_coeffs * eps ** np.arange(1, n + 1)), "the sum d", where)
        exponent = factor.exponent(L)
        value = _finite(np.exp(-1j * exponent) * d, "U0^-1 d", where)
        if (k := factor.eps_order) is not None and eps != 0.0:
            theta = (exponent - factor.gauge) / np.float64(eps) ** k
            inv = np.zeros(n + 1, dtype=complex)
            inv[::k] = _exp_terms(-1j * theta, n // k, "(-i theta)^k/k!", where)
            coefficients = np.convolve(inv, np.concatenate([[1.0], a_coeffs]))[: n + 1]
            coefficients *= np.exp(-1j * factor.gauge)
            coefficients = _finite(coefficients, "a regularized coefficient", where)
    return RegularizedSeries(value=complex(value), coefficients=coefficients)


@dataclass(frozen=True)
class ClassAResult:
    """Finite-shift ratio diagnostics U0(L + L0) / U0(L) on a grid."""

    verdict: bool
    ratios: np.ndarray


def class_a_check(factor, shift, grid):
    """Does U0(L + L0) U0(L)^{-1} tend to 1 as L grows?

    Decided analytically from the exponent structure: true iff the L^2 and L
    terms vanish, since ln-power increments ln^p(L + L0) - ln^p(L) all decay.
    The numerical ratio curve is returned as a diagnostic.
    """
    import numpy as np

    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 1 or not np.all(np.diff(grid) > 0):
        raise ValueError("grid must be 1-d and strictly ascending")
    if not (math.isfinite(shift) and shift > 0):
        raise ValueError("shift must be finite and positive")
    ratios = np.exp(1j * factor.exponent_shift(grid, shift))
    return ClassAResult(verdict=factor.pure_log, ratios=ratios)


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
    A coupling that is not finite, or an eps phi, power, a_m or sum d that
    overflows, is refused by name."""
    import numpy as np

    psi = np.asarray(psi, dtype=float)
    if psi.ndim != 1 or psi.size == 0 or psi[0] != 1.0:
        raise ValueError("the constant list must start with psi_0 = 1")
    if not np.isfinite(psi).all():
        raise ValueError("the constants psi must be finite")
    if nmax > psi.size - 1:
        raise ValueError(f"order {nmax} exceeds the {psi.size - 1} supplied constants")
    if not 0 < L < math.inf:
        raise ValueError("the cutoff must be positive and finite")
    if not math.isfinite(eps):
        raise ValueError(f"the coupling must be finite, got eps={eps!r}")
    if eps == 0:
        raise ValueError("the coupling must be nonzero to recover per-order terms")
    where, phase = f"phi={phi!r}, L={L!r}", phi * math.log(L)
    if not math.isfinite(phase):
        raise ValueError(f"phi ln L is not finite at {where}")
    powers = _exp_terms(1j * phase, nmax, "(i phi ln L)^k/k!", where)
    a = _finite(np.convolve(psi[: nmax + 1], powers)[: nmax + 1], "a_m", where)
    if not math.isfinite(coeff := float(eps) * float(phi)):
        raise ValueError(f"eps phi overflows at eps={eps!r}, phi={phi!r}")
    factor = DeviationFactor(log_coeffs=(coeff,), eps_order=1)
    reg = regularized_series(a[1:], factor, eps, L)
    return ResummationResult(
        a_coeffs=a[1:],
        d_value=complex(1.0 + np.sum(a[1:] * eps ** np.arange(1, nmax + 1))),
        d_tilde_value=reg.value,
        recovered=reg.coefficients,
        residuals=np.abs(reg.coefficients - psi[: nmax + 1]),
    )
