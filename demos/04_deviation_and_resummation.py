"""Deviation factors, the class-A criterion, and Coulomb-type resummation.

A deviation factor U0(L) = exp(i [c2 L^2 + c1 L + sum_p c_p ln^p L + gamma])
always lies on the unit circle; whether the regularized amplitude converges
as L -> infinity depends on which exponent terms survive.  Pure-log factors
(class A) give cutoff-independent physics: the ratio U0(L + s)/U0(L) tends
to 1.  A linear term instead leaves a constant phase e^{i c1 s}.
"""

import numpy as np

from scatreg import (
    DeviationFactor,
    class_a_check,
    resum_coulomb_series,
)

grid = np.geomspace(1.0, 1e4, 9)
pure = DeviationFactor(quad_coeff=0.0, linear_coeff=0.0, log_coeffs=(0.3,), gauge=0.1)
linear = DeviationFactor(quad_coeff=0.0, linear_coeff=0.25, log_coeffs=(), gauge=0.0)

for name, factor in (("pure log", pure), ("linear", linear)):
    result = class_a_check(factor, shift=5.0, grid=grid)
    print(f"{name:9s} class A: {result.verdict}")
    print("  |U0(L)| - 1:", f"{max(abs(abs(factor(L)) - 1) for L in grid):.1e}")
    print("  ratio U0(L+5)/U0(L) at largest L:", f"{result.ratios[-1]:+.6f}")
print(f"  (constant phase e^(i c1 s) = {np.exp(1j * 0.25 * 5.0):+.6f})")

# Coulomb-type tails: a_m = sum_k psi_{m-k} (i phi ln L)^k / k! mixes the
# finite constants psi_m with cutoff logs.  Dividing by L^(i eps phi) and
# re-expanding in eps recovers the psi_m exactly, at any cutoff.
psi = [1.0, 0.7, -0.3, 0.05]
phi, eps = 0.8, 0.1
print("\nCoulomb resummation, psi =", psi)
for radius in (1.0, np.e, 10.0, 100.0):
    out = resum_coulomb_series(psi, phi, eps, nmax=3, L=radius)
    print(f"  L = {radius:7.3f}  max per-order residual = {np.max(out.residuals):.1e}")
