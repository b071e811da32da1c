"""Divergence fitting and coefficient regularization, end to end.

Samples the divergent coefficient i * Int_{|p|<=L} d^4p / (P2+1)^2 on a
geometric cutoff grid, classifies its growth, fits the logarithmic model
i [ phi ln L + psi ], and subtracts the divergent part to expose the finite
remainder psi = -pi^2.
"""

import numpy as np

from scatreg import (
    BallRegion,
    QuadratureSpec,
    classify,
    factor_from_model,
    fit,
    parse_integrand,
    regularize_coefficient,
    sample_over_cutoffs,
)

expr = parse_integrand("1/(P2+1)^2")
grid = np.geomspace(10.0, 160.0, 9)
samples = sample_over_cutoffs(
    None, expr, np.zeros(3), 1.0, grid, QuadratureSpec()
)

report = classify(samples, tail_fraction=0.6)
print("classified model:", report.model.kind)

report = fit(samples, "log", tail_fraction=0.6)
phi, psi = report.model.phi, report.model.psi
print(f"phi = {phi:.6f}   (2 pi^2  = {2 * np.pi**2:.6f},"
      f" rel err {abs(phi - 2 * np.pi**2) / (2 * np.pi**2):.1e})")
print(f"psi = {psi:.6f}   (-pi^2   = {-np.pi**2:.6f},"
      f" rel err {abs(psi + np.pi**2) / np.pi**2:.1e})")
print("decay check on residuals:", report.decay_ok)

reg = regularize_coefficient(samples, report.model)
print("\nregularized coefficient a~(L) = a(L) - i phi ln L:")
for radius, value in zip(grid, reg.values):
    print(f"  L = {radius:6.1f}   a~ = {value.imag:+.6f}")
diffs = np.abs(np.diff(np.imag(reg.values)))
print("successive differences:", np.array2string(diffs, precision=2))

factor = factor_from_model(report.model, eps=0.1)
print("\ndeviation factor exponent coefficients:",
      {"c2": factor.quad_coeff, "c1": factor.linear_coeff,
       "c_ln": factor.log_coeffs, "gauge": factor.gauge})
