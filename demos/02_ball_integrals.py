"""Cutoff integrals over a 4-ball, checked against a closed form.

The integrand ``1/(P2+m^2)^2`` depends only on the radial coordinate, so the
cutoff integral over |p| <= L has the closed form

    pi^2 [ ln(1 + L^2/m^2) + m^2 / (m^2 + L^2) - 1 ]

which diverges like 2 pi^2 ln L.  We compare the Gauss-Legendre rule (the 2-D
(r, chi) product, since the integrand is O(4)-invariant) against it, at m = 1
and at a second mass.
"""

import numpy as np

from scatreg import BallRegion, integrate_ball, parse_integrand

expr = parse_integrand("1/(P2+m^2)^2")
q = np.zeros(3)


def closed_form(radius, m=1.0):
    return np.pi**2 * (np.log1p(radius**2 / m**2) + m**2 / (m**2 + radius**2) - 1)


print(f"{'L':>6} {'quadrature':>16} {'closed form':>16} {'rel err':>10} {'est err':>10}")
for radius in (10.0, 20.0, 40.0, 80.0, 160.0):
    value, err = integrate_ball(None, expr, q, 1.0, BallRegion(radius=radius))
    exact = closed_form(radius)
    print(f"{radius:6.0f} {value.imag:16.8f} {exact:16.8f}"
          f" {abs(value.imag - exact) / exact:10.1e} {err:10.1e}")

value, _ = integrate_ball(None, expr, q, 0.3, BallRegion(radius=40.0))
exact = closed_form(40.0, 0.3)
print(f"\nm = 0.3, L = 40: quadrature {value.imag:.8f}, closed form {exact:.8f}")
