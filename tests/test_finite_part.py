"""The finite part psi of the Euclidean bubble against its closed form.

On the ball |P| <= L,

    int 1/((P2+m^2)(P2+2PQ+Q2+m^2)) = pi^2 [ln L^2 - 1 - J] + O(1/L^2),

so the log model's coefficients are phi = 2 pi^2 and psi = -pi^2 (1 + J), with

    J = ln m^2 - 2 + beta ln((beta + 1)/(beta - 1)),  beta = sqrt(1 + 4 m^2/|q|^2),

and J = ln m^2 at q = 0.
"""

import math

import numpy as np
import pytest

from scatreg.asymfit import fit
from scatreg.ballquad import sample_over_cutoffs
from scatreg.integrand import parse_integrand

BUBBLE = "1/((P2+m^2)*(P2+2*PQ+Q2+m^2))"
# the sweep: every mass with every |q|, q along p0, on one cutoff grid
MASSES = (1.0, 0.3, 0.1)
Q_NORMS = (0.0, 0.5, 1.5, 5.0)
GRID = np.geomspace(10, 1e4, 9)


def bubble_finite_part(q_norm, m):
    """psi = -pi^2 (1 + J) of the bubble above."""
    j = math.log(m * m)
    if q_norm > 0:
        beta = math.sqrt(1 + 4 * m * m / q_norm**2)
        j += -2 + beta * math.log((beta + 1) / (beta - 1))
    return -math.pi**2 * (1 + j)


def test_bubble_finite_part_meets_the_radial_closed_form_and_its_q_to_zero_limit():
    # at q = 0 the bubble is 1/(P2+m^2)^2, whose integral on |P| <= L is
    # pi^2 [ln(1 + L^2/m^2) + m^2/(m^2 + L^2) - 1]; at L = 1e6 its O(1/L^2)
    # remainder is below 1e-10
    L = 1e6
    for m in MASSES:
        radial = math.pi**2 * (math.log1p(L**2 / m**2) + m**2 / (m**2 + L**2) - 1)
        psi = bubble_finite_part(0.0, m)
        assert radial - 2 * math.pi**2 * math.log(L) == pytest.approx(psi, abs=1e-9)
        # beta ln((beta + 1)/(beta - 1)) -> 2 as |q| -> 0
        assert bubble_finite_part(1e-5, m) == pytest.approx(psi, abs=1e-6)


@pytest.mark.xfail(
    strict=True,
    reason="the log fit has no remainder columns and states only its residual "
    "scatter (ROADMAP item 1), so psi misses by 2.5x to 5000x its stderr",
)
def test_log_fit_states_an_uncertainty_that_covers_the_finite_part():
    # bound: |psi - closed form| <= the fit's own stderr of psi, at every point
    f = parse_integrand(BUBBLE)
    misses = []
    for m in MASSES:
        for q_norm in Q_NORMS:
            report = fit(sample_over_cutoffs(None, f, (q_norm, 0, 0, 0), m, GRID), "log")
            error = abs(report.model.psi - bubble_finite_part(q_norm, m))
            if not error <= report.stderr[1]:
                misses.append((m, q_norm, error, report.stderr[1]))
    assert not misses
