"""Regularization pipeline for scattering-matrix diagonal elements.

Subpackages by capability:

* :mod:`scatreg.dirac` -- momentum-space Dirac Hamiltonian, closed-form
  spectra, simultaneous diagonalization with commuting unitaries.
* :mod:`scatreg.integrand` -- small expression language for rational
  integrands F(P, Q).
* :mod:`scatreg.ballquad` -- cutoff integrals over the 4-ball of radius L.
* :mod:`scatreg.asymfit` -- least-squares extraction of divergence
  coefficients (log, power-log, poly-log models).
* :mod:`scatreg.deviation` -- deviation factors U0(L, q), regularized series,
  class-A membership, Coulomb-type resummation.
* :mod:`scatreg.cli` -- batch front end (``scatreg`` entry point).
"""

from . import asymfit, ballquad, deviation, dirac, integrand
from .asymfit import LogModel, PolyLogModel, PowerLogModel, classify, fit
from .ballquad import (
    BallRegion,
    CutoffSamples,
    QuadratureSpec,
    integrate_ball,
    radial_oracle,
    sample_over_cutoffs,
)
from .deviation import (
    DeviationFactor,
    class_a_check,
    factor_from_model,
    gauge_multiply,
    regularize_coefficient,
    regularized_series,
    resum_coulomb_series,
)
from .dirac import (
    build_doubled,
    build_hamiltonian,
    commutes,
    eigenvalues,
    eigenvectors_closed_form,
    random_commuting_unitary,
    simultaneous_diagonalize,
    spectral_subspaces,
)
from .integrand import evaluate, parse_integrand, pretty_print, screen_singularities

__version__ = "0.1.0"
