"""Regularization pipeline for scattering-matrix diagonal elements.

Subpackages by capability:

* :mod:`scatreg.dirac` -- momentum-space Dirac Hamiltonian, closed-form
  spectra, simultaneous diagonalization with commuting unitaries.
* :mod:`scatreg.integrand` -- small expression language for rational
  integrands F(P, Q).
* :mod:`scatreg.ballquad` -- cutoff integrals over the 4-ball, singularity screening.
* :mod:`scatreg.samples` -- cutoff samples, the values that the integrals give
  and the fits read (re-exported by :mod:`scatreg.ballquad`).
* :mod:`scatreg.asymfit` -- least-squares extraction of divergence
  coefficients (log, power-log, poly-log models).
* :mod:`scatreg.deviation` -- deviation factors U0(L, q), regularized series,
  class-A membership, Coulomb-type resummation.
* :mod:`scatreg.cli` -- batch front end (``scatreg`` entry point).

The subpackages and the names below are imported on first use (PEP 562), so
``import scatreg.cli`` loads only what the CLI itself needs.
"""

import importlib

_EXPORTS = {
    "asymfit": ("LogModel", "PolyLogModel", "PowerLogModel", "classify", "fit"),
    "ballquad": ("BallRegion", "QuadratureSpec", "integrate_ball", "sample_over_cutoffs",
                 "screen_singularities"),
    "deviation": ("DeviationFactor", "class_a_check", "factor_from_model",
                  "regularize_coefficient", "regularized_series", "resum_coulomb_series"),
    "dirac": ("build_doubled", "build_hamiltonian", "commutes", "eigenvalues",
              "eigenvectors_closed_form", "joint_diagonalize", "random_commuting_unitary",
              "simultaneous_diagonalize", "spectral_subspaces"),
    "integrand": ("evaluate", "parse_integrand", "pretty_print"),
    "samples": ("CutoffSamples",),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = [*_EXPORTS, *_HOME]
__version__ = "0.1.0"


def __getattr__(name):
    if name in _EXPORTS:
        return importlib.import_module(f"{__name__}.{name}")
    if name in _HOME:
        return getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted([*globals(), *__all__])
