"""Reference values the benchmark checks scatreg's outputs against.

Nothing here imports scatreg: the integrals come from closed forms or from
scipy's adaptive quadrature on a symmetry-reduced integral, and the Dirac
residuals are recomputed from the written eigenvectors with a Hamiltonian
built here.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.integrate import quad

# Coefficient of ln L in the ball integral of 1/(P^2+m^2)^2 (and of any
# integrand with that large-P behaviour): pi^2 ln(L^2) = 2 pi^2 ln L.
PHI_EXACT = 2 * math.pi**2


def radial_closed_form(L, m):
    """Integral of 1/(P^2+m^2)^2 over the 4-ball |P| <= L:
    pi^2 [ln(1 + L^2/m^2) + m^2/(m^2 + L^2) - 1]."""
    L = np.asarray(L, dtype=float)
    return np.pi**2 * (np.log1p(L**2 / m**2) + m**2 / (m**2 + L**2) - 1.0)


def bubble_reduced(grid, q_norm, m):
    """Integral of 1/((P^2+m^2)((P+q)^2+m^2)) over each 4-ball |P| <= L.

    The ball is O(4)-invariant, so q can be rotated onto the p0 axis, where
    PQ = |q| r cos(chi) and the two trivial angles give 4 pi:

        4 pi int_0^L r^3 dr int_0^pi sin^2(chi) f(r, |q| r cos chi) dchi

    Shells between consecutive cutoffs are integrated separately and summed,
    so every cutoff reuses the smaller ones.
    """
    m2 = m * m
    q2 = q_norm * q_norm

    def inner(r):
        a = r * r + q2 + m2
        b = 2.0 * q_norm * r
        value, _ = quad(
            lambda chi: math.sin(chi) ** 2 / (a + b * math.cos(chi)),
            0.0, math.pi, epsabs=0.0, epsrel=1e-13, limit=200,
        )
        return r**3 / (r * r + m2) * value

    edges = np.concatenate([[0.0], np.asarray(grid, dtype=float)])
    shells = []
    for lo, hi in zip(edges[:-1], edges[1:]):
        # split each shell geometrically so the mass scale near r ~ m is resolved
        cuts = np.unique(np.concatenate([[lo, hi], np.geomspace(max(lo, m / 8), hi, 8)]))
        cuts = cuts[(cuts >= lo) & (cuts <= hi)]
        total = 0.0
        for a, b in zip(cuts[:-1], cuts[1:]):
            value, err = quad(inner, a, b, epsabs=0.0, epsrel=1e-13, limit=200)
            if not math.isfinite(value) or err > 1e-10 * max(abs(value), 1.0):
                raise ArithmeticError(f"oracle quadrature did not converge on [{a}, {b}]")
            total += value
        shells.append(total)
    return 4.0 * math.pi * np.cumsum(shells)


def dirac_hamiltonian(q, m):
    """H(q) = alpha . q + beta m in the Dirac representation, for q of shape
    (3,) or (n, 3)."""
    q = np.asarray(q, dtype=float)
    q1, q2, q3 = q[..., 0], q[..., 1], q[..., 2]
    m = np.full_like(q1, m)
    zero = np.zeros_like(q1)
    rows = [
        [m, zero, q3, q1 - 1j * q2],
        [zero, m, q1 + 1j * q2, -q3],
        [q3, q1 - 1j * q2, -m, zero],
        [q1 + 1j * q2, -q3, zero, -m],
    ]
    return np.stack([np.stack(row, axis=-1) for row in rows], axis=-2).astype(complex)


def spectra_errors(entries, m):
    """Accuracy of the written spectra, one row per momentum point.

    Each entry is one element of ``eigenvectors.json``.  Returns an (n, 3)
    array of: the worst relative eigen-residual ||H v - lambda v|| / ||H||_F,
    the worst eigenvalue error against LAPACK relative to ||H||_2, and the
    unitarity defect ||V* V - I||_F of the eigenvector matrix.
    """
    h = dirac_hamiltonian([e["q"] for e in entries], m)
    vals = np.array([e["eigenvalues"] for e in entries], dtype=float)
    vecs = np.array([e["vectors_re"] for e in entries]) + 1j * np.array(
        [e["vectors_im"] for e in entries]
    )
    lapack = np.linalg.eigvalsh(h)
    residual = np.linalg.norm(h @ vecs - vecs * vals[:, None, :], axis=1)
    gram = np.conj(np.swapaxes(vecs, 1, 2)) @ vecs - np.eye(4)
    return np.column_stack([
        np.max(residual, axis=1) / np.linalg.norm(h, axis=(1, 2)),
        np.max(np.abs(np.sort(vals, axis=1) - lapack), axis=1) / np.max(np.abs(lapack), axis=1),
        np.linalg.norm(gram, axis=(1, 2)),
    ])
