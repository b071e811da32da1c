"""Momentum-space Dirac Hamiltonian: closed-form spectra, invariant subspaces,
and simultaneous diagonalization with commuting unitaries.

The 4x4 Hamiltonian H(q) acts by multiplication in momentum space.  Its
spectrum is (-E, -E, +E, +E) with E = sqrt(m^2 + |q|^2); the two degenerate
eigenspaces M1 (negative) and M2 (positive) are invariant under any unitary S
that commutes with H.  Restricting S to those subspaces gives small unitary
blocks whose eigenvalues are the unit-modulus scattering diagonal d_k.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "CommutationError",
    "SubspaceLeakageError",
    "EigenSystem",
    "SpectralSubspaces",
    "ScatteringDiagonal",
    "build_hamiltonian",
    "build_doubled",
    "energy",
    "eigenvalues",
    "eigenvectors_closed_form",
    "spectral_subspaces",
    "apply_multiplication_operator",
    "commutes",
    "simultaneous_diagonalize",
    "random_commuting_unitary",
    "random_unitary",
]

# Below this (relative) momentum the closed-form eigenvectors divide by ~0 and
# H is already diagonal; we fall back to the canonical basis.
_Q_SINGULAR_RTOL = 1e-12


class CommutationError(ValueError):
    """S does not commute with H (or is not unitary) to the requested tolerance."""

    def __init__(self, message, defect):
        super().__init__(f"{message} (defect {defect:.3e})")
        self.defect = defect


class SubspaceLeakageError(ValueError):
    """S couples the two spectral subspaces of H."""

    def __init__(self, leakage):
        super().__init__(
            f"unitary mixes the spectral subspaces (off-block norm {leakage:.3e})"
        )
        self.leakage = leakage


@dataclass(frozen=True)
class EigenSystem:
    """Closed-form spectral data of H(q): columns of ``vectors`` are the
    normalized eigenvectors, ordered to match ``values`` = (-E, -E, +E, +E)."""

    values: np.ndarray
    vectors: np.ndarray


@dataclass(frozen=True)
class SpectralSubspaces:
    """Orthonormal 2-frames spanning the negative (M1) and positive (M2)
    eigenspaces of H(q)."""

    negative: np.ndarray
    positive: np.ndarray

    @property
    def projector_negative(self):
        return self.negative @ self.negative.conj().T

    @property
    def projector_positive(self):
        return self.positive @ self.positive.conj().T


@dataclass(frozen=True)
class ScatteringDiagonal:
    """Common eigenvectors (columns) of H and S with the unit-modulus diagonal
    elements of S on them."""

    vectors: np.ndarray
    diagonal: np.ndarray

    def reconstruct(self):
        """Sum of d_k h_k h_k*, which must reproduce S."""
        return (self.vectors * self.diagonal) @ self.vectors.conj().T


def _check_point(q, m):
    q = np.asarray(q, dtype=float)
    if q.shape != (3,):
        raise ValueError(f"momentum must have 3 components, got shape {q.shape}")
    if not np.all(np.isfinite(q)):
        raise ValueError("momentum components must be finite")
    m = float(m)
    if not np.isfinite(m) or m < 0.0:
        raise ValueError(f"mass must be finite and non-negative, got {m}")
    return q, m


def energy(q, m):
    """E = sqrt(m^2 + |q|^2); a momentum or mass whose E overflows is a
    ValueError."""
    q, m = _check_point(q, m)
    with np.errstate(over="ignore"):
        e = float(np.sqrt(m * m + q @ q))
    if not np.isfinite(e):
        raise ValueError(f"energy sqrt(m^2 + |q|^2) overflows at q={q}, m={m}")
    return e


def build_hamiltonian(q, m):
    """The 4x4 Hermitian momentum-space Dirac matrix H(q)."""
    q, m = _check_point(q, m)
    q1, q2, q3 = q
    return np.array(
        [
            [m, 0.0, q3, q1 - 1j * q2],
            [0.0, m, q1 + 1j * q2, -q3],
            [q3, q1 - 1j * q2, -m, 0.0],
            [q1 + 1j * q2, -q3, 0.0, -m],
        ],
        dtype=complex,
    )


def build_doubled(q, m):
    """Block-diagonal 8x8 matrix diag(H(q), H(q)) for the doubled system."""
    h = build_hamiltonian(q, m)
    out = np.zeros((8, 8), dtype=complex)
    out[:4, :4] = h
    out[4:, 4:] = h
    return out


def eigenvalues(q, m):
    """(-E, -E, +E, +E) with E = sqrt(m^2 + |q|^2)."""
    e = energy(q, m)
    return np.array([-e, -e, e, e])


def _fix_phase(v, tol=1e-13):
    """Rotate so the last component with non-negligible modulus is real positive."""
    idx = np.flatnonzero(np.abs(v) > tol * np.max(np.abs(v)))
    if idx.size == 0:
        return v
    c = v[idx[-1]]
    return v * (np.conj(c) / np.abs(c))


def eigenvectors_closed_form(q, m):
    """Normalized eigenvectors of H(q) from the closed-form expressions.

    The raw expressions divide by m -/+ E, which vanishes at q = 0; there H is
    already diagonal and the canonical basis is returned instead (e3, e4 for
    the negative pair, e1, e2 for the positive pair).
    """
    q, m = _check_point(q, m)
    # H is jointly linear in (q, m): rescale to O(1) so no intermediate
    # quantity goes subnormal, then scale the eigenvalues back.
    scale = max(np.max(np.abs(q)), m)
    if scale > 0:
        q = q / scale
        m = m / scale
    e = float(np.sqrt(m * m + q @ q))
    vals = scale * np.array([-e, -e, e, e])
    sp = m + e  # m + lambda_3
    # m - lambda_3 = -|q|^2 / (m + E): stable against cancellation for |q| << m
    sm = -(q @ q) / sp if sp > 0 else 0.0
    if sm == 0.0:
        # q = 0 up to underflow: H is diagonal, use the canonical basis
        vecs = np.eye(4, dtype=complex)[:, [2, 3, 0, 1]]
        return EigenSystem(values=vals, vectors=vecs)
    q1, q2, q3 = q
    g1 = np.array([(-q1 + 1j * q2) / sp, q3 / sp, 0.0, 1.0])
    g2 = np.array([-q3 / sp, (-q1 - 1j * q2) / sp, 1.0, 0.0])
    # multiplied through by sm (|sm| can underflow |q|^2): entries stay bounded
    g3 = np.array([-q1 + 1j * q2, q3, 0.0, sm])
    g4 = np.array([-q3, -q1 - 1j * q2, sm, 0.0])
    vecs = np.column_stack([g1, g2, g3, g4])
    vecs /= np.max(np.abs(vecs), axis=0)  # avoid squaring subnormal entries
    vecs /= np.linalg.norm(vecs, axis=0)
    for k in range(4):
        vecs[:, k] = _fix_phase(vecs[:, k])
    return EigenSystem(values=vals, vectors=vecs)


def spectral_subspaces(q, m):
    """Orthonormal frames for the invariant spans M1 (negative eigenvalues)
    and M2 (positive): the first and last two closed-form eigenvector columns.

    They are orthonormal by construction: g1 and g2 (g3 and g4) are orthogonal
    identically, and the two pairs belong to the distinct eigenvalues -E and +E
    of the Hermitian H.
    """
    vectors = eigenvectors_closed_form(q, m).vectors
    return SpectralSubspaces(negative=vectors[:, :2], positive=vectors[:, 2:])


def apply_multiplication_operator(h_field, f):
    """Pointwise product H(q_n) f(q_n) over a sampled momentum grid.

    ``h_field`` has shape (n, k, k) and ``f`` shape (n, k) with k = 4 or 8.
    """
    h_field = np.asarray(h_field, dtype=complex)
    f = np.asarray(f, dtype=complex)
    if h_field.ndim != 3 or h_field.shape[1] != h_field.shape[2]:
        raise ValueError(f"expected stacked square matrices, got shape {h_field.shape}")
    if f.shape != h_field.shape[:2]:
        raise ValueError(
            f"field shape {f.shape} does not match operator grid {h_field.shape[:2]}"
        )
    return np.einsum("nij,nj->ni", h_field, f)


def commutes(h, s, tol=1e-8):
    """Relative commutation defect ||HS - SH|| / (||H|| ||S||) and its verdict.

    Raises :class:`CommutationError` if S is not unitary to ``tol``.
    """
    h = np.asarray(h, dtype=complex)
    s = np.asarray(s, dtype=complex)
    if h.shape != s.shape:
        raise ValueError(f"shape mismatch: {h.shape} vs {s.shape}")
    n = h.shape[0]
    unitarity = np.linalg.norm(s.conj().T @ s - np.eye(n)) / np.sqrt(n)
    if unitarity > tol:
        raise CommutationError("matrix is not unitary", unitarity)
    defect = np.linalg.norm(h @ s - s @ h) / (np.linalg.norm(h) * np.linalg.norm(s))
    return defect <= tol, defect


def _diagonalize_unitary(u):
    """Eigendecomposition of a (small) unitary matrix via its Hermitian and
    anti-Hermitian parts; deterministic up to phases of degenerate clusters.

    Returns (phases d, eigenvector columns) sorted by angle(d) ascending in
    (-pi, pi].
    """
    u = np.asarray(u, dtype=complex)
    n = u.shape[0]
    re = (u + u.conj().T) / 2
    w, v = np.linalg.eigh(re)
    # split degenerate clusters of the Hermitian part with (U - U*)/2i
    im = (u - u.conj().T) / 2j
    k = 0
    while k < n:
        jend = k + 1
        while jend < n and w[jend] - w[k] < 1e-10 * max(1.0, abs(w[k])):
            jend += 1
        if jend - k > 1:
            block = v[:, k:jend]
            _, rot = np.linalg.eigh(block.conj().T @ im @ block)
            v[:, k:jend] = block @ rot
        k = jend
    d = np.einsum("ij,jk,ki->i", v.conj().T, u, v)
    d = d / np.abs(d)
    order = np.argsort(np.angle(d), kind="stable")
    return d[order], v[:, order]


def _frames(q, m, size):
    """Eigenspace frames of H (size 4) or of diag(H, H) (size 8)."""
    sub = spectral_subspaces(q, m)
    if size == 4:
        return sub.negative, sub.positive
    neg = np.zeros((8, 4), dtype=complex)
    pos = np.zeros((8, 4), dtype=complex)
    neg[:4, :2] = sub.negative
    neg[4:, 2:] = sub.negative
    pos[:4, :2] = sub.positive
    pos[4:, 2:] = sub.positive
    return neg, pos


def simultaneous_diagonalize(q, m, s, tol=1e-8):
    """Common eigenbasis of H(q) (or its 8x8 doubling) and a commuting unitary S.

    S is restricted to the two degenerate eigenspaces of H, each restriction is
    diagonalized, and the resulting unit-modulus eigenvalues d_k are returned
    together with the common eigenvectors h_k.  Within each block the d_k are
    ordered by phase angle ascending.
    """
    s = np.asarray(s, dtype=complex)
    size = s.shape[0]
    if s.shape != (size, size) or size not in (4, 8):
        raise ValueError(f"expected a 4x4 or 8x8 matrix, got shape {s.shape}")
    h = build_hamiltonian(q, m) if size == 4 else build_doubled(q, m)
    ok, defect = commutes(h, s, tol)
    if not ok:
        raise CommutationError("S does not commute with H", defect)
    neg, pos = _frames(q, m, size)
    leakage = max(
        np.linalg.norm(neg.conj().T @ s @ pos), np.linalg.norm(pos.conj().T @ s @ neg)
    )
    if leakage > tol * np.linalg.norm(s):
        raise SubspaceLeakageError(leakage)
    vectors = np.zeros((size, size), dtype=complex)
    diagonal = np.zeros(size, dtype=complex)
    half = size // 2
    for i, frame in enumerate((neg, pos)):
        d, v = _diagonalize_unitary(frame.conj().T @ s @ frame)
        cols = slice(i * half, (i + 1) * half)
        vectors[:, cols] = frame @ v
        diagonal[cols] = d
    return ScatteringDiagonal(vectors=vectors, diagonal=diagonal)


def random_unitary(size, rng):
    """Haar-like random unitary from a QR factorization."""
    z = rng.standard_normal((size, size)) + 1j * rng.standard_normal((size, size))
    qmat, r = np.linalg.qr(z)
    return qmat * (np.diag(r) / np.abs(np.diag(r)))


def random_commuting_unitary(q, m, seed=None, block_unitaries=None, doubled=False):
    """A unitary commuting with H(q) (or diag(H, H) when ``doubled``).

    Built as B diag(U1, U2, ...) B* where B stacks the eigenspace frames and
    the U_i are 2x2 unitary blocks, either supplied explicitly or drawn from
    ``seed``.  Two blocks for the 4x4 system, four for the doubled one.
    """
    size = 8 if doubled else 4
    nblocks = size // 2
    if block_unitaries is None:
        if seed is None:
            raise ValueError("either a seed or explicit block unitaries is required")
        rng = np.random.default_rng(seed)
        block_unitaries = [random_unitary(2, rng) for _ in range(nblocks)]
    if len(block_unitaries) != nblocks:
        raise ValueError(f"expected {nblocks} 2x2 blocks, got {len(block_unitaries)}")
    neg, pos = _frames(q, m, size)
    basis = np.hstack([neg, pos])
    core = np.zeros((size, size), dtype=complex)
    for i, u in enumerate(block_unitaries):
        u = np.asarray(u, dtype=complex)
        if u.shape != (2, 2):
            raise ValueError(f"block {i} is not 2x2: shape {u.shape}")
        core[2 * i : 2 * i + 2, 2 * i : 2 * i + 2] = u
    return basis @ core @ basis.conj().T
