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
    "commutes",
    "joint_diagonalize",
    "simultaneous_diagonalize",
    "random_commuting_unitary",
]

# eigenvectors of H(0) = diag(m, m, -m, -m) in the order (-E, -E, +E, +E)
_AT_REST = np.eye(4, dtype=complex)[:, [2, 3, 0, 1]]


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
    normalized eigenvectors, ordered to match ``values`` = (-E, -E, +E, +E);
    stacked along a leading axis for stacked momenta."""

    values: np.ndarray
    vectors: np.ndarray


@dataclass(frozen=True)
class SpectralSubspaces:
    """Orthonormal 2-frames spanning the negative (M1) and positive (M2)
    eigenspaces of H(q)."""

    negative: np.ndarray
    positive: np.ndarray


@dataclass(frozen=True)
class ScatteringDiagonal:
    """Common eigenvectors (columns) of H and S with the unit-modulus diagonal
    elements of S on them; stacked along a leading axis for stacked momenta."""

    vectors: np.ndarray
    diagonal: np.ndarray

    def reconstruct(self):
        """Sum of d_k h_k h_k*, which must reproduce S."""
        return (self.vectors * self.diagonal[..., None, :]) @ _adjoint(self.vectors)


def _check_point(q, m):
    """One momentum (3,) or a stack (n, 3), checked finite, and a finite
    non-negative mass: a scalar, or one per momentum (n,) for a stack."""
    q = np.ascontiguousarray(q, dtype=float)
    if q.ndim not in (1, 2) or q.shape[-1] != 3:
        raise ValueError(f"momentum must have shape (3,) or (n, 3), got {q.shape}")
    if not np.isfinite(q).all():
        raise ValueError("momentum components must be finite")
    m = np.asarray(m, dtype=float)
    if m.shape not in ((), q.shape[:-1]):
        raise ValueError(f"mass must be a scalar or one per momentum, got shape {m.shape}")
    if not (np.isfinite(m) & (m >= 0.0)).all():
        raise ValueError(f"mass must be finite and non-negative, got {m}")
    return q, (float(m) if m.ndim == 0 else m)


def _norm2(q):
    """|q|^2 per momentum, bitwise equal to ``q @ q`` (einsum and
    ``(q * q).sum(-1)`` round differently)."""
    return (q[..., None, :] @ q[..., :, None])[..., 0, 0]


def _fro(x):
    """Frobenius norm of each trailing matrix, bitwise equal to
    ``np.linalg.norm`` of a C-ordered one (or of a Hermitian one)."""
    x = x.reshape(x.shape[:-2] + (-1,))
    return np.sqrt(_norm2(x.real) + _norm2(x.imag))


def _rescaled(q, m):
    """H is jointly linear in (q, m): the scale max(|q_i|, m) of each momentum
    and (q, m) divided by it, so no intermediate quantity goes subnormal."""
    scale = np.maximum(np.abs(q).max(axis=-1), m)
    safe = np.where(scale > 0, scale, 1.0)
    return scale, q / safe[..., None], m / safe


def energy(q, m):
    """E = sqrt(m^2 + |q|^2) per momentum; a momentum or mass whose E
    overflows is a ValueError."""
    q, m = _check_point(q, m)
    with np.errstate(over="ignore"):
        e2 = m * m + _norm2(q)
    e = np.sqrt(e2)
    if not np.all(np.isfinite(e)):
        i = np.argmin(np.isfinite(e))  # the first that overflows
        q, m = q.reshape(-1, 3)[i], np.broadcast_to(m, np.shape(e)).ravel()[i]
        raise ValueError(f"energy sqrt(m^2 + |q|^2) overflows at q={q}, m={m}")
    # where m^2 + |q|^2 underflows, take E on the rescaled momentum
    under = e2 < np.finfo(float).tiny
    if np.any(under):
        scale, q, m = _rescaled(q, m)
        e = np.where(under, scale * np.sqrt(m * m + _norm2(q)), e)[()]
    return e


def build_hamiltonian(q, m):
    """The 4x4 Hermitian momentum-space Dirac matrix H(q), stacked (n, 4, 4)
    for stacked momenta."""
    q, m = _check_point(q, m)
    q1, q2, q3 = q.T
    zero = np.zeros(q.shape[:-1])
    mm = zero + m
    # listed by columns, which .T puts last (np.stack costs ~10 us a call):
    # H is Hermitian, so column j is the conjugate of row j
    columns = [
        [mm, zero, q3, q1 + 1j * q2],
        [zero, mm, q1 - 1j * q2, -q3],
        [q3, q1 + 1j * q2, -mm, zero],
        [q1 - 1j * q2, -q3, zero, -mm],
    ]
    return np.array(columns, dtype=complex).T


def build_doubled(q, m):
    """Block-diagonal 8x8 matrix diag(H(q), H(q)) for the doubled system,
    stacked (n, 8, 8) for stacked momenta."""
    h = build_hamiltonian(q, m)
    out = np.zeros(h.shape[:-2] + (8, 8), dtype=complex)
    out[..., :4, :4] = h
    out[..., 4:, 4:] = h
    return out


def eigenvalues(q, m):
    """(-E, -E, +E, +E) with E = sqrt(m^2 + |q|^2), one row per momentum."""
    e = energy(q, m)
    return np.array([-e, -e, e, e]).T


def eigenvectors_closed_form(q, m):
    """Normalized eigenvectors of H(q) from the closed-form expressions, for
    one momentum (3,) or a stack (n, 3).

    Each column is rotated so that its last entry above 1e-13 of the column's
    largest is real positive.  The raw expressions divide by m -/+ E, which
    vanishes at q = 0; there H is already diagonal and the canonical basis is
    used instead (e3, e4 for the negative pair, e1, e2 for the positive pair).
    """
    # rescaled to O(1), the eigenvalues scaled back
    scale, q, m = _rescaled(*_check_point(q, m))
    qq = _norm2(q)
    e = np.sqrt(m * m + qq)
    vals = (scale * np.array([-e, -e, e, e])).T
    # at-rest rows divide by ~0 here; they are replaced below
    with np.errstate(all="ignore"):
        sp = m + e  # m + lambda_3
        # m - lambda_3 = -|q|^2 / (m + E): stable against cancellation for |q| << m
        sm = np.where(sp > 0, -qq / sp, 0.0)
        q1, q2, q3 = q.T
        zero = np.zeros(q.shape[:-1])
        one = zero + 1.0
        columns = [  # g1, g2, g3, g4
            [(-q1 + 1j * q2) / sp, q3 / sp, zero, one],
            [-q3 / sp, (-q1 - 1j * q2) / sp, one, zero],
            # multiplied through by sm (|sm| can underflow |q|^2): entries stay bounded
            [-q1 + 1j * q2, q3, zero, sm],
            [-q3, -q1 - 1j * q2, sm, zero],
        ]
        vecs = np.array(columns, dtype=complex).T
        vecs /= np.abs(vecs).max(axis=-2, keepdims=True)  # avoid squaring subnormals
        vecs /= np.linalg.norm(vecs, axis=-2, keepdims=True)
        # rotate the last entry above 1e-13 of each column's largest to real positive
        size = np.abs(vecs)
        big = size > 1e-13 * size.max(axis=-2, keepdims=True)
        last = 3 - big[..., ::-1, :].argmax(axis=-2, keepdims=True)
        c = np.take_along_axis(vecs, last, axis=-2)
        vecs = vecs * (np.conj(c) / np.abs(c))
    # q = 0 up to underflow: H is diagonal, use the canonical basis
    vecs = np.where((sm == 0.0)[..., None, None], _AT_REST, vecs)
    return EigenSystem(values=vals, vectors=vecs)


def spectral_subspaces(q, m):
    """Orthonormal frames for the invariant spans M1 (negative eigenvalues)
    and M2 (positive): the first and last two closed-form eigenvector columns.

    They are orthonormal by construction: g1 and g2 (g3 and g4) are orthogonal
    identically, and the two pairs belong to the distinct eigenvalues -E and +E
    of the Hermitian H.
    """
    vectors = eigenvectors_closed_form(q, m).vectors
    return SpectralSubspaces(negative=vectors[..., :2], positive=vectors[..., 2:])


def _adjoint(x):
    """Conjugate transpose of each trailing matrix."""
    return np.swapaxes(x.conj(), -1, -2)


def _defects(h, s):
    """Unitarity defect ||S*S - I|| / sqrt(n) and relative commutation defect
    ||HS - SH|| / (||H|| ||S||), per matrix of a stack; an exact commutator
    (H = 0 included) has defect 0."""
    n = s.shape[-1]
    unitarity = _fro(_adjoint(s) @ s - np.eye(n)) / np.sqrt(n)
    commutator = _fro(h @ s - s @ h)
    with np.errstate(invalid="ignore"):
        defect = commutator / (_fro(h) * _fro(s))
    return unitarity, np.where(commutator == 0, 0.0, defect)[()]


def commutes(h, s, tol=1e-8):
    """Relative commutation defect ||HS - SH|| / (||H|| ||S||) and its verdict.

    Raises :class:`CommutationError` if S is not unitary to ``tol``.
    """
    h = np.asarray(h, dtype=complex)
    s = np.asarray(s, dtype=complex)
    if h.shape != s.shape:
        raise ValueError(f"shape mismatch: {h.shape} vs {s.shape}")
    unitarity, defect = _defects(h, s)
    if unitarity > tol:
        raise CommutationError("matrix is not unitary", unitarity)
    return defect <= tol, defect


def _diagonalize_unitary(u):
    """Eigendecomposition of a stack of small unitary matrices via their
    Hermitian and anti-Hermitian parts; deterministic up to phases of
    degenerate clusters.

    Returns (phases d, eigenvector columns) sorted by angle(d) ascending in
    (-pi, pi].
    """
    u = np.asarray(u, dtype=complex)
    n = u.shape[-1]
    w, v = np.linalg.eigh((u + _adjoint(u)) / 2)
    # split degenerate clusters of the Hermitian part with (U - U*)/2i, on the
    # matrices that have one: a cluster exists iff two neighbours are close
    close = np.diff(w, axis=-1) < 1e-10 * np.maximum(1.0, np.abs(w[..., :-1]))
    for row in np.argwhere(close.any(axis=-1)):
        w1, v1, u1 = w[tuple(row)], v[tuple(row)], u[tuple(row)]
        im = (u1 - u1.conj().T) / 2j
        k = 0
        while k < n:
            jend = k + 1
            while jend < n and w1[jend] - w1[k] < 1e-10 * max(1.0, abs(w1[k])):
                jend += 1
            if jend - k > 1:
                block = v1[:, k:jend]
                _, rot = np.linalg.eigh(block.conj().T @ im @ block)
                v1[:, k:jend] = block @ rot
            k = jend
    d = np.einsum("...ij,...jk,...ki->...i", _adjoint(v), u, v)
    d = d / np.abs(d)
    order = np.argsort(np.angle(d), axis=-1, kind="stable")
    d = np.take_along_axis(d, order, -1)
    return d, np.take_along_axis(v, order[..., None, :], -1)


def _frames(q, m, size):
    """Eigenspace frames of H (size 4) or of diag(H, H) (size 8), stacked for
    stacked momenta."""
    sub = spectral_subspaces(q, m)
    if size == 4:
        return sub.negative, sub.positive
    frames = []
    for frame in (sub.negative, sub.positive):
        doubled = np.zeros(frame.shape[:-2] + (8, 4), dtype=complex)
        doubled[..., :4, :2] = frame
        doubled[..., 4:, 2:] = frame
        frames.append(doubled)
    return frames


def joint_diagonalize(q, m, s, tol=1e-8):
    """Common eigenbasis of H(q) (or its 8x8 doubling) and a commuting unitary
    S, and a list of the error each row fails with, or None (one entry for
    one momentum).

    S is restricted to the two degenerate eigenspaces of H, each restriction is
    diagonalized, and the resulting unit-modulus eigenvalues d_k are returned
    together with the common eigenvectors h_k.  Within each block the d_k are
    ordered by phase angle ascending.  Stacked momenta (n, 3) take a stack of
    S (n, size, size); row i equals the one-momentum call on row i bit for
    bit.  Failing rows are not diagonalized (zero columns).
    """
    q, m = _check_point(q, m)
    s = np.asarray(s, dtype=complex)
    size = s.shape[-1] if s.ndim else 0
    if s.shape != q.shape[:-1] + (size, size) or size not in (4, 8):
        raise ValueError(
            f"expected a 4x4 or 8x8 matrix per momentum, got shape {s.shape} "
            f"for momenta {q.shape}"
        )
    one = q.ndim == 1
    q, s = q.reshape(-1, 3), s.reshape(-1, size, size)
    h = build_hamiltonian(q, m) if size == 4 else build_doubled(q, m)
    unitarity, defect = _defects(h, s)
    neg, pos = _frames(q, m, size)
    leak = _fro(_adjoint(neg) @ s @ pos)
    back = _fro(_adjoint(pos) @ s @ neg)
    leakage = np.where(back > leak, back, leak)  # the one max(leak, back) returns
    errors = []
    for unit, comm, leaks, bound in zip(unitarity, defect, leakage, tol * _fro(s)):
        if unit > tol:
            errors.append(CommutationError("matrix is not unitary", unit))
        elif not comm <= tol:
            errors.append(CommutationError("S does not commute with H", comm))
        elif leaks > bound:
            errors.append(SubspaceLeakageError(leaks))
        else:
            errors.append(None)
    ok = np.array([error is None for error in errors], dtype=bool)
    vectors = np.zeros(s.shape, dtype=complex)
    diagonal = np.zeros(s.shape[:-1], dtype=complex)
    half = size // 2
    for i, frame in enumerate((neg[ok], pos[ok])):
        d, v = _diagonalize_unitary(_adjoint(frame) @ s[ok] @ frame)
        cols = slice(i * half, (i + 1) * half)
        vectors[ok, :, cols] = frame @ v
        diagonal[ok, cols] = d
    if one:
        vectors, diagonal = vectors[0], diagonal[0]
    return ScatteringDiagonal(vectors=vectors, diagonal=diagonal), errors


def simultaneous_diagonalize(q, m, s, tol=1e-8):
    """:func:`joint_diagonalize` that raises the first failing row's error."""
    diag, errors = joint_diagonalize(q, m, s, tol)
    for error in errors:
        if error is not None:
            raise error
    return diag


def random_commuting_unitary(q, m, seed, doubled=False):
    """A unitary commuting with H(q) (or diag(H, H) when ``doubled``), stacked
    (n, size, size) for stacked momenta.

    Built as B diag(U1, U2, ...) B* where B stacks the eigenspace frames and
    the U_i are Haar-random 2x2 unitary blocks, two for the 4x4 system and
    four for the doubled one.  ``seed`` is anything ``np.random.default_rng``
    takes, a Generator included; the whole stack is one ``standard_normal``
    draw from it.
    """
    q, m = _check_point(q, m)
    size = 8 if doubled else 4
    nblocks = size // 2
    if seed is None:
        raise ValueError("a seed is required")
    # per block: the real part, then the imaginary part
    gauss = np.random.default_rng(seed).standard_normal(q.shape[:-1] + (nblocks, 2, 2, 2))
    # Haar blocks: the Q of a QR factorization of the complex Gaussian
    # matrices, with the phases of diag(R) moved into it
    qmat, r = np.linalg.qr(gauss[..., 0, :, :] + 1j * gauss[..., 1, :, :])
    phases = np.diagonal(r, axis1=-2, axis2=-1)
    blocks = qmat * (phases / np.abs(phases))[..., None, :]
    neg, pos = _frames(q, m, size)
    basis = np.concatenate([neg, pos], axis=-1)
    core = np.zeros(q.shape[:-1] + (size, size), dtype=complex)
    for i in range(nblocks):
        core[..., 2 * i : 2 * i + 2, 2 * i : 2 * i + 2] = blocks[..., i, :, :]
    return basis @ core @ _adjoint(basis)
