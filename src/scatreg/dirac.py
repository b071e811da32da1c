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


def energy(q, m):
    """E = sqrt(m^2 + |q|^2) per momentum, taken on (q, m) / 2^k, k the exponent
    of max(|q_i|, m), and scaled back by 2^k: a power of two scales exactly, so
    E has the plain formula's bits wherever m^2 + |q|^2 is a normal float, and
    is finite past its overflow; a momentum or mass whose E itself overflows
    is a ValueError."""
    q, m = _check_point(q, m)
    k = np.frexp(np.maximum(np.abs(q).max(axis=-1), m))[1]
    qs, ms = np.ldexp(q, -np.expand_dims(k, -1)), np.ldexp(m, -k)
    with np.errstate(over="ignore"):
        e = np.ldexp(np.sqrt(ms * ms + _norm2(qs)), k)
    if not np.all(np.isfinite(e)):
        i = np.argmin(np.isfinite(e))  # the first that overflows
        q, m = q.reshape(-1, 3)[i], np.broadcast_to(m, np.shape(e)).ravel()[i]
        raise ValueError(f"energy sqrt(m^2 + |q|^2) overflows at q={q}, m={m}")
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


def _doubled(x):
    """diag(x, x) for each trailing 4x4 matrix of a stack."""
    out = np.zeros(x.shape[:-2] + (8, 8), dtype=complex)
    out[..., :4, :4] = out[..., 4:, 4:] = x
    return out


def build_doubled(q, m):
    """Block-diagonal 8x8 matrix diag(H(q), H(q)) for the doubled system,
    stacked (n, 8, 8) for stacked momenta."""
    return _doubled(build_hamiltonian(q, m))


def eigenvalues(q, m):
    """(-E, -E, +E, +E) with E = sqrt(m^2 + |q|^2), one row per momentum."""
    e = energy(q, m)
    return np.array([-e, -e, e, e]).T


def eigenvectors_closed_form(q, m):
    """Normalized eigenvectors of H(q) from the closed-form expressions, with
    ``values`` = eigenvalues(q, m), for one momentum (3,) or a stack (n, 3)."""
    q, m = _check_point(q, m)
    return EigenSystem(values=eigenvalues(q, m), vectors=_basis(q, m, 4))


def spectral_subspaces(q, m):
    """Orthonormal 2-frames (negative, positive) for the invariant spans M1
    (negative eigenvalues) and M2 (positive eigenvalues) of H(q): the first
    and last two closed-form eigenvector columns."""
    vectors = _basis(*_check_point(q, m), 4)
    return vectors[..., :2], vectors[..., 2:]


def _basis(q, m, size):
    """The closed-form eigenbasis of H (size 4) or of diag(H, H) (size 8) at
    checked momenta, stacked for stacked momenta: negative-energy columns
    first, and for diag(H, H) each pair of the first copy before the second's.

    Each column is rotated so that its last entry above 1e-13 of the column's
    largest is real positive.  The raw expressions divide by m -/+ E, which
    vanishes at q = 0; there H is already diagonal and the canonical basis is
    used instead (e3, e4 for the negative pair, e1, e2 for the positive pair).
    The columns are orthonormal by construction: g1 and g2 (g3 and g4) are
    orthogonal identically, and the two pairs belong to the distinct
    eigenvalues -E and +E of the Hermitian H.
    """
    # H is jointly linear in (q, m): divided by max(|q_i|, m) no intermediate
    # quantity goes subnormal, and the eigenvectors do not depend on the scale
    scale = np.maximum(np.abs(q).max(axis=-1), m)
    safe = np.where(scale > 0, scale, 1.0)
    q, m = q / safe[..., None], m / safe
    qq = _norm2(q)
    e = np.sqrt(m * m + qq)
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
        mag = np.abs(vecs)
        big = mag > 1e-13 * mag.max(axis=-2, keepdims=True)
        last = 3 - big[..., ::-1, :].argmax(axis=-2, keepdims=True)
        c = np.take_along_axis(vecs, last, axis=-2)
        vecs = vecs * (np.conj(c) / np.abs(c))
    # q = 0 up to underflow: H is diagonal, use the canonical basis
    vecs = np.where((sm == 0.0)[..., None, None], _AT_REST, vecs)
    if size == 4:
        return vecs
    return np.take(_doubled(vecs), [0, 1, 4, 5, 2, 3, 6, 7], axis=-1)


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
    w, v = np.linalg.eigh((u + _adjoint(u)) / 2)
    # a cluster chains neighbouring eigenvalues of the Hermitian part that are
    # closer than 1e-10 relative; the rows with one are split in one solve
    close = np.diff(w, axis=-1) < 1e-10 * np.maximum(1.0, np.abs(w[..., :-1]))
    rows = close.any(axis=-1)
    if rows.any():
        cluster = np.cumsum(np.insert(~close[rows], 0, True, axis=-1), axis=-1)
        vr, ur = v[rows], u[rows]
        # (U - U*)/2i in the Hermitian eigenbasis, zero between clusters; its
        # eigenvalues lie in [-1, 1], so 4k on the k-th cluster's diagonal
        # keeps each cluster's eigenvectors apart and in cluster order
        im = _adjoint(vr) @ ((ur - _adjoint(ur)) / 2j) @ vr
        im = np.where(cluster[..., :, None] == cluster[..., None, :], im, 0.0)
        im += 4.0 * cluster[..., None] * np.eye(u.shape[-1])
        v[rows] = vr @ np.linalg.eigh(im)[1]
    d = np.einsum("...ij,...jk,...ki->...i", _adjoint(v), u, v)
    d = d / np.abs(d)
    order = np.argsort(np.angle(d), axis=-1, kind="stable")
    d = np.take_along_axis(d, order, -1)
    return d, np.take_along_axis(v, order[..., None, :], -1)


def joint_diagonalize(q, m, s, tol=1e-8):
    """Common eigenbasis of H(q) (or its 8x8 doubling) and a commuting unitary
    S, and a list of the error each row fails with, or None (one entry for
    one momentum).

    S is taken into H's eigenbasis B by one product T = B*SB: T's off-diagonal
    blocks are the leakage between H's two degenerate eigenspaces, and its
    diagonal blocks, the restrictions of S to them, are diagonalized.  The
    unit-modulus eigenvalues d_k, ordered by phase angle ascending within each
    block, come with the common eigenvectors h_k, B's columns times each
    block's eigenvectors.  Stacked momenta (n, 3) take a stack of S (n, size,
    size); row i equals the one-momentum call on row i bit for bit.  Failing
    rows are not diagonalized (zero columns).
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
    basis = _basis(q, m, size)
    t = _adjoint(basis) @ s @ basis  # S in H's eigenbasis
    neg, pos = slice(0, size // 2), slice(size // 2, size)
    leak, back = _fro(t[:, neg, pos]), _fro(t[:, pos, neg])
    leakage = np.where(back > leak, back, leak)  # the one max(leak, back) returns
    # the first verdict each row fails, in this order, or 0; a NaN
    # commutation defect fails, a NaN unitarity or leakage does not
    verdict = np.select([unitarity > tol, ~(defect <= tol), leakage > tol * _fro(s)], [1, 2, 3])
    errors = [None] * len(s)
    for i in np.flatnonzero(verdict):
        errors[i] = (
            CommutationError("matrix is not unitary", unitarity[i]) if verdict[i] == 1
            else CommutationError("S does not commute with H", defect[i]) if verdict[i] == 2
            else SubspaceLeakageError(leakage[i])
        )
    ok = verdict == 0
    basis, t = basis[ok], t[ok]
    vectors, diagonal = np.zeros(s.shape, dtype=complex), np.zeros(s.shape[:-1], dtype=complex)
    for block in (neg, pos):
        d, v = _diagonalize_unitary(t[:, block, block])
        vectors[ok, :, block] = basis[:, :, block] @ v
        diagonal[ok, block] = d
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
    basis = _basis(q, m, size)
    core = np.zeros(q.shape[:-1] + (size, size), dtype=complex)
    for i in range(nblocks):
        core[..., 2 * i : 2 * i + 2, 2 * i : 2 * i + 2] = blocks[..., i, :, :]
    return basis @ core @ _adjoint(basis)
