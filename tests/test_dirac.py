import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.linalg import expm

from scatreg import dirac

momenta = st.tuples(
    st.floats(-10, 10), st.floats(-10, 10), st.floats(-10, 10)
)
masses = st.floats(0, 10)


def test_hamiltonian_at_rest_is_diagonal():
    h = dirac.build_hamiltonian((0, 0, 0), 1.0)
    assert np.allclose(h, np.diag([1, 1, -1, -1]))


def test_hamiltonian_massless_z():
    h = dirac.build_hamiltonian((0, 0, 1), 0.0)
    expected = np.array(
        [[0, 0, 1, 0], [0, 0, 0, -1], [1, 0, 0, 0], [0, -1, 0, 0]], dtype=complex
    )
    assert np.array_equal(h, expected)


def test_hamiltonian_offdiagonal_entries():
    h = dirac.build_hamiltonian((1, 2, 3), 2.0)
    assert h[0, 3] == 1 - 2j
    assert h[3, 0] == 1 + 2j


def test_hamiltonian_rejects_nonfinite():
    with pytest.raises(ValueError):
        dirac.build_hamiltonian((np.nan, 0, 0), 1.0)
    with pytest.raises(ValueError):
        dirac.build_hamiltonian((0, 0, 0), -1.0)


@given(momenta, masses)
@settings(max_examples=100, deadline=None)
def test_hermitian_by_construction(q, m):
    h = dirac.build_hamiltonian(q, m)
    assert np.array_equal(h, h.conj().T)


@pytest.mark.parametrize(
    "q,m,expected",
    [
        ((0, 0, 0), 1.0, (-1, -1, 1, 1)),
        ((3, 4, 0), 0.0, (-5, -5, 5, 5)),
        ((1, 1, 1), 1.0, (-2, -2, 2, 2)),
    ],
)
def test_eigenvalue_examples(q, m, expected):
    assert dirac.eigenvalues(q, m) == pytest.approx(expected)


def test_closed_form_vectors_massless_z():
    # before normalization g1 is proportional to (0,1,0,1), g3 to (0,-1,0,1)
    sys_ = dirac.eigenvectors_closed_form((0, 0, 1), 0.0)
    g1 = sys_.vectors[:, 0]
    g3 = sys_.vectors[:, 2]
    assert np.allclose(g1, np.array([0, 1, 0, 1]) / np.sqrt(2))
    assert np.allclose(g3, np.array([0, -1, 0, 1]) / np.sqrt(2))


def test_closed_form_fallback_at_rest():
    sys_ = dirac.eigenvectors_closed_form((0, 0, 0), 1.0)
    assert np.allclose(sys_.vectors[:, :2], np.eye(4)[:, 2:])
    assert np.allclose(sys_.vectors[:, 2:], np.eye(4)[:, :2])


@given(momenta, masses)
@settings(max_examples=200, deadline=None)
def test_eigen_residual_and_orthonormality(q, m):
    h = dirac.build_hamiltonian(q, m)
    sys_ = dirac.eigenvectors_closed_form(q, m)
    residual = np.linalg.norm(h @ sys_.vectors - sys_.vectors * sys_.values, axis=0)
    assert np.max(residual) <= 1e-10 * max(np.linalg.norm(h), 1e-30)
    gram = sys_.vectors.conj().T @ sys_.vectors
    assert np.linalg.norm(gram - np.eye(4)) < 1e-12


@given(momenta, masses)
@settings(max_examples=100, deadline=None)
def test_closed_form_matches_generic_eigensolver(q, m):
    h = dirac.build_hamiltonian(q, m)
    numeric = np.linalg.eigvalsh(h)
    closed = dirac.eigenvalues(q, m)
    scale = max(dirac.energy(q, m), 1.0)
    assert np.max(np.abs(np.sort(closed) - numeric)) <= 1e-10 * scale


@given(momenta, masses)
@example(q=(1e-13, 2e-13, 0.0), m=1.0)  # last entry just above the phase tolerance
@example(q=(1e-14, 2e-14, 0.0), m=1.0)  # below it: the phase fix takes a complex entry
@example(q=(1e150, -1e150, 1e150), m=0.0)
@example(q=(1e-208, -3e-208, 2e-208), m=1e-213)
@settings(max_examples=100, deadline=None)
def test_subspaces_complete_and_orthogonal(q, m):
    sub = dirac.spectral_subspaces(q, m)
    for frame in (sub.negative, sub.positive):
        assert np.linalg.norm(frame.conj().T @ frame - np.eye(2)) <= 1e-12
    p1 = sub.projector_negative
    p2 = sub.projector_positive
    assert np.linalg.norm(p1 + p2 - np.eye(4)) <= 1e-12
    assert np.linalg.norm(p1 @ p2) <= 1e-12
    # H-invariance of each subspace
    h = dirac.build_hamiltonian(q, m)
    hnorm = max(np.linalg.norm(h), 1e-30)
    for p in (p1, p2):
        assert np.linalg.norm((np.eye(4) - p) @ h @ p) <= 1e-10 * hnorm


@st.composite
def stacks(draw):
    rows = draw(st.lists(momenta, min_size=1, max_size=8))
    rows += [(1e-13, 2e-13, 0.0), (1e-14, 2e-14, 0.0), (0.0, 0.0, 0.0)]
    return np.array(draw(st.permutations(rows)))


@given(stacks(), masses)
@example(
    q=np.array([(1e150, -1e150, 1e150), (0.0, 0.0, 0.0), (1e-208, -3e-208, 2e-208)]),
    m=0.0,
)
@example(q=np.array([(1e-208, -3e-208, 2e-208), (0.0, 0.0, 0.0), (1.0, 2.0, 3.0)]), m=1e-213)
@example(q=np.array([(1e-13, 2e-13, 0.0), (0.0, 0.0, 0.0), (1e-14, 2e-14, 0.0)]), m=1.0)
@settings(max_examples=100, deadline=None)
def test_stacked_momenta_match_per_row_calls(q, m):
    sys_ = dirac.eigenvectors_closed_form(q, m)
    values = dirac.eigenvalues(q, m)
    h = dirac.build_hamiltonian(q, m)
    for i, row in enumerate(q):
        one = dirac.eigenvectors_closed_form(row, m)
        assert np.array_equal(sys_.vectors[i], one.vectors)
        assert np.array_equal(sys_.values[i], one.values)
        assert np.array_equal(values[i], dirac.eigenvalues(row, m))
        assert np.array_equal(h[i], dirac.build_hamiltonian(row, m))
    # each column's last entry above 1e-13 of its largest is real positive
    for column in np.swapaxes(sys_.vectors, -1, -2).reshape(-1, 4):
        size = np.abs(column)
        c = column[np.flatnonzero(size > 1e-13 * size.max())[-1]]
        assert c.real > 0 and abs(c.imag) <= 1e-15 * c.real


@pytest.mark.parametrize("shape", [(4, 2), (2, 2, 3)])
def test_momentum_stack_shape_is_checked(shape):
    for point_function in (
        dirac.eigenvectors_closed_form, dirac.eigenvalues, dirac.build_hamiltonian
    ):
        with pytest.raises(ValueError):
            point_function(np.ones(shape), 1.0)


def test_doubled_structure():
    d = dirac.build_doubled((0, 0, 0), 1.0)
    assert np.allclose(d, np.diag([1, 1, -1, -1, 1, 1, -1, -1]))
    vals = np.linalg.eigvalsh(dirac.build_doubled((3, 4, 0), 0.0))
    assert vals == pytest.approx([-5] * 4 + [5] * 4)


def test_apply_multiplication_operator():
    grid = [np.array([0.5, -1.0, 2.0]), np.array([0.0, 0.0, 1.0])]
    m = 0.7
    h_field = np.stack([dirac.build_hamiltonian(q, m) for q in grid])
    zero = np.zeros((2, 4))
    assert np.array_equal(dirac.apply_multiplication_operator(h_field, zero), zero)
    # eigenvector field maps to eigenvalue * itself
    f = np.stack([dirac.eigenvectors_closed_form(q, m).vectors[:, 0] for q in grid])
    lam = np.array([dirac.eigenvalues(q, m)[0] for q in grid])
    out = dirac.apply_multiplication_operator(h_field, f)
    assert np.allclose(out, lam[:, None] * f)
    # direct single-node product
    h1 = dirac.build_hamiltonian((0, 0, 1), 0.0)[None]
    out = dirac.apply_multiplication_operator(h1, np.array([[1.0, 0, 0, 0]]))
    assert np.allclose(out, [[0, 0, 1, 0]])
    with pytest.raises(ValueError):
        dirac.apply_multiplication_operator(h_field, np.zeros((2, 5)))


def test_commutes_identity_and_exponential():
    h = dirac.build_hamiltonian((1, 2, 2), 1.0)
    ok, defect = dirac.commutes(h, np.eye(4))
    assert ok and defect == 0.0
    ok, defect = dirac.commutes(h, expm(1j * h), tol=1e-12)
    assert ok and defect <= 1e-12


def test_commutes_rejects_nonunitary():
    h = dirac.build_hamiltonian((1, 0, 0), 1.0)
    with pytest.raises(dirac.CommutationError):
        dirac.commutes(h, 2.0 * np.eye(4))


def test_generic_unitary_does_not_commute():
    q, m = (1.0, 2.0, 2.0), 1.0
    h = dirac.build_hamiltonian(q, m)
    s = dirac.random_unitary(4, np.random.default_rng(7))
    ok, defect = dirac.commutes(h, s, tol=1e-3)
    assert not ok and defect > 1e-3


def test_simultaneous_diagonalize_identity():
    diag = dirac.simultaneous_diagonalize((1, 2, 2), 1.0, np.eye(4, dtype=complex))
    assert np.allclose(diag.diagonal, 1.0)


def test_simultaneous_diagonalize_prescribed_phases():
    q, m = (0.3, -1.2, 0.8), 0.5
    phases = np.array([0.3, 1.1, -2.0, 2.5])
    blocks = [np.diag(np.exp(1j * phases[:2])), np.diag(np.exp(1j * phases[2:]))]
    s = dirac.random_commuting_unitary(q, m, block_unitaries=blocks)
    diag = dirac.simultaneous_diagonalize(q, m, s)
    got = np.sort(np.angle(diag.diagonal))
    assert got == pytest.approx(np.sort(phases), abs=1e-10)


def test_simultaneous_diagonalize_exp_h():
    diag = dirac.simultaneous_diagonalize(
        (3, 4, 0), 0.0, expm(1j * dirac.build_hamiltonian((3, 4, 0), 0.0))
    )
    expected = np.exp(1j * np.array([-5, -5, 5, 5]))
    assert np.sort(np.angle(diag.diagonal)) == pytest.approx(
        np.sort(np.angle(expected)), abs=1e-10
    )


@pytest.mark.parametrize("doubled", [False, True])
def test_generator_roundtrip(doubled):
    rng = np.random.default_rng(11)
    for _ in range(50):
        q = rng.uniform(-10, 10, size=3)
        m = rng.uniform(0, 10)
        h = dirac.build_doubled(q, m) if doubled else dirac.build_hamiltonian(q, m)
        s = dirac.random_commuting_unitary(
            q, m, seed=int(rng.integers(2**32)), doubled=doubled
        )
        ok, defect = dirac.commutes(h, s, tol=1e-12)
        assert ok, defect
        diag = dirac.simultaneous_diagonalize(q, m, s)
        assert np.max(np.abs(np.abs(diag.diagonal) - 1)) <= 1e-10
        assert np.linalg.norm(diag.reconstruct() - s) <= 1e-9
        # common eigenvectors live in the right subspaces
        assert np.allclose(h @ diag.vectors, diag.vectors * np.diag(
            diag.vectors.conj().T @ h @ diag.vectors
        ), atol=1e-9 * np.linalg.norm(h))


def test_doubling_consistency():
    q, m = (1.4, -0.2, 2.2), 0.9
    s4 = dirac.random_commuting_unitary(q, m, seed=5)
    d4 = dirac.simultaneous_diagonalize(q, m, s4).diagonal
    s8 = np.zeros((8, 8), dtype=complex)
    s8[:4, :4] = s4
    s8[4:, 4:] = s4
    d8 = dirac.simultaneous_diagonalize(q, m, s8).diagonal
    assert np.sort(np.angle(d8)) == pytest.approx(
        np.sort(np.concatenate([np.angle(d4)] * 2)), abs=1e-9
    )


def test_leakage_is_rejected():
    # a unitary commuting with H only because both subspace blocks are equal
    # after swapping frames: construct S that maps M1 onto M2
    q, m = (2.0, 1.0, -1.0), 0.0  # massless: +/-E only, swap keeps unitarity
    sub = dirac.spectral_subspaces(q, m)
    basis = np.hstack([sub.negative, sub.positive])
    swap = np.zeros((4, 4))
    swap[0, 2] = swap[1, 3] = swap[2, 0] = swap[3, 1] = 1.0
    s = basis @ swap @ basis.conj().T
    with pytest.raises((dirac.SubspaceLeakageError, dirac.CommutationError)):
        dirac.simultaneous_diagonalize(q, m, s)
