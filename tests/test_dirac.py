import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.linalg import expm
from scipy.stats import unitary_group

import scatreg
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
    p1, p2 = (frame @ frame.conj().T for frame in (sub.negative, sub.positive))
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


@pytest.mark.parametrize("shape", [(4, 2), (2, 2, 3), (4, 3), (3,)])
def test_momentum_stack_shape_is_checked(shape):
    # (4, 3) and (3,) are valid momenta, refused for a mass array of length 3
    m = np.ones(3) if shape in ((4, 3), (3,)) else 1.0
    for point_function in (
        dirac.eigenvectors_closed_form, dirac.eigenvalues, dirac.build_hamiltonian,
        dirac.energy, dirac.build_doubled,
    ):
        with pytest.raises(ValueError):
            point_function(np.ones(shape), m)


@st.composite
def trial_stacks(draw):
    """Momenta with per-row masses, and a seed; "identity" and "exp" rows get
    a degenerate S (1 or exp(iH)), whose Hermitian part has clusters to split."""
    rows = draw(st.lists(
        st.tuples(momenta, masses, st.sampled_from(["random", "identity", "exp"])),
        min_size=1, max_size=6,
    ))
    q, m, kinds = (list(column) for column in zip(*rows))
    return np.array(q), np.array(m), draw(st.integers(0, 2**32 - 1)), kinds


@given(trial_stacks(), st.booleans())
@example(
    stack=(np.array([(1.0, 2.0, 2.0), (3.0, 4.0, 0.0), (0.0, 0.0, 0.0)]),
           np.array([1.0, 0.0, 1.0]), 5, ["identity", "exp", "exp"]),
    doubled=True,
)
@settings(max_examples=40, deadline=None)
def test_stacked_joint_diagonalization_matches_per_row_calls(stack, doubled):
    q, m, seed, kinds = stack
    s = dirac.random_commuting_unitary(q, m, seed=seed, doubled=doubled)
    h = dirac.build_doubled(q, m) if doubled else dirac.build_hamiltonian(q, m)
    for i, kind in enumerate(kinds):
        if kind == "identity":
            s[i] = np.eye(len(s[i]))
        elif kind == "exp":
            s[i] = expm(1j * h[i])
    diag = dirac.simultaneous_diagonalize(q, m, s)
    for i in range(len(q)):
        one = dirac.simultaneous_diagonalize(q[i], m[i], s[i])
        assert np.array_equal(diag.vectors[i], one.vectors)
        assert np.array_equal(diag.diagonal[i], one.diagonal)
    assert np.max(np.abs(diag.reconstruct() - s)) <= 1e-9


def test_stacked_calls_check_their_rows():
    q, m = np.ones((3, 3)), np.ones(3)
    s = dirac.random_commuting_unitary(q, m, seed=5)
    with pytest.raises(ValueError):
        dirac.simultaneous_diagonalize(q[:2], m[:2], s)  # one S per momentum
    s[1] = s[1] @ np.diag([1, 1, 1, -1])  # commutes no longer
    with pytest.raises(dirac.CommutationError, match="does not commute"):
        dirac.simultaneous_diagonalize(q, m, s)


def test_doubled_structure():
    d = dirac.build_doubled((0, 0, 0), 1.0)
    assert np.allclose(d, np.diag([1, 1, -1, -1, 1, 1, -1, -1]))
    vals = np.linalg.eigvalsh(dirac.build_doubled((3, 4, 0), 0.0))
    assert vals == pytest.approx([-5] * 4 + [5] * 4)


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
    s = unitary_group.rvs(4, random_state=np.random.default_rng(7))
    ok, defect = dirac.commutes(h, s, tol=1e-3)
    assert not ok and defect > 1e-3


def test_simultaneous_diagonalize_identity():
    diag = dirac.simultaneous_diagonalize((1, 2, 2), 1.0, np.eye(4, dtype=complex))
    assert np.allclose(diag.diagonal, 1.0)


def test_simultaneous_diagonalize_prescribed_phases():
    q, m = (0.3, -1.2, 0.8), 0.5
    phases = np.array([0.3, 1.1, -2.0, 2.5])
    sub = dirac.spectral_subspaces(q, m)
    basis = np.hstack([sub.negative, sub.positive])
    s = basis @ np.diag(np.exp(1j * phases)) @ basis.conj().T
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


def test_random_commuting_unitary_needs_a_seed():
    with pytest.raises(TypeError):
        dirac.random_commuting_unitary((1.0, 2.0, 2.0), 1.0)
    with pytest.raises(ValueError, match="seed"):
        dirac.random_commuting_unitary((1.0, 2.0, 2.0), 1.0, seed=None)


@pytest.mark.parametrize("doubled", [False, True])
def test_random_commuting_unitary_draws_a_stack_from_one_generator(doubled):
    rng = np.random.default_rng(3)
    q, m = rng.uniform(-10, 10, (50, 3)), rng.uniform(0, 10, 50)
    state = rng.bit_generator.state
    s = dirac.random_commuting_unitary(q, m, rng, doubled=doubled)
    rng.bit_generator.state = state
    assert np.array_equal(dirac.random_commuting_unitary(q, m, rng, doubled=doubled), s)
    h = dirac.build_doubled(q, m) if doubled else dirac.build_hamiltonian(q, m)
    for one_h, one_s in zip(h, s):
        ok, defect = dirac.commutes(one_h, one_s, tol=1e-12)
        assert ok, defect
    # each row draws its own blocks
    assert len({np.round(one_s, 6).tobytes() for one_s in s}) == len(s)


MIXED_ROWS = ["good", "not unitary", "identity", "not commuting", "leaking", "good"]
EXPECTED_ERRORS = {
    "not unitary": (dirac.CommutationError, "matrix is not unitary"),
    "not commuting": (dirac.CommutationError, "S does not commute with H"),
    "leaking": (dirac.SubspaceLeakageError, "mixes the spectral subspaces"),
}


@pytest.mark.parametrize("size", [4, 8])
def test_joint_diagonalize_gives_each_row_its_own_verdict(size):
    rng = np.random.default_rng(size)
    q = rng.uniform(-10, 10, size=(len(MIXED_ROWS), 3))
    m = rng.uniform(0, 10, size=len(MIXED_ROWS))
    leaking = MIXED_ROWS.index("leaking")
    q[leaking], m[leaking] = 0.0, 0.0  # H = 0 commutes with every S
    s = dirac.random_commuting_unitary(
        q, m, seed=list(range(len(MIXED_ROWS))), doubled=size == 8
    )
    for i, kind in enumerate(MIXED_ROWS):
        if kind == "not unitary":
            s[i] = 1.01 * s[i]
        elif kind == "identity":
            s[i] = np.eye(size)
        elif kind == "not commuting":
            s[i] = s[i] @ np.diag([1.0] * (size - 1) + [-1.0])
        elif kind == "leaking":
            s[i] = unitary_group.rvs(size, random_state=rng)
    diag, errors = dirac.joint_diagonalize(q, m, s)
    assert len(errors) == len(MIXED_ROWS)
    for i, (kind, error) in enumerate(zip(MIXED_ROWS, errors)):
        one, (one_error,) = dirac.joint_diagonalize(q[i], m[i], s[i])
        if kind in EXPECTED_ERRORS:
            kind_of_error, text = EXPECTED_ERRORS[kind]
            assert type(error) is kind_of_error and text in str(error)
            with pytest.raises(kind_of_error) as raised:
                dirac.simultaneous_diagonalize(q[i], m[i], s[i])
            assert str(raised.value) == str(error) == str(one_error)
            assert not diag.vectors[i].any() and not diag.diagonal[i].any()
        else:
            assert error is None and one_error is None
            assert np.array_equal(diag.vectors[i], one.vectors)
            assert np.array_equal(diag.diagonal[i], one.diagonal)
    with pytest.raises(dirac.CommutationError, match="not unitary"):
        dirac.simultaneous_diagonalize(q, m, s)  # the first failing row raises


def test_joint_diagonalize_is_exported():
    assert scatreg.joint_diagonalize is dirac.joint_diagonalize
    assert "joint_diagonalize" in scatreg.__all__ and "joint_diagonalize" in dirac.__all__
