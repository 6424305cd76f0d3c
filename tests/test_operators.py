import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import rdl
from rdl.errors import DimensionError, HermiticityError, NotAStateError, UnitarityError
from rdl.operators import _evolved_marginal, _reduced_propagator
from oracles import conjugate_loops, kron_loops, ptrace_env_loops, random_unitary, trace_norm_svd


def test_tensor_sigma_z_sigma_x_entries():
    zx = rdl.tensor(rdl.SIGMA_Z, rdl.SIGMA_X)
    expected = np.zeros((4, 4), dtype=complex)
    expected[0, 1] = expected[1, 0] = 1
    expected[2, 3] = expected[3, 2] = -1
    assert np.abs(zx - expected).max() == 0


def test_tensor_matches_loop_reference(rng):
    a = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    b = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    assert np.abs(rdl.tensor(a, b) - kron_loops(a, b)).max() < 1e-14


def test_tensor_rejects_vectors():
    with pytest.raises(DimensionError):
        rdl.tensor(np.ones(2), np.eye(2))


def test_partial_trace_bell_state():
    """The maximally entangled state reduces to the maximally mixed state."""
    bell = np.zeros(4, dtype=complex)
    bell[0] = bell[3] = 1 / np.sqrt(2)
    rho = np.outer(bell, bell.conj())
    red = rdl.partial_trace_env(rho, rdl.BipartiteDims(2, 2))
    assert np.abs(red - np.eye(2) / 2).max() < 1e-15


def test_partial_trace_matches_loops(rng):
    for d_s, d_e in [(2, 2), (2, 3), (3, 2), (3, 3)]:
        n = d_s * d_e
        x = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        got = rdl.partial_trace_env(x, rdl.BipartiteDims(d_s, d_e))
        assert np.abs(got - ptrace_env_loops(x, d_s, d_e)).max() < 1e-13


def test_partial_trace_of_product_is_scaled_system_factor(rng):
    a = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    b = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    got = rdl.partial_trace_env(rdl.tensor(a, b), rdl.BipartiteDims(3, 2))
    assert np.abs(got - a * np.trace(b)).max() < 1e-13


def test_partial_trace_dimension_mismatch():
    with pytest.raises(DimensionError):
        rdl.partial_trace_env(np.eye(6), rdl.BipartiteDims(2, 2))


@pytest.mark.parametrize("d_s, d_e", [(2, 1), (2, 3), (3, 1), (4, 2)])
def test_reduced_propagator_matches_its_loop_sum(d_s, d_e, rng):
    """K[(i, j), (a, b)] = sum_k U[(i d_e + k), a] conj(U[(j d_e + k), b]), entry by entry."""
    dims = rdl.BipartiteDims(d_s, d_e)
    u = random_unitary(dims.joint, rng)
    d_j = dims.joint
    expected = np.zeros((d_s * d_s, d_j * d_j), dtype=complex)
    for i in range(d_s):
        for j in range(d_s):
            for a in range(d_j):
                for b in range(d_j):
                    expected[i * d_s + j, a * d_j + b] = sum(
                        u[i * d_e + k, a] * np.conj(u[j * d_e + k, b]) for k in range(d_e)
                    )
    assert np.abs(_reduced_propagator(u, dims) - expected).max() < 1e-14


@pytest.mark.parametrize("d_s", [2, 3, 4])
@pytest.mark.parametrize("d_e", [1, 2, 3, 4])
def test_evolved_marginal_matches_loops_on_stacks(d_s, d_e, rng):
    """Tr_E(U X U^dag) in one product, for one operator and for stacks with leading axes.

    The leading axes cover a member stack (m,) and the hull's pair of stacks
    (2, m).  A read-only stack stands for ``StateFamily.stack`` and
    ``Subspace.residuals``; d_s > d_e covers a propagator wider than tall in
    its environment blocks.
    """
    dims = rdl.BipartiteDims(d_s, d_e)
    u = random_unitary(dims.joint, rng)
    for lead in [(), (3,), (2, 3)]:
        shape = lead + (dims.joint, dims.joint)
        x = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        got = _evolved_marginal(u, x, dims)
        assert got.shape == lead + (d_s, d_s)
        for idx in np.ndindex(lead):
            expected = ptrace_env_loops(conjugate_loops(u, x[idx]), d_s, d_e)
            assert np.abs(got[idx] - expected).max() < 1e-13
        x.setflags(write=False)
        assert np.array_equal(_evolved_marginal(u, x, dims), got)


def test_bipartite_dims_validation():
    with pytest.raises(DimensionError):
        rdl.BipartiteDims(1, 2)
    with pytest.raises(DimensionError):
        rdl.BipartiteDims(2, 0)
    assert rdl.BipartiteDims(3, 4).joint == 12


@pytest.mark.parametrize("value", [True, np.bool_(True), 2.0, np.float64(2.0), "2"])
def test_bipartite_dims_refuse_what_is_no_integer(value):
    with pytest.raises(DimensionError, match="^d_s must be an integer"):
        rdl.BipartiteDims(value, 2)


@pytest.mark.parametrize("d", [2, 3, 4])
def test_hermitian_basis_orthonormal(d):
    basis = rdl.hermitian_basis(d)
    assert len(basis) == d * d
    gram = np.array([[np.vdot(a, b) for b in basis] for a in basis])
    assert np.abs(gram - np.eye(d * d)).max() < 1e-14
    for m in basis:
        assert np.abs(m - m.conj().T).max() < 1e-15
    # all but the first element are traceless
    for m in basis[1:]:
        assert abs(np.trace(m)) < 1e-14


def test_hermitian_basis_qubit_is_scaled_paulis():
    basis = rdl.hermitian_basis(2)
    refs = [np.eye(2), rdl.SIGMA_X, rdl.SIGMA_Y, rdl.SIGMA_Z]
    for got, ref in zip(basis, refs):
        assert np.abs(got - ref / np.sqrt(2)).max() < 1e-15


def test_basis_coords_roundtrip(rng):
    for d in (2, 3):
        x = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        c = rdl.basis_coords(x, d)
        assert np.abs(rdl.from_basis_coords(c, d) - x).max() < 1e-13


def _contraction_coords(x, d):
    """Coordinates by contracting against the stacked basis, one operator at a time."""
    return np.einsum("kij,ji->k", np.stack(rdl.hermitian_basis(d)), x)


def _contraction_inverse(c, d):
    return np.einsum("k,kij->ij", c, np.stack(rdl.hermitian_basis(d)))


def _bit_equal(a, b):
    return (
        a.shape == b.shape
        and np.array_equal(a, b)
        and np.array_equal(np.signbit(a.real), np.signbit(b.real))
        and np.array_equal(np.signbit(a.imag), np.signbit(b.imag))
    )


@pytest.mark.parametrize("d", [2, 3, 4, 7, 12])
def test_coords_match_basis_contraction_bit_for_bit(d, rng):
    general = rng.normal(size=(5, d, d)) + 1j * rng.normal(size=(5, d, d))
    hermitian = general + np.swapaxes(general, -1, -2).conj()
    signed_zeros = -np.eye(d, dtype=complex)[None]  # off-diagonal entries are -0 - 0j
    for stack in (general, hermitian, signed_zeros):
        ref = np.array([_contraction_coords(x, d) for x in stack])
        assert _bit_equal(rdl.basis_coords(stack, d), ref)
        assert _bit_equal(rdl.basis_coords(stack[0], d), ref[0])
        for coords in (ref, ref.real.astype(complex), -ref):
            back = np.array([_contraction_inverse(c, d) for c in coords])
            assert _bit_equal(rdl.from_basis_coords(coords, d), back)
            assert _bit_equal(rdl.from_basis_coords(coords[0], d), back[0])


def test_coords_reject_wrong_trailing_shape():
    with pytest.raises(DimensionError):
        rdl.basis_coords(np.zeros((4, 3, 3)), 2)
    with pytest.raises(DimensionError):
        rdl.basis_coords(np.zeros((4, 2, 3)), 2)
    with pytest.raises(DimensionError):
        rdl.basis_coords(np.zeros(4), 2)
    with pytest.raises(DimensionError):
        rdl.from_basis_coords(np.zeros((3, 9)), 2)


def test_partial_trace_of_stack_matches_loops(rng):
    xs = rng.normal(size=(4, 6, 6)) + 1j * rng.normal(size=(4, 6, 6))
    got = rdl.partial_trace_env(xs, rdl.BipartiteDims(3, 2))
    assert got.shape == (4, 3, 3)
    for g, x in zip(got, xs):
        assert np.abs(g - ptrace_env_loops(x, 3, 2)).max() < 1e-13
    with pytest.raises(DimensionError):
        rdl.partial_trace_env(xs, rdl.BipartiteDims(2, 2))


def test_coords_of_hermitian_are_real(rng):
    h = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    h = h + h.conj().T
    assert np.abs(rdl.basis_coords(h, 3).imag).max() < 1e-13


def test_trace_distance_orthogonal_pure_states():
    p0 = np.diag([1.0, 0.0]).astype(complex)
    p1 = np.diag([0.0, 1.0]).astype(complex)
    assert abs(rdl.trace_distance(p0, p1) - 1.0) < 1e-15


def test_trace_distance_matches_svd_oracle(rng):
    a = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    a = a + a.conj().T
    b = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    b = b + b.conj().T
    assert abs(rdl.trace_distance(a, b) - 0.5 * trace_norm_svd(a - b)) < 1e-12


def test_trace_distance_rejects_nonhermitian():
    with pytest.raises(HermiticityError):
        rdl.trace_distance(np.array([[0, 1], [0, 0]], dtype=complex), np.eye(2))


def test_require_density_rejects_bad_inputs():
    with pytest.raises(HermiticityError):
        rdl.require_density(np.array([[1, 1], [0, 0]], dtype=complex))
    with pytest.raises(NotAStateError):
        rdl.require_density(np.eye(2, dtype=complex))  # trace 2
    with pytest.raises(NotAStateError) as exc:
        rdl.require_density(np.diag([1.5, -0.5]).astype(complex))
    assert exc.value.min_eigenvalue is not None
    assert exc.value.min_eigenvalue < -0.4
    # NaN fails every comparison, so it cannot slip through a check as "not too large"
    with pytest.raises(HermiticityError):
        rdl.require_density(np.diag([np.nan, 0.5]).astype(complex))
    with pytest.raises(HermiticityError):
        rdl.require_hermitian(np.array([[0.5, np.nan], [np.nan, 0.5]]))
    # An infinite diagonal entry gives inf - inf = NaN, without a RuntimeWarning
    infinite = np.diag([np.inf, 0.5]).astype(complex)
    for check in (rdl.require_hermitian, rdl.require_density):
        with pytest.raises(HermiticityError, match="= nan"):
            check(infinite)


def test_require_unitary_accepts_phase(rng):
    u = random_unitary(3, rng)
    rdl.require_unitary(u)
    with pytest.raises(UnitarityError):
        rdl.require_unitary(1.01 * u)
    with pytest.raises(UnitarityError, match="= nan"):
        rdl.require_unitary(np.where(np.eye(3) > 0, np.nan, u))


def test_frozen_arrays_are_read_only():
    with pytest.raises(ValueError):
        rdl.SIGMA_X[0, 0] = 5


def test_max_norm_empty_and_scalar():
    assert rdl.max_norm(np.zeros((0, 3))) == 0.0
    assert rdl.max_norm(np.array([[1, -4.5]])) == 4.5


@given(st.integers(0, 3), st.integers(0, 3))
def test_partial_trace_is_trace_preserving(i, j):
    x = np.zeros((4, 4), dtype=complex)
    x[i, j] = 1.0
    red = rdl.partial_trace_env(x, rdl.BipartiteDims(2, 2))
    assert abs(np.trace(red) - np.trace(x)) < 1e-15


@given(st.floats(-2, 2), st.floats(-2, 2))
def test_partial_trace_linear(s, t):
    rng = np.random.default_rng(77)
    x = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    y = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    dims = rdl.BipartiteDims(2, 2)
    lhs = rdl.partial_trace_env(s * x + t * y, dims)
    rhs = s * rdl.partial_trace_env(x, dims) + t * rdl.partial_trace_env(y, dims)
    assert np.abs(lhs - rhs).max() < 1e-12
