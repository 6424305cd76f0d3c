"""Span, independent reduced pairs, and traceless-kernel construction."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import rdl
from rdl.errors import DimensionError, NotInSpanError, RdlError
from rdl.serialize import analysis_to_json
from rdl.subspace import Subspace
from oracles import kernel_by_accumulation


def z_eigenstate(sign):
    return np.diag([(1 + sign) / 2, (1 - sign) / 2]).astype(complex)


def test_full_family_dimensions():
    sub = rdl.build_subspace(rdl.full_two_qubit_family())
    assert sub.span_dim == 16
    assert sub.reduced_dim == 4
    assert sub.kernel_dim == 12


def test_span_dim_splits_into_reduced_plus_kernel(rng):
    for n in (2, 4, 7):
        states = [rdl.random_density_matrix(4, rng) for _ in range(n)]
        fam = rdl.StateFamily(dims=rdl.BipartiteDims(2, 2), members=tuple(states))
        sub = rdl.build_subspace(fam)
        assert sub.span_dim == sub.reduced_dim + sub.kernel_dim


def test_span_basis_is_hermitian_orthonormal():
    sub = rdl.build_subspace(rdl.full_two_qubit_family())
    for e in sub.span_basis:
        assert np.abs(e - e.conj().T).max() < 1e-12
    gram = np.array([[rdl.hs_inner(a, b) for b in sub.span_basis] for a in sub.span_basis])
    assert np.abs(gram - np.eye(sub.span_dim)).max() < 1e-12


def test_kernel_elements_have_vanishing_marginal():
    fam = rdl.full_two_qubit_family()
    sub = rdl.build_subspace(fam)
    for y in sub.kernel_basis:
        assert np.abs(y - y.conj().T).max() < 1e-12
        assert rdl.max_norm(rdl.partial_trace_env(y, fam.dims)) < 1e-10
    gram = np.array([[rdl.hs_inner(a, b) for b in sub.kernel_basis] for a in sub.kernel_basis])
    assert np.abs(gram - np.eye(sub.kernel_dim)).max() < 1e-10


def test_members_decompose_into_lift_plus_kernel(rng):
    """Every member is its own marginal's lift plus something with zero marginal."""
    states = [rdl.random_density_matrix(4, rng) for _ in range(5)]
    fam = rdl.StateFamily(dims=rdl.BipartiteDims(2, 2), members=tuple(states))
    sub = rdl.build_subspace(fam)
    for m in fam.members:
        marg = rdl.partial_trace_env(m, fam.dims)
        exp = sub.expand_reduced(marg)
        assert exp.residual < 1e-10
        lift = sum(d * joint for d, (_, joint) in zip(exp.coefficients, sub.pairs))
        gap = m - lift
        assert rdl.max_norm(rdl.partial_trace_env(gap, fam.dims)) < 1e-9
        # the gap stays inside the span
        coords = np.array([rdl.hs_inner(e, gap) for e in sub.span_basis])
        recon = sum(c * e for c, e in zip(coords, sub.span_basis))
        assert rdl.max_norm(gap - recon) < 1e-9


def test_expand_reduced_outside_span():
    omega = np.eye(2, dtype=complex) / 2
    fam = rdl.product_family([z_eigenstate(+1), z_eigenstate(-1)], omega)
    sub = rdl.build_subspace(fam)
    assert sub.reduced_dim == 2
    with pytest.raises(NotInSpanError) as exc:
        sub.expand_reduced(rdl.SIGMA_X.astype(complex))
    assert exc.value.residual > 0.5
    # diagonal operators expand cleanly
    exp = sub.expand_reduced(np.diag([0.25, 0.75]).astype(complex))
    assert exp.residual < 1e-12
    assert np.abs(exp.coefficients - np.array([0.25, 0.75])).max() < 1e-12


def test_expand_reduced_takes_stacks(rng):
    dims = rdl.BipartiteDims(3, 2)
    fam = rdl.StateFamily(
        dims=dims, members=tuple(rdl.random_density_matrix(6, rng) for _ in range(6))
    )
    sub = rdl.build_subspace(fam)
    lam = rdl.build_assignment(sub)
    # marginals and complex combinations of them: all inside the reduced span
    marg = np.array(fam.reduced())
    mix = rng.normal(size=(2, 3, 6)) + 1j * rng.normal(size=(2, 3, 6))
    xs = np.tensordot(mix, marg, axes=1)
    stacked = sub.expand_reduced(xs)
    lifted = lam.apply(xs)
    assert stacked.coefficients.shape == (2, 3, sub.reduced_dim)
    assert stacked.residual.shape == (2, 3)
    assert lifted.shape == (2, 3, 6, 6)
    for idx in np.ndindex(2, 3):
        one = sub.expand_reduced(xs[idx])
        assert np.abs(stacked.coefficients[idx] - one.coefficients).max() < 1e-12
        assert np.abs(stacked.remainder[idx] - one.remainder).max() < 1e-12
        assert abs(stacked.residual[idx] - one.residual) < 1e-12
        assert np.abs(lifted[idx] - lam.apply(xs[idx])).max() < 1e-12


def test_expand_reduced_stack_reports_worst_residual():
    omega = np.eye(2, dtype=complex) / 2
    fam = rdl.product_family([z_eigenstate(+1), z_eigenstate(-1)], omega)
    sub = rdl.build_subspace(fam)
    with pytest.raises(NotInSpanError) as exc:
        sub.expand_reduced(rdl.SIGMA_X)
    worst = exc.value.residual
    # the last two elements leave the (diagonal) reduced span, the middle one by more
    xs = np.array([np.diag([0.25, 0.75]), rdl.SIGMA_X, np.diag([1.0, 0.0]) + 0.5 * rdl.SIGMA_X])
    with pytest.raises(NotInSpanError) as exc:
        sub.expand_reduced(xs)
    assert abs(exc.value.residual - worst) < 1e-12
    assert f"residual {exc.value.residual:.3e}" in str(exc.value)
    with pytest.raises(NotInSpanError):
        rdl.build_assignment(sub).apply(xs)


@given(
    d_s=st.sampled_from([2, 3]),
    d_e=st.sampled_from([1, 2, 3, 4]),
    n_sys=st.integers(1, 3),
    n_env=st.integers(1, 3),
    n_joint=st.integers(0, 3),
    seed=st.integers(0, 2**16),
)
def test_kernel_basis_matches_accumulation_oracle(d_s, d_e, n_sys, n_env, n_joint, seed):
    """The kernel basis against the per-element sum, and the kernel's defining properties.

    The two bases differ by a rotation inside the kernel, so they are compared
    through their coordinate projectors.
    """
    rng = np.random.default_rng(seed)
    dims = rdl.BipartiteDims(d_s, d_e)
    systems = [rdl.random_density_matrix(d_s, rng) for _ in range(n_sys)]
    envs = [rdl.random_density_matrix(d_e, rng) for _ in range(n_env)]
    members = [rdl.tensor(r, w) for r in systems for w in envs]
    members += [rdl.random_density_matrix(dims.joint, rng) for _ in range(n_joint)]
    sub = rdl.build_subspace(rdl.StateFamily(dims=dims, members=tuple(members)))

    span = np.array(sub.span_basis)
    t = rdl.basis_coords(rdl.partial_trace_env(span, dims), d_s).real
    u_t, svals_t, _ = np.linalg.svd(t, full_matrices=True)
    rank_t = int(np.sum(svals_t > sub.tol_rank))
    oracle = kernel_by_accumulation(span, u_t, rank_t, sub.span_dim)
    kernel = np.array(sub.kernel_basis).reshape(oracle.shape)
    k_coords = rdl.basis_coords(kernel, dims.joint).real
    o_coords = rdl.basis_coords(oracle, dims.joint).real
    assert np.abs(k_coords.T @ k_coords - o_coords.T @ o_coords).max() <= 1e-12

    assert sub.kernel_dim == sub.span_dim - sub.reduced_dim
    assert np.abs(kernel - kernel.conj().transpose(0, 2, 1)).max(initial=0.0) <= 1e-12
    gram = np.array([[rdl.hs_inner(a, b) for b in kernel] for a in kernel]).reshape(
        sub.kernel_dim, sub.kernel_dim
    )
    assert np.abs(gram - np.eye(sub.kernel_dim)).max(initial=0.0) <= 1e-12
    assert np.abs(rdl.partial_trace_env(kernel, dims)).max(initial=0.0) <= 1e-12
    for y in kernel:
        recon = sum(rdl.hs_inner(e, y) * e for e in sub.span_basis)
        assert rdl.max_norm(y - recon) <= 1e-12


def test_analyze_without_hull_builds_no_basis(monkeypatch):
    """The decision and its report read only the members, the pairs and the span rank."""

    def refuse(self):
        raise AssertionError("an orthonormal basis was built")

    monkeypatch.setattr(Subspace, "span_basis", property(refuse))
    monkeypatch.setattr(Subspace, "kernel_basis", property(refuse))
    u = rdl.model_unitary(rdl.ModelParams(omega=np.pi / 2, t=1.0))
    a = rdl.analyze(rdl.full_two_qubit_family(), u)
    report = analysis_to_json(a, "analyze")
    assert not a.consistent
    assert report["subspace"]["kernel_dim"] == 12


def test_operators_without_marginals_are_all_kernel():
    fam = rdl.full_two_qubit_family()
    kernel = rdl.build_subspace(fam).kernel_basis
    sub = rdl.build_subspace_from_operators(kernel, fam.dims)
    assert (sub.span_dim, sub.reduced_dim, sub.kernel_dim) == (12, 0, 12)
    assert np.array_equal(sub.residuals, sub.members)
    assert rdl.check_subspace_consistency(sub, np.eye(4)).consistent
    assert not rdl.check_subspace_consistency(sub, rdl.swap_unitary(2)).consistent


def test_expand_reduced_shape_check():
    sub = rdl.build_subspace(rdl.full_two_qubit_family())
    with pytest.raises(DimensionError):
        sub.expand_reduced(np.eye(4))


def test_select_independent_skips_duplicates():
    omega = np.eye(2, dtype=complex) / 2
    plus = z_eigenstate(+1)
    fam = rdl.product_family([plus, plus, z_eigenstate(-1)], omega)
    pairs = rdl.select_independent(fam)
    assert len(pairs) == 2
    # greedy scan keeps the first occurrence
    assert np.abs(pairs[0][0] - plus).max() < 1e-12


def test_greedy_scan_caps_at_operator_space_dimension(rng):
    states = [rdl.random_density_matrix(4, rng) for _ in range(10)]
    fam = rdl.StateFamily(dims=rdl.BipartiteDims(2, 2), members=tuple(states))
    sub = rdl.build_subspace(fam)
    assert sub.reduced_dim == 4  # generic marginals fill the qubit operator space


def test_build_from_operators_accepts_span_basis_back():
    fam = rdl.full_two_qubit_family()
    sub = rdl.build_subspace(fam)
    again = rdl.build_subspace_from_operators(sub.span_basis, fam.dims, sub.tol_rank)
    assert again.span_dim == sub.span_dim
    assert again.kernel_dim == sub.kernel_dim


def test_build_from_operators_rejects_empty_and_zero():
    dims = rdl.BipartiteDims(2, 2)
    with pytest.raises(DimensionError):
        rdl.build_subspace_from_operators([], dims)
    with pytest.raises(DimensionError):
        rdl.build_subspace_from_operators([np.zeros((4, 4))], dims)


def test_more_pairs_than_span_rank_is_refused():
    """Joint operators within the rank cut of each other whose marginals are not."""
    ra, rb = np.diag([0.7, 0.3]), np.diag([0.2, 0.8])
    x1 = 1e3 * rdl.tensor(np.eye(2), rdl.SIGMA_Z) + rdl.tensor(ra, np.eye(2) / 2)
    x2 = x1 + 1e-6 * rdl.tensor(rb - ra, np.eye(2) / 2)
    with pytest.raises(RdlError, match="found 2 independent reduced operators in a span of rank 1"):
        rdl.build_subspace_from_operators([x1, x2], rdl.BipartiteDims(2, 2))


def test_build_from_operators_names_the_misshapen_operator():
    with pytest.raises(DimensionError, match="operator 1 has shape"):
        rdl.build_subspace_from_operators([np.eye(4), np.eye(3)], rdl.BipartiteDims(2, 2))


def test_subspace_reads_the_family_stack_and_copies_a_writable_one(rng):
    """The family's read-only stack is shared; a caller's writable stack or list is copied once."""
    states = [rdl.random_density_matrix(2, rng) for _ in range(3)]
    fam = rdl.product_family(states, rdl.random_density_matrix(2, rng))
    sub = rdl.build_subspace(fam)
    assert sub.members is fam.stack
    assert not sub.residuals.flags.writeable
    ops = np.array(fam.stack)
    own = rdl.build_subspace_from_operators(ops, fam.dims)
    ops[0] = 0
    assert np.array_equal(own.members, fam.stack) and not own.members.flags.writeable
    listed = rdl.build_subspace_from_operators(list(fam.members), fam.dims)
    assert np.array_equal(listed.members, fam.stack) and not listed.members.flags.writeable


def test_product_family_with_one_environment_state_has_empty_kernel(rng):
    omega = rdl.random_density_matrix(2, rng)
    states = [rdl.random_density_matrix(2, rng) for _ in range(4)]
    fam = rdl.product_family(states, omega)
    sub = rdl.build_subspace(fam)
    assert sub.kernel_dim == 0
    assert sub.span_dim == sub.reduced_dim
