"""Span, the fit of the members' marginals, and traceless-kernel construction."""

from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

import rdl
from rdl import operators, subspace
from rdl.errors import DimensionError, NotInSpanError, RdlError
from rdl.serialize import analysis_to_json
from rdl.subspace import Subspace
from oracles import (
    kernel_by_accumulation,
    random_unitary,
    span_dim_by_svd,
    unit_rows_one_by_one,
)


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
    gram = np.array([[np.vdot(a, b) for b in sub.span_basis] for a in sub.span_basis])
    assert np.abs(gram - np.eye(sub.span_dim)).max() < 1e-12


def test_kernel_elements_have_vanishing_marginal():
    fam = rdl.full_two_qubit_family()
    sub = rdl.build_subspace(fam)
    for y in sub.kernel_basis:
        assert np.abs(y - y.conj().T).max() < 1e-12
        assert rdl.max_norm(rdl.partial_trace_env(y, fam.dims)) < 1e-10
    gram = np.array([[np.vdot(a, b) for b in sub.kernel_basis] for a in sub.kernel_basis])
    assert np.abs(gram - np.eye(sub.kernel_dim)).max() < 1e-10


def test_members_decompose_into_lift_plus_kernel(rng):
    """Every member is its own marginal's lift plus something with zero marginal."""
    states = [rdl.random_density_matrix(4, rng) for _ in range(5)]
    fam = rdl.StateFamily(dims=rdl.BipartiteDims(2, 2), members=tuple(states))
    sub = rdl.build_subspace(fam)
    lam = rdl.build_assignment(sub)
    for m in fam.members:
        gap = m - lam.apply(rdl.partial_trace_env(m, fam.dims))
        assert rdl.max_norm(rdl.partial_trace_env(gap, fam.dims)) < 1e-9
        # the gap stays inside the span
        coords = np.array([np.vdot(e, gap) for e in sub.span_basis])
        recon = sum(c * e for c, e in zip(coords, sub.span_basis))
        assert rdl.max_norm(gap - recon) < 1e-9


def test_assignment_refuses_operators_outside_the_reduced_span():
    omega = np.eye(2, dtype=complex) / 2
    fam = rdl.product_family([z_eigenstate(+1), z_eigenstate(-1)], omega)
    sub = rdl.build_subspace(fam)
    assert sub.reduced_dim == 2
    lam = rdl.build_assignment(sub)
    with pytest.raises(NotInSpanError) as exc:
        lam.apply(rdl.SIGMA_X.astype(complex))
    assert exc.value.residual > 0.5
    # diagonal operators lift cleanly, onto the members that carry them
    x = np.diag([0.25, 0.75]).astype(complex)
    assert np.abs(lam.apply(x) - rdl.tensor(x, omega)).max() < 1e-12


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_assignment_refuses_a_non_finite_operator(bad):
    """Refused before any arithmetic: NaN would pass the residual test and inf warn first."""
    lam = rdl.build_assignment(rdl.build_subspace(rdl.full_two_qubit_family()))
    with pytest.raises(rdl.InputError, match="^operator to lift must be finite$"):
        lam.apply(np.array([[bad, 0], [0, 0.5]]))


def test_assignment_takes_stacks(rng):
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
    lifted = lam.apply(xs)
    assert lifted.shape == (2, 3, 6, 6)
    assert np.abs(rdl.partial_trace_env(lifted, dims) - xs).max() < 1e-12
    for idx in np.ndindex(2, 3):
        assert np.abs(lifted[idx] - lam.apply(xs[idx])).max() < 1e-12


def test_assignment_of_a_stack_reports_the_worst_residual():
    omega = np.eye(2, dtype=complex) / 2
    fam = rdl.product_family([z_eigenstate(+1), z_eigenstate(-1)], omega)
    lam = rdl.build_assignment(rdl.build_subspace(fam))
    with pytest.raises(NotInSpanError) as exc:
        lam.apply(rdl.SIGMA_X)
    worst = exc.value.residual
    # the last two elements leave the (diagonal) reduced span, the middle one by more
    xs = np.array([np.diag([0.25, 0.75]), rdl.SIGMA_X, np.diag([1.0, 0.0]) + 0.5 * rdl.SIGMA_X])
    with pytest.raises(NotInSpanError) as exc:
        lam.apply(xs)
    assert abs(exc.value.residual - worst) < 1e-12
    assert f"residual {exc.value.residual:.3e}" in str(exc.value)


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
    rank_t = int(np.sum(svals_t > sub.tol.rank))
    oracle = kernel_by_accumulation(span, u_t, rank_t, sub.span_dim)
    kernel = np.array(sub.kernel_basis).reshape(oracle.shape)
    k_coords = rdl.basis_coords(kernel, dims.joint).real
    o_coords = rdl.basis_coords(oracle, dims.joint).real
    assert np.abs(k_coords.T @ k_coords - o_coords.T @ o_coords).max() <= 1e-12

    assert sub.kernel_dim == sub.span_dim - sub.reduced_dim
    assert np.abs(kernel - kernel.conj().transpose(0, 2, 1)).max(initial=0.0) <= 1e-12
    gram = np.array([[np.vdot(a, b) for b in kernel] for a in kernel]).reshape(
        sub.kernel_dim, sub.kernel_dim
    )
    assert np.abs(gram - np.eye(sub.kernel_dim)).max(initial=0.0) <= 1e-12
    assert np.abs(rdl.partial_trace_env(kernel, dims)).max(initial=0.0) <= 1e-12
    for y in kernel:
        recon = sum(np.vdot(e, y) * e for e in sub.span_basis)
        assert rdl.max_norm(y - recon) <= 1e-12


def test_analyze_without_hull_builds_no_basis(monkeypatch):
    """The decision and its report read only the members, the fit and the span rank."""

    def refuse(self):
        raise AssertionError("an orthonormal basis was built")

    monkeypatch.setattr(Subspace, "span_basis", property(refuse))
    monkeypatch.setattr(Subspace, "kernel_basis", property(refuse))
    u = rdl.model_unitary(rdl.ModelParams(omega=np.pi / 2, t=1.0))
    a = rdl.analyze(rdl.full_two_qubit_family(), u)
    report = analysis_to_json(a, "analyze")
    assert not a.consistent
    assert report["subspace"]["kernel_dim"] == 12


def test_assignment_shape_check():
    lam = rdl.build_assignment(rdl.build_subspace(rdl.full_two_qubit_family()))
    with pytest.raises(DimensionError):
        lam.apply(np.eye(4))


def test_duplicate_marginals_do_not_grow_the_reduced_rank():
    omega = np.eye(2, dtype=complex) / 2
    plus = z_eigenstate(+1)
    fam = rdl.product_family([plus, plus, z_eigenstate(-1)], omega)
    sub = rdl.build_subspace(fam)
    assert (sub.span_dim, sub.reduced_dim, sub.kernel_dim) == (2, 2, 0)


def test_greedy_scan_caps_at_operator_space_dimension(rng):
    states = [rdl.random_density_matrix(4, rng) for _ in range(10)]
    fam = rdl.StateFamily(dims=rdl.BipartiteDims(2, 2), members=tuple(states))
    sub = rdl.build_subspace(fam)
    assert sub.reduced_dim == 4  # generic marginals fill the qubit operator space


def test_more_pairs_than_span_rank_is_refused(rank_split_family):
    """Two states within the rank cut of each other whose marginals are not.

    The marginals' rank exceeds the span's, so no split into reduced and kernel
    dimensions exists.
    """
    with pytest.raises(RdlError, match="the marginals have rank 2 in a span of rank 1;"):
        rdl.build_subspace(replace(rank_split_family, tol=replace(rdl.DEFAULT_TOL, rank=0.06)))


def test_subspace_reads_the_family_stack_and_copies_a_writable_one(rng):
    """The family's read-only stack is shared; the family copied the caller's writable members."""
    ops = np.array([rdl.random_density_matrix(4, rng) for _ in range(3)])
    fam = rdl.StateFamily(dims=rdl.BipartiteDims(2, 2), members=tuple(ops))
    sub = rdl.build_subspace(fam)
    assert sub.members is fam.stack
    assert not sub.members.flags.writeable and not sub.residuals.flags.writeable
    ops[0] = 0
    assert np.array_equal(sub.members[1:], ops[1:]) and not np.array_equal(sub.members[0], ops[0])


def test_product_family_with_one_environment_state_has_empty_kernel(rng):
    omega = rdl.random_density_matrix(2, rng)
    states = [rdl.random_density_matrix(2, rng) for _ in range(4)]
    fam = rdl.product_family(states, omega)
    sub = rdl.build_subspace(fam)
    assert sub.kernel_dim == 0
    assert sub.span_dim == sub.reduced_dim


def _anti_hermitian(ops, herm, rng):
    """States mixed toward I/d, plus anti-Hermitian parts with max |X - X^dag| just under ``herm``.

    Each added part is U - U^dag, U strictly upper triangular with entries at
    most herm / 2, so traces do not move.  Validation reads positivity off
    the lower triangle, the Hermitian matrix H - U - U^dag, whose shift is
    under d herm / 2 in norm; mixing in q = d^2 herm / 2 of I/d keeps it a
    state.
    """
    n, d = ops.shape[0], ops.shape[-1]
    q = d * d * herm / 2
    upper = np.triu(np.ones((d, d), dtype=bool), 1)
    u = np.zeros(ops.shape, dtype=complex)
    u[:, upper] = 0.999 * herm / 2 * rng.uniform(0, 1, size=(n, upper.sum())) * np.exp(
        2j * np.pi * rng.uniform(size=(n, upper.sum()))
    )
    return (1 - q) * ops + q * np.eye(d) / d + u - u.conj().swapaxes(1, 2)


def _state_case(kind, d, n, tol_rank, rng):
    """n states of side d, bent as ``kind`` says, and the tolerances that admit them."""
    ops = np.array([rdl.random_density_matrix(d, rng) for _ in range(n)])
    k = int(rng.integers(1, n)) if n > 1 else 1
    if kind in ("dependent", "dependent Hermitian parts"):
        ops[k:] = np.tensordot(rng.dirichlet(np.ones(k), size=n - k), ops[:k], axes=1)
    elif kind == "near cut" and n > 1:
        step = tol_rank * 10 ** rng.uniform(-0.5, 1) * np.linalg.norm(ops[-2])
        away = rdl.random_density_matrix(d, rng) - ops[-2]
        ops[-1] = ops[-2] + min(1.0, step / np.linalg.norm(away)) * away
    elif kind == "purities":
        p = rng.uniform(0, 1, size=(n, 1, 1))
        v = rng.normal(size=(n, d)) + 1j * rng.normal(size=(n, d))
        v /= np.linalg.norm(v, axis=1, keepdims=True)
        ops = p * np.einsum("na,nb->nab", v, v.conj()) + (1 - p) * np.eye(d) / d
    if kind in ("anti-Hermitian", "dependent Hermitian parts"):
        herm = 10 ** rng.uniform(-12, -2)
        return _anti_hermitian(ops, herm, rng), replace(rdl.DEFAULT_TOL, herm=herm)
    return ops, rdl.DEFAULT_TOL


@settings(max_examples=200)
@given(
    d_s=st.sampled_from([2, 3]),
    d_e=st.sampled_from([1, 2, 3, 4]),
    n=st.integers(1, 146),
    kind=st.sampled_from(
        ["generic", "dependent", "near cut", "anti-Hermitian", "dependent Hermitian parts",
         "purities"]
    ),
    log_tol=st.floats(-10, -2),
    seed=st.integers(0, 2**16),
)
def test_span_rank_matches_svd_oracle(d_s, d_e, n, kind, log_tol, seed):
    """The certified or counted span rank equals the unit-row SVD count, up to and past d_j^2 states.

    Every case is a family that validation accepts at the tolerances the
    certificate is then given.
    """
    rng = np.random.default_rng(seed)
    d = d_s * d_e
    n = min(n, d * d + 2)
    tol_rank = 10.0**log_tol
    ops, tol = _state_case(kind, d, n, tol_rank, rng)
    tol = replace(tol, rank=tol_rank)
    fam = rdl.StateFamily(dims=rdl.BipartiteDims(d_s, d_e), members=tuple(ops), tol=tol)
    with mock.patch.object(subspace, "_unit_rows", wraps=subspace._unit_rows) as spy:
        rank = subspace._span_rank(fam.stack, d, fam.tol)
    event(f"{kind}: {'SVD' if spy.called else 'certified'}")
    assert rank == span_dim_by_svd(fam.stack, d, tol_rank)


def _spy_unit_rows(monkeypatch):
    sides = []
    unit_rows = subspace._unit_rows

    def spy(ops, d):
        sides.append(d)
        return unit_rows(ops, d)

    monkeypatch.setattr(subspace, "_unit_rows", spy)
    return sides


def test_full_rank_family_is_certified_without_coordinates(rng, monkeypatch):
    """A generic 4x8 family of 120 states: the span rank needs no joint coordinate rows."""
    dims = rdl.BipartiteDims(4, 8)
    fam = rdl.StateFamily(
        dims=dims, members=tuple(rdl.random_density_matrix(32, rng) for _ in range(120))
    )
    sides = _spy_unit_rows(monkeypatch)
    sub = rdl.build_subspace(fam)
    assert sub.span_dim == 120 == span_dim_by_svd(fam.stack, 32, sub.tol.rank)
    assert sides == []

    rho, h = np.eye(4) / 4, rdl.tensor(rdl.SIGMA_Z, np.eye(2))
    pair = rdl.StateFamily(dims=rdl.BipartiteDims(2, 2), members=(rho, rho + 1e-12 * h))
    assert rdl.build_subspace(pair).span_dim == 1
    assert sides == [4]  # not certified: the SVD counts


def test_certificate_reads_the_family_tolerances(rng, monkeypatch):
    """The anti-Hermitian parts are bounded by the family's ``herm``, not measured.

    60 states at d_j = 8 with tol_rank 5e-12: the floor (2m + n + 8) n eps,
    m = 2 d_j^2, is 4.3e-12, and would be 6.0e-12 with a measured third
    m n eps term.  Ten states at d_j = 4 validated at herm 0.1 have their
    anti-Hermitian share bounded by 10 * 4^3 * 0.1^2 / 4 = 1.6, and the SVD
    counts.  Last, I/4 plus or minus an anti-Hermitian part at the full
    herm: the Hermitian parts agree, and the bound exceeds the share by only
    d / (d - 1), so the SVD counts one.
    """
    sides = _spy_unit_rows(monkeypatch)
    fam = rdl.StateFamily(
        dims=rdl.BipartiteDims(2, 4),
        members=tuple(rdl.random_density_matrix(8, rng) for _ in range(60)),
        tol=replace(rdl.DEFAULT_TOL, rank=5e-12),
    )
    assert rdl.build_subspace(fam).span_dim == 60 == span_dim_by_svd(fam.stack, 8, 5e-12)
    assert sides == []

    loose = replace(rdl.DEFAULT_TOL, herm=0.1)
    states = tuple(rdl.random_density_matrix(4, rng) for _ in range(10))
    fam = rdl.StateFamily(dims=rdl.BipartiteDims(2, 2), members=states, tol=loose)
    assert rdl.build_subspace(fam).span_dim == 10 == span_dim_by_svd(fam.stack, 4, 1e-8)
    assert sides == [4]

    u = np.triu(np.full((4, 4), 0.999e-3 / 2), 1)
    pair = (np.eye(4) / 4 + u - u.T, np.eye(4) / 4 - u + u.T)
    fam = rdl.StateFamily(rdl.BipartiteDims(2, 2), pair, tol=replace(rdl.DEFAULT_TOL, herm=1e-3))
    assert rdl.build_subspace(fam).span_dim == 1 == span_dim_by_svd(fam.stack, 4, 1e-8)
    assert sides == [4, 4]


def test_unit_rows_norms_match_the_row_loop_bit_for_bit(rng):
    """The batched norms of ``_unit_rows`` against one ``np.linalg.norm`` per row, widths 4 to 2304."""
    for d in range(2, 49):
        ops = rng.normal(size=(3, d, d)) + 1j * rng.normal(size=(3, d, d))
        ops *= 10.0 ** rng.uniform(-6, 6, size=(3, 1, 1))
        rows, want = subspace._unit_rows(ops, d), unit_rows_one_by_one(ops, d)
        assert np.array_equal(rows.view(np.int64), want.view(np.int64))


def _spy_reduced_propagator():
    return mock.patch.object(
        operators, "_reduced_propagator", wraps=operators._reduced_propagator
    )


def _map_matrix(sub, u):
    rep = rdl.check_subspace_consistency(sub, u)
    return rdl.build_dynamical_map(rdl.build_assignment(sub), u, consistency=rep).matrix


def test_analyze_with_the_hull_evolves_the_members_once():
    """The kernel test, the hull bound and the map build share one E and one check of U."""
    u = rdl.model_unitary(rdl.ModelParams(omega=np.pi / 2, t=1.0))
    unitary = mock.patch.object(operators, "require_unitary", wraps=operators.require_unitary)
    with _spy_reduced_propagator() as spy, unitary as checks:
        a = rdl.analyze(rdl.full_two_qubit_family(), u, hull=True)
    assert a.hull is not None and a.hull.max_violation == 2 * a.consistency.max_violation
    assert spy.call_count == 1
    assert checks.call_count == 1


def test_the_map_build_reads_the_kernel_tests_evolution(rng):
    """The two-call path, kernel test then map build with its report, forms one E."""
    fam = rdl.full_two_qubit_family()
    sub = rdl.build_subspace(fam)
    u = random_unitary(4, rng)
    with _spy_reduced_propagator() as spy:
        rep = rdl.check_subspace_consistency(sub, u)
        matrix = rdl.build_dynamical_map(rdl.build_assignment(sub), u, consistency=rep).matrix
    assert spy.call_count == 1
    assert not rep.fitted.flags.writeable
    assert np.array_equal(matrix, _map_matrix(rdl.build_subspace(fam), u))


def test_a_propagator_changed_in_place_gets_fresh_evolved_marginals(rng):
    fam = rdl.full_two_qubit_family()
    sub = rdl.build_subspace(fam)
    u = random_unitary(4, rng)
    rdl.check_subspace_consistency(sub, u)
    u[...] = random_unitary(4, rng)
    assert np.array_equal(_map_matrix(sub, u), _map_matrix(rdl.build_subspace(fam), u))


def test_alternating_propagators_each_get_their_own_map(rng):
    fam = rdl.full_two_qubit_family()
    sub = rdl.build_subspace(fam)
    us = [random_unitary(4, rng) for _ in range(2)]
    fresh = [_map_matrix(rdl.build_subspace(fam), u) for u in us]
    assert not np.array_equal(*fresh)
    for k in (0, 1, 0, 1):
        assert np.array_equal(_map_matrix(sub, us[k]), fresh[k])
