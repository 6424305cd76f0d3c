"""Assignment lift, superoperator assembly, signed operator-sum form, verdicts."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import rdl
from rdl.errors import DimensionError, HermiticityError, IncompleteDomainError
from rdl.maps import Superoperator, _choi_from_matrix

from oracles import choi_by_application, conjugate_loops, ptrace_env_loops, random_unitary
from test_consistency import constrained_family, product_and_joint_family, random_propagator


def pipeline(family, u, **kw):
    sub = rdl.build_subspace(family)
    rep = rdl.check_subspace_consistency(sub, u)
    sop = rdl.build_dynamical_map(rdl.build_assignment(sub), u, consistency=rep, **kw)
    return sub, rep, sop


def transpose_superoperator():
    """The transpose map, entered through its known coordinate matrix."""
    tmat = np.diag([1.0, 1.0, -1.0, 1.0]).astype(complex)
    return Superoperator(
        d_s=2,
        matrix=tmat,
        choi=_choi_from_matrix(tmat, 2),
        extension="zero",
        consistency_certified=False,
        domain_projector=np.eye(4),
    )


def test_assignment_lifts_marginals_back(rng):
    fam = rdl.full_two_qubit_family()
    sub = rdl.build_subspace(fam)
    lam = rdl.build_assignment(sub)
    for m in fam.members[:4]:
        marg = rdl.partial_trace_env(m, fam.dims)
        lift = lam.apply(marg)
        assert rdl.max_norm(rdl.partial_trace_env(lift, fam.dims) - marg) < 1e-10


def test_identity_propagator_gives_identity_map():
    _, _, sop = pipeline(rdl.full_two_qubit_family(), np.eye(4, dtype=complex))
    assert np.abs(sop.matrix - np.eye(4)).max() < 1e-12
    k = rdl.decompose_signed_kraus(sop)
    assert len(k.terms) == 1
    e, op = k.terms[0]
    assert e == 1.0
    assert np.abs(op - np.eye(2)).max() < 1e-10


def test_choi_assembly_matches_application_oracle():
    sop = transpose_superoperator()
    oracle = choi_by_application(lambda e: e.T, 2)
    assert np.abs(sop.choi - oracle).max() < 1e-14


@pytest.mark.parametrize(
    "d_s, d_e, n", [(3, 2, 14), (3, 2, 5), (2, 3, 6)], ids=["3x2", "3x2-partial", "2x3"]
)
def test_map_matches_application_oracle(d_s, d_e, n, rng):
    """The batched map against reduce after conjugate after assign, one |j><k| at a time."""
    dims = rdl.BipartiteDims(d_s, d_e)
    fam = rdl.StateFamily(
        dims=dims, members=tuple(rdl.random_density_matrix(dims.joint, rng) for _ in range(n))
    )
    u = random_unitary(dims.joint, rng)
    sub = rdl.build_subspace(fam)
    lam = rdl.build_assignment(sub)
    sop = rdl.build_dynamical_map(lam, u)
    assert sub.reduced_dim == min(n, d_s * d_s)

    def phi(e):
        inside = rdl.from_basis_coords(sop.domain_projector @ rdl.basis_coords(e, d_s), d_s)
        return ptrace_env_loops(conjugate_loops(u, lam.apply(inside)), d_s, d_e)

    assert np.abs(sop.choi - choi_by_application(phi, d_s)).max() < 1e-12


@pytest.mark.parametrize("d_s, d_e", [(2, 2), (3, 2)])
def test_superoperator_apply_takes_stacks(d_s, d_e, rng):
    """Stacks of length d_s^2 (where a wrong contraction still has matching shapes) and 3."""
    states = [rdl.random_density_matrix(d_s, rng) for _ in range(d_s * d_s)]
    fam = rdl.product_family(states, rdl.random_density_matrix(d_e, rng))
    _, _, sop = pipeline(fam, random_unitary(d_s * d_e, rng))
    for xs in (np.array(fam.reduced()), np.array(fam.reduced()[:3])):
        assert np.array_equal(sop.apply(xs), [sop.apply(x) for x in xs])
    grid = np.array(fam.reduced()[:4]).reshape(2, 2, d_s, d_s)
    assert np.array_equal(sop.apply(grid)[1, 0], sop.apply(grid[1, 0]))


def test_transpose_choi_is_swap_with_known_spectrum():
    sop = transpose_superoperator()
    assert np.abs(sop.choi - rdl.swap_unitary(2)).max() < 1e-14
    evals = np.linalg.eigvalsh(sop.choi)
    assert np.abs(evals - np.array([-1.0, 1.0, 1.0, 1.0])).max() < 1e-12


def test_transpose_signed_kraus_negative_term():
    k = rdl.decompose_signed_kraus(transpose_superoperator())
    assert [e for e, _ in k.terms] == [-1.0, 1.0, 1.0, 1.0]
    neg = k.terms[0][1]
    expected = np.array([[0, -1], [1, 0]], dtype=complex) / np.sqrt(2)
    assert np.abs(neg - expected).max() < 1e-12
    assert k.completeness_defect() < 1e-12


def test_signed_kraus_reconstructs_the_map(rng):
    sop = transpose_superoperator()
    k = rdl.decompose_signed_kraus(sop)
    for _ in range(5):
        rho = rdl.random_density_matrix(2, rng)
        assert np.abs(k.reconstruct(rho) - rho.T).max() < 1e-12


def test_decomposition_is_deterministic():
    sop = transpose_superoperator()
    k1 = rdl.decompose_signed_kraus(sop)
    k2 = rdl.decompose_signed_kraus(sop)
    for (e1, o1), (e2, o2) in zip(k1.terms, k2.terms):
        assert e1 == e2
        assert np.abs(o1 - o2).max() == 0


def choi_superoperator(choi):
    """A 2-qubit-Choi superoperator entered through its Choi matrix alone."""
    return Superoperator(
        d_s=2,
        matrix=np.eye(4, dtype=complex),
        choi=choi,
        extension="zero",
        consistency_certified=False,
        domain_projector=np.eye(4),
    )


def test_degenerate_choi_kraus_operators_are_pinned(rng):
    """A 1e-15 Hermitian nudge leaves the Kraus operators of a double eigenvalue in place.

    Without the pinning the eigensolver is free to turn the pair inside its
    eigenspace (by 1.0 on this draw).  The pinned operators reconstruct
    the same map, with the same completeness defect, as the eigenvectors do.
    """
    w = random_unitary(4, rng)
    choi = (w * np.array([-0.1, 0.3, 0.5, 0.5])) @ w.conj().T
    nudge = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    nudge = nudge + nudge.conj().T
    nudged = choi + 1e-15 * nudge / np.abs(nudge).max()
    pinned = [rdl.decompose_signed_kraus(choi_superoperator(c)) for c in (choi, nudged)]
    for k in pinned:
        assert [e for e, _ in k.terms] == [-1.0, 1.0, 1.0, 1.0]
    for (_, a), (_, b) in zip(pinned[0].terms, pinned[1].terms):
        assert np.abs(a - b).max() <= 1e-10
    with mock.patch.object(rdl.maps, "_pinned_clusters", lambda evals, evecs, tol: evecs):
        free = [rdl.decompose_signed_kraus(choi_superoperator(c)) for c in (choi, nudged)]
    rho = rdl.random_density_matrix(2, rng)
    for k, ref in zip(pinned, free):
        assert np.abs(k.reconstruct(rho) - ref.reconstruct(rho)).max() <= 1e-12
        assert abs(k.completeness_defect() - ref.completeness_defect()) <= 1e-12


def test_constrained_family_map_is_linear_but_not_cp(rng):
    fam = constrained_family()
    u = rdl.model_unitary(rdl.ModelParams(omega=1.3, t=1.0))
    sub, rep, sop = pipeline(fam, u)
    assert rep.consistent
    assert sop.consistency_certified
    v = rdl.verdicts(sop)
    assert v.hermitian_preserving
    assert v.trace_preserving
    assert not v.completely_positive
    assert v.choi_min_eigenvalue < -1e-3
    # the map still reproduces the true dynamics on the family
    for m in fam.members:
        marg = rdl.partial_trace_env(m, fam.dims)
        direct = rdl.partial_trace_env(rdl.adjoint_action(u, m), fam.dims)
        assert rdl.max_norm(sop.apply(marg) - direct) < 1e-10
    k = rdl.decompose_signed_kraus(sop)
    assert any(e < 0 for e, _ in k.terms)
    assert k.completeness_defect() < 1e-10
    for m in fam.members[:5]:
        marg = rdl.partial_trace_env(m, fam.dims)
        assert rdl.max_norm(k.reconstruct(marg) - sop.apply(marg)) < 1e-10


def test_completeness_defect_tracks_trace_preservation():
    # a single-state span misses |1><1|, which carries trace, so the zero
    # extension cannot be trace preserving there
    omega = np.diag([0.8, 0.2]).astype(complex)
    fam = rdl.product_family([np.diag([1.0, 0.0]).astype(complex)], omega)
    _, _, sop = pipeline(fam, rdl.swap_unitary(2))
    v = rdl.verdicts(sop)
    assert not v.trace_preserving
    k = rdl.decompose_signed_kraus(sop)
    assert k.completeness_defect() > 1e-3
    # the deficiency is exactly the missing trace direction
    assert np.abs(sop.choi - rdl.tensor(np.diag([1.0, 0.0]), omega)).max() < 1e-12


def test_extension_none_requires_full_span():
    omega = np.diag([0.8, 0.2]).astype(complex)
    fam = rdl.product_family(
        [np.diag([1.0, 0.0]).astype(complex), np.diag([0.0, 1.0]).astype(complex)], omega
    )
    sub = rdl.build_subspace(fam)
    with pytest.raises(IncompleteDomainError):
        rdl.build_dynamical_map(rdl.build_assignment(sub), rdl.swap_unitary(2), extension="none")
    # on a full span the two extensions agree
    fam2 = rdl.full_two_qubit_family()
    u = rdl.model_unitary(rdl.ModelParams(omega=0.9, t=1.0))
    sub2 = rdl.build_subspace(fam2)
    a = rdl.build_dynamical_map(rdl.build_assignment(sub2), u, extension="zero")
    b = rdl.build_dynamical_map(rdl.build_assignment(sub2), u, extension="none")
    assert np.abs(a.matrix - b.matrix).max() < 1e-12


def test_extension_name_is_validated():
    sub = rdl.build_subspace(rdl.full_two_qubit_family())
    with pytest.raises(ValueError):
        rdl.build_dynamical_map(rdl.build_assignment(sub), np.eye(4), extension="pad")


def test_domain_projector_is_identity_on_full_span():
    _, _, sop = pipeline(rdl.full_two_qubit_family(), np.eye(4, dtype=complex))
    assert np.abs(sop.domain_projector - np.eye(4)).max() < 1e-10


@pytest.mark.parametrize("d_s, d_e", [(2, 2), (3, 2)])
def test_map_kills_complement_of_partial_reduced_span(d_s, d_e, rng):
    """Product states of two system states: a reduced span of dimension 2 < d_s^2."""
    dims = rdl.BipartiteDims(d_s, d_e)
    systems = [rdl.random_density_matrix(d_s, rng) for _ in range(2)]
    envs = [rdl.random_density_matrix(d_e, rng) for _ in range(2)]
    fam = rdl.StateFamily(dims=dims, members=tuple(rdl.tensor(r, w) for r in systems for w in envs))
    sub, _, sop = pipeline(fam, random_unitary(dims.joint, rng))
    assert sub.reduced_dim == 2
    complement = np.eye(d_s * d_s) - sop.domain_projector
    assert np.abs(sop.matrix @ complement).max() <= 1e-14


@given(
    d_s=st.sampled_from([2, 3]),
    d_e=st.sampled_from([1, 2, 3, 4]),
    n_sys=st.integers(1, 3),
    n_env=st.integers(1, 3),
    n_joint=st.integers(0, 3),
    entangling=st.booleans(),
    seed=st.integers(0, 2**16),
)
def test_member_order_leaves_the_decision_unchanged(
    d_s, d_e, n_sys, n_env, n_joint, entangling, seed
):
    """Permuted members give the same verdict and the same map, consistent or not.

    The fit's roundoff grows with the condition number of the kept singular
    values of the marginals' unit rows, so past a condition number of 100 the
    1e-12 bound grows with it.
    """
    rng = np.random.default_rng(seed)
    fam = product_and_joint_family(rng, d_s, d_e, n_sys, n_env, n_joint)
    u = random_propagator(rng, fam.dims, entangling)
    order = rng.permutation(len(fam))
    shuffled = rdl.StateFamily(dims=fam.dims, members=tuple(fam.members[i] for i in order))
    a, b = rdl.analyze(fam, u), rdl.analyze(shuffled, u)
    assert a.consistent == b.consistent
    sub = a.subspace
    rows = sub.marginals / np.linalg.norm(sub.marginals, axis=1, keepdims=True)
    kept = np.linalg.svd(rows, compute_uv=False)[: sub.reduced_dim]
    bound = 1e-14 * max(100.0, kept[0] / kept[-1])
    assert np.abs(a.superoperator.matrix - b.superoperator.matrix).max() <= bound


def test_map_dimension_mismatch():
    sub = rdl.build_subspace(rdl.full_two_qubit_family())
    with pytest.raises(DimensionError):
        rdl.build_dynamical_map(rdl.build_assignment(sub), np.eye(6, dtype=complex))


def test_kraus_rejects_nonhermitian_choi():
    for choi in (
        np.array([[0, 1], [0, 0]], dtype=complex).repeat(2, 0).repeat(2, 1),
        np.diag([np.nan, 1, 1, 1]).astype(complex),  # NaN must not pass as Hermitian
    ):
        sop = Superoperator(
            d_s=2,
            matrix=np.eye(4, dtype=complex),
            choi=choi,
            extension="zero",
            consistency_certified=False,
            domain_projector=np.eye(4),
        )
        with pytest.raises(HermiticityError):
            rdl.decompose_signed_kraus(sop)


def test_cp_map_never_grows_trace_distance(rng):
    """Complete positivity plus trace preservation forces contractivity."""
    omega = rdl.random_density_matrix(2, rng)
    states = [rdl.random_density_matrix(2, rng) for _ in range(4)]
    a = rdl.analyze(rdl.product_family(states, omega), rdl.swap_unitary(2))
    assert a.verdicts.completely_positive
    probes = [rdl.random_density_matrix(2, rng) for _ in range(6)]
    for i in range(len(probes)):
        for j in range(i + 1, len(probes)):
            before = rdl.trace_distance(probes[i], probes[j])
            after = rdl.trace_distance(
                a.superoperator.apply(probes[i]), a.superoperator.apply(probes[j])
            )
            assert after <= before + 1e-10
