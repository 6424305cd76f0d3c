from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import rdl
import rdl.consistency
from rdl import DEFAULT_TOL
from rdl.errors import DimensionError, UnitarityError
from oracles import (
    conjugate_loops,
    hull_by_trials,
    kernel_test_by_basis,
    pairwise_by_loops,
    ptrace_env_loops,
    random_unitary,
)


def constrained_family(seed=7, n=12, scale=0.3):
    rng = np.random.default_rng(seed)
    draws = [rdl.sample_two_qubit_params(rng, scale) for _ in range(n)]
    fam, _ = rdl.constrained_two_qubit_family(
        0.15, -0.1, np.array([0.1, 0.0, 0.05]), np.array([0.0, 0.1, 0.0]), draws
    )
    return fam


def test_constrained_family_is_consistent():
    fam = constrained_family()
    sub = rdl.build_subspace(fam)
    u = rdl.model_unitary(rdl.ModelParams(omega=1.3, t=1.0))
    rep = rdl.check_subspace_consistency(sub, u)
    assert rep.consistent
    assert rep.max_violation < 1e-10
    assert rep.witness is None
    assert not rep.marginal


def test_full_family_is_inconsistent_at_quarter_period():
    fam = rdl.full_two_qubit_family()
    sub = rdl.build_subspace(fam)
    u = rdl.model_unitary(rdl.ModelParams(omega=np.pi / 2, t=1.0))
    rep = rdl.check_subspace_consistency(sub, u)
    assert not rep.consistent
    assert rep.max_violation > 1e-3
    # the witness sits in the traceless kernel and reproduces the violation
    w = rep.witness
    assert rdl.max_norm(rdl.partial_trace_env(w, fam.dims)) < 1e-10
    evolved = rdl.partial_trace_env(u @ w @ u.conj().T, fam.dims)
    assert abs(rdl.max_norm(evolved) - rep.max_violation) < 1e-12


def test_marginal_flag_tracks_tolerance_band():
    u = rdl.model_unitary(rdl.ModelParams(omega=np.pi / 2, t=1.0))

    def check(consistency=DEFAULT_TOL.consistency):
        fam = rdl.full_two_qubit_family(tol=replace(DEFAULT_TOL, consistency=consistency))
        return rdl.check_subspace_consistency(rdl.build_subspace(fam), u)

    v = check().max_violation
    in_band = check(v / 5)
    assert not in_band.consistent and in_band.marginal
    far_out = check(v / 50)
    assert not far_out.consistent and not far_out.marginal
    passed = check(2 * v)
    assert passed.consistent and not passed.marginal


def test_member_near_the_rank_cut_keeps_a_local_propagator_consistent():
    """A marginal just inside the rank cut costs the fit roundoff-sized errors, not a verdict.

    The second state sits 1e-4 from the first, so the third, 1e-5 off their
    plane, leaves a smallest unit-row singular value of 3.4e-9, under the
    rank tolerance: both rank decisions say 2.  With d_e = 1 every
    propagator is local, so the family must pass; the truncated fit misses
    each member by about 1e-9.
    """
    p1 = np.eye(2) / 2 + 0.15 * rdl.SIGMA_Z
    p2 = p1 + 1e-4 * rdl.SIGMA_X
    r = p1 + 0.4 * rdl.SIGMA_X + 1e-5 * rdl.SIGMA_Y
    sub = rdl.build_subspace(rdl.StateFamily(dims=rdl.BipartiteDims(2, 1), members=(p1, p2, r)))
    assert (sub.span_dim, sub.reduced_dim) == (2, 2)
    rep = rdl.check_subspace_consistency(sub, rdl.SIGMA_X)
    assert rep.consistent and rep.witness is None
    assert 1e-10 < rep.max_violation < 1e-8


@pytest.mark.parametrize("field", ["herm", "trace", "unitary", "psd", "rank", "consistency"])
@pytest.mark.parametrize("value", [np.nan, np.inf, -1e-3, 0.0, 1.0, 1.5])
def test_tolerances_must_be_finite_and_positive(field, value):
    if field == "psd" and value == 0.0:  # min eig >= 0: the exact positivity floor
        assert replace(DEFAULT_TOL, psd=0.0).psd == 0.0
        return
    if field not in ("trace", "psd") and 1 <= value < np.inf:  # only these are bounded above
        assert getattr(replace(DEFAULT_TOL, **{field: value}), field) == value
        return
    bound = " and below 1" if field in ("trace", "psd") else ""
    with pytest.raises(ValueError, match=f"^tolerance {field} must be finite and positive{bound},"):
        replace(DEFAULT_TOL, **{field: value})


def test_a_huge_psd_tolerance_is_refused_before_it_admits_huge_members():
    """At psd = 1e300 validation would accept entries of 1e200, whose Gram product overflows."""
    huge = np.array([[0.5, 1e200], [1e200, 0.5]])
    with pytest.raises(rdl.InputError, match="^tolerance psd must be .* and below 1, got 1e"):
        rdl.StateFamily(
            dims=rdl.BipartiteDims(2, 1),
            members=(huge, np.eye(2) / 2),
            tol=rdl.ToleranceConfig(psd=1e300),
        )


def test_identity_propagator_is_always_consistent():
    sub = rdl.build_subspace(rdl.full_two_qubit_family())
    rep = rdl.check_subspace_consistency(sub, np.eye(4, dtype=complex))
    assert rep.consistent
    assert rep.max_violation < 1e-12


def _map_with_its_report(sub, u):
    rep = rdl.check_subspace_consistency(sub, u)
    return rdl.build_dynamical_map(rdl.build_assignment(sub), u, consistency=rep)


ENTRIES = {
    "kernel": lambda fam, u: rdl.check_subspace_consistency(rdl.build_subspace(fam), u),
    "pairwise": lambda fam, u: rdl.check_pairwise_consistency(fam, u),
    "hull": lambda fam, u: rdl.analyze(fam, u, hull=True),
    "map": lambda fam, u: _map_with_its_report(rdl.build_subspace(fam), u),
}


@pytest.mark.parametrize("entry", sorted(ENTRIES))
@pytest.mark.parametrize(
    "u, error, message",
    [
        (2 * np.eye(4), UnitarityError, "propagator is not unitary"),
        (np.eye(6), DimensionError, "propagator side 6 does not match joint dimension 4"),
        (np.diag([np.nan, 1, 1, 1]), UnitarityError, "propagator is not unitary"),
    ],
    ids=["non-unitary", "wrong-size", "nan"],
)
def test_entry_rejects_bad_propagator(entry, u, error, message):
    with pytest.raises(error, match=message):
        ENTRIES[entry](rdl.full_two_qubit_family(), u)


def equal_marginal_pair_family():
    rho = np.diag([0.7, 0.3]).astype(complex)
    omega1 = np.diag([0.9, 0.1]).astype(complex)
    omega2 = np.diag([0.4, 0.6]).astype(complex)
    members = (rdl.tensor(rho, omega1), rdl.tensor(rho, omega2))
    return rdl.StateFamily(dims=rdl.BipartiteDims(2, 2), members=members)


def test_pairwise_flags_swap_on_equal_marginals():
    fam = equal_marginal_pair_family()
    swap = rdl.swap_unitary(2)
    rep = rdl.check_pairwise_consistency(fam, swap)
    assert rep.pairs_tested == 1
    assert not rep.consistent
    assert abs(rep.max_violation - 0.5) < 1e-12  # |0.9 - 0.4| on the diagonal
    ident = rdl.check_pairwise_consistency(fam, np.eye(4, dtype=complex))
    assert ident.consistent and ident.pairs_tested == 1


@pytest.mark.parametrize("rows", [None, 1, 2])
def test_pairwise_witness_is_the_first_worst_pair_in_row_order(rows):
    """Members a, b, a tie on pairs (0, 1) and (1, 2); the witness is a - b from (0, 1).

    ``rows`` candidate pairs per block: one block, or one or two pairs per block.
    """
    a, b = equal_marginal_pair_family().members
    fam = rdl.StateFamily(dims=rdl.BipartiteDims(2, 2), members=(a, b, a))
    entries = rdl.consistency._BLOCK_ENTRIES if rows is None else rows * 4
    with mock.patch.object(rdl.consistency, "_BLOCK_ENTRIES", entries):
        rep = rdl.check_pairwise_consistency(fam, rdl.swap_unitary(2))
    assert rep.pairs_tested == 3
    assert abs(rep.max_violation - 0.5) < 1e-12
    assert np.array_equal(rep.witness, a - b)


def test_pairwise_vacuous_when_no_marginals_match(rng):
    states = [rdl.random_density_matrix(2, rng) for _ in range(3)]
    fam = rdl.product_family(states, rdl.random_density_matrix(2, rng))
    rep = rdl.check_pairwise_consistency(fam, rdl.swap_unitary(2))
    assert rep.consistent
    assert rep.pairs_tested == 0


def shared_corner_family(rng):
    """Products of three system states that all have (rho_s)_00 = 1/2, and mixes of them.

    Every member's sort key is 1/2, so every pair is a candidate; only
    products sharing a system state match.
    """
    dims = rdl.BipartiteDims(2, 2)
    systems = [np.array([[0.5, c], [np.conj(c), 0.5]]) for c in (0.1, 0.2j, -0.3 + 0.1j)]
    envs = [rdl.random_density_matrix(2, rng) for _ in range(3)]
    products = [rdl.tensor(r, w) for r in systems for w in envs]
    mixes = [(products[a] + products[b]) / 2 for a, b in ((0, 4), (0, 8), (4, 8))]
    return rdl.StateFamily(dims=dims, members=tuple(products + mixes))


def off_diagonal_step_family(rng):
    """One system state, then the same with its (0, 1) entry moved by 0.5 tol and by 2 tol.

    Only the 0.5-tol step matches; the keys of all three are equal.
    """
    dims = rdl.BipartiteDims(2, 2)
    step = np.array([[0, 1], [1, 0]], dtype=complex) * DEFAULT_TOL.rank
    r = rdl.random_density_matrix(2, rng)
    systems = (r, r + 0.5 * step, r + 2 * step)
    return rdl.StateFamily(
        dims=dims,
        members=tuple(rdl.tensor(s, rdl.random_density_matrix(2, rng)) for s in systems),
    )


def unmatched_family(rng):
    states = [rdl.random_density_matrix(2, rng) for _ in range(4)]
    return rdl.product_family(states, rdl.random_density_matrix(2, rng))


@pytest.mark.parametrize(
    "make, block, pairs",
    [(shared_corner_family, 5, 9), (off_diagonal_step_family, 1, 1), (unmatched_family, None, 0)],
)
def test_sorted_sweep_matches_loop_oracle(make, block, pairs, rng):
    """Same pairs, in the same (i, j) order, and a bit-equal witness as the pair-by-pair loops.

    ``block`` candidate pairs per block (one block when None).  The order is
    read off the violations the sweep hands to the verdict, which are
    distinct under a random propagator.
    """
    fam = make(rng)
    u = random_unitary(4, rng)
    viol, witness = pairwise_by_loops(fam.members, u, fam.dims, DEFAULT_TOL)
    entries = rdl.consistency._BLOCK_ENTRIES if block is None else block * 4
    spy = mock.Mock(wraps=rdl.consistency._report)
    with mock.patch.object(rdl.consistency, "_BLOCK_ENTRIES", entries), \
            mock.patch.object(rdl.consistency, "_report", spy):
        rep = rdl.check_pairwise_consistency(fam, u)
    assert rep.pairs_tested == len(viol) == pairs
    assert np.abs(spy.call_args.args[0] - viol).max(initial=0.0) <= 1e-12
    if pairs:
        assert not rep.consistent
        assert np.array_equal(rep.witness, witness)
    else:
        assert rep.consistent and rep.witness is None and rep.max_violation == 0.0


def test_hull_agrees_with_kernel_test_and_is_deterministic():
    """The hull bound is twice the kernel test's violation, bit for bit, and samples nothing."""
    fam = rdl.full_two_qubit_family()
    u = rdl.model_unitary(rdl.ModelParams(omega=np.pi / 2, t=1.0))
    a1, a2 = rdl.analyze(fam, u, hull=True), rdl.analyze(fam, u, hull=True)
    assert not a1.hull.consistent and not a1.consistent
    assert a1.hull.max_violation == a2.hull.max_violation == 2 * a1.consistency.max_violation
    assert a1.hull.pairs_tested is None

    good = constrained_family()
    u2 = rdl.model_unitary(rdl.ModelParams(omega=1.3, t=1.0))
    a3 = rdl.analyze(good, u2, hull=True)
    assert a3.hull.consistent and a3.hull.witness is None
    assert a3.hull.max_violation == 2 * a3.consistency.max_violation < 1e-10
    assert rdl.analyze(good, u2).hull is None


def test_hull_witness_is_positivity_preserving_perturbation():
    """The witness is 2 g_k for the first worst member k.

    Its evolved marginal realizes the bound, and a small step along it keeps
    a state of the hull a state, with the same marginal.
    """
    fam = rdl.full_two_qubit_family()
    u = rdl.model_unitary(rdl.ModelParams(omega=np.pi / 2, t=1.0))
    a = rdl.analyze(fam, u, hull=True)
    w = a.hull.witness
    assert w is not None
    assert np.array_equal(w, 2 * a.consistency.witness)
    assert rdl.max_norm(rdl.partial_trace_env(w, fam.dims)) < 1e-10
    evolved = rdl.partial_trace_env(u @ w @ u.conj().T, fam.dims)
    assert abs(rdl.max_norm(evolved) - a.hull.max_violation) < 1e-12
    centre = fam.stack.mean(axis=0)
    step = np.linalg.eigvalsh(centre)[0] / np.linalg.norm(w, 2) / 2
    assert np.linalg.eigvalsh(centre + step * w)[0] > 0


def test_hull_vacuous_without_kernel(rng):
    """With an empty kernel every member residual is roundoff, and so is the bound."""
    states = [rdl.random_density_matrix(2, rng) for _ in range(3)]
    fam = rdl.product_family(states, rdl.random_density_matrix(2, rng))
    a = rdl.analyze(fam, rdl.swap_unitary(2), hull=True)
    assert a.subspace.kernel_dim == 0
    assert a.hull.consistent and a.hull.max_violation < 1e-14
    assert a.hull.pairs_tested is None


def product_and_joint_family(rng, d_s, d_e, n_sys, n_env, n_joint):
    """Products of random system and environment states, then random joint states."""
    dims = rdl.BipartiteDims(d_s, d_e)
    systems = [rdl.random_density_matrix(d_s, rng) for _ in range(n_sys)]
    envs = [rdl.random_density_matrix(d_e, rng) for _ in range(n_env)]
    members = [rdl.tensor(r, w) for r in systems for w in envs]
    members += [rdl.random_density_matrix(dims.joint, rng) for _ in range(n_joint)]
    return rdl.StateFamily(dims=dims, members=tuple(members))


def random_propagator(rng, dims, entangling):
    """A random joint unitary, or a random product of local ones."""
    if entangling:
        return random_unitary(dims.joint, rng)
    return rdl.tensor(random_unitary(dims.d_s, rng), random_unitary(dims.d_e, rng))


@given(
    d_s=st.sampled_from([2, 3]),
    d_e=st.sampled_from([1, 2, 3]),
    n_sys=st.integers(1, 3),
    n_env=st.integers(1, 3),
    n_joint=st.integers(0, 3),
    entangling=st.booleans(),
    rows=st.sampled_from([None, 1, 2, 5]),
    seed=st.integers(0, 2**16),
)
def test_batched_checks_match_loop_oracles(
    d_s, d_e, n_sys, n_env, n_joint, entangling, rows, seed
):
    """Kernel and pairwise checks against index-loop evaluations, past the 2x2 case.

    Product members that share a system factor give equal-marginal pairs;
    random joint members widen the span and the kernel.  The residuals are
    checked against each member minus the assignment of its loop-traced
    marginal, and the kernel test against their loop-evolved marginals; the
    witness is the worst residual.  The pairwise sweep checks its candidate
    pairs in blocks of ``rows`` (one block when None), and its witness is
    the first worst pair's difference.
    """
    rng = np.random.default_rng(seed)
    fam = product_and_joint_family(rng, d_s, d_e, n_sys, n_env, n_joint)
    members = fam.members
    u = random_propagator(rng, fam.dims, entangling)
    tols = rdl.DEFAULT_TOL

    def evolved_marginal(x):
        return ptrace_env_loops(conjugate_loops(u, x), d_s, d_e)

    sub = rdl.build_subspace(fam)
    rep = rdl.check_subspace_consistency(sub, u)
    # Roundoff in the lift grows with its weights: ill-conditioned marginals need large ones.
    bound = 1e-12 * max(1.0, np.abs(sub.fit).max())
    for m, g in zip(members, sub.residuals):
        # The lift of the loop-traced marginal, without the span check of AssignmentMap.apply.
        weights = rdl.basis_coords(ptrace_env_loops(m, d_s, d_e), d_s) @ sub.fit
        lift = np.tensordot(weights, sub.members, axes=1)
        assert np.abs(g - (m - lift)).max() <= bound
    viol = [rdl.max_norm(evolved_marginal(g)) for g in sub.residuals]
    worst = max(viol)
    assert abs(rep.max_violation - worst) <= bound
    if worst > tols.consistency:
        # Members sharing a marginal tie exactly; roundoff picks the first worst among them.
        ties = [g for g, v in zip(sub.residuals, viol) if v >= worst - bound]
        assert min(np.abs(rep.witness - g).max() for g in ties) <= bound
    else:
        assert rep.witness is None

    viol, witness = pairwise_by_loops(members, u, fam.dims, tols)
    entries = rdl.consistency._BLOCK_ENTRIES if rows is None else rows * d_s**2
    with mock.patch.object(rdl.consistency, "_BLOCK_ENTRIES", entries):
        pw = rdl.check_pairwise_consistency(fam, u)
    assert pw.pairs_tested == len(viol)
    assert abs(pw.max_violation - viol.max(initial=0.0)) <= 1e-12
    if viol.max(initial=0.0) > tols.consistency:
        assert np.array_equal(pw.witness, witness)
    else:
        assert pw.witness is None


@settings(max_examples=80)
@given(
    d_s=st.sampled_from([2, 3]),
    d_e=st.sampled_from([1, 2, 3, 4]),
    n_sys=st.integers(1, 3),
    n_env=st.integers(1, 3),
    n_joint=st.integers(0, 3),
    entangling=st.booleans(),
    seed=st.integers(0, 2**16),
)
def test_residual_test_agrees_with_kernel_basis_route(
    d_s, d_e, n_sys, n_env, n_joint, entangling, seed
):
    """The member-residual kernel test against the orthonormal-kernel-basis route.

    Both routes must reach the same verdict wherever neither violation sits
    in the grey band [tol / 10, 10 tol].  The witness has a vanishing
    marginal, and its evolved marginal realizes the reported violation.
    """
    rng = np.random.default_rng(seed)
    fam = product_and_joint_family(rng, d_s, d_e, n_sys, n_env, n_joint)
    u = random_propagator(rng, fam.dims, entangling)
    tol = DEFAULT_TOL.consistency
    sub = rdl.build_subspace(fam)
    rep = rdl.check_subspace_consistency(sub, u)
    viol, kernel = kernel_test_by_basis(fam.members, u, fam.dims, sub.tol.rank)
    assert len(kernel) == sub.kernel_dim

    by_basis = viol.max(initial=0.0)
    if all(not tol / 10 <= v <= 10 * tol for v in (by_basis, rep.max_violation)):
        assert rep.consistent == (by_basis <= tol)
    if rep.witness is not None:
        assert rdl.max_norm(ptrace_env_loops(rep.witness, d_s, d_e)) <= 1e-12
        evolved = ptrace_env_loops(conjugate_loops(u, rep.witness), d_s, d_e)
        assert abs(rdl.max_norm(evolved) - rep.max_violation) <= 1e-12


@settings(max_examples=80)
@given(
    d_s=st.sampled_from([2, 3]),
    d_e=st.sampled_from([1, 2, 3, 4]),
    n_sys=st.integers(1, 3),
    n_env=st.integers(1, 3),
    n_joint=st.integers(0, 3),
    entangling=st.booleans(),
    seed=st.integers(0, 2**16),
)
@example(d_s=3, d_e=4, n_sys=1, n_env=2, n_joint=1, entangling=True, seed=268)
def test_hull_violation_is_at_most_twice_the_kernel_test(
    d_s, d_e, n_sys, n_env, n_joint, entangling, seed
):
    """Each sampled hull step weighs the member residuals by |b - a|_1 <= 2.

    So every trial of the sampling oracle stays within the reported bound,
    which is twice the kernel test's violation exactly, and the two verdicts
    agree wherever the kernel violation lies outside the grey band
    [tol / 10, 10 tol].  The pinned example's earlier sampler, which pushed
    mixtures along unit kernel directions out of the hull, reported 2.57
    times the kernel violation.
    """
    rng = np.random.default_rng(seed)
    fam = product_and_joint_family(rng, d_s, d_e, n_sys, n_env, n_joint)
    u = random_propagator(rng, fam.dims, entangling)
    a = rdl.analyze(fam, u, hull=True)
    kernel, hull = a.consistency, a.hull
    assert hull.max_violation == 2 * kernel.max_violation
    trials, _ = hull_by_trials(fam.members, u, fam.dims, seed, 10, a.subspace.tol.rank)
    assert trials.max() <= hull.max_violation + 1e-12
    tol = DEFAULT_TOL.consistency
    if not tol / 10 <= kernel.max_violation <= 10 * tol:
        assert hull.consistent == kernel.consistent


def test_hull_oracle_takes_zero_steps_without_a_kernel():
    """One member fixes every combination by its marginal, so c = z - (z R) P is roundoff.

    Stepping to the hull's edge along roundoff would cross the whole hull,
    and with no c_i < 0 the step would be inf; the oracle takes zero steps.
    """
    fam = product_and_joint_family(np.random.default_rng(0), 2, 1, 1, 1, 0)
    u = np.eye(2, dtype=complex)
    a = rdl.analyze(fam, u, hull=True)
    assert a.subspace.kernel_dim == 0
    trials, steps = hull_by_trials(fam.members, u, fam.dims, 0, 10, a.subspace.tol.rank)
    assert not trials.any()
    assert not np.any(steps)
    assert a.hull.consistent
