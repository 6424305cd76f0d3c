"""Families whose answer is known in closed form, under an entangling propagator.

Planted U-consistent families follow Dominy, Shabani & Lidar (QIP 15, 465
(2016)): members rho_k = sigma_k (x) omega + K_k, each K_k in the kernel
K_U of operators whose marginal vanishes both before and after U.  They are
consistent by construction, and their map is x -> Tr_E(U (x (x) omega) U^dag).
Adding delta J to one member, J marginal-free, plants a violation whose size
follows from the fit's linearity.  Zero-discord families, after
Rodriguez-Rosario et al. (J. Phys. A 41, 205301 (2008)), must give a
completely positive map under every U.
"""

import io
import json
from contextlib import redirect_stderr, redirect_stdout

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import rdl
from rdl import DEFAULT_TOL
from rdl.cli import main
from rdl.serialize import family_to_json, matrix_to_json

from oracles import hull_by_trials, kernel_test_by_basis, random_unitary


def mixed_state(d, rng):
    """A random density matrix whose eigenvalues are all at least 1 / (2 d)."""
    return (rdl.random_density_matrix(d, rng) + np.eye(d) / d) / 2


def marginal_coords(ops, dims, u=None):
    """Real coordinates of Tr_E(X), or of Tr_E(U X U^dag), one row per operator."""
    if u is not None:
        ops = u @ ops @ u.conj().T
    return rdl.basis_coords(rdl.partial_trace_env(ops, dims), dims.d_s).real


def consistent_kernel(dims, u):
    """Orthonormal coordinate rows spanning K_U = ker [T | T_U]^T."""
    basis = np.array(rdl.hermitian_basis(dims.joint))
    both = np.hstack([marginal_coords(basis, dims), marginal_coords(basis, dims, u)])
    left, s, _ = np.linalg.svd(both)
    return left[:, int(np.sum(s > 1e-10)) :].T


def planted_family(rng, d_s, d_e, extra):
    """A U-consistent family of d_s^2 + extra members, its propagator, omega and K_U."""
    dims = rdl.BipartiteDims(d_s, d_e)
    u = random_unitary(dims.joint, rng)
    kernel = consistent_kernel(dims, u)
    assert len(kernel) >= dims.joint**2 - 2 * d_s**2
    omega = mixed_state(d_e, rng)
    members = []
    for _ in range(d_s**2 + extra):
        base = rdl.tensor(mixed_state(d_s, rng), omega)
        k = rdl.from_basis_coords(rng.normal(size=len(kernel)) @ kernel, dims.joint)
        scale = 0.5 * np.linalg.eigvalsh(base)[0] / np.linalg.norm(k, 2)
        members.append(base + scale * k)
    return rdl.StateFamily(dims=dims, members=tuple(members)), u, omega, kernel


def closed_form_map(x, u, omega, dims):
    """Tr_E(U (x (x) omega) U^dag) for each operator of the stack ``x``."""
    joint = np.array([rdl.tensor(op, omega) for op in x])
    return rdl.partial_trace_env(u @ joint @ u.conj().T, dims)


planted_cases = given(
    d_s=st.sampled_from([2, 3]),
    d_e=st.sampled_from([2, 3, 4]),
    extra=st.integers(2, 7),
    seed=st.integers(0, 2**16),
)


@settings(max_examples=40)
@planted_cases
def test_planted_family_is_consistent_with_the_closed_form_map(d_s, d_e, extra, seed):
    """A correlated family that is U-consistent passes, with the map the construction fixes.

    The orthonormal-kernel-basis route of the oracles finds no violation either.
    """
    rng = np.random.default_rng(seed)
    fam, u, omega, _ = planted_family(rng, d_s, d_e, extra)
    a = rdl.analyze(fam, u)
    assert a.subspace.kernel_dim > 0
    assert a.consistency.consistent
    assert kernel_test_by_basis(fam.members, u, fam.dims, DEFAULT_TOL.rank)[0].max() < 1e-12
    x = rng.normal(size=(5, d_s, d_s)) + 1j * rng.normal(size=(5, d_s, d_s))
    assert rdl.max_norm(a.superoperator.apply(x) - closed_form_map(x, u, omega, fam.dims)) < 1e-12
    assert a.verdicts.completely_positive


def planted_violation(rng, d_s, d_e, extra):
    """A planted violation: the propagator, delta -> the family with delta J, and the slope.

    J is marginal-free, orthogonal to K_U and of unit spectral norm, so R and
    P do not move and only E_j does: delta J violates by delta times the
    slope |Tr_E(U J U^dag)|_max max_i |delta_ij - (R P)_ij|.
    """
    fam, u, _, kernel = planted_family(rng, d_s, d_e, extra)
    dims = fam.dims
    h = rng.normal(size=(dims.joint,) * 2) + 1j * rng.normal(size=(dims.joint,) * 2)
    h = h + h.conj().T
    h -= rdl.tensor(rdl.partial_trace_env(h, dims), np.eye(d_e) / d_e)  # marginal-free
    j_coords = rdl.basis_coords(h, dims.joint).real
    j_coords -= (j_coords @ kernel.T) @ kernel  # J orthogonal to K_U
    plant = rdl.from_basis_coords(j_coords, dims.joint)
    plant /= np.linalg.norm(plant, 2)
    j = int(rng.integers(len(fam)))

    def planted(delta):
        members = list(fam.members)
        members[j] = members[j] + delta * plant
        return rdl.StateFamily(dims=dims, members=tuple(members))

    sub = rdl.build_subspace(fam)
    lift = np.eye(len(fam))[:, j] - sub.marginals @ sub.fit[:, j]
    evolved = rdl.partial_trace_env(u @ plant @ u.conj().T, dims)
    return u, planted, rdl.max_norm(evolved) * np.abs(lift).max()


@settings(max_examples=40)
@planted_cases
def test_planted_violation_matches_its_closed_form(d_s, d_e, extra, seed):
    """delta J on member j violates by delta |Tr_E(U J U^dag)|_max max_i |delta_ij - (R P)_ij|.

    The kernel verdict flips where that value crosses the consistency
    tolerance.  The hull bound is exactly twice that value, no hull pair the
    oracle samples exceeds it, and its verdict flips where the value crosses
    half the tolerance.
    """
    rng = np.random.default_rng(seed)
    u, planted, slope = planted_violation(rng, d_s, d_e, extra)
    fam = planted(1e-9)
    a = rdl.analyze(fam, u, hull=True)
    assert abs(a.consistency.max_violation - 1e-9 * slope) < 1e-13
    assert a.hull.max_violation == 2 * a.consistency.max_violation
    trials, _ = hull_by_trials(fam.members, u, fam.dims, seed, 5, a.subspace.tol.rank)
    assert trials.max() <= a.hull.max_violation + 1e-12

    cut = DEFAULT_TOL.consistency / slope
    for factor in (0.5, 0.99, 1.01, 2.0):
        assert rdl.analyze(planted(factor * cut), u).consistent == (factor < 1)
    for factor in (0.5, 0.99, 1.01, 1.5):
        half = rdl.analyze(planted(factor * cut / 2), u, hull=True)
        assert half.consistency.consistent
        assert half.hull.consistent == half.consistent == (factor < 1)


def test_hull_flag_flips_the_exit_status_at_half_the_cut(tmp_path):
    """On the command line, --hull exits 3 once the planted violation passes tol / 2."""
    u, planted, slope = planted_violation(np.random.default_rng(5), 2, 2, 3)
    unitary = tmp_path / "u.json"
    unitary.write_text(json.dumps(matrix_to_json(u)))
    cut = DEFAULT_TOL.consistency / slope
    for factor in (0.99, 1.01):
        family = tmp_path / f"family-{factor}.json"
        family.write_text(json.dumps(family_to_json(planted(factor * cut / 2))))
        argv = ["analyze", "--family", str(family), "--unitary", str(unitary)]
        with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
            assert main(argv) == 0
            assert main([*argv, "--hull"]) == (0 if factor < 1 else 3)


@given(
    d_s=st.sampled_from([2, 3, 4]),
    d_e=st.sampled_from([1, 2, 3]),
    extra=st.integers(0, 3),
    seed=st.integers(0, 2**16),
)
def test_zero_discord_family_gives_a_completely_positive_map(d_s, d_e, extra, seed):
    """Members sum_i p_i |i><i| (x) tau_i: consistent and completely positive under any U.

    The map is the dephasing in the basis {|i>} followed by
    |i><i| -> Tr_E(U (|i><i| (x) tau_i) U^dag).
    """
    rng = np.random.default_rng(seed)
    dims = rdl.BipartiteDims(d_s, d_e)
    basis = random_unitary(d_s, rng)
    projectors = np.einsum("ai,bi->iab", basis, basis.conj())
    blocks = np.array([rdl.tensor(p, rdl.random_density_matrix(d_e, rng)) for p in projectors])
    weights = rng.dirichlet(np.ones(d_s), size=d_s + extra)
    fam = rdl.StateFamily(dims=dims, members=tuple(np.tensordot(weights, blocks, axes=1)))
    u = random_unitary(dims.joint, rng)
    a = rdl.analyze(fam, u)
    assert a.consistency.consistent
    assert a.verdicts.completely_positive
    images = rdl.partial_trace_env(u @ blocks @ u.conj().T, dims)
    x = rng.normal(size=(3, d_s, d_s)) + 1j * rng.normal(size=(3, d_s, d_s))
    populations = np.einsum("ai,nab,bi->ni", basis.conj(), x, basis)
    assert rdl.max_norm(a.superoperator.apply(x) - np.tensordot(populations, images, axes=1)) < 1e-10
