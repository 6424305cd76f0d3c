"""Acceptance checks: one test per published behavior guarantee.

Each test prints a single PASS line with the measured numbers (visible under
``pytest -s``); the test name itself carries the criterion number.
"""

import io
import json
import time
from contextlib import redirect_stderr, redirect_stdout

import numpy as np

import rdl
from rdl.cli import main as cli_main
from rdl.operators import _evolved_marginal
from oracles import (
    bloch_by_entries,
    conjugate_loops,
    hull_by_trials,
    kron_loops,
    ptrace_env_loops,
    random_unitary,
)
from test_two_qubit import law_error, law_family

PLANTED = dict(
    a11=0.15, a21=-0.1, b11=np.array([0.1, 0.0, 0.05]), b21=np.array([0.0, 0.1, 0.0])
)
DIMS22 = rdl.BipartiteDims(2, 2)


def _criterion(n, ok, detail):
    print(f"{'PASS' if ok else 'FAIL'} criterion {n}: {detail}")
    assert ok, f"criterion {n}: {detail}"


def constrained_family(seed, n=12, scale=0.3):
    rng = np.random.default_rng(seed)
    draws = [rdl.sample_two_qubit_params(rng, scale) for _ in range(n)]
    fam, rejected = rdl.constrained_two_qubit_family(
        PLANTED["a11"], PLANTED["a21"], PLANTED["b11"], PLANTED["b21"], draws
    )
    return fam, rejected


def test_criterion_1_analytic_step_matches_exact_dynamics():
    """100 random states and couplings: closed-form Bloch step vs full dynamics."""
    rng = np.random.default_rng(101)
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(100):
        p = rdl.extract_two_qubit_params(rdl.random_density_matrix(4, rng))
        angle = rng.uniform(0.05, 6.2)
        u = rdl.model_unitary(rdl.ModelParams(omega=angle, t=1.0))
        rho = rdl.assemble_two_qubit(p)
        exact = bloch_by_entries(rdl.partial_trace_env(u @ rho @ u.conj().T, DIMS22))
        step = rdl.analytic_bloch_step(p.alpha, p.gamma[0, 0], p.gamma[1, 0], angle)
        worst = max(worst, float(np.abs(step - exact).max()))
    elapsed = time.perf_counter() - t0
    _criterion(
        1,
        worst <= 1e-10 and elapsed < 1.0,
        f"max deviation {worst:.3e} over 100 draws in {elapsed:.3f}s",
    )


def test_criterion_2_constrained_family_is_consistent_and_predictive():
    """Affine-law family: kernel test passes and the map predicts held-out states."""
    t0 = time.perf_counter()
    fam, rejected = constrained_family(seed=7)
    assert len(fam) == 12 and not rejected  # seed chosen so every draw survives
    u = rdl.model_unitary(rdl.ModelParams(omega=1.3, t=1.0))
    sub = rdl.build_subspace(fam)
    rep = rdl.check_subspace_consistency(sub, u)
    sop = rdl.build_dynamical_map(rdl.build_assignment(sub), u, consistency=rep)

    heldout, _ = constrained_family(seed=1007, n=60, scale=0.3)
    worst = 0.0
    for sigma in heldout.members[:50]:
        marg = rdl.partial_trace_env(sigma, DIMS22)
        direct = rdl.partial_trace_env(u @ sigma @ u.conj().T, DIMS22)
        worst = max(worst, rdl.max_norm(sop.apply(marg) - direct))
    elapsed = time.perf_counter() - t0
    _criterion(
        2,
        rep.consistent and rep.max_violation <= 1e-8 and worst <= 1e-9 and elapsed < 2.0,
        f"violation {rep.max_violation:.3e}, held-out prediction error {worst:.3e}, "
        f"{len(heldout)} held-out states, {elapsed:.3f}s",
    )


def test_criterion_3_full_family_fails_with_witness_and_growing_distance():
    """Whole-space family at a quarter period: detected, witnessed, and nonlinear."""
    t0 = time.perf_counter()
    fam = rdl.full_two_qubit_family()
    u = rdl.model_unitary(rdl.ModelParams(omega=np.pi / 2, t=1.0))
    sub = rdl.build_subspace(fam)
    rep = rdl.check_subspace_consistency(sub, u)
    w = rep.witness
    recomputed = rdl.max_norm(rdl.partial_trace_env(u @ w @ u.conj().T, fam.dims))
    witness_gap = abs(recomputed - rep.max_violation)

    # equal marginals going in, distance 0.4 coming out
    sigma_a = np.eye(4, dtype=complex) / 4
    sigma_b = sigma_a + 0.2 * rdl.tensor(rdl.SIGMA_X, rdl.SIGMA_X)
    before = rdl.trace_distance(
        rdl.partial_trace_env(sigma_a, DIMS22), rdl.partial_trace_env(sigma_b, DIMS22)
    )
    after = rdl.trace_distance(
        rdl.partial_trace_env(u @ sigma_a @ u.conj().T, DIMS22),
        rdl.partial_trace_env(u @ sigma_b @ u.conj().T, DIMS22),
    )
    elapsed = time.perf_counter() - t0
    ok = (
        not rep.consistent
        and rep.max_violation >= 1e-3
        and witness_gap <= 1e-12
        and before <= 1e-12
        and after >= 0.19
        and abs(after - 0.4) < 1e-9
        and elapsed < 1.0
    )
    _criterion(
        3,
        ok,
        f"violation {rep.max_violation:.3e}, witness gap {witness_gap:.1e}, "
        f"pair distance {before:.1e} -> {after:.6f}, {elapsed:.3f}s",
    )


def test_criterion_4_hull_sampling_agrees_with_kernel_test():
    """20 instances, half linear, half not: the hull bound matches the kernel check.

    The bound is twice the kernel violation, and no equal-marginal hull pair
    that the sampling oracle draws exceeds it.
    """
    t0 = time.perf_counter()
    instances = []
    for k in range(10):
        fam, _ = constrained_family(seed=k)
        instances.append((fam, rdl.model_unitary(rdl.ModelParams(omega=1.3, t=1.0)), True))
    for angle in (0.4, 0.9, 1.3, 1.9, 2.4):
        instances.append(
            (
                rdl.full_two_qubit_family(),
                rdl.model_unitary(rdl.ModelParams(omega=angle, t=1.0)),
                False,
            )
        )
    swap = rdl.swap_unitary(2)
    for k in range(5):
        rng = np.random.default_rng(500 + k)
        rho = rdl.random_density_matrix(2, rng)
        omega1 = rdl.random_density_matrix(2, rng)
        omega2 = rdl.random_density_matrix(2, rng)
        fam = rdl.StateFamily(
            dims=DIMS22, members=(rdl.tensor(rho, omega1), rdl.tensor(rho, omega2))
        )
        instances.append((fam, swap, False))

    mismatches, worst = [], 0.0
    for k, (fam, u, expect) in enumerate(instances):
        a = rdl.analyze(fam, u, hull=True)
        kernel, hull = a.consistency, a.hull
        if not (kernel.consistent == hull.consistent == expect):
            mismatches.append((k, kernel.consistent, hull.consistent, expect))
        if hull.max_violation != 2 * kernel.max_violation:
            mismatches.append((k, "bound", hull.max_violation, kernel.max_violation))
        sampled, _ = hull_by_trials(fam.members, u, fam.dims, 1000 + k, 100, a.subspace.tol.rank)
        worst = max(worst, sampled.max() - hull.max_violation)
    elapsed = time.perf_counter() - t0
    _criterion(
        4,
        not mismatches and worst <= 1e-12 and elapsed < 10.0,
        f"20 instances, mismatches {mismatches}, sampled pairs exceed the bound by "
        f"at most {worst:.1e}, {elapsed:.2f}s",
    )


def test_criterion_5_coefficient_recovery_from_tetrad():
    """100 planted affine laws recovered from four two-qubit states, alpha = 0 and 0.1 e_i."""
    rng = np.random.default_rng(55)
    tetrad = [np.zeros(3), *(0.1 * np.eye(3))]
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(100):
        truth = rdl.LinearityCoefficients(
            a11=rng.uniform(-0.4, 0.4),
            b11=rng.uniform(-0.4, 0.4, size=3),
            a21=rng.uniform(-0.4, 0.4),
            b21=rng.uniform(-0.4, 0.4, size=3),
        )
        got, _ = rdl.affine_law(rdl.build_subspace(law_family(truth, tetrad)))
        worst = max(worst, law_error(got, truth))
    elapsed = time.perf_counter() - t0
    _criterion(5, worst <= 1e-12 and elapsed < 1.0, f"worst recovery error {worst:.3e}, {elapsed:.3f}s")


def test_criterion_6_signed_kraus_reconstructs_every_map():
    """Operator-sum form: reconstruction and completeness across three map types."""
    cases = []
    fam, _ = constrained_family(seed=7)
    cases.append(("constrained", fam, rdl.model_unitary(rdl.ModelParams(omega=1.3, t=1.0))))
    cases.append(
        ("full-span", rdl.full_two_qubit_family(), rdl.model_unitary(rdl.ModelParams(omega=1.1, t=1.0)))
    )
    omega = 0.5 * (np.eye(2, dtype=complex) + 0.3 * rdl.SIGMA_Z)
    cases.append(("swap", rdl.product_family(list(rdl.pauli_eigenstates()), omega), rdl.swap_unitary(2)))

    rng = np.random.default_rng(606)
    probes = [rdl.random_density_matrix(2, rng) for _ in range(20)]
    worst_recon = 0.0
    worst_defect = 0.0
    for name, family, u in cases:
        sub = rdl.build_subspace(family)
        rep = rdl.check_subspace_consistency(sub, u)
        sop = rdl.build_dynamical_map(rdl.build_assignment(sub), u, consistency=rep)
        k = rdl.decompose_signed_kraus(sop)
        worst_defect = max(worst_defect, k.completeness_defect())
        for rho in probes:
            worst_recon = max(worst_recon, rdl.max_norm(k.reconstruct(rho) - sop.apply(rho)))
    _criterion(
        6,
        worst_recon <= 1e-10 and worst_defect <= 1e-10,
        f"reconstruction error {worst_recon:.3e}, completeness defect {worst_defect:.3e} "
        f"across {len(cases)} maps x {len(probes)} probes",
    )


def test_criterion_7_swap_model_is_constant_and_completely_positive():
    """Swap with a fixed environment: CP map, constant output, contracting pairs."""
    omega = 0.5 * (np.eye(2, dtype=complex) + 0.3 * rdl.SIGMA_X + 0.2 * rdl.SIGMA_Z)
    fam = rdl.product_family(list(rdl.pauli_eigenstates()), omega)
    a = rdl.analyze(fam, rdl.swap_unitary(2))
    reduced = fam.reduced()
    images = [a.superoperator.apply(r) for r in reduced]
    deviation = max(rdl.max_norm(im - omega) for im in images)
    pairs = [(i, j) for i in range(len(reduced)) for j in range(i + 1, len(reduced))]
    increased = [
        (i, j)
        for i, j in pairs
        if rdl.trace_distance(images[i], images[j])
        > rdl.trace_distance(reduced[i], reduced[j]) + rdl.DEFAULT_TOL.psd
    ]
    ok = (
        a.verdicts.choi_min_eigenvalue >= -1e-10
        and a.verdicts.completely_positive
        and deviation <= 1e-12
        and len(pairs) == 15
        and not increased
    )
    _criterion(
        7,
        ok,
        f"min Choi eigenvalue {a.verdicts.choi_min_eigenvalue:.3e}, "
        f"output deviation {deviation:.3e}, {len(pairs)} pairs, {len(increased)} grew",
    )


def test_criterion_8_primitives_match_loop_oracles():
    """Tensor, partial trace, and the evolved marginal agree with index-loop references."""
    rng = np.random.default_rng(88)
    worst = 0.0
    for k in range(50):
        d_s = 2 + (k % 2)
        d_e = 2 + ((k // 2) % 2)
        a = rng.normal(size=(d_s, d_s)) + 1j * rng.normal(size=(d_s, d_s))
        b = rng.normal(size=(d_e, d_e)) + 1j * rng.normal(size=(d_e, d_e))
        worst = max(worst, rdl.max_norm(rdl.tensor(a, b) - kron_loops(a, b)))
        n = d_s * d_e
        x = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        dims = rdl.BipartiteDims(d_s, d_e)
        worst = max(
            worst, rdl.max_norm(rdl.partial_trace_env(x, dims) - ptrace_env_loops(x, d_s, d_e))
        )
        u = random_unitary(n, rng)
        evolved = ptrace_env_loops(conjugate_loops(u, x), d_s, d_e)
        worst = max(worst, rdl.max_norm(_evolved_marginal(u, x, dims) - evolved))
    _criterion(8, worst <= 1e-12, f"worst oracle deviation {worst:.3e} over 50 instances")


def test_criterion_9_cli_reports_are_reproducible(tmp_path):
    """Identical invocations produce byte-identical reports."""
    from rdl.serialize import family_to_json

    fpath = tmp_path / "family.json"
    fpath.write_text(json.dumps(family_to_json(rdl.full_two_qubit_family())))
    argv = [
        "analyze", "--family", str(fpath),
        "--model", "two-qubit", "--omega", "1.1", "--t", "1.0",
        "--hull",
    ]
    outputs = []
    for _ in range(2):
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = cli_main(list(argv))
        outputs.append((code, out.getvalue(), err.getvalue()))
    identical = outputs[0] == outputs[1]
    report = json.loads(outputs[0][1])
    _criterion(
        9,
        identical and outputs[0][0] == 3 and report["schema"] == "rdl/2",
        f"exit {outputs[0][0]}, runs identical: {identical}, "
        f"{len(outputs[0][1])} bytes",
    )
