import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

import rdl
from rdl.two_qubit import bloch_table

from oracles import bloch_by_entries, pauli_coefficients_by_kron, pauli_coefficients_per_member
from test_consistency import constrained_family


def test_model_params_validation():
    for omega, t, name in [
        (0.0, 1.0, "omega"),
        (np.inf, 1.0, "omega"),
        (np.nan, 1.0, "omega"),
        (1.0, -0.5, "t"),
        (1.0, np.inf, "t"),
        (1.0, np.nan, "t"),
    ]:
        with pytest.raises(ValueError, match=f"^{name} must be finite"):
            rdl.ModelParams(omega=omega, t=t)
    assert rdl.ModelParams(omega=2.0, t=0.75).angle == pytest.approx(1.5)


@pytest.mark.parametrize("angle", [0.3, 1.1, np.pi / 2, 2.9])
def test_model_unitary_matches_exponential(angle):
    """The closed form agrees with the matrix exponential of the generator."""
    h = (angle / 2) * np.kron(rdl.SIGMA_Z, rdl.SIGMA_X)
    u = rdl.model_unitary(rdl.ModelParams(omega=angle, t=1.0))
    assert np.abs(u - expm(-1j * h)).max() < 1e-12
    rdl.require_unitary(u)


def test_model_unitary_time_scaling():
    a = rdl.model_unitary(rdl.ModelParams(omega=0.7, t=2.0))
    b = rdl.model_unitary(rdl.ModelParams(omega=1.4, t=1.0))
    assert np.abs(a - b).max() < 1e-14


def test_swap_unitary_exchanges_factors(rng):
    for d in (2, 3):
        s = rdl.swap_unitary(d)
        rdl.require_unitary(s)
        assert np.abs(s @ s - np.eye(d * d)).max() < 1e-14
        a = rdl.random_density_matrix(d, rng)
        b = rdl.random_density_matrix(d, rng)
        swapped = s @ rdl.tensor(a, b) @ s.conj().T
        assert np.abs(swapped - rdl.tensor(b, a)).max() < 1e-12


def test_bloch_vector_of_pauli_eigenstates():
    states = rdl.pauli_eigenstates()
    assert len(states) == 6
    expected = [(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1)]
    for s, e in zip(states, expected):
        rdl.require_density(s)
        assert np.abs(bloch_by_entries(s) - np.array(e)).max() < 1e-12


def test_analytic_step_matches_exact_dynamics(rng):
    dims = rdl.BipartiteDims(2, 2)
    for angle in (0.0, 0.6, 1.3, np.pi / 2):
        if angle == 0.0:
            u = np.eye(4, dtype=complex)
        else:
            u = rdl.model_unitary(rdl.ModelParams(omega=angle, t=1.0))
        for _ in range(5):
            p = rdl.extract_two_qubit_params(rdl.random_density_matrix(4, rng))
            rho = rdl.assemble_two_qubit(p)
            out = rdl.partial_trace_env(u @ rho @ u.conj().T, dims)
            got = rdl.analytic_bloch_step(p.alpha, p.gamma[0, 0], p.gamma[1, 0], angle)
            assert np.abs(got - bloch_by_entries(out)).max() < 1e-11


def test_analytic_step_leaves_z_component_alone(rng):
    p = rdl.extract_two_qubit_params(rdl.random_density_matrix(4, rng))
    out = rdl.analytic_bloch_step(p.alpha, p.gamma[0, 0], p.gamma[1, 0], 1.7)
    assert out[2] == pytest.approx(p.alpha[2])


def law_family(law, alphas):
    """Two-qubit states with Bloch vectors ``alphas``, beta = 0, and gamma11, gamma21 from ``law``.

    Every other gamma entry is 0, so each member is a state while |alpha| + |gamma| <= 1.
    """
    members = []
    for alpha in alphas:
        gamma = np.zeros((3, 3))
        gamma[0, 0], gamma[1, 0] = law.predict(alpha)
        params = rdl.TwoQubitParams(alpha=alpha, beta=np.zeros(3), gamma=gamma)
        members.append(rdl.assemble_two_qubit(params))
    return rdl.StateFamily(rdl.BipartiteDims(2, 2), tuple(members))


def law_error(got, want):
    return max(
        abs(got.a11 - want.a11),
        abs(got.a21 - want.a21),
        float(np.abs(got.b11 - want.b11).max()),
        float(np.abs(got.b21 - want.b21).max()),
    )


def test_coefficients_recovered_from_four_records():
    coeffs = rdl.LinearityCoefficients(
        a11=0.3, b11=np.array([0.2, -0.1, 0.4]), a21=-0.2, b21=np.array([0.0, 0.3, -0.3])
    )
    fam = law_family(coeffs, [np.zeros(3), *(0.1 * np.eye(3))])
    got, residuals = rdl.affine_law(rdl.build_subspace(fam))
    assert law_error(got, coeffs) < 1e-12
    assert residuals.shape == (4, 2) and np.abs(residuals).max() < 1e-12


def test_coefficients_recovered_from_twelve_records(rng):
    """Every member enters one least-squares fit, which gives back the planted law."""
    coeffs = rdl.LinearityCoefficients(
        a11=-0.25, b11=np.array([0.3, 0.1, -0.2]), a21=0.1, b21=np.array([-0.4, 0.0, 0.25])
    )
    fam = law_family(coeffs, rng.uniform(-0.25, 0.25, size=(12, 3)))
    got, residuals = rdl.affine_law(rdl.build_subspace(fam))
    assert law_error(got, coeffs) < 1e-12
    assert residuals.shape == (12, 2) and np.abs(residuals).max() < 1e-12


def test_solver_needs_at_least_four_records():
    law = rdl.LinearityCoefficients(
        a11=0.1, b11=np.array([1.0, 0, 0]), a21=0.0, b21=np.array([0, 0, -0.2])
    )
    fam = law_family(law, 0.2 * np.array([np.zeros(3), *np.eye(3), np.full(3, 0.5)]))
    with pytest.raises(rdl.InputError, match="fewer than 4 members"):
        rdl.affine_law(rdl.build_subspace(rdl.StateFamily(fam.dims, fam.members[:3])))
    got, _ = rdl.affine_law(rdl.build_subspace(fam))
    assert law_error(got, law) < 1e-12


def test_solver_rejects_degenerate_geometry():
    # states on a line in Bloch space cannot pin down the affine law, however many
    flat = rdl.LinearityCoefficients(a11=0.1, b11=np.zeros(3), a21=0.2, b21=np.zeros(3))
    for xs in ((0.0, 0.1, 0.2, 0.3), np.linspace(-0.5, 0.5, 12)):
        fam = law_family(flat, [np.array([x, 0.0, 0.0]) for x in xs])
        with pytest.raises(rdl.InputError, match="independent Bloch vectors .*rank 2"):
            rdl.affine_law(rdl.build_subspace(fam))


def test_linearity_residuals_vanish_on_constrained_family():
    fam = constrained_family()
    planted = rdl.LinearityCoefficients(
        a11=0.15, b11=np.array([0.1, 0.0, 0.05]), a21=-0.1, b21=np.array([0.0, 0.1, 0.0])
    )
    got, residuals = rdl.affine_law(rdl.build_subspace(fam))
    assert residuals.shape == (len(fam), 2)
    assert np.abs(residuals).max() < 1e-12
    assert law_error(got, planted) < 1e-12
    # and they do not vanish where the correlations follow no affine law
    _, residuals = rdl.affine_law(rdl.build_subspace(rdl.full_two_qubit_family()))
    assert np.abs(residuals).max() > 0.1


def test_affine_law_needs_a_two_qubit_family(rng):
    members = tuple(rdl.random_density_matrix(6, rng) for _ in range(8))
    sub = rdl.build_subspace(rdl.StateFamily(rdl.BipartiteDims(2, 3), members))
    with pytest.raises(rdl.DimensionError, match="two-qubit"):
        rdl.affine_law(sub)


@pytest.mark.parametrize("constrained", [False, True])
def test_kernel_violation_is_the_law_residual_in_closed_form(rng, constrained):
    """Under the model propagator the kernel test's violation is |sin wt| / 2 max_i ||res_i||_2.

    The evolved marginal of g_i moves by sin(wt) (-res21, res11) in Bloch
    coordinates, a matrix whose largest entry is |sin wt| ||res_i||_2 / 2.
    The law itself is the least-squares fit on the unit rows of (1, alpha),
    with alpha and gamma read by loop Pauli traces.
    """
    for case in range(5):
        if constrained:
            a = rng.uniform(-0.3, 0.3, size=8)
            draws = [rdl.sample_two_qubit_params(rng, 0.3) for _ in range(12)]
            fam, _ = rdl.constrained_two_qubit_family(a[0], a[1], a[2:5], a[5:], draws)
        else:
            members = tuple(rdl.random_density_matrix(4, rng) for _ in range(5 + case))
            fam = rdl.StateFamily(rdl.BipartiteDims(2, 2), members)
        params = rdl.ModelParams(omega=rng.uniform(0.2, 3.0), t=rng.uniform(0.1, 2.0))
        sub = rdl.build_subspace(fam)
        report = rdl.check_subspace_consistency(sub, rdl.model_unitary(params))
        law, residuals = rdl.affine_law(sub)
        closed = abs(np.sin(params.angle)) / 2 * np.linalg.norm(residuals, axis=1).max()
        assert abs(report.max_violation - closed) <= 1e-13
        assert report.consistent == constrained

        rows, g = [], []
        for member in fam.members:
            alpha, _, gamma = pauli_coefficients_by_kron(member)
            rows.append([1.0, *alpha])
            g.append([gamma[0, 0], gamma[1, 0]])
        rows, g = np.array(rows), np.array(g)
        w = 1 / np.linalg.norm(rows, axis=1)[:, None]
        sol = np.linalg.lstsq(rows * w, g * w, rcond=None)[0]
        got = np.column_stack([[law.a11, *law.b11], [law.a21, *law.b21]])
        assert np.abs(got - sol).max() <= 1e-12
        assert np.abs(residuals - (g - rows @ sol)).max() <= 1e-12


def test_swap_experiment_is_constant_cp_map():
    omega = 0.5 * (np.eye(2, dtype=complex) + 0.3 * rdl.SIGMA_Z)
    fam = rdl.product_family(list(rdl.pauli_eigenstates()), omega)
    a = rdl.analyze(fam, rdl.swap_unitary(2))
    assert a.consistent
    assert a.subspace.kernel_dim == 0
    reduced = fam.reduced()
    images = [a.superoperator.apply(r) for r in reduced]
    assert max(rdl.max_norm(im - omega) for im in images) < 1e-12
    assert a.verdicts.completely_positive
    assert a.verdicts.trace_preserving
    assert np.abs(a.superoperator.choi - rdl.tensor(np.eye(2), omega)).max() < 1e-10
    for i in range(len(reduced)):
        for j in range(i + 1, len(reduced)):
            before = rdl.trace_distance(reduced[i], reduced[j])
            assert rdl.trace_distance(images[i], images[j]) <= before + 1e-12


def test_analyze_runs_on_full_span():
    """An inconsistent family still gets a map on the full reduced span, uncertified."""
    fam = rdl.full_two_qubit_family()
    u = rdl.model_unitary(rdl.ModelParams(omega=np.pi / 2, t=1.0))
    a = rdl.analyze(fam, u)
    assert not a.consistent
    assert a.subspace.reduced_dim == 4
    assert not a.superoperator.consistency_certified
    for probe in (np.eye(2) / 2, (np.eye(2) + 0.8 * rdl.SIGMA_X) / 2):
        probe = probe.astype(complex)
        assert rdl.max_norm(a.kraus.reconstruct(probe) - a.superoperator.apply(probe)) < 1e-12


def bits(x):
    return np.asarray(x, dtype=float).view(np.int64)


@settings(max_examples=40)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(4, 16),
    law=st.none() | st.lists(st.floats(-0.3, 0.3), min_size=8, max_size=8),
    angle=st.floats(-7.0, 7.0),
)
def test_batched_pauli_reads_match_per_member_traces(seed, n, law, angle):
    """Extraction, the affine law and the Bloch table read each coefficient as one trace would.

    The family is a constrained draw under a random planted law, or random
    states when ``law`` is None.  Every value is compared bit for bit with
    a trace per member and per Pauli; the law's outputs with the oracle's
    (gamma11, gamma21) put through its own formulas, P g / sqrt(2) and
    g - R (P g).
    """
    rng = np.random.default_rng(seed)
    if law is None:
        members = tuple(rdl.random_density_matrix(4, rng) for _ in range(n))
        fam = rdl.StateFamily(rdl.BipartiteDims(2, 2), members)
    else:
        draws = [rdl.sample_two_qubit_params(rng, 0.3) for _ in range(n)]
        fam, _ = rdl.constrained_two_qubit_family(law[0], law[1], law[2:5], law[5:], draws)
    alpha, beta, gamma = pauli_coefficients_per_member(fam.members)

    for i, member in enumerate(fam.members):
        p = rdl.extract_two_qubit_params(member)
        assert np.array_equal(bits(p.alpha), bits(alpha[i]))
        assert np.array_equal(bits(p.beta), bits(beta[i]))
        assert np.array_equal(bits(p.gamma), bits(gamma[i]))

    g = gamma[:, :2, 0]  # (gamma11, gamma21) per member
    sub = rdl.build_subspace(fam)
    if sub.reduced_dim == 4:
        coeffs, residuals = rdl.affine_law(sub)
        fitted = sub.fit @ g
        law_got = [[coeffs.a11, coeffs.a21], *np.column_stack([coeffs.b11, coeffs.b21])]
        assert np.array_equal(bits(law_got), bits(fitted / np.sqrt(2.0)))
        assert np.array_equal(bits(residuals), bits(g - sub.marginals @ fitted))

    rows = bloch_table(fam.stack, angle)
    assert len(rows) == len(fam)
    for row, a, (g11, g21) in zip(rows, alpha, g):
        step = rdl.analytic_bloch_step(a, g11, g21, angle)
        got = [*row["alpha"], row["gamma11"], row["gamma21"], *row["alpha_out"]]
        assert np.array_equal(bits(got), bits([*a, g11, g21, *step]))
