import numpy as np
import pytest
from scipy.linalg import expm

import rdl
from rdl.errors import SingularSystemError

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
        assert np.abs(rdl.bloch_vector(s) - np.array(e)).max() < 1e-12


def test_analytic_step_matches_exact_dynamics(rng):
    dims = rdl.BipartiteDims(2, 2)
    for angle in (0.0, 0.6, 1.3, np.pi / 2):
        if angle == 0.0:
            u = np.eye(4, dtype=complex)
        else:
            u = rdl.model_unitary(rdl.ModelParams(omega=angle, t=1.0))
        for _ in range(5):
            p = rdl.random_two_qubit_params(rng)
            rho = rdl.assemble_two_qubit(p)
            out = rdl.partial_trace_env(rdl.adjoint_action(u, rho), dims)
            got = rdl.analytic_bloch_step(p.alpha, p.gamma[0, 0], p.gamma[1, 0], angle)
            assert np.abs(got - rdl.bloch_vector(out)).max() < 1e-11


def test_analytic_step_leaves_z_component_alone(rng):
    p = rdl.random_two_qubit_params(rng)
    out = rdl.analytic_bloch_step(p.alpha, p.gamma[0, 0], p.gamma[1, 0], 1.7)
    assert out[2] == pytest.approx(p.alpha[2])


def test_coefficients_recovered_from_four_records():
    coeffs = rdl.LinearityCoefficients(
        a11=0.3, b11=np.array([0.2, -0.1, 0.4]), a21=-0.2, b21=np.array([0.0, 0.3, -0.3])
    )
    alphas = [np.zeros(3), np.array([1.0, 0, 0]), np.array([0, 1.0, 0]), np.array([0, 0, 1.0])]
    records = []
    for a in alphas:
        g11, g21 = coeffs.predict(a)
        records.append((a, g11, g21))
    got = rdl.solve_linearity_coefficients(records)
    assert abs(got.a11 - coeffs.a11) < 1e-12
    assert abs(got.a21 - coeffs.a21) < 1e-12
    assert np.abs(got.b11 - coeffs.b11).max() < 1e-12
    assert np.abs(got.b21 - coeffs.b21).max() < 1e-12


def test_coefficients_recovered_from_twelve_records(rng):
    """Every record enters one least-squares fit, which gives back the planted law."""
    coeffs = rdl.LinearityCoefficients(
        a11=-0.25, b11=np.array([0.3, 0.1, -0.2]), a21=0.1, b21=np.array([-0.4, 0.0, 0.25])
    )
    records = [(a, *coeffs.predict(a)) for a in rng.uniform(-0.5, 0.5, size=(12, 3))]
    got = rdl.solve_linearity_coefficients(records)
    assert abs(got.a11 - coeffs.a11) < 1e-12
    assert abs(got.a21 - coeffs.a21) < 1e-12
    assert np.abs(got.b11 - coeffs.b11).max() < 1e-12
    assert np.abs(got.b21 - coeffs.b21).max() < 1e-12


def test_solver_needs_at_least_four_records():
    alphas = [np.zeros(3), *np.eye(3), np.full(3, 0.5)]
    records = [(a, 0.1 + a[0], -0.2 * a[2]) for a in alphas]
    with pytest.raises(ValueError):
        rdl.solve_linearity_coefficients(records[:3])
    got = rdl.solve_linearity_coefficients(records)
    assert abs(got.a11 - 0.1) < 1e-12 and np.abs(got.b11 - [1, 0, 0]).max() < 1e-12
    assert abs(got.a21) < 1e-12 and np.abs(got.b21 - [0, 0, -0.2]).max() < 1e-12


def test_solver_rejects_non_finite_records():
    """A NaN alpha or an infinite gamma is named on entry, before the SVD sees it."""
    alphas = [np.zeros(3), *np.eye(3), np.full(3, 0.5)]
    records = [(a, 0.1 + a[0], -0.2 * a[2]) for a in alphas]
    for row, bad in ((2, (np.array([np.nan, 0, 0]), 0.1, 0.0)), (1, (np.eye(3)[0], 0.1, np.inf))):
        with pytest.raises(ValueError, match=f"record {row}: .* must be finite"):
            rdl.solve_linearity_coefficients([*records[:row], bad, *records[row + 1 :]])


def test_solver_rejects_degenerate_geometry():
    # states on a line in Bloch space cannot pin down the affine law, however many
    for xs in ((0.0, 0.1, 0.2, 0.3), np.linspace(-0.5, 0.5, 12)):
        records = [(np.array([x, 0.0, 0.0]), 0.1, 0.2) for x in xs]
        with pytest.raises(SingularSystemError, match="rank 2"):
            rdl.solve_linearity_coefficients(records)


def test_linearity_residuals_vanish_on_constrained_family():
    fam = constrained_family()
    coeffs = rdl.LinearityCoefficients(
        a11=0.15, b11=np.array([0.1, 0.0, 0.05]), a21=-0.1, b21=np.array([0.0, 0.1, 0.0])
    )
    res = rdl.linearity_residuals(fam, coeffs)
    assert res.shape == (len(fam), 2)
    assert np.abs(res).max() < 1e-12
    # and they do not vanish for the wrong coefficients
    wrong = rdl.LinearityCoefficients(
        a11=0.35, b11=np.array([0.1, 0.0, 0.05]), a21=-0.1, b21=np.array([0.0, 0.1, 0.0])
    )
    assert np.abs(rdl.linearity_residuals(fam, wrong)).max() > 0.1


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
