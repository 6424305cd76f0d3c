from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rdl
from rdl import families
from rdl.errors import DimensionError, EmptyFamilyError, HermiticityError, NotAStateError
from oracles import (
    assemble_two_qubit_by_kron,
    pauli_coefficients_by_kron,
    random_unitary,
    validate_members_one_by_one,
)


def test_assemble_maximally_mixed():
    p = rdl.TwoQubitParams(alpha=np.zeros(3), beta=np.zeros(3), gamma=np.zeros((3, 3)))
    assert np.abs(rdl.assemble_two_qubit(p) - np.eye(4) / 4).max() < 1e-15


def test_assemble_product_of_z_eigenstates():
    # alpha = beta = e_z with gamma_33 = 1 is |0><0| (x) |0><0|
    g = np.zeros((3, 3))
    g[2, 2] = 1.0
    p = rdl.TwoQubitParams(alpha=np.array([0, 0, 1.0]), beta=np.array([0, 0, 1.0]), gamma=g)
    rho = rdl.assemble_two_qubit(p)
    assert np.abs(np.diag(rho).real - np.array([1.0, 0, 0, 0])).max() < 1e-15
    assert np.abs(rho - np.diag(np.diag(rho))).max() < 1e-15


def test_extract_inverts_assemble(rng):
    for _ in range(10):
        p = rdl.extract_two_qubit_params(rdl.random_density_matrix(4, rng))
        q = rdl.extract_two_qubit_params(rdl.assemble_two_qubit(p))
        assert np.abs(q.alpha - p.alpha).max() < 1e-12
        assert np.abs(q.beta - p.beta).max() < 1e-12
        assert np.abs(q.gamma - p.gamma).max() < 1e-12


def _same_bits(a, b):
    """Equal float for float, signed zeros included (complex arrays as their float pairs)."""
    a, b = (np.ascontiguousarray(x).view(float) for x in (a, b))
    return np.array_equal(a, b) and np.array_equal(np.signbit(a), np.signbit(b))


@pytest.mark.parametrize("scale", [0.3, 1.0])
def test_product_pauli_table_matches_kron_loops(scale):
    """Assembly and extraction give the kron loops' floats bit for bit; rejects raise alike.

    At scale 0.3 about three draws in four are states; at 1.0 none is.
    """
    rng = np.random.default_rng(int(10 * scale))
    states = []
    for _ in range(400):
        p = rdl.sample_two_qubit_params(rng, scale)
        try:
            expected = assemble_two_qubit_by_kron(p, rdl.DEFAULT_TOL)
        except NotAStateError as err:
            with pytest.raises(NotAStateError) as got:
                rdl.assemble_two_qubit(p)
            assert str(got.value) == str(err)
            assert got.value.min_eigenvalue == err.min_eigenvalue
            continue
        rho = rdl.assemble_two_qubit(p)
        assert _same_bits(rho, expected)
        states.append(rho)
    states += [rdl.random_density_matrix(4, rng) for _ in range(100)]
    for rho in states:
        q = rdl.extract_two_qubit_params(rho)
        for got, want in zip((q.alpha, q.beta, q.gamma), pauli_coefficients_by_kron(rho)):
            assert _same_bits(got, want)


def test_params_shape_and_range_validation():
    with pytest.raises(DimensionError):
        rdl.TwoQubitParams(alpha=np.zeros(2), beta=np.zeros(3), gamma=np.zeros((3, 3)))
    with pytest.raises(ValueError):
        rdl.TwoQubitParams(alpha=np.array([1.5, 0, 0]), beta=np.zeros(3), gamma=np.zeros((3, 3)))


@pytest.mark.parametrize("name", ["alpha", "beta", "gamma"])
def test_params_refuse_nan(name):
    coefficients = {"alpha": np.zeros(3), "beta": np.zeros(3), "gamma": np.zeros((3, 3))}
    coefficients[name].flat[-1] = np.nan
    with pytest.raises(rdl.InputError, match=rf"^{name} entries must lie in \[-1, 1\], worst is nan"):
        rdl.TwoQubitParams(**coefficients)


def test_assemble_rejects_nonpositive_coefficients():
    g = np.eye(3)  # gamma = I with zero Bloch vectors is not a state
    g[0, 0] = g[1, 1] = 1.0
    g[2, 2] = -1.0
    with pytest.raises(NotAStateError) as exc:
        rdl.assemble_two_qubit(
            rdl.TwoQubitParams(alpha=np.zeros(3), beta=np.zeros(3), gamma=-g)
        )
    assert exc.value.min_eigenvalue < 0


def test_state_family_validation():
    dims = rdl.BipartiteDims(2, 2)
    with pytest.raises(EmptyFamilyError):
        rdl.StateFamily(dims=dims, members=())
    with pytest.raises(DimensionError):
        rdl.StateFamily(dims=dims, members=(np.eye(2) / 2,))
    with pytest.raises(NotAStateError):
        rdl.StateFamily(dims=dims, members=(np.eye(4),))
    with pytest.raises((HermiticityError, NotAStateError)):
        rdl.StateFamily(dims=dims, members=(np.diag([np.nan, 0.5, 0.25, 0.25]),))
    # An infinite diagonal entry gives inf - inf = NaN, without a RuntimeWarning
    with pytest.raises(HermiticityError, match="^member 1 is not Hermitian: .* = nan"):
        rdl.StateFamily(dims=dims, members=(np.eye(4) / 4, np.diag([np.inf, 0.5, 0.25, 0.25])))
    # +inf and -inf on one diagonal also sum to a NaN trace, again without a RuntimeWarning
    with pytest.raises(HermiticityError, match="^member 0 is not Hermitian: .* = nan"):
        rdl.StateFamily(dims=dims, members=(np.diag([np.inf, -np.inf, 0.5, 0.5]),))
    fam = rdl.StateFamily(dims=dims, members=(np.eye(4) / 4,), label="one")
    assert len(fam) == 1
    assert np.abs(fam.reduced()[0] - np.eye(2) / 2).max() < 1e-15


def _member(kind, d, rng):
    """One candidate member of side d that fails in the named way, or a valid one."""
    rho = rdl.random_density_matrix(d, rng)
    if kind == "shape":
        return np.eye(d + 1) / (d + 1)
    if kind == "hermitian":
        rho[0, 1] += 1e-3
    elif kind == "herm-inside":  # real and imaginary parts above herm / 2, modulus 0.99 herm
        rho[0, 1] += 0.7 * rdl.DEFAULT_TOL.herm * (1 + 1j)
    elif kind == "herm-outside":  # real and imaginary parts 0.72 herm, modulus 1.02 herm
        rho[0, 1] += 0.72 * rdl.DEFAULT_TOL.herm * (1 + 1j)
    elif kind == "trace":
        rho = 1.1 * rho
    elif kind == "psd":
        rho = np.diag([1.5, -0.5] + [0.0] * (d - 2))
    elif kind == "nan":
        rho[d - 1, d - 1] = np.nan
    elif kind == "huge":
        rho = _huge_off_diagonal(d)
    elif kind == "near":
        rho = _with_lowest_eigenvalue(d, -rdl.DEFAULT_TOL.psd * (1 - 1e-3), rng)
    elif kind == "real":
        rho = np.eye(d) / d
    elif kind == "pure":  # singular: its factorization as given fails, the shifted one holds
        rho = np.diag([1.0] + [0.0] * (d - 1))
    return rho


@settings(max_examples=60)
@given(
    d_s=st.sampled_from([2, 3]),
    d_e=st.sampled_from([1, 2, 3]),
    kinds=st.lists(
        st.sampled_from(
            ["valid", "real", "pure", "shape", "hermitian", "herm-inside", "herm-outside"]
            + ["trace", "psd", "nan", "huge"]
        ),
        min_size=1,
        max_size=6,
    ),
    seed=st.integers(0, 2**16),
)
def test_family_validation_matches_member_loop(d_s, d_e, kinds, seed):
    """One-pass validation raises what validating one member at a time raises."""
    rng = np.random.default_rng(seed)
    dims = rdl.BipartiteDims(d_s, d_e)
    members = tuple(_member(k, dims.joint, rng) for k in kinds)
    _assert_validates_like_member_loop(members, dims, rdl.DEFAULT_TOL)


def _assert_validates_like_member_loop(members, dims, tol):
    """StateFamily raises what the member loop raises, or accepts the members unchanged.

    Returns whether the family was accepted.
    """
    try:
        validate_members_one_by_one(members, dims, tol)
    except rdl.RdlError as err:
        with pytest.raises(type(err)) as got:
            rdl.StateFamily(dims=dims, members=members, tol=tol)
        assert type(got.value) is type(err)
        assert str(got.value) == str(err)
        assert getattr(got.value, "min_eigenvalue", None) == getattr(err, "min_eigenvalue", None)
        return False
    fam = rdl.StateFamily(dims=dims, members=members, tol=tol)
    assert not fam.stack.flags.writeable
    for m, s, original in zip(fam.members, fam.stack, members):
        assert not m.flags.writeable
        assert np.array_equal(m, original) and np.array_equal(s, original)
    assert np.array_equal(fam.reduced(), [rdl.partial_trace_env(m, dims) for m in members])
    return True


@pytest.mark.parametrize("entry", [(2, 2, 1e-3j), (3, 1, 1e-3)], ids=["diagonal", "below"])
def test_one_triangle_hermiticity_check_sees_the_whole_matrix(entry, rng):
    """The only non-Hermitian entry is an imaginary diagonal one, or one below the diagonal.

    The members are real, so no entry above the diagonal differs from its own
    conjugate, and the loose trace tolerance leaves Hermiticity the only test
    that fails.
    """
    dims = rdl.BipartiteDims(2, 2)
    tol = replace(rdl.DEFAULT_TOL, trace=1e-2)
    valid, bad = (rdl.random_density_matrix(dims.joint, rng).real.astype(complex) for _ in range(2))
    i, j, delta = entry
    bad[i, j] += delta
    assert not _assert_validates_like_member_loop((valid, bad), dims, tol)
    with pytest.raises(HermiticityError, match="member 1 is not Hermitian"):
        rdl.StateFamily(dims=dims, members=(valid, bad), tol=tol)


def _with_lowest_eigenvalue(d, lowest, rng):
    """A Hermitian unit-trace matrix of side d: eigenvalue ``lowest``, then d - 1 positive ones."""
    rest = rng.uniform(0.5, 1.0, size=d - 1)
    spectrum = np.concatenate([[lowest], rest * (1.0 - lowest) / rest.sum()])
    v = random_unitary(d, rng)
    rho = (v * spectrum) @ v.conj().T
    return (rho + rho.conj().T) / 2


def _huge_off_diagonal(d):
    """I / d with 1e308 at (0, 1) and (1, 0): Hermitian, unit trace, lowest eigenvalue -1e308."""
    m = np.eye(d, dtype=complex) / d
    m[0, 1] = m[1, 0] = 1e308
    return m


def _pure(d, rng):
    v = rng.normal(size=d) + 1j * rng.normal(size=d)
    return np.outer(v, v.conj()) / np.vdot(v, v).real


@pytest.mark.parametrize("psd", [1e-9, 1e-12, 1e-16, 1e-20, 0.0])
@pytest.mark.parametrize("d_s, d_e", [(2, 1), (2, 2), (3, 3), (4, 8)])
def test_validation_near_the_positivity_cut_matches_member_loop(psd, d_s, d_e):
    """Members whose lowest eigenvalue sits at the psd cut, validated alone and together.

    The lowest eigenvalues are 0, +-1e-16, -psd/2, -psd (1 +- 1e-3) and
    -3 psd, and pure states add d - 1 eigenvalues at roundoff from 0.  Each
    candidate follows a valid member, then all candidates form one family,
    then all that the member loop accepts do.  Whether the Cholesky
    certificate holds or the eigvalsh fallback runs, the outcome is the loop's.
    """
    rng = np.random.default_rng([d_s, d_e, int(-np.log10(psd)) if psd else 99])
    dims = rdl.BipartiteDims(d_s, d_e)
    d = dims.joint
    tol = replace(rdl.DEFAULT_TOL, psd=psd)
    lowest = [0.0, 1e-16, -1e-16, -psd / 2, -psd * (1 + 1e-3), -psd * (1 - 1e-3), -3 * psd]
    candidates = [_with_lowest_eigenvalue(d, lo, rng) for lo in lowest for _ in range(3)]
    candidates += [_pure(d, rng) for _ in range(8)]
    valid = rdl.random_density_matrix(d, rng)
    accepted = [valid]
    accepted += [m for m in candidates if _assert_validates_like_member_loop((valid, m), dims, tol)]
    _assert_validates_like_member_loop(tuple(candidates), dims, tol)
    assert _assert_validates_like_member_loop(tuple(accepted), dims, tol)


def test_cholesky_certificate_replaces_eigvalsh_when_it_holds(rng):
    """Valid members at the default tolerance pass without an eigendecomposition.

    Below the roundoff floor (psd = 1e-20) and after a failed factorization
    the eigvalsh route runs as before.
    """
    dims = rdl.BipartiteDims(4, 8)
    members = tuple(rdl.random_density_matrix(dims.joint, rng) for _ in range(5))
    with mock.patch.object(np.linalg, "eigvalsh", wraps=np.linalg.eigvalsh) as spy:
        rdl.StateFamily(dims=dims, members=members)
        assert spy.call_count == 0
        rdl.StateFamily(dims=dims, members=members, tol=replace(rdl.DEFAULT_TOL, psd=1e-20))
        assert spy.call_count == 1
        bad = _with_lowest_eigenvalue(dims.joint, -1e-6, rng)
        with pytest.raises(NotAStateError):
            rdl.StateFamily(dims=dims, members=members + (bad,))
        assert spy.call_count == 3  # the stack's eigvalsh, then require_density's on the bad one


def test_product_family_marginals(rng):
    omega = rdl.random_density_matrix(2, rng)
    states = [rdl.random_density_matrix(2, rng) for _ in range(3)]
    fam = rdl.product_family(states, omega)
    for member, s in zip(fam.members, states):
        assert np.abs(rdl.partial_trace_env(member, fam.dims) - s).max() < 1e-12


@pytest.mark.parametrize(
    "states, message",
    [
        ([0.5], "system state 0 must be square"),
        ([np.eye(2) / 2, [0.5]], "system state 1 must be square"),
        ([np.eye(2) / 2, np.eye(3) / 3], "system state 1 has side 3, expected 2"),
    ],
    ids=["scalar-first", "vector-second", "sides-differ"],
)
def test_product_family_rejects_misshapen_system_states(states, message):
    with pytest.raises(DimensionError, match=message):
        rdl.product_family(states, np.eye(2) / 2)


def test_full_two_qubit_family_shape():
    fam = rdl.full_two_qubit_family()
    assert len(fam) == 16
    # reduced states are I/2 plus 0.8 Bloch displacements along each axis
    reduced = fam.reduced()
    assert np.abs(reduced[0] - np.eye(2) / 2).max() < 1e-15
    for i, p in enumerate(rdl.PAULIS):
        assert np.abs(reduced[1 + i] - (np.eye(2) / 2 + 0.4 * p)).max() < 1e-15
    # displacements on the environment side leave the marginal mixed
    for k in range(4, 7):
        assert np.abs(reduced[k] - np.eye(2) / 2).max() < 1e-15


def test_full_family_rejects_large_displacement():
    with pytest.raises(NotAStateError):
        rdl.full_two_qubit_family(eps=0.3)


def test_constrained_family_enforces_affine_law(rng):
    b11 = np.array([0.1, 0.0, 0.05])
    b21 = np.array([0.0, 0.1, 0.0])
    draws = [rdl.sample_two_qubit_params(rng, 0.3) for _ in range(12)]
    fam, rejected = rdl.constrained_two_qubit_family(0.15, -0.1, b11, b21, draws)
    assert len(fam) + len(rejected) == 12
    for m in fam.members:
        p = rdl.extract_two_qubit_params(m)
        assert abs(p.gamma[0, 0] - (0.15 + b11 @ p.alpha)) < 1e-12
        assert abs(p.gamma[1, 0] - (-0.1 + b21 @ p.alpha)) < 1e-12
    for r in rejected:
        assert r.reason in ("range", "positivity")


def test_constrained_family_range_rejection():
    draws = [
        rdl.TwoQubitParams(alpha=np.zeros(3), beta=np.zeros(3), gamma=np.zeros((3, 3)))
    ]
    with pytest.raises(EmptyFamilyError):
        # a11 pushes gamma_11 far outside [-1, 1] for every draw
        rdl.constrained_two_qubit_family(5.0, 0.0, np.zeros(3), np.zeros(3), draws)


@pytest.mark.parametrize("name", ["a11", "a21", "b11", "b21"])
def test_constrained_family_rejects_a_non_finite_law(name):
    """NaN passes every range test, so the law is checked for finiteness on entry."""
    law = {"a11": 0.1, "a21": 0.0, "b11": np.zeros(3), "b21": np.zeros(3)}
    law[name] = np.nan if name.startswith("a") else np.array([0.0, np.inf, 0.0])
    draws = [rdl.TwoQubitParams(alpha=np.zeros(3), beta=np.zeros(3), gamma=np.zeros((3, 3)))]
    with pytest.raises(ValueError, match=f"^{name} must be finite"):
        rdl.constrained_two_qubit_family(law["a11"], law["a21"], law["b11"], law["b21"], draws)


def test_constrained_family_positivity_rejection_records_eigenvalue():
    # a pure product state along z cannot absorb a large gamma_11 overwrite
    g = np.zeros((3, 3))
    g[2, 2] = 1.0
    pure = rdl.TwoQubitParams(alpha=np.array([0, 0, 1.0]), beta=np.array([0, 0, 1.0]), gamma=g)
    mixed = rdl.TwoQubitParams(alpha=np.zeros(3), beta=np.zeros(3), gamma=np.zeros((3, 3)))
    fam, rejected = rdl.constrained_two_qubit_family(
        0.9, 0.0, np.zeros(3), np.zeros(3), [pure, mixed]
    )
    assert len(fam) == 1
    assert len(rejected) == 1
    assert rejected[0].reason == "positivity"
    assert rejected[0].index == 0
    assert rejected[0].min_eigenvalue < 0


def test_random_density_matrix_is_state(rng):
    for d in (2, 3, 4):
        rho = rdl.random_density_matrix(d, rng)
        rdl.require_density(rho)


def test_sample_scale_validation(rng):
    with pytest.raises(ValueError):
        rdl.sample_two_qubit_params(rng, scale=0.0)
    with pytest.raises(ValueError):
        rdl.sample_two_qubit_params(rng, scale=1.5)


@given(st.integers(0, 2), st.integers(0, 2))
def test_extract_reads_single_correlation(i, j):
    """Each gamma entry is picked up from exactly its own product-Pauli term."""
    rho = np.eye(4, dtype=complex) / 4 + 0.2 * rdl.tensor(rdl.PAULIS[i], rdl.PAULIS[j])
    p = rdl.extract_two_qubit_params(rho)
    expected = np.zeros((3, 3))
    expected[i, j] = 0.8
    assert np.abs(p.gamma - expected).max() < 1e-12
    assert np.abs(p.alpha).max() < 1e-12


def test_a_cholesky_factor_with_nan_certifies_nothing():
    """The factorization of the 1e308 member finishes without error, in NaN; eigvalsh decides."""
    dims = rdl.BipartiteDims(2, 2)
    assert not _assert_validates_like_member_loop((_huge_off_diagonal(4),), dims, rdl.DEFAULT_TOL)
    with pytest.raises(NotAStateError, match="member 0 .* min eigenvalue -1.000e\\+308"):
        rdl.StateFamily(dims=dims, members=(_huge_off_diagonal(4),))


@pytest.mark.parametrize("per_block", [1, 2])
@pytest.mark.parametrize(
    "kinds, first_bad",
    [
        (("valid",) * 5 + ("hermitian", "trace", "psd"), 5),
        (("valid",) * 3 + ("psd", "valid", "hermitian"), 3),
        (("valid",) * 7 + ("trace",), 7),
        (("valid",) * 5 + ("psd", "valid", "valid"), 5),
        (("valid",) * 5 + ("near", "valid", "valid"), None),
        (("valid",) * 5 + ("huge", "valid", "valid"), 5),
        (("valid",) * 5 + ("herm-inside", "valid", "valid"), None),
        (("valid",) * 3 + ("herm-inside", "herm-outside", "valid", "trace", "psd"), 4),
        (("pure",) + ("valid",) * 3 + ("hermitian",) + ("valid",) * 3, 4),
        (("pure",) + ("valid",) * 7, None),
    ],
    ids=[
        "hermitian",
        "psd-then-hermitian",
        "trace-last",
        "psd",
        "cholesky-only",
        "nan-factor",
        "hermitian-inside",
        "hermitian-just-outside",
        "pure-then-hermitian-block",
        "pure",
    ],
)
def test_validation_across_blocks_matches_member_loop(kinds, first_bad, per_block, monkeypatch):
    """Eight members in blocks of one or two: the first failure sits in a later block.

    "near" members pass the eigvalsh cut but fail the Cholesky certificate,
    so the family is accepted through the fallback.  A "pure" member in the
    first block switches every later block to the shifted factorization; a
    later block that opens with a non-Hermitian member leaves it nothing to factor.
    """
    dims = rdl.BipartiteDims(2, 3)
    monkeypatch.setattr(families, "_BLOCK_ENTRIES", per_block * dims.joint**2)
    rng = np.random.default_rng(len(kinds))
    members = tuple(_member(k, dims.joint, rng) for k in kinds)
    accepted = _assert_validates_like_member_loop(members, dims, rdl.DEFAULT_TOL)
    assert accepted == (first_bad is None)
    if first_bad is not None:
        with pytest.raises(rdl.RdlError, match=f"^member {first_bad} "):
            rdl.StateFamily(dims=dims, members=members)


@pytest.mark.parametrize("d_s, d_e", [(2, 3), (3, 4)])
@pytest.mark.parametrize(
    "pure_at, expected",
    [(None, [(2, 0), (2, 0), (2, 0), (1, 0)]), (2, [(2, 0), (2, 0), (2, 1), (2, 1), (1, 1)])],
    ids=["full-rank", "pure-in-block-2"],
)
def test_valid_members_are_certified_block_by_block(d_s, d_e, pure_at, expected, rng, monkeypatch):
    """Seven valid members in blocks of two: one Cholesky per block, as given, and no eigvalsh.

    A pure state in block 2 fails its factorization as given; that block is
    factored again shifted by psd / 2, and so is every later block.  Each
    factorization is expected as (block length, shift in units of psd / 2).
    """
    dims = rdl.BipartiteDims(d_s, d_e)
    d = dims.joint
    monkeypatch.setattr(families, "_BLOCK_ENTRIES", 2 * d**2)
    members = [rdl.random_density_matrix(d, rng) for _ in range(7)]
    if pure_at is not None:
        v = rng.normal(size=d) + 1j * rng.normal(size=d)
        v[0] = 0  # rho[0, 0] = 0: the factorization as given meets a zero pivot at once
        members[pure_at] = np.outer(v, v.conj()) / np.vdot(v, v).real
    calls = _record_factorizations(monkeypatch, d)
    with mock.patch.object(np.linalg, "eigvalsh", wraps=np.linalg.eigvalsh) as spy:
        rdl.StateFamily(dims=dims, members=tuple(members))
    assert spy.call_count == 0
    assert calls == expected


def _record_factorizations(monkeypatch, d):
    """Each Cholesky call of validation, as (block length, shift in units of psd / 2)."""
    calls, cholesky, half = [], np.linalg.cholesky, rdl.DEFAULT_TOL.psd / 2

    def factor(a):  # read at the call: a shifted block lives in a reused buffer
        shift = (np.trace(a, axis1=1, axis2=2).real - 1) / d  # the traces are 1 to roundoff
        assert np.ptp(shift) < half / 100
        calls.append((len(a), round(shift[0] / half)))
        return cholesky(a)

    monkeypatch.setattr(np.linalg, "cholesky", factor)
    return calls


@pytest.mark.parametrize("lowest, accepted", [(-0.9, True), (-3.0, False)], ids=["near", "past"])
def test_only_the_block_that_fails_its_factorizations_goes_to_eigvalsh(
    lowest, accepted, rng, monkeypatch
):
    """Eight members in blocks of two; member 3, in block 1, has lowest eigenvalue ``lowest`` psd.

    Block 1 fails its factorization as given and shifted by psd / 2, so one
    eigvalsh of its two members decides; blocks 2 and 3 are still factored
    shifted, and no other member is eigendecomposed.  A rejected member is
    then eigendecomposed once more, alone, for its error.
    """
    dims = rdl.BipartiteDims(2, 3)
    d = dims.joint
    monkeypatch.setattr(families, "_BLOCK_ENTRIES", 2 * d**2)
    members = [rdl.random_density_matrix(d, rng) for _ in range(8)]
    members[3] = _with_lowest_eigenvalue(d, lowest * rdl.DEFAULT_TOL.psd, rng)
    calls = _record_factorizations(monkeypatch, d)
    with mock.patch.object(np.linalg, "eigvalsh", wraps=np.linalg.eigvalsh) as spy:
        if accepted:
            rdl.StateFamily(dims=dims, members=tuple(members))
        else:
            with pytest.raises(NotAStateError, match="^member 3 "):
                rdl.StateFamily(dims=dims, members=tuple(members))
    sizes = [np.shape(c.args[0])[:-2] for c in spy.call_args_list]
    assert sizes == ([(2,)] if accepted else [(2,), ()])
    assert np.array_equal(spy.call_args_list[0].args[0], members[2:4])
    assert calls == [(2, 0), (2, 0), (2, 1), (2, 1), (2, 1)]
