"""Families of joint system-environment states and two-qubit parameterizations."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .config import DEFAULT_TOL, ToleranceConfig
from .errors import DimensionError, EmptyFamilyError, InputError, NotAStateError
from .operators import (
    PAULIS,
    BipartiteDims,
    frozen,
    partial_trace_env,
    require_density,
    require_hermitian,
    tensor,
)

_RANGE_SLACK = 1e-12  # coefficient-range checks allow this much roundoff
_BLOCK_ENTRIES = 2**13  # caps members x d_j^2 per validation block (128 KB complex)


@dataclass(frozen=True, eq=False)
class TwoQubitParams:
    """Coefficients of a two-qubit state in the product-Pauli expansion.

    rho = (1/4) (I + sum_i alpha_i s_i (x) I + sum_j beta_j I (x) s_j
                   + sum_ij gamma_ij s_i (x) s_j)

    with s_1, s_2, s_3 the Pauli matrices.  alpha and beta are the system and
    environment Bloch vectors; gamma holds the correlation coefficients, row
    index on the system side.  All entries must lie in [-1, 1]; positivity of
    the assembled matrix is a separate check.
    """

    alpha: np.ndarray
    beta: np.ndarray
    gamma: np.ndarray

    def __post_init__(self):
        alpha = np.asarray(self.alpha, dtype=float)
        beta = np.asarray(self.beta, dtype=float)
        gamma = np.asarray(self.gamma, dtype=float)
        if alpha.shape != (3,) or beta.shape != (3,) or gamma.shape != (3, 3):
            raise DimensionError(
                f"expected shapes (3,), (3,), (3, 3); got {alpha.shape}, {beta.shape}, {gamma.shape}"
            )
        for name, arr in (("alpha", alpha), ("beta", beta), ("gamma", gamma)):
            worst = float(np.max(np.abs(arr)))
            if worst > 1.0 + _RANGE_SLACK:
                raise InputError(f"{name} entries must lie in [-1, 1], worst is {worst:.6g}")
        object.__setattr__(self, "alpha", frozen(alpha))
        object.__setattr__(self, "beta", frozen(beta))
        object.__setattr__(self, "gamma", frozen(gamma))


def _product_paulis() -> np.ndarray:
    """The 16 product Paulis: I (x) I, then per axis i, s_i (x) I, I (x) s_i, s_i (x) s_1..3."""
    eye = np.eye(2)
    table = [tensor(eye, eye)]
    for p in PAULIS:
        table += [tensor(p, eye), tensor(eye, p)] + [tensor(p, q) for q in PAULIS]
    return frozen(np.array(table))


_PRODUCT_PAULIS = _product_paulis()  # (16, 4, 4); rows 1..15 are one block of 5 per axis


def assemble_two_qubit(params: TwoQubitParams, tol: ToleranceConfig = DEFAULT_TOL) -> np.ndarray:
    """Build the 4x4 density matrix for ``params``.

    The terms are summed one after another in table order.  Raises
    NotAStateError (carrying the minimum eigenvalue) when the coefficients
    do not describe a positive matrix.
    """
    blocks = np.column_stack([params.alpha, params.beta, params.gamma])
    coeffs = np.concatenate([[1.0], blocks.ravel()])
    rho = np.add.reduce(coeffs[:, None, None] * _PRODUCT_PAULIS, axis=0) / 4.0
    return require_density(rho, tol, "assembled two-qubit state")


def extract_two_qubit_params(rho: np.ndarray, tol: ToleranceConfig = DEFAULT_TOL) -> TwoQubitParams:
    """Read the product-Pauli coefficients back off a 4x4 Hermitian matrix.

    Exact inverse of :func:`assemble_two_qubit`:
    alpha_i = tr((s_i (x) I) rho), beta_j = tr((I (x) s_j) rho),
    gamma_ij = tr((s_i (x) s_j) rho).
    """
    rho = require_hermitian(rho, tol.herm, "two-qubit state")
    if rho.shape != (4, 4):
        raise DimensionError(f"expected a 4x4 matrix, got {rho.shape}")
    blocks = np.trace(_PRODUCT_PAULIS[1:] @ rho, axis1=1, axis2=2).real.reshape(3, 5)
    return TwoQubitParams(alpha=blocks[:, 0], beta=blocks[:, 1], gamma=blocks[:, 2:])


@dataclass(frozen=True, eq=False)
class StateFamily:
    """A finite set of joint density matrices on one system-environment split.

    The validated members are held once, as the read-only ``stack`` of shape
    (n, d_j, d_j); ``members`` holds views of its rows.
    """

    dims: BipartiteDims
    members: tuple[np.ndarray, ...]
    label: str = ""
    tol: ToleranceConfig = field(default=DEFAULT_TOL, repr=False)
    stack: np.ndarray = field(init=False, repr=False)  # read-only (n, d_j, d_j); members view it

    def __post_init__(self):
        if len(self.members) == 0:
            raise EmptyFamilyError("a state family needs at least one member")
        side = (self.dims.joint, self.dims.joint)
        members = [np.asarray(m, dtype=complex) for m in self.members]
        shaped = next((i for i, m in enumerate(members) if m.shape != side), len(members))
        # The members before the first misshapen one fail first, as they would one at a time.
        stack = np.array(members[:shaped]).reshape(-1, *side)
        for idx in _invalid_members(stack, self.tol):
            require_density(stack[idx], self.tol, f"member {idx}")  # raises on the first
        if shaped < len(members):
            raise DimensionError(
                f"member {shaped} has shape {members[shaped].shape}, expected {side}"
            )
        stack.setflags(write=False)
        object.__setattr__(self, "stack", stack)
        object.__setattr__(self, "members", tuple(stack))

    def __len__(self) -> int:
        return len(self.members)

    def reduced(self) -> tuple[np.ndarray, ...]:
        """Partial trace of every member over the environment."""
        return tuple(partial_trace_env(self.stack, self.dims))


def _invalid_members(stack: np.ndarray, tol: ToleranceConfig) -> np.ndarray:
    """Indices, in order, of the matrices in ``stack`` that :func:`require_density` rejects.

    The members are read in blocks of ``_BLOCK_ENTRIES // d^2``, up to the
    block holding the first non-Hermitian one; no later member can be the
    first rejected.  Each block gets the Hermiticity test on the whole of
    |X - X^dag| and the trace test.  Positivity is tested on the members
    before the first non-Hermitian one, so it never sees a NaN (which fails
    Hermiticity first): by a Cholesky certificate per block, or when one
    fails, by one ``eigvalsh`` of them all.
    """
    n, d = stack.shape[0], stack.shape[-1]
    block = max(1, _BLOCK_ENTRIES // (d * d))
    scratch = np.empty((min(block, n), d, d), dtype=complex)  # reused by every block
    bad = np.zeros(n, dtype=bool)
    checked, certified = n, True
    for lo in range(0, n, block):
        part = stack[lo : lo + block]
        diff = np.conjugate(part.swapaxes(1, 2), out=scratch[: len(part)])
        with np.errstate(invalid="ignore"):  # an infinite diagonal gives inf - inf = NaN
            herm_dev = np.abs(np.subtract(part, diff, out=diff)).max(axis=(1, 2))
        non_hermitian = ~(herm_dev <= tol.herm)  # written so that NaN fails too
        trace_dev = np.abs(np.trace(part, axis1=1, axis2=2) - 1.0)
        bad[lo : lo + len(part)] = non_hermitian | ~(trace_dev <= tol.trace)
        if non_hermitian.any():
            checked = lo + int(np.argmax(non_hermitian))
        certified = certified and _positivity_certified(part[: checked - lo], tol.psd, scratch)
        if checked < n:
            break
    if not certified:
        bad[:checked] |= ~(np.linalg.eigvalsh(stack[:checked])[:, 0] >= -tol.psd)
    return np.flatnonzero(bad)


def _positivity_certified(stack: np.ndarray, psd: float, out: np.ndarray) -> bool:
    """True when a finite Cholesky factor of every rho + (psd / 2) I exists.

    The factor exists only if each min eigenvalue is at least -psd / 2 less
    the factorization's roundoff, so every member then passes the ``eigvalsh``
    cut at -psd.  A factorization can also finish without error and leave
    NaN in the factor (an entry near the largest float overflows it); that
    certifies nothing.  Only the diagonal needs the test: a non-finite L_ik,
    k < i, enters L_ii = sqrt(a_ii - sum_k |L_ik|^2), and numpy zeroes the
    upper triangle.  The roundoff grows with the side d; below a shift of
    64 d eps it could reach psd / 2, and the certificate is not tried.  The
    shifted matrices are written into ``out``, at least as long as ``stack``.
    False means "not certified", not "some member fails".
    """
    d = stack.shape[-1]
    shift = psd / 2
    if not shift > 64 * d * np.finfo(float).eps:
        return False
    try:
        factor = np.linalg.cholesky(np.add(stack, shift * np.eye(d), out=out[: len(stack)]))
    except np.linalg.LinAlgError:
        return False
    return bool(np.isfinite(np.diagonal(factor, axis1=1, axis2=2)).all())


def _format_matrix(m: np.ndarray) -> str:
    return np.array2string(np.asarray(m), precision=6, separator=",", suppress_small=True)


def product_family(
    states_s,
    omega_e: np.ndarray,
    label: str | None = None,
    tol: ToleranceConfig = DEFAULT_TOL,
) -> StateFamily:
    """Family {rho_s (x) omega_e} with one fixed environment state."""
    states_s = list(states_s)
    if not states_s:
        raise EmptyFamilyError("no system states supplied")
    omega_e = require_density(np.asarray(omega_e, dtype=complex), tol, "environment state")
    states = []
    for idx, s in enumerate(states_s):  # each state is validated before its side is read
        s = require_density(np.asarray(s, dtype=complex), tol, f"system state {idx}")
        if states and len(s) != len(states[0]):
            raise DimensionError(f"system state {idx} has side {len(s)}, expected {len(states[0])}")
        states.append(s)
    dims = BipartiteDims(d_s=len(states[0]), d_e=len(omega_e))
    if label is None:
        label = f"product family, omega_e={_format_matrix(omega_e)}"
    members = tuple(tensor(s, omega_e) for s in states)
    return StateFamily(dims=dims, members=members, label=label, tol=tol)


@dataclass(frozen=True)
class RejectedSample:
    """Why one draw was dropped while building a constrained family."""

    index: int
    reason: str  # "range" or "positivity"
    gamma11: float
    gamma21: float
    min_eigenvalue: float | None = None


def constrained_two_qubit_family(
    a11: float,
    a21: float,
    b11,
    b21,
    samples,
    tol: ToleranceConfig = DEFAULT_TOL,
) -> tuple[StateFamily, tuple[RejectedSample, ...]]:
    """Two-qubit family whose correlations are affine functions of alpha.

    Each sample's gamma_11 and gamma_21 entries are overwritten with
    a11 + b11 . alpha and a21 + b21 . alpha.  Samples whose overwritten
    coefficients leave [-1, 1] or break positivity are rejected one by one;
    the rejects come back alongside the family.  Raises EmptyFamilyError when
    nothing survives.
    """
    b11 = np.asarray(b11, dtype=float)
    b21 = np.asarray(b21, dtype=float)
    if b11.shape != (3,) or b21.shape != (3,):
        raise DimensionError(f"b11 and b21 must be 3-vectors, got {b11.shape}, {b21.shape}")
    for name, value in (("a11", a11), ("a21", a21), ("b11", b11), ("b21", b21)):
        if not np.isfinite(value).all():
            raise InputError(f"{name} must be finite, got {value}")
    members = []
    rejected = []
    for idx, p in enumerate(samples):
        g11 = float(a11 + b11 @ p.alpha)
        g21 = float(a21 + b21 @ p.alpha)
        if max(abs(g11), abs(g21)) > 1.0 + _RANGE_SLACK:
            rejected.append(RejectedSample(idx, "range", g11, g21))
            continue
        gamma = np.array(p.gamma)
        gamma[0, 0] = g11
        gamma[1, 0] = g21
        constrained = TwoQubitParams(alpha=p.alpha, beta=p.beta, gamma=gamma)
        try:
            members.append(assemble_two_qubit(constrained, tol))
        except NotAStateError as err:
            rejected.append(RejectedSample(idx, "positivity", g11, g21, err.min_eigenvalue))
    if not members:
        raise EmptyFamilyError(
            f"all {len(rejected)} samples were rejected by the affine correlation constraint"
        )
    label = (
        f"constrained two-qubit family, a11={a11:.6g}, a21={a21:.6g}, "
        f"b11={np.array2string(b11, precision=6, separator=',')}, "
        f"b21={np.array2string(b21, precision=6, separator=',')}"
    )
    family = StateFamily(
        dims=BipartiteDims(2, 2), members=tuple(members), label=label, tol=tol
    )
    return family, tuple(rejected)


def full_two_qubit_family(eps: float = 0.2, tol: ToleranceConfig = DEFAULT_TOL) -> StateFamily:
    """Sixteen deterministic states spanning the whole two-qubit operator space.

    The maximally mixed state plus displacements of size ``eps`` along every
    product-Pauli direction.  Valid states for eps <= 0.25.
    """
    eye4 = np.eye(4, dtype=complex) / 4.0
    axes = _PRODUCT_PAULIS[1:].reshape(3, 5, 4, 4)
    directions = np.concatenate([axes[:, 0], axes[:, 1], axes[:, 2:].reshape(9, 4, 4)])
    return StateFamily(
        dims=BipartiteDims(2, 2),
        members=(eye4, *(eye4 + eps * directions)),
        label=f"full-span two-qubit family, eps={eps:.6g}",
        tol=tol,
    )


def random_density_matrix(d: int, rng: np.random.Generator) -> np.ndarray:
    """Random full-rank density matrix from a normalized Ginibre draw."""
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def sample_two_qubit_params(rng: np.random.Generator, scale: float = 1.0) -> TwoQubitParams:
    """Uniform draw of all fifteen coefficients from [-scale, scale].

    No positivity guarantee; downstream assembly rejects bad draws.
    """
    if not 0 < scale <= 1.0:
        raise InputError(f"scale must lie in (0, 1], got {scale}")
    return TwoQubitParams(
        alpha=rng.uniform(-scale, scale, size=3),
        beta=rng.uniform(-scale, scale, size=3),
        gamma=rng.uniform(-scale, scale, size=(3, 3)),
    )
