"""The two-qubit parametrization, closed-form model and affine law, and the swap propagator.

This module owns the product-Pauli convention: which of the 15
coefficients tr(P rho) are alpha, beta and gamma.  TwoQubitParams,
assembly and extraction, the sampler and the constrained and full families
use it, and one batched reader of a member stack serves extraction,
:func:`affine_law` and the report's Bloch table.

The model couples the system's third Pauli axis to the environment's first:
H = (omega/2) s3 (x) s1, so the propagator is

    U = cos(omega t / 2) I - i sin(omega t / 2) s3 (x) s1.

Under conjugation by U the reduced Bloch vector moves as

    alpha_1' = alpha_1 cos(omega t) - gamma_21 sin(omega t)
    alpha_2' = alpha_2 cos(omega t) + gamma_11 sin(omega t)
    alpha_3' = alpha_3

which is linear in the state exactly when gamma_11 and gamma_21 are affine
functions of alpha across the family.  That is U-consistency written in
Bloch coordinates, so :func:`affine_law` reads the law off the same fit of
the members' marginals that the kernel test uses.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import DEFAULT_TOL, ToleranceConfig
from .errors import DimensionError, EmptyFamilyError, InputError, NotAStateError
from .families import StateFamily
from .operators import (
    PAULIS, SIGMA_X, SIGMA_Z, BipartiteDims, frozen, require_density, require_hermitian, tensor
)
from .subspace import Subspace

_RANGE_SLACK = 1e-12  # coefficient-range checks allow this much roundoff


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
            if not worst <= 1.0 + _RANGE_SLACK:  # written so that NaN fails too
                raise InputError(f"{name} entries must lie in [-1, 1], worst is {worst:.6g}")
            object.__setattr__(self, name, frozen(arr))


def _product_paulis() -> np.ndarray:
    """The 16 product Paulis: I (x) I, then per axis i, s_i (x) I, I (x) s_i, s_i (x) s_1..3."""
    eye = np.eye(2)
    table = [tensor(eye, eye)]
    for p in PAULIS:
        table += [tensor(p, eye), tensor(eye, p)] + [tensor(p, q) for q in PAULIS]
    return frozen(np.array(table))


_PRODUCT_PAULIS = _product_paulis()  # (16, 4, 4); rows 1..15 are one block of 5 per axis


def _pauli_blocks(stack: np.ndarray) -> np.ndarray:
    """tr(P rho) for the 15 non-identity product Paulis P, over a (..., 4, 4) stack.

    Shape (..., 3, 5), one row per axis i as in the table: [..., i, 0] is
    alpha_i, [..., i, 1] is beta_i and [..., i, 2 + j] is gamma_ij.
    """
    traces = np.trace(_PRODUCT_PAULIS[1:] @ stack[..., None, :, :], axis1=-2, axis2=-1)
    return traces.real.reshape(*stack.shape[:-2], 3, 5)


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
    rho = require_hermitian(rho, tol, "two-qubit state")
    if rho.shape != (4, 4):
        raise DimensionError(f"expected a 4x4 matrix, got {rho.shape}")
    blocks = _pauli_blocks(rho)
    return TwoQubitParams(alpha=blocks[:, 0], beta=blocks[:, 1], gamma=blocks[:, 2:])


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


@dataclass(frozen=True)
class ModelParams:
    """Coupling strength and evolution time of the closed-form model."""

    omega: float
    t: float

    def __post_init__(self):
        if not 0 < self.omega < np.inf:
            raise InputError(f"omega must be finite and positive, got {self.omega}")
        if not 0 <= self.t < np.inf:
            raise InputError(f"t must be finite and nonnegative, got {self.t}")

    @property
    def angle(self) -> float:
        return self.omega * self.t


def model_unitary(params: ModelParams) -> np.ndarray:
    """Propagator of the s3 (x) s1 coupling, in closed form."""
    half = params.angle / 2.0
    return np.cos(half) * np.eye(4, dtype=complex) - 1j * np.sin(half) * tensor(
        SIGMA_Z, SIGMA_X
    )


def swap_unitary(d: int) -> np.ndarray:
    """Unitary exchanging the two factors of a d x d product space."""
    if d < 2:
        raise DimensionError(f"swap needs factor dimension at least 2, got {d}")
    u = np.zeros((d * d, d * d), dtype=complex)
    for i in range(d):
        for j in range(d):
            u[j * d + i, i * d + j] = 1.0
    return u


def analytic_bloch_step(alpha, gamma11: float, gamma21: float, angle: float) -> np.ndarray:
    """Reduced Bloch vector after the model propagator with rotation ``angle``."""
    alpha = np.asarray(alpha, dtype=float)
    if alpha.shape != (3,):
        raise DimensionError(f"alpha must be a 3-vector, got shape {alpha.shape}")
    c, s = np.cos(angle), np.sin(angle)
    return np.array(
        [
            alpha[0] * c - gamma21 * s,
            alpha[1] * c + gamma11 * s,
            alpha[2],
        ]
    )


@dataclass(frozen=True, eq=False)
class LinearityCoefficients:
    """Affine law gamma_11 = a11 + b11 . alpha, gamma_21 = a21 + b21 . alpha."""

    a11: float
    b11: np.ndarray
    a21: float
    b21: np.ndarray

    def predict(self, alpha) -> tuple[float, float]:
        alpha = np.asarray(alpha, dtype=float)
        return float(self.a11 + self.b11 @ alpha), float(self.a21 + self.b21 @ alpha)


def affine_law(subspace: Subspace) -> tuple[LinearityCoefficients, np.ndarray]:
    """The affine law fitted over a two-qubit family, and each member's residual.

    In hermitian_basis(2) = (I, s1, s2, s3) / sqrt(2) a member's marginal
    row is R_i = (1, alpha_i) / sqrt(2), so the subspace's fit P, taken on
    the unit rows of R, is the least-squares fit on the unit rows of
    (1, alpha), ranked against ``tol.rank`` the same way.  With g the
    members' (gamma11, gamma21), one row each, the law is P g / sqrt(2) and
    the residuals are g - R (P g), shape (n, 2).  A family that is not 2x2
    raises DimensionError; a reduced rank below 4 raises InputError.
    """
    if (subspace.dims.d_s, subspace.dims.d_e) != (2, 2):
        raise DimensionError("the affine law is defined for two-qubit families")
    if subspace.reduced_dim < 4:
        raise InputError(
            "fewer than 4 members with independent Bloch vectors "
            f"(rank {subspace.reduced_dim} at tolerance {subspace.tol.rank:.1e}); "
            "cannot fit the affine law"
        )
    g = _pauli_blocks(subspace.members)[:, :2, 2]
    fitted = subspace.fit @ g
    law = fitted / np.sqrt(2.0)
    coeffs = LinearityCoefficients(
        a11=float(law[0, 0]), b11=frozen(law[1:, 0]), a21=float(law[0, 1]), b21=frozen(law[1:, 1])
    )
    return coeffs, g - subspace.marginals @ fitted


def bloch_table(members: np.ndarray, angle: float) -> list[dict]:
    """Report rows of a validated (n, 4, 4) stack: alpha, gamma11, gamma21 and the analytic step."""
    rows = []
    for blocks in _pauli_blocks(members):
        alpha, gamma11, gamma21 = blocks[:, 0], blocks[0, 2], blocks[1, 2]
        row = {"alpha": alpha.tolist(), "gamma11": float(gamma11), "gamma21": float(gamma21)}
        row["alpha_out"] = analytic_bloch_step(alpha, gamma11, gamma21, angle).tolist()
        rows.append(row)
    return rows


def pauli_eigenstates() -> tuple[np.ndarray, ...]:
    """The six single-qubit states (I +/- s_i) / 2."""
    eye = np.eye(2, dtype=complex)
    out = []
    for p in PAULIS:
        out.append(frozen((eye + p) / 2.0))
        out.append(frozen((eye - p) / 2.0))
    return tuple(out)
