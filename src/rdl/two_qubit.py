"""Closed-form two-qubit model, the linearity-coefficient solve, and the swap propagator.

The model couples the system's third Pauli axis to the environment's first:
H = (omega/2) s3 (x) s1, so the propagator is

    U = cos(omega t / 2) I - i sin(omega t / 2) s3 (x) s1.

Under conjugation by U the reduced Bloch vector moves as

    alpha_1' = alpha_1 cos(omega t) - gamma_21 sin(omega t)
    alpha_2' = alpha_2 cos(omega t) + gamma_11 sin(omega t)
    alpha_3' = alpha_3

which is linear in the state exactly when gamma_11 and gamma_21 are affine
functions of alpha across the family.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import DEFAULT_TOL
from .errors import DimensionError, SingularSystemError
from .families import StateFamily, extract_two_qubit_params
from .operators import PAULIS, SIGMA_X, SIGMA_Z, frozen, tensor


@dataclass(frozen=True)
class ModelParams:
    """Coupling strength and evolution time of the closed-form model."""

    omega: float
    t: float

    def __post_init__(self):
        if not 0 < self.omega < np.inf:
            raise ValueError(f"omega must be finite and positive, got {self.omega}")
        if not 0 <= self.t < np.inf:
            raise ValueError(f"t must be finite and nonnegative, got {self.t}")

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


def bloch_vector(rho: np.ndarray) -> np.ndarray:
    """(tr(s1 rho), tr(s2 rho), tr(s3 rho)) of a qubit operator."""
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (2, 2):
        raise DimensionError(f"expected a 2x2 matrix, got {rho.shape}")
    return np.array([np.trace(p @ rho).real for p in PAULIS])


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


def solve_linearity_coefficients(
    records, tol_rank: float = DEFAULT_TOL.rank
) -> LinearityCoefficients:
    """Least-squares fit of the affine correlation law over four or more Bloch records.

    ``records`` holds (alpha, gamma11, gamma21) triples.  Both gamma
    channels are fitted at once on the rows (1, alpha_1, alpha_2, alpha_3),
    each row and its gammas divided by the row's norm, from one SVD of
    those unit rows: the fit, like its rank, does not depend on the order
    of the records beyond roundoff.  Fewer than four records, or a record
    with a non-finite entry, raise ValueError; fewer than four singular
    values above ``tol_rank`` raise SingularSystemError.
    """
    records = list(records)
    if len(records) < 4:
        raise ValueError(f"need at least 4 records, got {len(records)}")
    rows = np.ones((len(records), 4))
    rhs = np.zeros((len(records), 2))
    for row, (alpha, g11, g21) in enumerate(records):
        alpha = np.asarray(alpha, dtype=float)
        if alpha.shape != (3,):
            raise DimensionError(f"record {row}: alpha must be a 3-vector, got {alpha.shape}")
        rows[row, 1:] = alpha
        rhs[row] = (g11, g21)
        if not (np.isfinite(rows[row]).all() and np.isfinite(rhs[row]).all()):
            raise ValueError(f"record {row}: alpha, gamma11 and gamma21 must be finite")
    inv = 1 / np.linalg.norm(rows, axis=1)
    u, s, vt = np.linalg.svd(rows * inv[:, None], full_matrices=False)
    rank = int(np.sum(s > tol_rank))
    if rank < 4:
        raise SingularSystemError(
            f"Bloch records have rank {rank} < 4 at tolerance {tol_rank:.1e}; "
            "cannot fit the affine law"
        )
    sol = vt.T @ ((u.T @ (rhs * inv[:, None])) / s[:, None])
    return LinearityCoefficients(
        a11=float(sol[0, 0]), b11=frozen(sol[1:, 0]), a21=float(sol[0, 1]), b21=frozen(sol[1:, 1])
    )


def linearity_residuals(family: StateFamily, coeffs: LinearityCoefficients) -> np.ndarray:
    """Per-member deviation of (gamma11, gamma21) from the affine law.

    Coefficients are re-extracted from each member by Pauli projection, so
    this checks the stored matrices, not any cached parameters.
    """
    if family.dims.d_s != 2 or family.dims.d_e != 2:
        raise DimensionError("linearity residuals are defined for two-qubit families")
    out = np.zeros((len(family), 2))
    for idx, member in enumerate(family.members):
        p = extract_two_qubit_params(member, family.tol)
        pred11, pred21 = coeffs.predict(p.alpha)
        out[idx] = (p.gamma[0, 0] - pred11, p.gamma[1, 0] - pred21)
    return out


def pauli_eigenstates() -> tuple[np.ndarray, ...]:
    """The six single-qubit states (I +/- s_i) / 2."""
    eye = np.eye(2, dtype=complex)
    out = []
    for p in PAULIS:
        out.append(frozen((eye + p) / 2.0))
        out.append(frozen((eye - p) / 2.0))
    return tuple(out)
