"""Closed-form two-qubit model, its affine law read off the marginal fit, and the swap propagator.

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

from .errors import DimensionError, InputError
from .operators import PAULIS, SIGMA_X, SIGMA_Y, SIGMA_Z, frozen, tensor
from .subspace import Subspace

_CORRELATIONS = frozen(np.array([tensor(SIGMA_X, SIGMA_X), tensor(SIGMA_Y, SIGMA_X)]))  # gamma11, gamma21


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
    (1, alpha), ranked against ``tol_rank`` the same way.  With g the
    members' (gamma11, gamma21), one row each, the law is P g / sqrt(2) and
    the residuals are g - R (P g), shape (n, 2).  A family that is not 2x2
    raises DimensionError; a reduced rank below 4 raises InputError.
    """
    if (subspace.dims.d_s, subspace.dims.d_e) != (2, 2):
        raise DimensionError("the affine law is defined for two-qubit families")
    if subspace.reduced_dim < 4:
        raise InputError(
            "fewer than 4 members with independent Bloch vectors "
            f"(rank {subspace.reduced_dim} at tolerance {subspace.tol_rank:.1e}); "
            "cannot fit the affine law"
        )
    g = np.trace(_CORRELATIONS @ subspace.members[:, None], axis1=-2, axis2=-1).real
    fitted = subspace.fit @ g
    law = fitted / np.sqrt(2.0)
    coeffs = LinearityCoefficients(
        a11=float(law[0, 0]), b11=frozen(law[1:, 0]), a21=float(law[0, 1]), b21=frozen(law[1:, 1])
    )
    return coeffs, g - subspace.marginals @ fitted


def pauli_eigenstates() -> tuple[np.ndarray, ...]:
    """The six single-qubit states (I +/- s_i) / 2."""
    eye = np.eye(2, dtype=complex)
    out = []
    for p in PAULIS:
        out.append(frozen((eye + p) / 2.0))
        out.append(frozen((eye - p) / 2.0))
    return tuple(out)
