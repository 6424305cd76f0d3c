"""Dense operator plumbing: tensor products, partial traces, Hermitian bases.

Everything works on plain complex ndarrays.  Bipartite matrices follow the
system-major index convention: the joint basis vector |i>_S |k>_E sits at
row i * d_e + k, so the system index is the slow one.  All Hilbert-Schmidt
inner products are tr(A^dag B).
"""

from __future__ import annotations

import functools
import numbers
from dataclasses import dataclass

import numpy as np

from .config import DEFAULT_TOL, ToleranceConfig
from .errors import DimensionError, HermiticityError, NotAStateError, UnitarityError


def frozen(a: np.ndarray) -> np.ndarray:
    """Copy ``a`` into a read-only array (shared values stay immutable)."""
    out = np.array(a)
    out.setflags(write=False)
    return out


SIGMA_X = frozen(np.array([[0, 1], [1, 0]], dtype=complex))
SIGMA_Y = frozen(np.array([[0, -1j], [1j, 0]], dtype=complex))
SIGMA_Z = frozen(np.array([[1, 0], [0, -1]], dtype=complex))
PAULIS = (SIGMA_X, SIGMA_Y, SIGMA_Z)


@dataclass(frozen=True)
class BipartiteDims:
    """System and environment dimensions of a bipartite operator."""

    d_s: int
    d_e: int

    def __post_init__(self):
        for name in ("d_s", "d_e"):  # held as int: the report writer takes only int instances
            value = getattr(self, name)
            if not isinstance(value, numbers.Integral) or isinstance(value, bool):
                raise DimensionError(f"{name} must be an integer, got {value!r}")
            object.__setattr__(self, name, int(value))
        if self.d_s < 2:
            raise DimensionError(f"system dimension must be at least 2, got {self.d_s}")
        if self.d_e < 1:
            raise DimensionError(f"environment dimension must be at least 1, got {self.d_e}")

    @property
    def joint(self) -> int:
        return self.d_s * self.d_e


def max_norm(x: np.ndarray) -> float:
    """Largest absolute entry of ``x`` (0.0 for empty input)."""
    x = np.asarray(x)
    return float(np.max(np.abs(x))) if x.size else 0.0


def _require_square(x: np.ndarray, what: str = "matrix") -> np.ndarray:
    x = np.asarray(x, dtype=complex)
    if x.ndim != 2 or x.shape[0] != x.shape[1]:
        raise DimensionError(f"{what} must be square, got shape {x.shape}")
    return x


def require_hermitian(x: np.ndarray, tol: ToleranceConfig = DEFAULT_TOL, what: str = "matrix") -> np.ndarray:
    x = _require_square(x, what)
    with np.errstate(invalid="ignore"):  # an infinite diagonal gives inf - inf = NaN
        dev = max_norm(x - x.conj().T)
    if not dev <= tol.herm:  # written so that a NaN deviation fails too
        raise HermiticityError(f"{what} is not Hermitian: max |X - X^dag| = {dev:.3e} > {tol.herm:.3e}")
    return x


def require_unitary(u: np.ndarray, tol: ToleranceConfig = DEFAULT_TOL, what: str = "matrix") -> np.ndarray:
    u = _require_square(u, what)
    dev = max_norm(u.conj().T @ u - np.eye(u.shape[0]))
    if not dev <= tol.unitary:  # written so that a NaN deviation fails too
        raise UnitarityError(f"{what} is not unitary: max |U^dag U - I| = {dev:.3e} > {tol.unitary:.3e}")
    return u


def _require_propagator(u: np.ndarray, dims: BipartiteDims, tols: ToleranceConfig) -> np.ndarray:
    """``u`` validated once as a unitary on the joint space of ``dims``."""
    u = require_unitary(u, tols, "propagator")
    if u.shape[0] != dims.joint:
        raise DimensionError(
            f"propagator side {u.shape[0]} does not match joint dimension {dims.joint}"
        )
    return u


def require_density(rho: np.ndarray, tol: ToleranceConfig = DEFAULT_TOL, what: str = "state") -> np.ndarray:
    """Validate that ``rho`` is a density matrix within tolerance.

    Checks Hermiticity, unit trace, and positive semidefiniteness, raising
    HermiticityError or NotAStateError accordingly; every comparison is
    written so that NaN fails it.  Returns the validated array as complex
    ndarray.
    """
    rho = require_hermitian(rho, tol, what)
    tr_dev = abs(np.trace(rho) - 1.0)
    if not tr_dev <= tol.trace:
        raise NotAStateError(f"{what} has trace {complex(np.trace(rho)):.6g}, expected 1")
    lo = float(np.linalg.eigvalsh(rho)[0])
    if not lo >= -tol.psd:
        raise NotAStateError(
            f"{what} is not positive semidefinite: min eigenvalue {lo:.3e}",
            min_eigenvalue=lo,
        )
    return rho


def tensor(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Tensor (Kronecker) product with the first factor index slow.

    (A (x) B)[(i * d_b + k), (j * d_b + l)] = A[i, j] * B[k, l].
    """
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    if a.ndim != 2 or b.ndim != 2:
        raise DimensionError(f"tensor expects two matrices, got shapes {a.shape}, {b.shape}")
    return np.kron(a, b)


def _require_stack(x: np.ndarray, shape: tuple, what: str) -> np.ndarray:
    """``x`` as a complex array whose trailing axes are ``shape``."""
    x = np.asarray(x, dtype=complex)
    if x.shape[x.ndim - len(shape):] != shape:
        raise DimensionError(f"{what} has shape {x.shape}, expected trailing axes {shape}")
    return x


def partial_trace_env(x: np.ndarray, dims: BipartiteDims) -> np.ndarray:
    """Trace out the environment factor of a joint operator, or of a stack of them.

    Y[..., i, j] = sum_k X[..., (i * d_e + k), (j * d_e + k)].
    """
    x = _require_stack(x, (dims.joint, dims.joint), "joint operator")
    x4 = x.reshape(x.shape[:-2] + (dims.d_s, dims.d_e, dims.d_s, dims.d_e))
    return np.einsum("...ikjk->...ij", x4)


def _reduced_propagator(u: np.ndarray, dims: BipartiteDims) -> np.ndarray:
    """Matrix K of the linear map X -> Tr_E(U X U^dag), shape (d_s^2, d_j^2).

    K[(i, j), (a, b)] = sum_k U[(i * d_e + k), a] conj(U)[(j * d_e + k), b]:
    one (d_s d_j, d_e) by (d_e, d_s d_j) product, regrouped.
    """
    d_s, d_e, d_j = dims.d_s, dims.d_e, dims.joint
    u3 = u.reshape(d_s, d_e, d_j)
    left = u3.transpose(0, 2, 1).reshape(d_s * d_j, d_e)  # rows (i, a)
    right = u3.conj().transpose(1, 0, 2).reshape(d_e, d_s * d_j)  # columns (j, b)
    k = (left @ right).reshape(d_s, d_j, d_s, d_j).transpose(0, 2, 1, 3)
    return k.reshape(d_s * d_s, d_j * d_j)


def _evolved_marginal(u: np.ndarray, x: np.ndarray, dims: BipartiteDims) -> np.ndarray:
    """Tr_E(U X U^dag) for a joint operator or a stack (..., d_j, d_j), in one product.

    Each operator, read as a row of d_j^2 entries, meets the reduced
    propagator of :func:`_reduced_propagator`, so U X U^dag is never formed.
    ``u`` is taken as already validated.
    """
    d_s, d_j = dims.d_s, dims.joint
    y = x.reshape(-1, d_j * d_j) @ _reduced_propagator(u, dims).T
    return y.reshape(x.shape[:-2] + (d_s, d_s))


@functools.lru_cache(maxsize=None)
def hermitian_basis(d: int) -> tuple[np.ndarray, ...]:
    """Orthonormal Hermitian basis of d x d operators under tr(A B).

    Element 0 is I/sqrt(d); the remaining d^2 - 1 elements are traceless:
    symmetric off-diagonal pairs, then antisymmetric pairs, then diagonal
    elements.  For d = 2 this is exactly (I, sigma_x, sigma_y, sigma_z)
    divided by sqrt(2).
    """
    if d < 1:
        raise DimensionError(f"basis dimension must be positive, got {d}")
    mats = [np.eye(d, dtype=complex) / np.sqrt(d)]
    for k in range(1, d):
        for j in range(k):
            m = np.zeros((d, d), dtype=complex)
            m[j, k] = m[k, j] = 1 / np.sqrt(2)
            mats.append(m)
    for k in range(1, d):
        for j in range(k):
            m = np.zeros((d, d), dtype=complex)
            m[j, k] = -1j / np.sqrt(2)
            m[k, j] = 1j / np.sqrt(2)
            mats.append(m)
    for ell in range(1, d):
        diag = np.zeros(d)
        diag[:ell] = 1.0
        diag[ell] = -float(ell)
        mats.append(np.diag(diag).astype(complex) / np.sqrt(ell * (ell + 1)))
    return tuple(frozen(m) for m in mats)


@functools.lru_cache(maxsize=None)
def _coord_map(d: int):
    """Where hermitian_basis(d) coordinates live in a d x d matrix.

    Returns the strict lower and upper triangles, both in basis order (one
    off-diagonal pair per entry), and the d x d diagonal weight table: row 0
    holds the identity element, row l the l-th diagonal element.  The weights
    multiply by 1 / sqrt(l (l + 1)), as the basis's own complex division does,
    so coordinates agree with tr(B_k x) to the last bit.
    """
    lower = tuple(frozen(i) for i in np.tril_indices(d, -1))
    upper = lower[::-1]
    weights = np.tril(np.ones((d, d)), -1) - np.diag(np.arange(d))
    weights[0] = 1 / np.sqrt(d)
    for ell in range(1, d):
        weights[ell] *= 1 / np.sqrt(ell * (ell + 1))
    return lower, upper, frozen(weights)


# Entries of the off-diagonal basis pairs, written as hermitian_basis writes them.
_SYM = 1 / np.sqrt(2)
_ANTI_UP, _ANTI_LOW = -1j / np.sqrt(2), 1j / np.sqrt(2)


def basis_coords(x: np.ndarray, d: int) -> np.ndarray:
    """Coordinates of ``x`` in hermitian_basis(d): c_k = tr(B_k x).

    ``x`` is one d x d operator or a stack of them, shape (..., d, d); the
    result has shape (..., d^2).  Hermitian input gives real coordinates (up
    to roundoff).
    """
    x = _require_stack(x, (d, d), "operator")
    lower, upper, weights = _coord_map(d)
    diag = np.zeros(x.shape[:-2] + (d,), dtype=complex)
    for i in range(d):
        diag = diag + weights[:, i] * x[..., i, i, None]
    low, up = x[..., lower[0], lower[1]], x[..., upper[0], upper[1]]
    # Each sum runs from +0.0 in the index order of tr(B_k x), so even signed zeros agree with it.
    sym = 0.0 + _SYM * low + _SYM * up
    anti = 0.0 + _ANTI_UP * low + _ANTI_LOW * up
    return np.concatenate([diag[..., :1], sym, anti, diag[..., 1:]], axis=-1)


def from_basis_coords(c: np.ndarray, d: int) -> np.ndarray:
    """Inverse of :func:`basis_coords`, for one coordinate vector or a stack of them."""
    c = _require_stack(c, (d * d,), "coordinate vector")
    lower, upper, weights = _coord_map(d)
    n = len(lower[0])
    sym, anti = c[..., 1 : 1 + n], c[..., 1 + n : 1 + 2 * n]
    diag_c = np.concatenate([c[..., :1], c[..., 1 + 2 * n :]], axis=-1)
    x = np.zeros(c.shape[:-1] + (d, d), dtype=complex)
    x[..., upper[0], upper[1]] = 0.0 + sym * _SYM + anti * _ANTI_UP
    x[..., lower[0], lower[1]] = 0.0 + sym * _SYM + anti * _ANTI_LOW
    diag = np.zeros(c.shape[:-1] + (d,), dtype=complex)
    for ell in range(d):
        diag = diag + diag_c[..., ell, None] * weights[ell]
    x[..., range(d), range(d)] = diag
    return x


def trace_distance(rho: np.ndarray, sigma: np.ndarray, tol: ToleranceConfig = DEFAULT_TOL) -> float:
    """Trace distance (1/2) sum_i |lambda_i(rho - sigma)| between Hermitian operators."""
    rho = require_hermitian(rho, tol, "first argument")
    sigma = require_hermitian(sigma, tol, "second argument")
    if rho.shape != sigma.shape:
        raise DimensionError(f"shape mismatch: {rho.shape} vs {sigma.shape}")
    return float(0.5 * np.sum(np.abs(np.linalg.eigvalsh(rho - sigma))))
