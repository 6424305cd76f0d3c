"""Families of joint system-environment states, validated once as one member stack.

Any split d_s x d_e; the two-qubit product-Pauli parametrization and the
families built from it live in :mod:`rdl.two_qubit`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .config import DEFAULT_TOL, ToleranceConfig
from .errors import DimensionError, EmptyFamilyError, InputError
from .operators import BipartiteDims, partial_trace_env, require_density, tensor

_BLOCK_ENTRIES = 2**13  # caps members x d_j^2 per validation block (128 KB complex)


@dataclass(frozen=True, eq=False)
class StateFamily:
    """A finite set of joint density matrices on one system-environment split.

    The validated members are held once, as the read-only ``stack`` of shape
    (n, d_j, d_j); ``members`` holds views of its rows.  ``tol``, a
    ToleranceConfig, is what they were validated with, and the one source of
    every later threshold: the subspace, the consistency checks, the map and
    its verdicts all read it.
    """

    dims: BipartiteDims
    members: tuple[np.ndarray, ...]
    label: str = ""
    tol: ToleranceConfig = field(default=DEFAULT_TOL, repr=False)
    stack: np.ndarray = field(init=False, repr=False)  # read-only (n, d_j, d_j); members view it

    def __post_init__(self):
        if not isinstance(self.tol, ToleranceConfig):
            raise InputError(f"tol must be a ToleranceConfig, got {type(self.tol).__name__}")
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

    The trace test runs once over the whole stack.  The Hermiticity test then
    reads the members in blocks of ``_BLOCK_ENTRIES // d^2``, up to the block
    holding the first non-Hermitian one; no later member can be the first
    rejected.  Positivity is tested on the members before that one, so it
    never sees a NaN (which fails Hermiticity first), in three steps:

    1. each block is Cholesky-factored as given;
    2. from the first block whose factorization fails (a singular member,
       such as a pure state), that block and every later one are factored
       as rho + (psd / 2) I instead;
    3. when that fails too, or when psd / 2 does not clear the roundoff
       floor 64 d eps (then nothing is factored), one ``eigvalsh`` of that
       block's members decides; later blocks are still factored shifted.
    """
    n, d = stack.shape[0], stack.shape[-1]
    with np.errstate(invalid="ignore"):  # +inf and -inf on one diagonal sum to NaN
        bad = ~(np.abs(np.trace(stack, axis1=1, axis2=2) - 1.0) <= tol.trace)
    block = max(1, _BLOCK_ENTRIES // (d * d))
    scratch = np.empty((min(block, n), d, d), dtype=complex)  # reused by every block
    # The shift the next factorization uses; None when positivity is left to eigvalsh.
    shift = 0.0 if tol.psd / 2 > 64 * d * np.finfo(float).eps else None
    checked = n
    for lo in range(0, n, block):
        part = stack[lo : lo + block]
        non_hermitian = _non_hermitian(part, tol.herm, scratch)
        bad[lo : lo + len(part)] |= non_hermitian
        if non_hermitian.any():
            checked = lo + int(np.argmax(non_hermitian))
        hermitian = part[: checked - lo]
        if shift == 0.0 and not _positivity_certified(hermitian, 0.0, scratch):
            shift = tol.psd / 2  # a singular member: this block and every later one are shifted
        if shift is None or (shift and not _positivity_certified(hermitian, shift, scratch)):
            bad[lo : lo + len(hermitian)] |= ~(np.linalg.eigvalsh(hermitian)[:, 0] >= -tol.psd)
        if checked < n:
            break
    return np.flatnonzero(bad)


def _non_hermitian(stack: np.ndarray, herm: float, out: np.ndarray) -> np.ndarray:
    """Whether max |X - X^dag| > ``herm`` for each matrix in ``stack``, NaN counted as above.

    X - X^dag is written into ``out``.  Where neither its real nor its
    imaginary parts exceed herm / 2, its modulus is at most herm / sqrt(2);
    only the matrices that miss this bound, NaN among them, get the modulus
    itself, the same one :func:`require_hermitian` takes.
    """
    k = len(stack)
    diff = np.conjugate(stack.swapaxes(1, 2), out=out[:k])
    with np.errstate(invalid="ignore"):  # an infinite diagonal gives inf - inf = NaN
        np.subtract(stack, diff, out=diff)
        parts = diff.view(float).reshape(k, -1)
        outside = ~(np.maximum(parts.max(axis=1), -parts.min(axis=1)) <= herm / 2)
        if outside.any():
            near = np.flatnonzero(outside)
            outside[near] = ~(np.abs(diff[near]).max(axis=(1, 2)) <= herm)
    return outside


def _positivity_certified(stack: np.ndarray, shift: float, out: np.ndarray) -> bool:
    """True when every rho + shift I of the matrices in ``stack`` has a finite Cholesky factor.

    With ``shift`` 0 the members are factored as given, without a copy;
    otherwise the shifted matrices are written into ``out``, at least as long
    as ``stack``, by one copy and an add on the diagonals.  The factor exists
    only if each min eigenvalue is at least -shift less the factorization's
    roundoff.  :func:`_invalid_members` shifts by 0 or psd / 2 and factors
    nothing unless psd / 2 clears that roundoff (64 d eps), so every member
    then passes the ``eigvalsh`` cut at -psd.  A factorization can also
    finish without error and leave NaN in the factor (an entry near the
    largest float overflows it); that certifies nothing.  Only the diagonal
    needs the test: a non-finite L_ik, k < i, enters
    L_ii = sqrt(a_ii - sum_k |L_ik|^2), and numpy zeroes the upper triangle.
    False means "not certified", not "some member fails".
    """
    if shift:
        d = stack.shape[-1]
        shifted = out[: len(stack)]
        np.copyto(shifted, stack)
        shifted.reshape(-1, d * d)[:, :: d + 1] += shift  # the diagonals; the stack may be empty
        stack = shifted
    try:
        factor = np.linalg.cholesky(stack)
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


def random_density_matrix(d: int, rng: np.random.Generator) -> np.ndarray:
    """Random full-rank density matrix from a normalized Ginibre draw."""
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real

