"""Assignment map, dynamical map, and its signed operator-sum decomposition.

The dynamical map is the composition

    reduce after conjugate after assign

where the assignment lifts a system operator into the spanned subspace as
a combination of the members, weighted by the subspace's fit of their
marginals.  The superoperator is a real matrix on Hermitian-basis
coordinates; the Choi matrix derived from it uses the unnormalized convention

    choi = sum_jk |j><k| (x) Phi(|j><k|)

so trace preservation reads: partial trace of choi over the output factor
equals the identity.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .config import DEFAULT_TOL, ToleranceConfig
from .consistency import ConsistencyReport
from .errors import DimensionError, InputError, NotInSpanError
from .operators import (
    BipartiteDims,
    basis_coords,
    from_basis_coords,
    frozen,
    max_norm,
    partial_trace_env,
)
from .subspace import Subspace


@dataclass(frozen=True, eq=False)
class AssignmentMap:
    """Linear lift of system operators into the spanned joint subspace.

    An operator with coordinates c maps to sum_i w_i rho_i with weights
    w = c P, P the subspace's fit; complex operators take complex weights.
    """

    subspace: Subspace

    def apply(self, x: np.ndarray) -> np.ndarray:
        """Lift a d_s x d_s operator, or a stack (..., d_s, d_s) of them, in one contraction.

        Raises InputError on a non-finite entry, and NotInSpanError, carrying
        the worst residual, when the lift's marginal misses any operator by
        more than the subspace's ``tol.rank`` in max-norm.
        """
        sub = self.subspace
        d_s, tol = sub.dims.d_s, sub.tol.rank
        x = np.asarray(x, dtype=complex)
        if not np.isfinite(x).all():
            raise InputError("operator to lift must be finite")
        weights = basis_coords(x, d_s) @ sub.fit
        worst = max_norm(x - from_basis_coords(weights @ sub.marginals, d_s))
        if worst > tol:
            raise NotInSpanError(
                f"operator lies outside the reduced span: residual {worst:.3e} > {tol:.3e}",
                residual=worst,
            )
        return np.tensordot(weights, sub.members, axes=1)


def build_assignment(subspace: Subspace) -> AssignmentMap:
    """Assignment map induced by a subspace's fit of its marginals."""
    if subspace.reduced_dim == 0:
        raise DimensionError("subspace has no independent reduced states to lift")
    return AssignmentMap(subspace)


@dataclass(frozen=True, eq=False)
class Superoperator:
    """Matrix form of the dynamical map on Hermitian-basis coordinates.

    The map preserves Hermiticity, so ``matrix`` is real; ``choi`` is derived
    from it once.  The map is fixed only on the reduced span and sends its
    orthogonal complement to zero.  ``consistency_certified`` is the verdict
    of the kernel test that :func:`build_dynamical_map` read the matrix from.
    The signed Kraus form and the verdicts read their thresholds from
    ``tol``, the family's when the map is built from a subspace.
    """

    d_s: int
    matrix: np.ndarray  # read-only float (d_s^2, d_s^2)
    consistency_certified: bool
    tol: ToleranceConfig = field(default=DEFAULT_TOL, repr=False)
    choi: np.ndarray = field(init=False, repr=False)  # read-only (d_s^2, d_s^2), exactly Hermitian

    def __post_init__(self):
        if not isinstance(self.tol, ToleranceConfig):
            raise InputError(f"tol must be a ToleranceConfig, got {type(self.tol).__name__}")
        matrix, side = np.asarray(self.matrix), self.d_s * self.d_s
        if matrix.shape != (side, side):
            raise DimensionError(f"map matrix has shape {matrix.shape}, expected ({side}, {side})")
        if matrix.dtype.kind not in "iuf" or not np.isfinite(matrix).all():
            raise InputError(f"map matrix must be real and finite, got {matrix.dtype} entries")
        object.__setattr__(self, "matrix", frozen(np.asarray(matrix, dtype=float)))
        object.__setattr__(self, "choi", frozen(_choi_from_matrix(self.matrix, self.d_s)))

    def apply(self, x: np.ndarray) -> np.ndarray:
        """Image of a d_s x d_s operator, or of each operator in a stack (..., d_s, d_s)."""
        c = basis_coords(x, self.d_s)
        return from_basis_coords((self.matrix @ c[..., None])[..., 0], self.d_s)


@dataclass(frozen=True)
class MapVerdicts:
    trace_preserving: bool
    completely_positive: bool
    choi_min_eigenvalue: float


def _choi_from_matrix(matrix: np.ndarray, d_s: int) -> np.ndarray:
    """Exactly Hermitian for a real ``matrix``, which keeps |j><k| and |k><j| conjugate."""
    units = np.eye(d_s * d_s, dtype=complex).reshape(-1, d_s, d_s)  # unit j * d_s + k is |j><k|
    outs = from_basis_coords((matrix @ basis_coords(units, d_s).T).T, d_s)
    return outs.reshape(d_s, d_s, d_s, d_s).transpose(0, 2, 1, 3).reshape(d_s * d_s, d_s * d_s)


def build_dynamical_map(
    assignment: AssignmentMap,
    u: np.ndarray,
    consistency: ConsistencyReport,
) -> Superoperator:
    """Superoperator of reduce after conjugate after assign, read off a kernel test.

    The members' evolved marginals E, as real coordinate rows, give the
    whole matrix at once: its transpose is P E, P the subspace's fit, as the
    kernel test formed it.  ``consistency`` must be that test's report on
    the assignment's own subspace and a propagator equal to ``u``, else
    InputError.  The map is certified exactly when it passed, and keeps the
    subspace's ``tol``.
    """
    sub = assignment.subspace
    if consistency.subspace is not sub or not np.array_equal(consistency.propagator, u):
        raise InputError("the report is not the kernel test of this subspace and u")
    return Superoperator(
        d_s=sub.dims.d_s,
        matrix=consistency.fitted.T,
        consistency_certified=consistency.consistent,
        tol=sub.tol,
    )


@dataclass(frozen=True, eq=False)
class SignedKraus:
    """Operator-sum form Phi(rho) = sum_i e_i E_i rho E_i^dag with e_i = +/-1.

    Terms are ordered by ascending Choi eigenvalue, so negative-weight
    operators come first.  For a trace-preserving map the signed completeness
    sum equals the identity.
    """

    terms: tuple[tuple[float, np.ndarray], ...]

    def reconstruct(self, rho: np.ndarray) -> np.ndarray:
        out = np.zeros_like(np.asarray(rho, dtype=complex))
        for e, op in self.terms:
            out += e * (op @ rho @ op.conj().T)
        return out

    def completeness_defect(self) -> float:
        """Max-norm of sum_i e_i E_i^dag E_i - I (zero iff trace preserving)."""
        if not self.terms:
            return 1.0
        d = self.terms[0][1].shape[0]
        acc = np.zeros((d, d), dtype=complex)
        for e, op in self.terms:
            acc += e * (op.conj().T @ op)
        return max_norm(acc - np.eye(d))


def _phase_fixed(vec: np.ndarray, tol: float) -> np.ndarray:
    """Rotate the global phase so the first entry above ``tol`` in modulus is real positive."""
    for entry in vec:
        if abs(entry) > tol:
            return vec * (entry.conjugate() / abs(entry))
    return vec


def _pinned_clusters(evals: np.ndarray, evecs: np.ndarray, tol: float) -> np.ndarray:
    """``evecs`` with each cluster of nearly equal eigenvalues turned to a fixed basis.

    The ascending ``evals`` split into clusters at gaps above ``tol``.  Any
    orthonormal basis V of a cluster's eigenspace is as good as another, so
    roundoff can rotate it freely; V Y, Y the eigenvectors of
    V^dag diag(0, 1, ..., N - 1) V, depends on the space alone, up to the
    phase of each column.
    """
    evecs = evecs.copy()
    probe = np.arange(len(evals))[:, None]
    for idx in np.split(np.arange(len(evals)), np.flatnonzero(np.diff(evals) > tol) + 1):
        if len(idx) > 1:
            v = evecs[:, idx]
            evecs[:, idx] = v @ np.linalg.eigh(v.conj().T @ (probe * v))[1]
    return evecs


def decompose_signed_kraus(superop: Superoperator) -> SignedKraus:
    """Signed Kraus operators from the Choi eigendecomposition.

    With ``tol`` the map's ``tol.herm``, eigenvalues within ``tol`` of zero
    are dropped; each kept eigenvector v becomes sqrt(|lambda|) unvec(v)
    with column-major unvec, carrying the sign of its eigenvalue.
    Eigenvalues closer than ``tol`` form a cluster whose vectors are pinned
    to a basis of their common eigenspace (:func:`_pinned_clusters`); a
    global phase fix per vector, making its first entry above ``tol`` in
    modulus real positive, does the rest.
    """
    tol = superop.tol.herm
    evals, evecs = np.linalg.eigh(superop.choi)
    evecs = _pinned_clusters(evals, evecs, tol)
    d = superop.d_s
    terms = []
    for lam, vec in zip(evals, evecs.T):
        if abs(lam) <= tol:
            continue
        op = np.sqrt(abs(lam)) * _phase_fixed(vec, tol).reshape(d, d, order="F")
        terms.append((float(np.sign(lam)), frozen(op)))
    return SignedKraus(terms=tuple(terms))


def verdicts(superop: Superoperator) -> MapVerdicts:
    """Trace preservation and complete positivity.

    Hermiticity preservation needs no verdict: a real map matrix has it by
    construction.  Both are read off the Choi matrix, each against the map's
    ``tol.psd``: its partial trace over the output factor against the
    identity, and its minimum eigenvalue against -tol.psd.
    """
    d_s, tol = superop.d_s, superop.tol.psd
    tp = max_norm(partial_trace_env(superop.choi, BipartiteDims(d_s, d_s)) - np.eye(d_s)) <= tol
    lo = float(np.linalg.eigvalsh(superop.choi)[0])
    return MapVerdicts(
        trace_preserving=tp,
        completely_positive=lo >= -tol,
        choi_min_eigenvalue=lo,
    )
