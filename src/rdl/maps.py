"""Assignment map, dynamical map, and its signed operator-sum decomposition.

The dynamical map is the composition

    reduce after conjugate after assign

where the assignment lifts a system operator into the spanned subspace as
a combination of the members, weighted by the subspace's fit of their
marginals.  The superoperator acts on
Hermitian-basis coordinates; the Choi matrix uses the unnormalized convention

    choi = sum_jk |j><k| (x) Phi(|j><k|)

so trace preservation reads: partial trace of choi over the output factor
equals the identity.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import DEFAULT_TOL, ToleranceConfig
from .consistency import ConsistencyReport
from .errors import DimensionError, HermiticityError, IncompleteDomainError, NotInSpanError
from .operators import (
    BipartiteDims,
    _require_propagator,
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

    def apply(self, x: np.ndarray, tol: float | None = None) -> np.ndarray:
        """Lift a d_s x d_s operator, or a stack (..., d_s, d_s) of them, in one contraction.

        Raises NotInSpanError, carrying the worst residual, when the lift's
        marginal misses any operator by more than ``tol`` in max-norm
        (defaults to the subspace's rank tolerance).
        """
        sub = self.subspace
        d_s = sub.dims.d_s
        if tol is None:
            tol = sub.tol_rank
        x = np.asarray(x, dtype=complex)
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

    ``extension`` records how the map was completed outside the reduced span:
    "zero" kills the orthogonal complement, "none" asserts the span already
    fills the whole operator space.  ``domain_projector`` projects coordinate
    vectors onto the reduced span.  ``consistency_certified`` is True only
    when the caller supplied a passing consistency report at build time.
    """

    d_s: int
    matrix: np.ndarray  # (d_s^2, d_s^2) complex
    choi: np.ndarray  # (d_s^2, d_s^2) complex
    extension: str
    consistency_certified: bool
    domain_projector: np.ndarray  # (d_s^2, d_s^2) real symmetric

    def apply(self, x: np.ndarray) -> np.ndarray:
        """Image of a d_s x d_s operator, or of each operator in a stack (..., d_s, d_s)."""
        c = basis_coords(x, self.d_s)
        return from_basis_coords((self.matrix @ c[..., None])[..., 0], self.d_s)


@dataclass(frozen=True)
class MapVerdicts:
    hermitian_preserving: bool
    trace_preserving: bool
    completely_positive: bool
    choi_min_eigenvalue: float


def _choi_from_matrix(matrix: np.ndarray, d_s: int) -> np.ndarray:
    units = np.eye(d_s * d_s, dtype=complex).reshape(-1, d_s, d_s)  # unit j * d_s + k is |j><k|
    outs = from_basis_coords((matrix @ basis_coords(units, d_s).T).T, d_s)
    return outs.reshape(d_s, d_s, d_s, d_s).transpose(0, 2, 1, 3).reshape(d_s * d_s, d_s * d_s)


def build_dynamical_map(
    assignment: AssignmentMap,
    u: np.ndarray,
    consistency: ConsistencyReport | None = None,
    extension: str = "zero",
    tols: ToleranceConfig = DEFAULT_TOL,
) -> Superoperator:
    """Superoperator of reduce after conjugate after assign.

    The members' evolved marginals E, as real coordinate rows, give the
    whole matrix at once: its transpose is P E, P the subspace's fit.  With
    ``extension="zero"`` the orthogonal complement of the span maps to zero;
    ``extension="none"`` demands the span be the full operator space and
    raises IncompleteDomainError otherwise.
    """
    if extension not in ("zero", "none"):
        raise ValueError(f'extension must be "zero" or "none", got {extension!r}')
    sub = assignment.subspace
    d_s = sub.dims.d_s
    dim = d_s * d_s
    u = _require_propagator(u, sub.dims, tols)
    if extension == "none" and sub.reduced_dim < dim:
        raise IncompleteDomainError(
            f"reduced span has dimension {sub.reduced_dim} < {dim}; "
            'an explicit extension is required (use extension="zero")'
        )

    matrix = (sub.fit @ sub.evolved_marginals(u)).T.astype(complex)

    return Superoperator(
        d_s=d_s,
        matrix=frozen(matrix),
        choi=frozen(_choi_from_matrix(matrix, d_s)),
        extension=extension,
        consistency_certified=bool(consistency is not None and consistency.consistent),
        domain_projector=frozen(sub.domain.T @ sub.domain),
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


def _phase_fixed(vec: np.ndarray) -> np.ndarray:
    """Rotate the global phase so the first non-negligible entry is real positive."""
    for entry in vec:
        if abs(entry) > 1e-12:
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


def decompose_signed_kraus(superop: Superoperator, tol: float = DEFAULT_TOL.herm) -> SignedKraus:
    """Signed Kraus operators from the Choi eigendecomposition.

    Eigenvalues within ``tol`` of zero are dropped; each kept eigenvector v
    becomes sqrt(|lambda|) unvec(v) with column-major unvec, carrying the
    sign of its eigenvalue.  Eigenvalues closer than ``tol`` form a cluster
    whose vectors are pinned to a basis of their common eigenspace
    (:func:`_pinned_clusters`); a global phase fix per vector does the rest.
    """
    choi = superop.choi
    dev = max_norm(choi - choi.conj().T)
    if not dev <= tol:  # written so that a NaN deviation fails too
        raise HermiticityError(
            f"Choi matrix is not Hermitian (max deviation {dev:.3e}); "
            "the map does not preserve Hermiticity"
        )
    evals, evecs = np.linalg.eigh((choi + choi.conj().T) / 2.0)
    evecs = _pinned_clusters(evals, evecs, tol)
    d = superop.d_s
    terms = []
    for lam, vec in zip(evals, evecs.T):
        if abs(lam) <= tol:
            continue
        op = np.sqrt(abs(lam)) * _phase_fixed(vec).reshape(d, d, order="F")
        terms.append((float(np.sign(lam)), frozen(op)))
    return SignedKraus(terms=tuple(terms))


def verdicts(superop: Superoperator, tol: float = DEFAULT_TOL.psd) -> MapVerdicts:
    """Hermiticity preservation, trace preservation, and complete positivity.

    All three are read off the Choi matrix: Hermiticity of choi, partial
    trace over the output factor against the identity, and the minimum
    eigenvalue against -tol.
    """
    choi = superop.choi
    d_s = superop.d_s
    herm = max_norm(choi - choi.conj().T) <= tol
    tp = (
        max_norm(partial_trace_env(choi, BipartiteDims(d_s, d_s)) - np.eye(d_s)) <= tol
    )
    if herm:
        lo = float(np.linalg.eigvalsh((choi + choi.conj().T) / 2.0)[0])
    else:
        lo = float(np.min(np.linalg.eigvals(choi).real))
    return MapVerdicts(
        hermitian_preserving=herm,
        trace_preserving=tp,
        completely_positive=herm and lo >= -tol,
        choi_min_eigenvalue=lo,
    )
