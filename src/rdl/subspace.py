"""Spanned subspace of joint states, its reduced side, and its traceless kernel.

The family members are Hermitian, so their coordinates in a Hermitian operator
basis are real and the whole construction runs on real coordinate matrices.
That keeps every basis element of the span, and of the kernel, exactly
Hermitian by construction.  The span rank is first certified from the
members' Gram matrix, which needs no coordinates.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from .config import DEFAULT_TOL
from .errors import DimensionError, InputError, RdlError
from .families import StateFamily
from .operators import (
    BipartiteDims,
    _evolved_marginal,
    basis_coords,
    from_basis_coords,
    frozen,
    partial_trace_env,
)


@dataclass(frozen=True, eq=False)
class Subspace:
    """Span of a state family together with the fit of its marginals.

    ``marginals`` holds R, the real coordinates of Tr_E rho_i, one row per
    member.  ``fit`` is P = (D R)^+_r D, D = diag(1 / ||R_i||) and ^+_r the
    pseudo-inverse truncated to the ``reduced_dim`` singular values above
    ``tol_rank``; ``domain`` holds their right singular vectors, orthonormal
    rows spanning the reduced side.  For a system operator with coordinates
    c in that span, the weights w = c P combine the members into an
    operator with marginal c, with the least sum_i (w_i ||R_i||)^2.  A
    member whose marginal is within ``tol_rank`` of its own norm has
    D_i = 0.  Residuals and orthonormal bases are built on use, each as one
    read-only stack.
    """

    dims: BipartiteDims
    members: np.ndarray
    marginals: np.ndarray
    fit: np.ndarray
    domain: np.ndarray
    span_dim: int
    tol_rank: float
    _evolved: tuple | None = field(init=False, default=None, repr=False)  # (U, E) of the last call

    @property
    def reduced_dim(self) -> int:
        return len(self.domain)

    @property
    def kernel_dim(self) -> int:
        return self.span_dim - self.reduced_dim

    def evolved_marginals(self, u: np.ndarray) -> np.ndarray:
        """E, the real coordinates of Tr_E(U rho_i U^dag), one row per member, read-only.

        ``u`` is taken as already validated.  E is kept for the last
        propagator, with a copy of it: a call with equal entries reads it
        back, so a propagator changed in place gets a fresh E.
        """
        memo = self._evolved
        if memo is None or not np.array_equal(memo[0], u):
            evolved = basis_coords(_evolved_marginal(u, self.members, self.dims), self.dims.d_s).real
            evolved.setflags(write=False)
            memo = (frozen(u), evolved)
            object.__setattr__(self, "_evolved", memo)
        return memo[1]

    @functools.cached_property
    def residuals(self) -> np.ndarray:
        """The stack of g_i = rho_i - (R_i P) M, M the members; they span the kernel."""
        residuals = self.members - np.tensordot(self.marginals @ self.fit, self.members, axes=1)
        residuals.setflags(write=False)
        return residuals

    @functools.cached_property
    def span_basis(self) -> np.ndarray:
        """Orthonormal Hermitian basis of the members' span, one (span_dim, d_j, d_j) stack."""
        _, rows = _unit_rows(self.members, self.dims.joint)
        _, _, vt = np.linalg.svd(rows, full_matrices=False)
        basis = from_basis_coords(vt[: self.span_dim], self.dims.joint)
        basis.setflags(write=False)
        return basis

    @functools.cached_property
    def kernel_basis(self) -> np.ndarray:
        """Orthonormal kernel basis, one (kernel_dim, d_j, d_j) stack.

        It comes from the residuals' raw coordinates: normalizing them would
        blow roundoff-sized residuals up into directions.
        """
        d_j = self.dims.joint
        _, _, vt = np.linalg.svd(basis_coords(self.residuals, d_j).real, full_matrices=False)
        basis = from_basis_coords(vt[: self.kernel_dim], d_j)
        basis.setflags(write=False)
        return basis


def _row_norms(rows: np.ndarray) -> np.ndarray:
    """Euclidean norm of each row of a contiguous real matrix.

    A row whose squared norm overflows, or falls below the smallest normal
    float, has its norm taken again scaled by its largest entry.
    """
    with np.errstate(over="ignore", under="ignore"):
        sq = np.vecdot(rows, rows)
    norms = np.sqrt(sq)  # on contiguous rows, bit for bit np.linalg.norm per row
    redo = np.flatnonzero(np.isinf(sq) | (sq < np.finfo(float).tiny))
    scale = np.abs(rows[redo]).max(axis=1, initial=0.0)
    redo, scale = redo[scale > 0], scale[scale > 0]
    scaled = rows[redo] / scale[:, None]
    norms[redo] = scale * np.sqrt(np.vecdot(scaled, scaled))
    return norms


def _unit_rows(ops: np.ndarray, d: int):
    """Indices and unit-normalized real coordinates of the operators of nonzero norm."""
    rows = np.ascontiguousarray(basis_coords(ops, d).real)
    norms = _row_norms(rows)
    keep = np.flatnonzero(norms > 0)
    return keep, rows[keep] / norms[keep, None]


def _full_rank_certified(stack: np.ndarray, gram: np.ndarray, tol_rank: float) -> bool:
    """True when a Cholesky factor proves every singular value of the unit rows above 2 tol_rank.

    The rows of :func:`_unit_rows` are the coordinates of H_i / ||H_i||, H_i
    the Hermitian part of x_i = H_i + A_i.  Their Gram matrix needs no
    coordinates.  ``gram`` is V V^T, V the stack's float view (n, m) with
    m = 2 d^2 and rows v_i, so G_ij = Re tr(x_i^dag x_j) =
    tr(H_i H_j) + Re tr(A_i^dag A_j): the cross terms are imaginary.  The
    second term is the Gram matrix of the anti-Hermitian parts, and
    2 ||A_i||^2 = G_ii - Re tr(x_i^2).  Scaled by D = diag(G_ii)^(1/2),
    D^-1 G D^-1 exceeds D^-1 G_H D^-1 by a positive semidefinite term whose
    trace, hence largest eigenvalue, is s_A = sum_i ||A_i||^2 / G_ii.  The
    unit-row Gram matrix is T D^-1 G_H D^-1 T with
    T = diag(G_ii^(1/2) / ||H_i||) >= 1, so
    sigma_min^2 >= lambda_min(D^-1 G D^-1) - s_A.

    Roundoff.  The Gram product errs entrywise by at most
    m eps ||v_i|| ||v_j||, so by m eps n in norm once scaled, and each
    ||A_i||^2 by m eps G_ii, so s_A by m eps n.  The bound takes n, not the
    computed ||G||: the product's error follows |V||V|^T, which can exceed
    V V^T in norm.  A Cholesky factorization of an n x n matrix of unit
    diagonal that completes is exact for a perturbation of norm
    (n + 1) n eps at most; the scaling, the shift and T's computed diagonal
    add (2 n + m + 5) eps.  floor = (3 m + n + 8) n eps bounds the sum, and
    twice that covers the higher-order terms.  So a factor of
    D^-1 G D^-1 - (2 floor + s_A + 4 tol_rank^2) I proves
    sigma_min > 2 tol_rank, and the SVD of the computed rows counts every
    row while its own roundoff stays under tol_rank.  With tol_rank not
    above ``floor``, which bounds the same kinds of error, the SVD's count
    is itself roundoff, and the certificate is not tried; nor when a Gram
    entry overflows or a diagonal one is zero or small enough to underflow.
    False means "not certified", not "rank deficient".
    """
    n, d = len(stack), stack.shape[-1]
    m = 2 * d * d
    eps, tiny = np.finfo(float).eps, np.finfo(float).tiny
    sq = np.diagonal(gram)
    if not (np.isfinite(gram).all() and sq.min() > tiny / eps):
        return False
    floor = (3 * m + n + 8) * n * eps
    anti = np.maximum(sq - np.einsum("nab,nba->n", stack, stack).real, 0) / 2
    shift = 2 * floor + np.sum(anti / sq) + 4 * tol_rank**2
    if not (floor < tol_rank and shift < 1):
        return False
    inv = 1 / np.sqrt(sq)
    try:
        np.linalg.cholesky(gram * inv * inv[:, None] - shift * np.eye(n))
    except np.linalg.LinAlgError:
        return False
    return True


def _require_finite(stack: np.ndarray) -> None:
    """Raise InputError naming the first operator with a NaN or infinite entry."""
    bad = np.flatnonzero(~np.isfinite(stack).all(axis=(1, 2)))
    if len(bad):
        raise InputError(f"operator {bad[0]} has a non-finite entry")


def _span_rank(stack: np.ndarray, d: int, tol_rank: float) -> int:
    """Number of singular values of the unit coordinate rows above ``tol_rank``.

    Up to d^2 operators are first offered to :func:`_full_rank_certified`;
    the SVD runs only when the certificate fails.  The Gram diagonal is
    finite only if every entry is, so a finite one spares the entry scan;
    an infinite one with finite entries has overflowed and goes to the SVD.
    """
    n = len(stack)
    if n <= d * d:
        flat = np.ascontiguousarray(stack).reshape(n, -1).view(float)
        with np.errstate(over="ignore"):  # an overflowed diagonal sends the count to the SVD
            gram = flat @ flat.T
        if not np.isfinite(np.diagonal(gram)).all():
            _require_finite(stack)
        elif _full_rank_certified(stack, gram, tol_rank):
            return n
    else:
        _require_finite(stack)
    _, rows = _unit_rows(stack, d)
    if not len(rows):
        raise DimensionError("all supplied operators are zero")
    return int(np.sum(np.linalg.svd(rows, compute_uv=False) > tol_rank))


def _marginal_fit(stack: np.ndarray, dims: BipartiteDims, tol_rank: float):
    """R, P and the domain rows of :class:`Subspace`, from one SVD of D R.

    A row of D R is zero, and its member counts as kernel, when the
    member's marginal is within ``tol_rank`` of the member's own norm: a
    relative cut, so the split does not depend on the stack's scale.
    """
    n, d_s = len(stack), dims.d_s
    marginals = np.ascontiguousarray(basis_coords(partial_trace_env(stack, dims), d_s).real)
    norms = _row_norms(marginals)
    sizes = _row_norms(np.ascontiguousarray(stack).reshape(n, -1).view(float))
    inv = np.divide(1.0, norms, out=np.zeros(n), where=norms > tol_rank * sizes)
    u, s, vt = np.linalg.svd(marginals * inv[:, None], full_matrices=False)
    r = int(np.sum(s > tol_rank))
    fit = (vt[:r].T / s[:r]) @ (u[:, :r].T * inv)
    return frozen(marginals), frozen(fit), frozen(vt[:r])


def build_subspace_from_operators(
    ops,
    dims: BipartiteDims,
    tol_rank: float = DEFAULT_TOL.rank,
) -> Subspace:
    """Span construction for arbitrary Hermitian joint operators.

    Same machinery as :func:`build_subspace` but without density-matrix
    validation, so callers can hand in a custom operator subspace directly.
    ``ops`` is a sequence of operators or a stack (n, d_j, d_j); a read-only
    complex stack, such as ``StateFamily.stack``, is used without a copy.
    The span rank counts the singular values above ``tol_rank`` of the
    operators' unit-normalized Hermitian coordinates.  When n <= d_j^2, one
    Cholesky factorization of the operators' scaled Gram matrix first tries
    to certify all n of them (:func:`_full_rank_certified`), and the
    coordinates and their SVD are built only when it fails.  The marginals'
    rank, ``reduced_dim``, counts the singular values of their
    unit-normalized coordinates above ``tol_rank`` (:func:`_marginal_fit`).
    An operator with a NaN or infinite entry raises InputError.
    """
    if not isinstance(ops, np.ndarray):
        ops = list(ops)
    if not len(ops):
        raise DimensionError("need at least one operator to span a subspace")
    d_j = dims.joint
    for idx, op in enumerate(ops):
        if np.shape(op) != (d_j, d_j):
            raise DimensionError(
                f"operator {idx} has shape {np.shape(op)}, expected ({d_j}, {d_j})"
            )

    stack = np.asarray(ops, dtype=complex)
    if stack is ops and ops.flags.writeable:
        stack = np.array(stack)  # the caller's array stays the caller's
    stack.setflags(write=False)
    span_dim = _span_rank(stack, d_j, tol_rank)
    marginals, fit, domain = _marginal_fit(stack, dims, tol_rank)
    if len(domain) > span_dim:
        raise RdlError(
            f"the marginals have rank {len(domain)} in a span of rank {span_dim}; "
            f"the input sits too close to the rank tolerance {tol_rank:.1e}"
        )
    return Subspace(
        dims=dims,
        members=stack,
        marginals=marginals,
        fit=fit,
        domain=domain,
        span_dim=span_dim,
        tol_rank=tol_rank,
    )


def build_subspace(family: StateFamily, tol_rank: float = DEFAULT_TOL.rank) -> Subspace:
    """Span rank of the family and the fit of its marginals."""
    return build_subspace_from_operators(family.stack, family.dims, tol_rank)
