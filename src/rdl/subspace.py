"""Spanned subspace of joint states, its reduced side, and its traceless kernel.

The family members are Hermitian, so their coordinates in a Hermitian operator
basis are real and the whole construction runs on real coordinate matrices.
That keeps every basis element of the span, and of the kernel, exactly
Hermitian by construction.  The span rank is first certified from the
members' Gram matrix, which needs no coordinates.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .config import DEFAULT_TOL
from .errors import DimensionError, InputError, NotInSpanError, RdlError
from .families import StateFamily
from .operators import (
    BipartiteDims,
    basis_coords,
    from_basis_coords,
    frozen,
    max_norm,
    partial_trace_env,
)


@dataclass(frozen=True, eq=False)
class ReducedExpansion:
    """Least-squares expansion of system operators over the independent reduced states.

    Every field carries the stack shape of the expanded input.
    """

    coefficients: np.ndarray  # complex, (..., reduced_dim): one per independent pair
    remainder: np.ndarray  # x - sum_i d_i rho_s_i, (..., d_s, d_s)
    residual: np.ndarray  # max-norm of each remainder, shape (...)


@dataclass(frozen=True, eq=False)
class Subspace:
    """Span of a state family together with its reduced-side structure.

    ``pairs`` holds (reduced, joint) matrices for a maximal independent set of
    reduced states, scanned greedily in member order.  Each member splits as
    rho_i = A(Tr_E rho_i) + g_i, A the assignment lift; the residuals g_i span
    the traceless kernel.  Residuals and orthonormal bases are built on use,
    each as one read-only stack.
    """

    dims: BipartiteDims
    members: np.ndarray
    pairs: tuple[tuple[np.ndarray, np.ndarray], ...]
    span_dim: int
    tol_rank: float

    @property
    def reduced_dim(self) -> int:
        return len(self.pairs)

    @property
    def kernel_dim(self) -> int:
        return self.span_dim - self.reduced_dim

    @functools.cached_property
    def residuals(self) -> np.ndarray:
        """The stack of g_i = rho_i - A(Tr_E rho_i); every marginal lifts, whatever its residual."""
        residuals = self.members - self.lift(partial_trace_env(self.members, self.dims), tol=np.inf)
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
        blow the pair members' roundoff residuals up into directions.
        """
        d_j = self.dims.joint
        _, _, vt = np.linalg.svd(basis_coords(self.residuals, d_j).real, full_matrices=False)
        basis = from_basis_coords(vt[: self.kernel_dim], d_j)
        basis.setflags(write=False)
        return basis

    def expand_reduced(self, x: np.ndarray, tol: float | None = None) -> ReducedExpansion:
        """Expand a d_s x d_s operator, or a stack of them, over the independent reduced states.

        Solves the least-squares problem min || x - sum_i d_i rho_s_i || in
        Hilbert-Schmidt norm for every operator of ``x``, shape (..., d_s, d_s),
        as one solve with many right-hand sides; complex coefficients are
        allowed.  Raises NotInSpanError, carrying the worst residual, when any
        operator's max-norm residual exceeds ``tol`` (defaults to the
        subspace's rank tolerance).
        """
        if tol is None:
            tol = self.tol_rank
        x = np.asarray(x, dtype=complex)
        d_s = self.dims.d_s
        if x.shape[-2:] != (d_s, d_s):
            raise DimensionError(f"expected {d_s}x{d_s} operators, got shape {x.shape}")
        reds = np.array([red for red, _ in self.pairs]).reshape(-1, d_s, d_s)
        rhs = basis_coords(x, d_s).reshape(-1, d_s * d_s).T
        d, *_ = np.linalg.lstsq(basis_coords(reds, d_s).T, rhs, rcond=None)
        d = d.T.reshape(x.shape[:-2] + (len(reds),))
        remainder = x - np.tensordot(d, reds, axes=1)
        residual = np.abs(remainder).max(axis=(-2, -1))
        worst = max_norm(residual)
        if worst > tol:
            raise NotInSpanError(
                f"operator lies outside the reduced span: residual {worst:.3e} > {tol:.3e}",
                residual=worst,
            )
        return ReducedExpansion(
            coefficients=frozen(d), remainder=frozen(remainder), residual=frozen(residual)
        )

    def lift(self, x: np.ndarray, tol: float | None = None) -> np.ndarray:
        """Joint partners weighted by :meth:`expand_reduced` coefficients, for a stack at once."""
        d_j = self.dims.joint
        joints = np.array([joint for _, joint in self.pairs]).reshape(-1, d_j, d_j)
        return np.tensordot(self.expand_reduced(x, tol).coefficients, joints, axes=1)


def _unit_rows(ops: np.ndarray, d: int, floor: float = 0.0):
    """Indices and unit-normalized real coordinates of the operators with norm above ``floor``."""
    rows = np.ascontiguousarray(basis_coords(ops, d).real)
    norms = np.sqrt(np.vecdot(rows, rows))  # on contiguous rows, bit for bit np.linalg.norm per row
    keep = np.flatnonzero(norms > floor)
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


def greedy_independent(rows, tol: float, limit: int) -> list[int]:
    """Indices of the rows that, scanned in order, each grow the rank of the pile.

    A row joins when stacking it keeps the smallest singular value of the
    pile above ``tol``; the scan stops once ``limit`` rows have joined.
    """
    kept, pile = [], []
    for idx, row in enumerate(rows):
        if np.linalg.svd(np.vstack(pile + [row]), compute_uv=False)[-1] > tol:
            kept.append(idx)
            pile.append(row)
            if len(kept) == limit:
                break
    return kept


def _select_pairs(ops, dims: BipartiteDims, tol_rank: float):
    """Greedy scan, in input order, for reduced operators that grow the rank.

    Reduced operators enter the scan as unit-normalized coordinates; those
    with norm within ``tol_rank`` are skipped.
    """
    ops = np.asarray(ops, dtype=complex)
    reds = partial_trace_env(ops, dims)
    candidates, rows = _unit_rows(reds, dims.d_s, tol_rank)
    kept = greedy_independent(rows, tol_rank, dims.d_s * dims.d_s)
    return tuple((frozen(reds[candidates[i]]), frozen(ops[candidates[i]])) for i in kept)


def select_independent(family: StateFamily, tol_rank: float = DEFAULT_TOL.rank):
    """Maximal independent set of reduced states, scanned in family order.

    Returns (reduced, joint) matrix pairs.  A candidate joins when stacking
    its unit-normalized reduced coordinates keeps the smallest singular value
    of the pile above ``tol_rank``.
    """
    return _select_pairs(family.stack, family.dims, tol_rank)


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
    coordinates and their SVD are built only when it fails.  An operator
    with a NaN or infinite entry raises InputError.
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
    pairs = _select_pairs(stack, dims, tol_rank)
    if len(pairs) > span_dim:
        raise RdlError(
            f"the greedy scan found {len(pairs)} independent reduced operators in a span "
            f"of rank {span_dim}; the input sits too close to the rank tolerance {tol_rank:.1e}"
        )
    return Subspace(dims=dims, members=stack, pairs=pairs, span_dim=span_dim, tol_rank=tol_rank)


def build_subspace(family: StateFamily, tol_rank: float = DEFAULT_TOL.rank) -> Subspace:
    """Span rank of the family and its independent reduced pairs."""
    return build_subspace_from_operators(family.stack, family.dims, tol_rank)
