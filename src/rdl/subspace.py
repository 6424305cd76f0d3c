"""Spanned subspace of joint states, its reduced side, and its traceless kernel.

The family members are Hermitian, so their coordinates in a Hermitian operator
basis are real and the whole construction runs on real coordinate matrices.
That keeps every basis element of the span, and of the kernel, exactly
Hermitian by construction.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .config import DEFAULT_TOL
from .errors import DimensionError, NotInSpanError, RdlError
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
    rows = basis_coords(ops, d).real
    norms = np.array([np.linalg.norm(c) for c in rows])  # one by one: a batched norm rounds apart
    keep = np.flatnonzero(norms > floor)
    return keep, rows[keep] / norms[keep, None]


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
    _, rows = _unit_rows(stack, d_j)
    if not len(rows):
        raise DimensionError("all supplied operators are zero")
    span_dim = int(np.sum(np.linalg.svd(rows, compute_uv=False) > tol_rank))
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
