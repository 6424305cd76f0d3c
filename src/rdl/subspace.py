"""Spanned subspace of joint states, its reduced side, and its traceless kernel.

The family members are Hermitian, so their coordinates in a Hermitian operator
basis are real and the whole construction runs on real coordinate matrices.
That keeps every basis element of the span, and of the kernel, exactly
Hermitian by construction.
"""

from __future__ import annotations

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

    ``span_basis`` is an orthonormal Hermitian basis of the span of all
    members.  ``pairs`` holds (reduced, joint) matrices for a maximal
    independent set of reduced states, scanned greedily in family order.
    ``kernel_basis`` spans the part of the span killed by the environment
    partial trace; its dimension always equals span_dim - reduced_dim.
    """

    dims: BipartiteDims
    span_basis: tuple[np.ndarray, ...]
    pairs: tuple[tuple[np.ndarray, np.ndarray], ...]
    kernel_basis: tuple[np.ndarray, ...]
    tol_rank: float

    @property
    def span_dim(self) -> int:
        return len(self.span_basis)

    @property
    def reduced_dim(self) -> int:
        return len(self.pairs)

    @property
    def kernel_dim(self) -> int:
        return len(self.kernel_basis)

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
        reds = np.array([red for red, _ in self.pairs])
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
    candidates, rows = [], []
    for idx, c in enumerate(basis_coords(reds, dims.d_s).real):
        n = np.linalg.norm(c)
        if n > tol_rank:
            candidates.append(idx)
            rows.append(c / n)
    kept = greedy_independent(rows, tol_rank, dims.d_s * dims.d_s)
    return tuple((frozen(reds[candidates[i]]), frozen(ops[candidates[i]])) for i in kept)


def select_independent(family: StateFamily, tol_rank: float = DEFAULT_TOL.rank):
    """Maximal independent set of reduced states, scanned in family order.

    Returns (reduced, joint) matrix pairs.  A candidate joins when stacking
    its unit-normalized reduced coordinates keeps the smallest singular value
    of the pile above ``tol_rank``.
    """
    return _select_pairs(family.members, family.dims, tol_rank)


def build_subspace_from_operators(
    ops,
    dims: BipartiteDims,
    tol_rank: float = DEFAULT_TOL.rank,
) -> Subspace:
    """Span construction for arbitrary Hermitian joint operators.

    Same machinery as :func:`build_subspace` but without density-matrix
    validation, so callers can hand in a custom operator subspace directly.
    """
    ops = [np.asarray(op, dtype=complex) for op in ops]
    if not ops:
        raise DimensionError("need at least one operator to span a subspace")
    d_j = dims.joint
    for idx, op in enumerate(ops):
        if op.shape != (d_j, d_j):
            raise DimensionError(f"operator {idx} has shape {op.shape}, expected ({d_j}, {d_j})")

    ops = np.array(ops)

    rows = []
    for c in basis_coords(ops, d_j).real:
        n = np.linalg.norm(c)
        if n > 0:
            rows.append(c / n)
    if not rows:
        raise DimensionError("all supplied operators are zero")
    _, svals, vt = np.linalg.svd(np.array(rows), full_matrices=False)
    r = int(np.sum(svals > tol_rank))
    span = from_basis_coords(vt[:r].astype(complex), d_j)

    pairs = _select_pairs(ops, dims, tol_rank)

    # Kernel: combinations of span elements annihilated by the partial trace.
    t = basis_coords(partial_trace_env(span, dims), dims.d_s).real
    u_t, svals_t, _ = np.linalg.svd(t, full_matrices=True)
    rank_t = int(np.sum(svals_t > tol_rank))
    if rank_t != len(pairs):
        raise RdlError(
            f"rank bookkeeping disagrees: partial-trace image has rank {rank_t} "
            f"but the greedy scan found {len(pairs)} independent reduced operators; "
            f"the input sits too close to the rank tolerance {tol_rank:.1e}"
        )
    kernel = from_basis_coords((u_t[:r, rank_t:r].T @ vt[:r]).astype(complex), d_j)

    return Subspace(
        dims=dims,
        span_basis=tuple(frozen(e) for e in span),
        pairs=pairs,
        kernel_basis=tuple(frozen(k) for k in kernel),
        tol_rank=tol_rank,
    )


def build_subspace(family: StateFamily, tol_rank: float = DEFAULT_TOL.rank) -> Subspace:
    """Span of the family, independent reduced pairs, and the traceless kernel."""
    return build_subspace_from_operators(family.members, family.dims, tol_rank)
