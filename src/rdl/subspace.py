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

from .config import ToleranceConfig
from .errors import RdlError
from .families import StateFamily
from .operators import (
    BipartiteDims,
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
    ``tol.rank``; ``domain`` holds their right singular vectors, orthonormal
    rows spanning the reduced side.  For a system operator with coordinates
    c in that span, the weights w = c P combine the members into an
    operator with marginal c, with the least sum_i (w_i ||R_i||)^2.  A
    member whose marginal is within ``tol.rank`` of its own norm has
    D_i = 0.  ``tol`` is the family's, and every later stage reads its
    thresholds from it.  Residuals and orthonormal bases are built on use,
    each as one read-only stack.  It meets no propagator: the kernel test
    evolves the members, and its report keeps the fit of that evolution.
    """

    dims: BipartiteDims
    members: np.ndarray
    marginals: np.ndarray
    fit: np.ndarray
    domain: np.ndarray
    span_dim: int
    tol: ToleranceConfig = field(repr=False)

    @property
    def reduced_dim(self) -> int:
        return len(self.domain)

    @property
    def kernel_dim(self) -> int:
        return self.span_dim - self.reduced_dim

    @functools.cached_property
    def residuals(self) -> np.ndarray:
        """The stack of g_i = rho_i - (R_i P) M, M the members; they span the kernel."""
        residuals = self.members - np.tensordot(self.marginals @ self.fit, self.members, axes=1)
        residuals.setflags(write=False)
        return residuals

    @functools.cached_property
    def span_basis(self) -> np.ndarray:
        """Orthonormal Hermitian basis of the members' span, one (span_dim, d_j, d_j) stack."""
        rows = _unit_rows(self.members, self.dims.joint)
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


def _unit_rows(ops: np.ndarray, d: int) -> np.ndarray:
    """Unit-normalized real coordinates of the operators, one row each."""
    rows = np.ascontiguousarray(basis_coords(ops, d).real)
    return rows / np.sqrt(np.vecdot(rows, rows))[:, None]  # bit for bit np.linalg.norm per row


def _full_rank_certified(gram: np.ndarray, d: int, tol: ToleranceConfig) -> bool:
    """True when a Cholesky factor proves every singular value of the unit rows above 2 tol.rank.

    ``gram`` is the Gram matrix of n members of side d that passed validation
    at ``tol``.  The rows of :func:`_unit_rows` are the coordinates of
    H_i / ||H_i||, H_i the Hermitian part of x_i = H_i + A_i: members are
    Hermitian only within ``tol.herm``.  ``gram`` is V V^T, V the stack's
    float view (n, m) with m = 2 d^2 and rows v_i, so
    G_ij = Re tr(x_i^dag x_j) = tr(H_i H_j) + Re tr(A_i^dag A_j): the cross
    terms are imaginary.  The second term is the Gram matrix of the
    anti-Hermitian parts.  Scaled by D = diag(G_ii)^(1/2), D^-1 G D^-1
    exceeds D^-1 G_H D^-1 by a positive semidefinite term whose trace, hence
    largest eigenvalue, is s_A = sum_i ||A_i||^2 / G_ii.  The unit-row Gram
    matrix is T D^-1 G_H D^-1 T with T = diag(G_ii^(1/2) / ||H_i||) >= 1, so
    sigma_min^2 >= lambda_min(D^-1 G D^-1) - s_A.

    Validation bounds s_A without a look at the members.  It passed
    max |X - X^dag| <= herm, so every entry of A_i = (x_i - x_i^dag) / 2 is at
    most herm / 2 and ||A_i||^2 <= d^2 herm^2 / 4.  It passed
    |tr x_i - 1| <= trace < 1, so tr H_i = Re tr x_i >= 1 - trace and
    G_ii >= ||H_i||^2 >= (tr H_i)^2 / d >= (1 - trace)^2 / d.  Hence
    s_A <= s = n d^3 herm^2 / (4 (1 - trace)^2).

    Roundoff.  The Gram product errs entrywise by at most
    m eps ||v_i|| ||v_j||, so by m eps n in norm once scaled.  The bound
    takes n, not the computed ||G||: the product's error follows |V||V|^T,
    which can exceed V V^T in norm.  A Cholesky factorization of an n x n
    matrix of unit diagonal that completes is exact for a perturbation of
    norm (n + 1) n eps at most; the scaling, the shift and T's computed
    diagonal add (2 n + m + 5) eps <= (m + 7) n eps.
    floor = (2 m + n + 8) n eps bounds the sum, and twice that covers the
    higher-order terms and the few ulps of s, which is below 1 whenever the
    shift is.  So a factor of D^-1 G D^-1 - (2 floor + s + 4 tol.rank^2) I
    proves sigma_min > 2 tol.rank, and the SVD of the computed rows counts
    every row while its own roundoff stays under tol.rank.  With tol.rank
    not above ``floor``, which bounds the same kinds of error, the SVD's
    count is itself roundoff, and the certificate is not tried.  A state's
    Gram diagonal is at least (1 - trace)^2 / d and, within ``tol.psd`` of
    positive, about 1 at most, so neither it nor any entry leaves the range
    of normal floats.  False means "not certified", not "rank deficient": a
    family validated at a loose ``herm`` just goes to the SVD.
    """
    n = len(gram)
    m = 2 * d * d
    floor = (2 * m + n + 8) * n * np.finfo(float).eps
    s = n * d**3 * tol.herm**2 / (4 * (1 - tol.trace) ** 2)  # bounds s_A
    shift = 2 * floor + s + 4 * tol.rank**2
    if not (floor < tol.rank and shift < 1):
        return False
    inv = 1 / np.sqrt(np.diagonal(gram))
    try:
        np.linalg.cholesky(gram * inv * inv[:, None] - shift * np.eye(n))
    except np.linalg.LinAlgError:
        return False
    return True


def _span_rank(stack: np.ndarray, d: int, tol: ToleranceConfig) -> int:
    """Number of singular values of the unit coordinate rows above ``tol.rank``.

    ``stack`` holds states validated at ``tol``.  Up to d^2 of them are first
    offered to :func:`_full_rank_certified`, which also reads ``tol.herm``
    and ``tol.trace``; the SVD runs only when the certificate fails.
    """
    n = len(stack)
    if n <= d * d:
        flat = stack.reshape(n, -1).view(float)
        if _full_rank_certified(flat @ flat.T, d, tol):
            return n
    return int(np.sum(np.linalg.svd(_unit_rows(stack, d), compute_uv=False) > tol.rank))


def _marginal_fit(stack: np.ndarray, dims: BipartiteDims, tol_rank: float):
    """R, P and the domain rows of :class:`Subspace`, from one SVD of D R.

    A row of D R is zero, and its member counts as kernel, when the
    member's marginal is within ``tol_rank`` of the member's own norm.  A
    state's marginal has at least 1/sqrt(d_s) of its norm, so only a rank
    tolerance near that reaches the cut.
    """
    n, d_s = len(stack), dims.d_s
    marginals = np.ascontiguousarray(basis_coords(partial_trace_env(stack, dims), d_s).real)
    flat = stack.reshape(n, -1).view(float)
    norms, sizes = np.sqrt(np.vecdot(marginals, marginals)), np.sqrt(np.vecdot(flat, flat))
    inv = np.divide(1.0, norms, out=np.zeros(n), where=norms > tol_rank * sizes)
    u, s, vt = np.linalg.svd(marginals * inv[:, None], full_matrices=False)
    r = int(np.sum(s > tol_rank))
    fit = (vt[:r].T / s[:r]) @ (u[:, :r].T * inv)
    return frozen(marginals), frozen(fit), frozen(vt[:r])


def build_subspace(family: StateFamily) -> Subspace:
    """Span rank of the family and the fit of its marginals, read from ``family.stack`` in place.

    Every threshold is the family's own ``family.tol``, which the Subspace
    keeps as ``tol``.  The span rank counts the singular values above
    ``tol.rank`` of the members' unit-normalized coordinates.  When
    n <= d_j^2, one Cholesky factorization of the members' scaled Gram
    matrix first tries to certify all n of them
    (:func:`_full_rank_certified`), with their anti-Hermitian parts
    bounded by ``tol.herm`` and ``tol.trace``, and the coordinates and
    their SVD are built only when it fails.  The marginals' rank,
    ``reduced_dim``, counts the singular values of their unit-normalized
    coordinates above ``tol.rank`` (:func:`_marginal_fit`).
    """
    stack, dims, tol = family.stack, family.dims, family.tol
    span_dim = _span_rank(stack, dims.joint, tol)
    marginals, fit, domain = _marginal_fit(stack, dims, tol.rank)
    if len(domain) > span_dim:
        raise RdlError(
            f"the marginals have rank {len(domain)} in a span of rank {span_dim}; "
            f"the input sits too close to the rank tolerance {tol.rank:.1e}"
        )
    return Subspace(
        dims=dims,
        members=stack,
        marginals=marginals,
        fit=fit,
        domain=domain,
        span_dim=span_dim,
        tol=tol,
    )
