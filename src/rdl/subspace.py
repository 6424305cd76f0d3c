"""Spanned subspace of joint states, its reduced side, and its traceless kernel.

The family members are Hermitian, so their coordinates in a Hermitian operator
basis are real and the whole construction runs on real coordinate matrices.
That keeps every basis element of the span, and of the kernel, exactly
Hermitian by construction.  The span rank is first certified from the
Gram matrix of the first environment rows of each system block of the
members, which needs no coordinates.
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


def _full_rank_certified(
    stack: np.ndarray, squares: np.ndarray, tol: ToleranceConfig, dims: BipartiteDims
) -> bool:
    """True when a Cholesky factor proves every singular value of the unit rows above 2 tol.rank.

    ``stack`` holds n members of side d on the split ``dims`` that passed
    validation at ``tol``, and ``squares`` their squared norms.  The rows of
    :func:`_unit_rows` are the coordinates of H_i / ||H_i||, H_i the
    Hermitian part of x_i = H_i + A_i: members are Hermitian only within
    ``tol.herm``.  Let V be the stack's float view (n, m), m = 2 d^2, with
    rows v_i, V_H and V_A the float views of the H_i and the A_i, and
    D = diag(||v_i||).  H_i and A_i are orthogonal, so ||H_i|| <= ||v_i||
    and the unit rows are T D^-1 V_H, up to an isometry of the coordinates,
    with T >= I diagonal: sigma_min of the unit rows is at least that of
    D^-1 V_H.  By Weyl's inequality, that is at least
    sigma_min(D^-1 V) - ||D^-1 V_A||, and ||D^-1 V_A||^2 is at most
    s_A = sum_i ||A_i||^2 / ||v_i||^2.

    The slab.  Let V_T be the columns of V that hold rows i d_e + k of each
    member, for every system index i and every k < h_e: r = d_s h_e rows.
    A product rho (x) omega keeps every entry of rho there as soon as
    omega's first h_e rows are not all zero.  V V^T = V_T V_T^T + V_B V_B^T,
    V_B the other columns, so the Gram matrix of a subset of columns is
    below the full one in the positive semidefinite order, and
    sigma_min(D^-1 V) >= sigma_min(D^-1 V_T).  So a Cholesky factor of
    D^-1 G D^-1 - ((2 tol.rank + sqrt(s_A))^2 + roundoff) I, with G the
    Gram matrix of either V_T or V, proves sigma_min > 2 tol.rank.  The
    slab is gathered once and factored first; only when that fails is the
    whole of V's Gram matrix formed and factored.  On the whole of V the
    cross terms Re tr(H_i A_j) cancel and s_A alone would do, but on a slab
    they do not, hence the Weyl step.  The slabs of Hermitian matrices on
    r rows span d^2 - (d - r)^2 dimensions, as only those supported on the
    other d - r rows and columns vanish there.  With more members than
    that, the H_i's slabs are dependent, sigma_min(D^-1 V_T) <= sqrt(s_A)
    and the slab cannot certify.  So h_e is the least value up to
    d_e // 2 that leaves room for n members, and without one only the
    whole of V is factored.

    Validation bounds s_A without a look at the members.  It passed
    max |X - X^dag| <= herm, so every entry of A_i = (x_i - x_i^dag) / 2 is at
    most herm / 2 and ||A_i||^2 <= d^2 herm^2 / 4.  It passed
    |tr x_i - 1| <= trace < 1, so tr H_i = Re tr x_i >= 1 - trace and
    ||v_i||^2 >= ||H_i||^2 >= (tr H_i)^2 / d >= (1 - trace)^2 / d.  Hence
    s_A <= s = n d^3 herm^2 / (4 (1 - trace)^2).

    Roundoff.  Each product, of the slab or of the whole, sums at most m
    terms, so it errs entrywise by at most m eps ||v_i|| ||v_j||, and by
    m eps n in norm once scaled.  The bound takes n, not the computed ||G||:
    the product's error follows |V||V|^T, which can exceed V V^T in norm.  A
    Cholesky factorization of an n x n matrix of diagonal at most about 1
    that completes is exact for a perturbation of norm (n + 1) n eps at
    most; the scaling by the computed ``squares``, each a sum of m squares,
    the shift and T's computed diagonal add (2 n + m + 5) eps <= (m + 7) n
    eps.  floor = (2 m + n + 8) n eps bounds the sum, and twice that covers
    the higher-order terms and the few ulps of the shift, which is below 1.
    So both attempts factor
    D^-1 G D^-1 - (2 floor + (2 tol.rank + sqrt(s))^2) I, and the SVD of the
    computed rows counts every row while its own roundoff stays under
    tol.rank.  With tol.rank not above ``floor``, which bounds the same kinds
    of error, the SVD's count is itself roundoff, and the certificate is not
    tried.  A state's squared norm is at least (1 - trace)^2 / d and, within
    ``tol.psd`` of positive, about 1 at most, so neither it nor any Gram
    entry leaves the range of normal floats.  False means "not certified",
    not "rank deficient": a family validated at a loose ``herm`` just goes
    to the SVD.
    """
    n, d, d_s, d_e = len(stack), dims.joint, dims.d_s, dims.d_e
    m = 2 * d * d
    floor = (2 * m + n + 8) * n * np.finfo(float).eps
    s = n * d**3 * tol.herm**2 / (4 * (1 - tol.trace) ** 2)  # bounds s_A
    shift = 2 * floor + (2 * tol.rank + np.sqrt(s)) ** 2
    if not (floor < tol.rank and shift < 1):
        return False
    inv = 1 / np.sqrt(squares)
    h_e = next((h for h in range(1, d_e // 2 + 1) if n <= d * d - (d - d_s * h) ** 2), 0)
    if h_e:
        slab = np.ascontiguousarray(stack.reshape(n, d_s, d_e, d)[:, :, :h_e])
        slab = slab.reshape(n, -1).view(float)
        if _shifted_factor_exists(slab @ slab.T, inv, shift):
            return True
    flat = stack.reshape(n, -1).view(float)
    return _shifted_factor_exists(flat @ flat.T, inv, shift)


def _shifted_factor_exists(gram: np.ndarray, inv: np.ndarray, shift: float) -> bool:
    """Whether the Cholesky factorization of diag(inv) gram diag(inv) - shift I completes.

    ``gram`` is scaled and shifted in place.
    """
    gram *= inv
    gram *= inv[:, None]
    gram.flat[:: len(gram) + 1] -= shift
    try:
        np.linalg.cholesky(gram)
    except np.linalg.LinAlgError:
        return False
    return True


def _span_rank(
    stack: np.ndarray, dims: BipartiteDims, tol: ToleranceConfig, squares: np.ndarray | None = None
) -> int:
    """Number of singular values of the unit coordinate rows above ``tol.rank``.

    ``stack`` holds states on the split ``dims`` validated at ``tol``, and
    ``squares`` their squared norms, computed here when not given.  Up to
    d_j^2 of them are first offered to :func:`_full_rank_certified`, which
    also reads ``tol.herm`` and ``tol.trace``; the SVD runs only when the
    certificate fails.
    """
    n, d = len(stack), dims.joint
    if n <= d * d:
        if squares is None:
            squares = _squares(stack)
        if _full_rank_certified(stack, squares, tol, dims):
            return n
    return int(np.sum(np.linalg.svd(_unit_rows(stack, d), compute_uv=False) > tol.rank))


def _squares(stack: np.ndarray) -> np.ndarray:
    """Squared Frobenius norm of each matrix in ``stack``, one pass over its float view."""
    flat = stack.reshape(len(stack), -1).view(float)
    return np.vecdot(flat, flat)


def _marginal_fit(reduced: np.ndarray, sizes: np.ndarray, tol_rank: float):
    """R, P and the domain rows of :class:`Subspace`, from one SVD of D R.

    ``reduced`` holds the members' marginals and ``sizes`` the members'
    norms.  A row of D R is zero, and its member counts as kernel, when the
    member's marginal is within ``tol_rank`` of the member's own norm.  A
    state's marginal has at least 1/sqrt(d_s) of its norm, so only a rank
    tolerance near that reaches the cut.
    """
    n = len(reduced)
    marginals = np.ascontiguousarray(basis_coords(reduced, reduced.shape[-1]).real)
    norms = np.sqrt(np.vecdot(marginals, marginals))
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
    n <= d_j^2, a Cholesky factorization of the scaled Gram matrix of the
    first environment rows of each system block of each member, and failing
    that of the whole members, first tries to certify all n of them
    (:func:`_full_rank_certified`), with their anti-Hermitian parts bounded
    by ``tol.herm`` and ``tol.trace``, and the coordinates and their SVD
    are built only when both fail.  The members' squared norms are taken once, for that
    scaling and for the fit's cut.  The marginals' rank, ``reduced_dim``,
    counts the singular values of their unit-normalized coordinates above
    ``tol.rank`` (:func:`_marginal_fit`), read from
    ``family.reduced_stack``.
    """
    stack, dims, tol = family.stack, family.dims, family.tol
    squares = _squares(stack)
    span_dim = _span_rank(stack, dims, tol, squares)
    marginals, fit, domain = _marginal_fit(family.reduced_stack, np.sqrt(squares), tol.rank)
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
