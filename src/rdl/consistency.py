"""Tests for whether a propagator treats equal marginals equally.

The reduced dynamics of a family is linear exactly when the span of the
family passes the kernel test below: every spanned operator with vanishing
environment partial trace must still have vanishing partial trace after
conjugation by the propagator.  The pairwise check probes the same condition
through the member pairs that share a marginal.  The kernel test's
violations also bound every equal-marginal pair of the members' convex hull.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .families import StateFamily
from .operators import (
    _evolved_marginal,
    _require_propagator,
    basis_coords,
    from_basis_coords,
    frozen,
)
from .subspace import Subspace

_MARGINAL_FACTOR = 10.0  # violations in (tol, 10 tol] are flagged as marginal
_BLOCK_ENTRIES = 2**16  # caps candidate pairs x d_s^2 per block of the pairwise check


@dataclass(frozen=True, eq=False)
class ConsistencyReport:
    """Outcome of one consistency check.

    ``consistent`` is True iff max_violation <= tolerance.  Violations up to
    ten times the tolerance additionally set ``marginal``, signalling a
    verdict that sits in the numerical grey zone.  ``witness`` is a Hermitian
    operator (with vanishing environment partial trace) whose evolved partial
    trace realizes max_violation; it is None for clean passes.
    ``pairs_tested`` counts probed state pairs where that notion applies;
    zero means the check was vacuous.
    A kernel-test report also keeps what it tested and fitted: the
    ``subspace``, a read-only copy of the ``propagator``, and ``fitted``, the
    read-only P E whose transpose is the map.  All three are None for
    pairwise and hull reports, which certify no map.
    """

    consistent: bool
    max_violation: float
    tolerance: float
    witness: np.ndarray | None = None
    pairs_tested: int | None = None
    marginal: bool = False
    subspace: Subspace | None = field(default=None, repr=False)
    propagator: np.ndarray | None = field(default=None, repr=False)
    fitted: np.ndarray | None = field(default=None, repr=False)


def _report(violations, tol, witness_of=None, pairs_tested=None) -> ConsistencyReport:
    """Verdict on the worst of ``violations``.

    A failing verdict carries ``witness_of(k)`` for the first index k that
    reaches the worst violation.  No violations at all is a vacuous check.
    """
    violations = np.asarray(violations, dtype=float)
    max_violation = float(violations.max(initial=0.0))
    consistent = max_violation <= tol
    marginal = (not consistent) and max_violation <= _MARGINAL_FACTOR * tol
    return ConsistencyReport(
        consistent=consistent,
        max_violation=max_violation,
        tolerance=float(tol),
        witness=None
        if consistent or not violations.size
        else frozen(witness_of(int(np.argmax(violations)))),
        pairs_tested=pairs_tested,
        marginal=marginal,
    )


def check_subspace_consistency(subspace: Subspace, u: np.ndarray) -> ConsistencyReport:
    """Kernel test: does conjugation by ``u`` preserve vanishing marginals?

    With R the members' marginals and E their evolved marginals, as real
    coordinate rows, the test holds exactly when E lies in R's column space.
    Member i's prediction error E_i - R_i P E, P the subspace's fit, is the
    evolved marginal of g_i = rho_i - (R_i P) M, M the members, whose own
    marginal vanishes.  Its max-norm as a matrix is reported against
    ``subspace.tol.consistency``; the first worst g_i is the witness.
    """
    return _kernel_test(subspace, u)[0]


def _kernel_test(
    subspace: Subspace, u: np.ndarray, hull: bool = False
) -> tuple[ConsistencyReport, ConsistencyReport | None]:
    """:func:`check_subspace_consistency`, and with ``hull`` the bound it puts on the hull.

    Convex weights a and b with equal marginals have (b - a) R = 0, so
    (b - a) M = sum_i (b - a)_i g_i, and its evolved marginal has max-norm at
    most |b - a|_1 r <= 2 r, r the kernel test's violation.  The hull report
    judges 2 r against the same threshold with the witness 2 g_k, k the
    first worst member; it samples no pairs.  Both read the one E formed
    here, and the kernel-test report keeps P E for the map.
    """
    tols, dims = subspace.tol, subspace.dims
    u = frozen(_require_propagator(u, dims, tols))
    members, marginals, fit = subspace.members, subspace.marginals, subspace.fit
    evolved = basis_coords(_evolved_marginal(u, members, dims), dims.d_s).real
    fitted = frozen(fit @ evolved)
    error = from_basis_coords(evolved - marginals @ fitted, dims.d_s)
    viol = np.abs(error).max(axis=(1, 2))

    def residual(k):
        return members[k] - np.tensordot(marginals[k] @ fit, members, axes=1)

    report = _report(viol, tols.consistency, residual)
    report = replace(report, subspace=subspace, propagator=u, fitted=fitted)
    if not hull:
        return report, None
    return report, _report(2 * viol, tols.consistency, lambda k: 2 * residual(k))


def check_pairwise_consistency(family: StateFamily, u: np.ndarray) -> ConsistencyReport:
    """Compare evolved marginals across member pairs that share a marginal.

    Pairs whose reduced states agree within ``family.tol.rank`` are evolved
    and compared within ``family.tol.consistency``.  With no matching pairs
    the verdict is vacuous: consistent with pairs_tested = 0.

    The members are sorted on the key Re(Tr_E rho)_00, a stored entry, so a
    key difference never exceeds the max-norm distance: only pairs whose keys
    lie within 2 ``family.tol.rank`` are candidates, and those are checked
    exactly, in blocks.  The matches come back in (i, j) row-major order,
    and only members in a match are evolved.
    """
    tols = family.tol
    u = _require_propagator(u, family.dims, tols)
    members = family.stack
    n = len(members)
    reduced = family.reduced_stack
    keys = reduced[:, 0, 0].real
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    # Sorted position p meets positions p + 1 .. p + counts[p]; numbering these
    # candidates flat lets a block end anywhere, even inside one position's run.
    counts = np.searchsorted(keys, keys + 2 * tols.rank, side="right") - np.arange(1, n + 1)
    starts = np.cumsum(counts) - counts
    block = max(1, _BLOCK_ENTRIES // family.dims.d_s**2)
    total = int(counts.sum())
    firsts, seconds = [np.zeros(0, int)], [np.zeros(0, int)]
    for lo in range(0, total, block):
        flat = np.arange(lo, min(lo + block, total))
        p = np.searchsorted(starts, flat, side="right") - 1
        a, b = order[p], order[p + 1 + flat - starts[p]]
        i, j = np.minimum(a, b), np.maximum(a, b)
        hit = np.abs(reduced[j] - reduced[i]).max(axis=(1, 2)) <= tols.rank
        firsts.append(i[hit])
        seconds.append(j[hit])
    first, second = np.concatenate(firsts), np.concatenate(seconds)
    row_major = np.argsort(first * n + second)
    first, second = first[row_major], second[row_major]
    used = np.zeros(n, bool)
    used[first] = used[second] = True
    slot = np.cumsum(used) - 1  # member index -> row of the evolved stack
    evolved = _evolved_marginal(u, members[used], family.dims)
    viol = np.abs(evolved[slot[second]] - evolved[slot[first]]).max(axis=(1, 2))
    return _report(
        viol,
        tols.consistency,
        lambda k: members[first[k]] - members[second[k]],
        len(first),
    )
