"""Tests for whether a propagator treats equal marginals equally.

The reduced dynamics of a family is linear exactly when the span of the
family passes the kernel test below: every spanned operator with vanishing
environment partial trace must still have vanishing partial trace after
conjugation by the propagator.  The pairwise and hull checks probe the same
condition through finitely many state pairs: member pairs, and sampled pairs
of the members' convex hull.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import DEFAULT_TOL, ToleranceConfig
from .families import StateFamily
from .operators import (
    _evolved_marginal,
    _require_propagator,
    from_basis_coords,
    frozen,
    partial_trace_env,
)
from .subspace import Subspace

_MARGINAL_FACTOR = 10.0  # violations in (tol, 10 tol] are flagged as marginal
_BLOCK_ENTRIES = 2**16  # caps hull trials x members and candidate pairs x d_s^2 per block


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
    """

    consistent: bool
    max_violation: float
    tolerance: float
    witness: np.ndarray | None = None
    pairs_tested: int | None = None
    marginal: bool = False


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


def check_subspace_consistency(
    subspace: Subspace,
    u: np.ndarray,
    tols: ToleranceConfig = DEFAULT_TOL,
) -> ConsistencyReport:
    """Kernel test: does conjugation by ``u`` preserve vanishing marginals?

    With R the members' marginals and E their evolved marginals, as real
    coordinate rows, the test holds exactly when E lies in R's column space.
    Member i's prediction error E_i - R_i P E, P the subspace's fit, is the
    evolved marginal of g_i = rho_i - (R_i P) M, M the members, whose own
    marginal vanishes.  Its max-norm as a matrix is reported against
    ``tols.consistency``; the first worst g_i is the witness.
    """
    u = _require_propagator(u, subspace.dims, tols)
    d_s = subspace.dims.d_s
    members, marginals, fit = subspace.members, subspace.marginals, subspace.fit
    evolved = subspace.evolved_marginals(u)
    error = from_basis_coords(evolved - marginals @ (fit @ evolved), d_s)
    viol = np.abs(error).max(axis=(1, 2))
    return _report(
        viol,
        tols.consistency,
        lambda k: members[k] - np.tensordot(marginals[k] @ fit, members, axes=1),
    )


def check_pairwise_consistency(
    family: StateFamily,
    u: np.ndarray,
    tols: ToleranceConfig = DEFAULT_TOL,
) -> ConsistencyReport:
    """Compare evolved marginals across member pairs that share a marginal.

    Pairs whose reduced states agree within ``tols.rank`` are evolved and
    compared within ``tols.consistency``.  With no matching pairs the verdict
    is vacuous: consistent with pairs_tested = 0.

    The members are sorted on the key Re(Tr_E rho)_00, a stored entry, so a
    key difference never exceeds the max-norm distance: only pairs whose keys
    lie within 2 ``tols.rank`` are candidates, and those are checked exactly,
    in blocks.  The matches come back in (i, j) row-major order, and only
    members in a match are evolved.
    """
    u = _require_propagator(u, family.dims, tols)
    members = family.stack
    n = len(members)
    reduced = partial_trace_env(members, family.dims)
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


def check_hull_consistency(
    subspace: Subspace,
    u: np.ndarray,
    seed: int,
    trials: int = 100,
    tols: ToleranceConfig = DEFAULT_TOL,
) -> ConsistencyReport:
    """Sampled equal-marginal state pairs of the members' convex hull.

    Each trial draws convex weights a and a direction c = z (I - R P), R the
    members' marginals and P the subspace's fit, so that c R = 0.  The
    states a M and b M, M the members and b = a + eps c with eps the
    largest step keeping b nonnegative, lie in the hull with equal
    marginals; their evolved marginals differ by eps c E, E the members'
    evolved marginals, read from ``subspace``.  The members are states, so
    the coefficients sum to sqrt(d_s) (c R)_0 = 0, some c_i is negative,
    and eps is finite.  Trials are drawn one after another from
    one generator and evaluated as stacks, in blocks of
    ``max(1, 2**16 // n)`` trials for n members.

    The step eps c M is a combination of the kernel test's member
    residuals with coefficients of total weight |b - a|_1 <= 2, so the
    violation is at most twice that of :func:`check_subspace_consistency`.
    Any equal-marginal pair differs by a kernel element, so in exact
    arithmetic the two verdicts agree; near the tolerance they can differ.

    Requires an explicit ``seed``.  The witness is the step eps c M of the
    first worst trial.
    """
    u = _require_propagator(u, subspace.dims, tols)
    if trials < 1:
        raise ValueError(f"need at least one trial, got {trials}")
    if subspace.kernel_dim == 0:
        return _report([], tols.consistency, pairs_tested=0)

    rng = np.random.default_rng(seed)
    evolved = subspace.evolved_marginals(u)
    n = len(subspace.members)
    block = max(1, _BLOCK_ENTRIES // n)
    violations, worst_step = np.zeros(0), None
    for start in range(0, trials, block):
        size = min(block, trials - start)
        weights, z = np.empty((size, n)), np.empty((size, n))
        for t in range(size):  # the draws keep their trial-by-trial order
            weights[t] = rng.exponential(size=n)
            z[t] = rng.normal(size=n)
        weights /= weights.sum(axis=1, keepdims=True)
        coeffs = z - (z @ subspace.marginals) @ subspace.fit
        steps = coeffs / (-coeffs / weights).max(axis=1, keepdims=True)
        diff = from_basis_coords(steps @ evolved, subspace.dims.d_s)
        first = len(violations)
        violations = np.concatenate([violations, np.abs(diff).max(axis=(1, 2))])
        # Keep only the step of the first worst trial so far: the one _report asks for.
        if (worst := int(np.argmax(violations))) >= first:
            worst_step = steps[worst - first]
    return _report(
        violations,
        tols.consistency,
        lambda k: np.tensordot(worst_step, subspace.members, axes=1),
        trials,
    )
