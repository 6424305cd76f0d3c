"""Tests for whether a propagator treats equal marginals equally.

The reduced dynamics of a family is linear exactly when the span of the
family passes the kernel test below: every spanned operator with vanishing
environment partial trace must still have vanishing partial trace after
conjugation by the propagator.  The pairwise and hull checks probe the same
condition through finitely many state pairs instead of the member residuals.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import DEFAULT_TOL, ToleranceConfig
from .errors import SamplingExhaustedError
from .families import StateFamily
from .operators import _evolved_marginal, _require_propagator, frozen, partial_trace_env
from .subspace import Subspace

_MARGINAL_FACTOR = 10.0  # violations in (tol, 10 tol] are flagged as marginal
_BISECTION_STEPS = 60
_MIN_PERTURBATION = 1e-7  # smaller scalings probe nothing but numerical noise
_BLOCK_ENTRIES = 2**16  # caps hull trials x d_j^2 and candidate pairs x d_s^2 per block


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

    The residuals g_i = rho_i - A(Tr_E rho_i) span the kernel.  The max-norm
    of Tr_E(U g_i U^dag), the map's prediction error on member i, is reported
    against ``tols.consistency``; the first worst g_i is the witness.
    """
    u = _require_propagator(u, subspace.dims, tols)
    residuals = subspace.residuals
    viol = np.abs(_evolved_marginal(u, residuals, subspace.dims)).max(axis=(1, 2))
    return _report(viol, tols.consistency, lambda k: residuals[k])


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


def _positivity_scaling(sigma: np.ndarray, y: np.ndarray, psd_tol: float) -> np.ndarray:
    """Largest epsilon (halving from 1) keeping sigma + eps y positive, per pair of a stack.

    ``sigma`` and ``y`` are stacks (n, d, d); the result holds one epsilon per
    pair, NaN where none is found.  Each step diagonalizes only the pairs still
    pending.  A pair gives up once the scaling drops below a floor where the
    perturbed state would differ from sigma only at noise level; without the
    floor, any direction would "succeed" at an epsilon inside the positivity
    tolerance and a blocked direction could never be told from an open one.
    """
    eps = np.full(len(sigma), np.nan)
    pending = np.arange(len(sigma))
    step = 1.0
    for _ in range(_BISECTION_STEPS):
        lowest = np.linalg.eigvalsh(sigma[pending] + step * y[pending])[:, 0]
        found = lowest >= -psd_tol
        eps[pending[found]] = step
        pending = pending[~found]
        step /= 2.0
        if step < _MIN_PERTURBATION or not pending.size:
            break
    return eps


def check_hull_consistency(
    subspace: Subspace,
    u: np.ndarray,
    seed: int,
    trials: int = 100,
    tols: ToleranceConfig = DEFAULT_TOL,
) -> ConsistencyReport:
    """Sampled equal-marginal state pairs instead of the member residuals.

    Each trial mixes ``subspace.members`` with random convex weights, perturbs
    the mix along a random kernel direction scaled until positivity survives,
    and compares the evolved marginals of the perturbed and unperturbed
    states.  The members are mixed as states, so ``subspace`` must come from
    :func:`build_subspace` of a state family.  Trials are drawn one after
    another from one generator and evaluated as stacks, in blocks of
    ``max(1, 2**16 // d_j**2)`` trials.

    Any equal-marginal pair differs by a kernel element and vice versa, so in
    exact arithmetic the verdict is that of :func:`check_subspace_consistency`.
    Near the tolerance the two can differ, because they measure on different
    scales: the kernel test the member residuals, the hull the
    positivity-scaled unit kernel steps.

    Requires an explicit ``seed``.  Raises SamplingExhaustedError when the
    kernel is nonempty but no trial admits a positivity-preserving scaling.
    """
    u = _require_propagator(u, subspace.dims, tols)
    if trials < 1:
        raise ValueError(f"need at least one trial, got {trials}")
    if subspace.kernel_dim == 0:
        return _report([], tols.consistency, pairs_tested=0)

    rng = np.random.default_rng(seed)
    d_j = subspace.dims.joint
    members = subspace.members.reshape(-1, d_j * d_j)
    kernel = subspace.kernel_basis.reshape(-1, d_j * d_j)
    block = max(1, _BLOCK_ENTRIES // d_j**2)
    violations, witness = np.zeros(0), None
    for start in range(0, trials, block):
        size = min(block, trials - start)
        weights = np.empty((size, len(members)))
        coeffs = np.empty((size, subspace.kernel_dim))
        for t in range(size):  # the draws keep their trial-by-trial order
            weights[t] = rng.exponential(size=len(members))
            coeffs[t] = rng.normal(size=subspace.kernel_dim)
        weights /= weights.sum(axis=1, keepdims=True)
        y = coeffs @ kernel
        norms = np.linalg.norm(y, axis=1)
        keep = norms > tols.rank
        sigma = (weights[keep] @ members).reshape(-1, d_j, d_j)
        y = (y[keep] / norms[keep, None]).reshape(-1, d_j, d_j)
        eps = _positivity_scaling(sigma, y, tols.psd)
        found = ~np.isnan(eps)
        steps = eps[found, None, None] * y[found]
        sigma = sigma[found]
        out = _evolved_marginal(u, np.stack([sigma + steps, sigma]), subspace.dims)
        first = len(violations)
        violations = np.concatenate([violations, np.abs(out[0] - out[1]).max(axis=(1, 2))])
        # Keep only the step of the first worst trial so far: the one _report asks for.
        if len(violations) > first and (worst := int(np.argmax(violations))) >= first:
            witness = steps[worst - first]
    if not violations.size:
        raise SamplingExhaustedError(
            f"no positivity-preserving perturbation found in {trials} trials"
        )
    return _report(violations, tols.consistency, lambda k: witness, len(violations))
