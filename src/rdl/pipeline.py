"""The decision as one call: span and kernel, kernel test, map, signed Kraus, verdicts."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import DEFAULT_TOL, ToleranceConfig
from .consistency import ConsistencyReport, check_hull_consistency, check_subspace_consistency
from .families import StateFamily
from .maps import (
    MapVerdicts,
    SignedKraus,
    Superoperator,
    build_assignment,
    build_dynamical_map,
    decompose_signed_kraus,
    verdicts,
)
from .subspace import Subspace, build_subspace


@dataclass(frozen=True, eq=False)
class Analysis:
    """Everything one pass of the pipeline produces for a family and a propagator.

    ``hull`` is None unless the sampled hull check was asked for.  The map is
    built whatever the verdict; ``superoperator.consistency_certified`` says
    whether the kernel test passed.
    """

    family: StateFamily
    subspace: Subspace
    consistency: ConsistencyReport
    hull: ConsistencyReport | None
    superoperator: Superoperator
    kraus: SignedKraus
    verdicts: MapVerdicts

    @property
    def consistent(self) -> bool:
        """The kernel test passed, and so did the hull check if it ran."""
        return bool(self.consistency.consistent and (self.hull is None or self.hull.consistent))


def analyze(
    family: StateFamily,
    u: np.ndarray,
    tols: ToleranceConfig = DEFAULT_TOL,
    *,
    hull_seed: int | None = None,
    hull_trials: int = 100,
) -> Analysis:
    """Run the whole decision for ``family`` under the propagator ``u``.

    The Subspace is built once.  With ``hull_seed`` set,
    :func:`check_hull_consistency` also samples ``hull_trials`` equal-marginal
    state pairs of it from that seed.
    """
    sub = build_subspace(family, tols.rank)
    report = check_subspace_consistency(sub, u, tols)
    hull = None
    if hull_seed is not None:
        hull = check_hull_consistency(sub, u, hull_seed, hull_trials, tols)
    superop = build_dynamical_map(build_assignment(sub), u, consistency=report, tols=tols)
    return Analysis(
        family=family,
        subspace=sub,
        consistency=report,
        hull=hull,
        superoperator=superop,
        kraus=decompose_signed_kraus(superop, tols.herm),
        verdicts=verdicts(superop, tols.psd),
    )
