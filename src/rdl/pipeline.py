"""The decision as one call: span and kernel, kernel test, map, signed Kraus, verdicts."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .consistency import ConsistencyReport, _kernel_test
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

    ``hull`` is None unless the hull bound was asked for.  The map is
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
        """The kernel test passed, and so did the hull bound if it was asked for."""
        return bool(self.consistency.consistent and (self.hull is None or self.hull.consistent))


def analyze(family: StateFamily, u: np.ndarray, *, hull: bool = False) -> Analysis:
    """Run the whole decision for ``family`` under the propagator ``u``.

    Every stage reads its thresholds from ``family.tol``, which the
    Superoperator keeps.  The Subspace is built once.  With ``hull``, the
    Analysis also carries the bound, twice the kernel test's violation, on
    every equal-marginal pair of the members' convex hull, read off the same
    evolved marginals.
    """
    sub = build_subspace(family)
    report, hull_report = _kernel_test(sub, u, hull)
    superop = build_dynamical_map(build_assignment(sub), u, consistency=report)
    return Analysis(
        family=family,
        subspace=sub,
        consistency=report,
        hull=hull_report,
        superoperator=superop,
        kraus=decompose_signed_kraus(superop),
        verdicts=verdicts(superop),
    )
