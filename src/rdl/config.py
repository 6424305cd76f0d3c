"""Shared numerical tolerance settings."""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

from .errors import InputError


@dataclass(frozen=True)
class ToleranceConfig:
    """Thresholds used by every validation and verdict in the package.

    Every check reads its threshold from one of these fields, and passing a
    config is the one way to set them.  Every field must be finite and
    positive; ``psd`` may also be 0, the exact positivity floor.  ``trace``
    must be below 1, so that every member's trace stays away from 0, and so
    must ``psd``: a state's eigenvalues lie in [0, 1], and a cut above -1
    keeps every member's eigenvalues, and so its entries, below about
    1 + (d - 1) psd.
    """

    herm: float = 1e-9  # max-norm bound on X - X^dag
    trace: float = 1e-9  # |tr(rho) - 1| bound
    unitary: float = 1e-9  # max-norm bound on U^dag U - I
    psd: float = 1e-9  # eigenvalue floor: min eig >= -psd
    rank: float = 1e-8  # singular-value cutoff for rank and span membership
    consistency: float = 1e-8  # marginal-equality violation threshold

    def __post_init__(self):
        for f in dataclasses.fields(self):
            value = getattr(self, f.name)
            below, bound = (1.0, " and below 1") if f.name in ("trace", "psd") else (math.inf, "")
            if not (0 < value < below or f.name == "psd" and value == 0):
                raise InputError(
                    f"tolerance {f.name} must be finite and positive{bound}, got {value!r}"
                )


DEFAULT_TOL = ToleranceConfig()
