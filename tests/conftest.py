import numpy as np
import pytest
from hypothesis import HealthCheck, settings

import rdl

settings.register_profile(
    "ci",
    derandomize=True,
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("ci")


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


@pytest.fixture
def rank_split_family():
    """(I⊗I + 0.9 Z⊗Z ± 0.05 X⊗I)/4: at tol_rank 0.06 the span has rank 1, the marginals rank 2.

    The unit coordinate rows of the two states have a least singular value
    near 0.053, those of their marginals (I ± 0.05 X)/2 near 0.071.
    """
    zz, xi = rdl.tensor(rdl.SIGMA_Z, rdl.SIGMA_Z), rdl.tensor(rdl.SIGMA_X, np.eye(2))
    return rdl.StateFamily(
        dims=rdl.BipartiteDims(2, 2),
        members=tuple((np.eye(4) + 0.9 * zz + s * 0.05 * xi) / 4 for s in (1, -1)),
    )
