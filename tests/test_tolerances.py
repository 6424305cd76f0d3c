"""Every threshold is set once, on the family, and each later stage reads it from there."""

import inspect
import math
from dataclasses import replace

import numpy as np
import pytest

import rdl
from rdl.errors import HermiticityError, InputError, UnitarityError
from rdl.maps import Superoperator
from rdl.serialize import analysis_to_json, subspace_to_json

STAGE_PARAMETERS = {
    rdl.build_subspace: ["family"],
    rdl.check_subspace_consistency: ["subspace", "u"],
    rdl.check_pairwise_consistency: ["family", "u"],
    rdl.build_dynamical_map: ["assignment", "u", "consistency"],
    rdl.decompose_signed_kraus: ["superop"],
    rdl.verdicts: ["superop"],
    rdl.analyze: ["family", "u", "hull"],
}


@pytest.mark.parametrize("stage", STAGE_PARAMETERS, ids=lambda f: f.__name__)
def test_pipeline_stages_take_no_tolerance(stage):
    assert list(inspect.signature(stage).parameters) == STAGE_PARAMETERS[stage]


def near_cut_product_family(tol):
    """sigma_k (x) diag(0.7, 0.3); the last sigma_k leaves the others' span by 2e-6 sigma_z / 4."""
    eye = np.eye(2, dtype=complex)
    sigmas = [eye / 2] + [(eye + p / 2) / 2 for p in (rdl.SIGMA_X, rdl.SIGMA_Y)]
    sigmas.append((eye + (rdl.SIGMA_X + 2e-6 * rdl.SIGMA_Z) / 2) / 2)
    return rdl.product_family(sigmas, np.diag([0.7, 0.3]), tol=tol)


@pytest.mark.parametrize(
    "tol, reduced",
    [(rdl.DEFAULT_TOL, 4), (rdl.ToleranceConfig(rank=1e-6), 3)],
    ids=["default", "loose"],
)
def test_the_family_config_sets_the_ranks_and_travels_to_the_map(tol, reduced):
    family = near_cut_product_family(tol)
    assert family.tol is tol
    a = rdl.analyze(family, rdl.model_unitary(rdl.ModelParams(omega=1.0, t=0.7)))
    assert a.subspace.reduced_dim == reduced
    assert a.subspace.tol is family.tol
    assert a.superoperator.tol is family.tol
    assert a.consistency.tolerance == tol.consistency
    report = analysis_to_json(a, "analyze")
    assert report["tolerances"] == {"rank": tol.rank, "consistency": tol.consistency}
    assert subspace_to_json(a.subspace)["tol_rank"] == tol.rank


def test_kraus_and_verdicts_read_the_map_config():
    """(1 - e) id + e T, T the transpose: Choi eigenvalues 2 - e, e, e and -e, with e = 1e-7.

    At the default ``herm`` and ``psd`` of 1e-9 the map keeps four Kraus
    terms and is not CP; at 1e-6 three eigenvalues are dropped as zero and
    -e is within the positivity cut.
    """
    e = 1e-7
    matrix = (1 - e) * np.eye(4) + e * np.diag([1.0, 1.0, -1.0, 1.0])
    strict = Superoperator(d_s=2, matrix=matrix, consistency_certified=False)
    assert strict.tol is rdl.DEFAULT_TOL
    loose = Superoperator(
        d_s=2,
        matrix=matrix,
        consistency_certified=False,
        tol=rdl.ToleranceConfig(herm=1e-6, psd=1e-6),
    )
    assert [s for s, _ in rdl.decompose_signed_kraus(strict).terms] == [-1.0, 1.0, 1.0, 1.0]
    assert [s for s, _ in rdl.decompose_signed_kraus(loose).terms] == [1.0]
    v_strict, v_loose = rdl.verdicts(strict), rdl.verdicts(loose)
    assert abs(v_strict.choi_min_eigenvalue + e) < 1e-15
    assert v_strict.trace_preserving and not v_strict.completely_positive
    assert v_loose.trace_preserving and v_loose.completely_positive


@pytest.mark.parametrize("tol", [1e-9, None, {"rank": 1e-8}], ids=["float", "none", "dict"])
def test_a_tolerance_that_is_not_a_config_is_refused(tol):
    kind = type(tol).__name__
    with pytest.raises(InputError, match=f"^tol must be a ToleranceConfig, got {kind}$"):
        rdl.StateFamily(rdl.BipartiteDims(2, 2), (np.eye(4) / 4,), tol=tol)
    with pytest.raises(InputError, match=f"^tol must be a ToleranceConfig, got {kind}$"):
        Superoperator(d_s=2, matrix=np.eye(4), consistency_certified=False, tol=tol)


@pytest.mark.parametrize(
    "check, name, x, error",
    [
        (rdl.require_hermitian, "herm", np.array([[1, 0.01], [0, 1]]), HermiticityError),
        (rdl.require_unitary, "unitary", 1.01 * np.eye(2), UnitarityError),
    ],
    ids=["hermitian", "unitary"],
)
def test_validators_read_their_threshold_from_a_config(check, name, x, error):
    """Off by 0.01 or 0.0201: refused at the default 1e-9, accepted at 0.1.

    The config is the only way in, and it refuses an infinite or NaN
    threshold, which as a bare float accepted 2 I as unitary and refused
    the identity as Hermitian.
    """
    assert inspect.signature(check).parameters["tol"].default is rdl.DEFAULT_TOL
    with pytest.raises(error):
        check(x)
    assert np.array_equal(check(x, replace(rdl.DEFAULT_TOL, **{name: 0.1})), x)
    for bad in (math.inf, math.nan):
        with pytest.raises(InputError, match=f"^tolerance {name} must be finite and positive"):
            replace(rdl.DEFAULT_TOL, **{name: bad})
