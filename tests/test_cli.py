"""End-to-end command-line behavior: exit codes, report shape, determinism."""

import json

import jsonschema
import numpy as np
import pytest

import rdl
from rdl.cli import main
from rdl.serialize import family_to_json, load_report_schema, matrix_to_json


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_family(path, family):
    path.write_text(json.dumps(family_to_json(family)))
    return str(path)


@pytest.fixture
def full_family_file(tmp_path):
    return write_family(tmp_path / "family.json", rdl.full_two_qubit_family())


def test_two_qubit_generation_recovers_planted_law(capsys):
    code, out, err = run(
        capsys,
        "two-qubit",
        "--omega", "1.3", "--t", "1.0",
        "--a11", "0.15", "--a21", "-0.1",
        "--b11", "0.1,0,0.05", "--b21", "0,0.1,0",
        "--samples", "12", "--scale", "0.3", "--seed", "7",
    )
    assert code == 0
    rep = json.loads(out)
    jsonschema.validate(rep, load_report_schema())
    assert rep["consistent"] is True
    assert rep["family"]["members"] + rep["family"]["rejected"] == 12
    solved = rep["coefficients_solved"]
    planted = rep["coefficients_planted"]
    assert abs(solved["a11"] - planted["a11"]) < 1e-10
    assert np.abs(np.array(solved["b21"]) - np.array(planted["b21"])).max() < 1e-10
    assert max(abs(v) for pair in rep["residuals"] for v in pair) < 1e-10
    assert len(rep["bloch_table"]) == rep["family"]["members"]
    assert "consistent" in err


def test_two_qubit_zero_law_keeps_correlations_fixed(capsys):
    """All-zero coefficients pin gamma_11 = gamma_21 = 0 and stay consistent."""
    code, out, _ = run(capsys, "two-qubit", "--seed", "3", "--samples", "8", "--scale", "0.3")
    assert code == 0
    rep = json.loads(out)
    assert rep["consistent"] is True
    assert rep["family"]["members"] == 7  # one draw loses positivity at this seed
    solved = rep["coefficients_solved"]
    assert abs(solved["a11"]) < 1e-10
    assert abs(solved["a21"]) < 1e-10
    assert max(abs(v) for v in solved["b11"] + solved["b21"]) < 1e-10
    for row in rep["bloch_table"]:
        assert row["gamma11"] == pytest.approx(0.0, abs=1e-12)


def test_analyze_inconsistent_family_exits_3(capsys, full_family_file):
    code, out, err = run(
        capsys,
        "analyze", "--family", full_family_file,
        "--model", "two-qubit", "--omega", "1.5707963267948966", "--t", "1.0",
    )
    assert code == 3
    rep = json.loads(out)
    jsonschema.validate(rep, load_report_schema())
    assert rep["consistent"] is False
    assert rep["consistency"]["max_violation"] > 1e-3
    assert rep["unitary_source"] == {"kind": "two-qubit", "omega": 1.5707963267948966, "t": 1.0}
    assert "inconsistent" in err


def test_analyze_hull_and_dump(capsys, full_family_file):
    code, out, _ = run(
        capsys,
        "analyze", "--family", full_family_file,
        "--model", "two-qubit", "--omega", "0.9", "--t", "1.0",
        "--hull", "--seed", "5", "--trials", "10", "--dump-subspace",
    )
    assert code == 3
    rep = json.loads(out)
    jsonschema.validate(rep, load_report_schema())
    assert rep["hull_consistency"]["pairs_tested"] == 10
    assert len(rep["subspace"]["detail"]["kernel_basis"]) == 12


def test_analyze_with_unitary_file(capsys, tmp_path, full_family_file):
    upath = tmp_path / "u.json"
    upath.write_text(json.dumps(matrix_to_json(np.eye(4, dtype=complex))))
    code, out, _ = run(capsys, "analyze", "--family", full_family_file, "--unitary", str(upath))
    assert code == 0
    rep = json.loads(out)
    assert rep["consistent"] is True
    assert rep["unitary_source"] == {"kind": "file"}


def test_swap_demo_defaults(capsys):
    code, out, err = run(capsys, "swap-demo")
    assert code == 0
    rep = json.loads(out)
    jsonschema.validate(rep, load_report_schema())
    assert rep["family"]["members"] == 6
    assert rep["verdicts"]["completely_positive"] is True
    assert rep["constant_output_deviation"] < 1e-10
    assert len(rep["pairs"]) == 15
    assert not any(p["increased"] for p in rep["pairs"])


def test_hull_run_builds_the_subspace_once(capsys, monkeypatch):
    """The hull check reads the pipeline's Subspace instead of building its own."""
    build = rdl.pipeline.build_subspace
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return build(*args, **kwargs)

    monkeypatch.setattr(rdl.pipeline, "build_subspace", counted)
    code, out, _ = run(
        capsys,
        "two-qubit", "--samples", "12", "--scale", "0.3",
        "--hull", "--seed", "7", "--trials", "20",
    )
    assert code == 0
    assert json.loads(out)["hull_consistency"]["pairs_tested"] == 20
    assert len(calls) == 1


def test_reports_are_byte_deterministic(capsys, full_family_file):
    args = (
        "analyze", "--family", full_family_file,
        "--model", "two-qubit", "--omega", "1.1", "--t", "1.0",
        "--hull", "--seed", "42", "--trials", "20",
    )
    _, out1, err1 = run(capsys, *args)
    _, out2, err2 = run(capsys, *args)
    assert out1 == out2
    assert err1 == err2


def test_out_flag_duplicates_stdout(capsys, tmp_path, full_family_file):
    target = tmp_path / "report.json"
    code, out, _ = run(
        capsys,
        "analyze", "--family", full_family_file, "--model", "swap", "--out", str(target),
    )
    assert code in (0, 3)
    assert target.read_text() == out


def test_missing_subcommand_is_input_error(capsys):
    code, out, err = run(capsys)
    assert code == 1
    assert out == ""
    assert "input error" in err


def test_unknown_flag_is_input_error(capsys):
    code, _, err = run(capsys, "swap-demo", "--frobnicate")
    assert code == 1
    assert "input error" in err


def test_missing_family_file(capsys, tmp_path):
    code, _, err = run(
        capsys, "analyze", "--family", str(tmp_path / "absent.json"), "--model", "swap"
    )
    assert code == 1
    assert "cannot read" in err


def test_malformed_json_reports_location(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"d_s": 2,\n  "oops"')
    code, _, err = run(capsys, "analyze", "--family", str(bad), "--model", "swap")
    assert code == 1
    assert "line 2" in err


def test_invalid_state_in_family(capsys, tmp_path):
    obj = {"d_s": 2, "d_e": 2, "members": [matrix_to_json(np.eye(4, dtype=complex))]}
    path = tmp_path / "notstate.json"
    path.write_text(json.dumps(obj))
    code, _, err = run(capsys, "analyze", "--family", str(path), "--model", "swap")
    assert code == 1
    assert "input error" in err


def test_nonunitary_propagator_file(capsys, tmp_path, full_family_file):
    upath = tmp_path / "u.json"
    for u in (2 * np.eye(4), np.diag([np.nan, 1, 1, 1])):
        upath.write_text(json.dumps(matrix_to_json(u.astype(complex))))
        code, _, err = run(capsys, "analyze", "--family", full_family_file, "--unitary", str(upath))
        assert code == 1
        assert "propagator is not unitary" in err


def test_both_unitary_sources_rejected(capsys, tmp_path, full_family_file):
    upath = tmp_path / "u.json"
    upath.write_text(json.dumps(matrix_to_json(np.eye(4, dtype=complex))))
    code, _, err = run(
        capsys,
        "analyze", "--family", full_family_file,
        "--unitary", str(upath), "--model", "swap",
    )
    assert code == 1
    assert "exactly one" in err


def test_model_two_qubit_needs_omega_and_t(capsys, full_family_file):
    code, _, err = run(capsys, "analyze", "--family", full_family_file, "--model", "two-qubit")
    assert code == 1
    assert "--omega" in err


def test_hull_requires_seed(capsys, full_family_file):
    code, _, err = run(
        capsys, "analyze", "--family", full_family_file, "--model", "swap", "--hull"
    )
    assert code == 1
    assert "--seed" in err


def test_two_qubit_generation_requires_seed(capsys):
    code, _, err = run(capsys, "two-qubit", "--samples", "4")
    assert code == 1
    assert "--seed" in err or "seed" in err


def test_two_qubit_members_need_independent_bloch_vectors(capsys, tmp_path):
    rho = np.diag([0.6, 0.4]).astype(complex)
    omega = np.eye(2, dtype=complex) / 2
    fam = rdl.product_family([rho] * 4, omega)
    path = write_family(tmp_path / "flat.json", fam)
    code, _, err = run(capsys, "two-qubit", "--members", path)
    assert code == 1
    assert "independent" in err


def test_two_qubit_solved_law_does_not_depend_on_member_order(capsys, tmp_path, rng):
    """The law is fitted over every member at once, so permuting them leaves it in place."""
    members = [rdl.random_density_matrix(4, rng) for _ in range(10)]
    solved = []
    for k, order in enumerate((range(10), rng.permutation(10), rng.permutation(10))):
        fam = rdl.StateFamily(rdl.BipartiteDims(2, 2), tuple(members[i] for i in order))
        path = write_family(tmp_path / f"order{k}.json", fam)
        code, out, _ = run(capsys, "two-qubit", "--members", path)
        assert code == 3
        c = json.loads(out)["coefficients_solved"]
        solved.append(np.array([c["a11"], *c["b11"], c["a21"], *c["b21"]]))
    assert np.abs(solved[1] - solved[0]).max() < 1e-12
    assert np.abs(solved[2] - solved[0]).max() < 1e-12


@pytest.mark.parametrize(
    "flags", [("--t", "nan"), ("--omega", "inf"), ("--a11", "nan"), ("--b11", "nan,0,0")]
)
def test_two_qubit_model_and_law_must_be_finite(capsys, flags):
    code, out, err = run(capsys, "two-qubit", "--seed", "1", *flags)
    assert code == 1
    assert out == ""
    assert err.startswith(f"input error: {flags[0].removeprefix('--')} must be finite")


# Exit code and stderr prefix for every exported error class, as the README's table says.
EXIT_TABLE = [
    (rdl.DimensionError, 1),
    (rdl.UnitarityError, 1),
    (rdl.HermiticityError, 1),
    (rdl.NotAStateError, 1),
    (rdl.EmptyFamilyError, 1),
    (rdl.NotInSpanError, 1),
    (rdl.InputError, 1),
    (ValueError, 1),
    (OSError, 1),
    (rdl.RdlError, 2),
]


@pytest.mark.parametrize("error, expected", EXIT_TABLE, ids=[e.__name__ for e, _ in EXIT_TABLE])
def test_error_class_sets_exit_code(capsys, monkeypatch, full_family_file, error, expected):
    """The error is planted in the members' evolution, which the kernel test and the hull call."""

    def fail(*args):
        raise error("planted failure")

    monkeypatch.setattr(rdl.Subspace, "evolved_marginals", fail)
    code, out, err = run(
        capsys,
        "analyze", "--family", full_family_file,
        "--model", "swap", "--hull", "--seed", "1", "--trials", "3",
    )
    prefix = "input error" if expected == 1 else "numerical failure"
    assert code == expected
    assert out == ""
    assert err == f"{prefix}: planted failure\n"


def test_rank_split_too_close_to_the_tolerance_exits_2(capsys, tmp_path, rank_split_family):
    """A real family whose marginals outrank its span at --tol-rank 0.06: numerical failure."""
    path = write_family(tmp_path / "split.json", rank_split_family)
    code, out, err = run(
        capsys, "analyze", "--family", path, "--model", "swap", "--tol-rank", "0.06"
    )
    assert code == 2
    assert out == ""
    assert err.startswith("numerical failure: the marginals have rank 2 in a span of rank 1;")


def test_swap_demo_rejects_unequal_dims(capsys, tmp_path, rng):
    path = tmp_path / "omega.json"
    path.write_text(json.dumps(matrix_to_json(rdl.random_density_matrix(3, rng))))
    code, out, err = run(capsys, "swap-demo", "--omega-e", str(path))
    assert code == 1
    assert out == ""
    assert "input error: swap needs equal factor dimensions" in err


@pytest.mark.parametrize("flag", ["--omega-e", "--states"])
def test_number_too_large_for_a_float_is_input_error(capsys, tmp_path, flag):
    huge = {"rows": 1, "cols": 1, "data": [[10**400, 0]]}
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(huge if flag == "--omega-e" else [huge]))
    code, out, err = run(capsys, "swap-demo", flag, str(path))
    what = "environment state" if flag == "--omega-e" else "system state 0"
    assert code == 1
    assert out == ""
    assert err == f"input error: {what}: entry 0 has a part too large for a float\n"


@pytest.mark.parametrize(
    "flags",
    [
        ("--tol-consistency", "nan"),
        ("--tol-consistency", "-1"),
        ("--tol-consistency", "0"),
        ("--tol-rank", "-1"),
        ("--tol-rank", "inf"),
    ],
)
def test_tol_flags_must_be_finite_and_positive(capsys, flags):
    code, out, err = run(capsys, "swap-demo", *flags)
    name = flags[0].removeprefix("--tol-")
    assert code == 1
    assert out == ""
    assert err.startswith(f"input error: tolerance {name} must be finite and positive")


def test_boolean_json_fields_are_input_errors(capsys, tmp_path):
    path = tmp_path / "bool.json"
    member = {"rows": True, "cols": True, "data": [[1.0, 0.0]]}
    path.write_text(json.dumps({"d_s": 2, "d_e": 1, "members": [member]}))
    code, out, err = run(capsys, "analyze", "--family", str(path), "--model", "swap")
    assert code == 1
    assert out == ""
    assert err == "input error: family member 0: rows/cols must be positive integers\n"


def test_tol_flags_reach_report(capsys, full_family_file):
    code, out, _ = run(
        capsys,
        "analyze", "--family", full_family_file, "--model", "swap",
        "--tol-rank", "1e-7", "--tol-consistency", "1e-5",
    )
    rep = json.loads(out)
    assert rep["tolerances"] == {"rank": 1e-7, "consistency": 1e-5}


def test_tolerance_environment_variable_is_ignored(capsys, monkeypatch):
    """Thresholds come from flags and ToleranceConfig only; the environment changes nothing."""
    argv = (
        "two-qubit",
        "--omega", "1", "--t", "1.3",
        "--a11", "0.15", "--a21", "-0.1",
        "--b11", "0.1,0,0.05", "--b21", "0,0.1,0",
        "--samples", "12", "--scale", "0.3", "--seed", "7",
    )
    _, plain, _ = run(capsys, *argv)
    monkeypatch.setenv("RDL_TOL_OVERRIDE", "0.02")
    _, out, _ = run(capsys, *argv)
    assert out == plain
    rep = json.loads(out)
    assert rep["verdicts"]["completely_positive"] is False
    assert len(rep["kraus"]["terms"]) == 4


def test_exit_table_covers_every_exported_error():
    """An error class added to or dropped from the package needs its row in EXIT_TABLE."""
    exported = {
        obj
        for obj in map(vars(rdl).get, rdl.__all__)
        if isinstance(obj, type) and issubclass(obj, Exception)
    }
    listed = [error for error, _ in EXIT_TABLE]
    assert len(listed) == len(set(listed))
    assert set(listed) == exported | {ValueError, OSError}
