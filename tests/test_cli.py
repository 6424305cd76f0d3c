"""End-to-end command-line behavior: exit codes, report shape, determinism."""

import ast
import json
import sys
from pathlib import Path
from types import SimpleNamespace

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
        "--hull", "--dump-subspace",
    )
    assert code == 3
    rep = json.loads(out)
    jsonschema.validate(rep, load_report_schema())
    hull = rep["hull_consistency"]
    assert hull["pairs_tested"] is None
    assert hull["max_violation"] == 2 * rep["consistency"]["max_violation"]
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


def test_swap_demo_pairs_are_the_trace_distances_of_each_pair(capsys, tmp_path, rng):
    """One batched eigvalsh gives, bit for bit, what trace_distance gives pair by pair."""
    states = [rdl.random_density_matrix(3, rng) for _ in range(5)]
    omega = rdl.random_density_matrix(3, rng)
    (tmp_path / "states.json").write_text(json.dumps([matrix_to_json(s) for s in states]))
    (tmp_path / "omega.json").write_text(json.dumps(matrix_to_json(omega)))
    code, out, _ = run(
        capsys, "swap-demo", "--states", str(tmp_path / "states.json"),
        "--omega-e", str(tmp_path / "omega.json"),
    )
    assert code == 0
    rep = json.loads(out)
    a = rdl.analyze(rdl.product_family(states, omega), rdl.swap_unitary(3))
    reduced = a.family.reduced()
    images = [a.superoperator.apply(r) for r in reduced]
    want = [
        {
            "before": rdl.trace_distance(reduced[i], reduced[j]),
            "after": rdl.trace_distance(images[i], images[j]),
        }
        for i in range(5)
        for j in range(i + 1, 5)
    ]
    for w in want:
        w["increased"] = w["after"] > w["before"] + rdl.DEFAULT_TOL.psd
    assert rep["pairs"] == want
    assert rep["constant_output_deviation"] == max(rdl.max_norm(im - omega) for im in images)


def test_hull_run_builds_the_subspace_once(capsys, monkeypatch):
    """The hull bound reads the pipeline's Subspace instead of building its own."""
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
    assert json.loads(out)["hull_consistency"]["pairs_tested"] is None
    assert len(calls) == 1


def benchmark_flagship() -> tuple[str, ...]:
    """``CliCaseStudy.flagship`` of ``perfbench/workloads.py``, read without importing it."""
    source = Path(__file__).parent.parent / "perfbench" / "workloads.py"
    for node in ast.walk(ast.parse(source.read_text())):
        if isinstance(node, ast.ClassDef) and node.name == "CliCaseStudy":
            for stmt in node.body:
                if isinstance(stmt, ast.Assign) and ast.unparse(stmt.targets[0]) == "flagship":
                    return ast.literal_eval(stmt.value)
    raise AssertionError("perfbench/workloads.py defines no CliCaseStudy.flagship")


def test_benchmark_flagship_command_line_still_passes(capsys):
    """The benchmark's flagship runs with ``--trials K --seed k`` appended and must pass its check.

    The workload requires exit 0, a consistent ``hull_consistency`` and a map
    that is not completely positive; a change to the command line that breaks
    any of them fails here first.
    """
    code, out, _ = run(capsys, *benchmark_flagship(), "--trials", "20", "--seed", "0")
    assert code == 0
    rep = json.loads(out)
    assert rep["consistent"] is True
    assert rep["hull_consistency"] is not None and rep["hull_consistency"]["consistent"]
    assert rep["verdicts"]["completely_positive"] is False


def test_reports_are_byte_deterministic(capsys, full_family_file):
    args = (
        "analyze", "--family", full_family_file,
        "--model", "two-qubit", "--omega", "1.1", "--t", "1.0", "--hull",
    )
    _, out1, err1 = run(capsys, *args)
    _, out2, err2 = run(capsys, *args)
    assert out1 == out2
    assert err1 == err2


@pytest.mark.parametrize("extra", [[], ["--dump-subspace"]], ids=["plain", "dump-subspace"])
def test_out_flag_duplicates_stdout(capsys, tmp_path, full_family_file, extra):
    """The report is streamed twice, stdout then ``--out``; the two byte streams agree."""
    target = tmp_path / "report.json"
    code, out, _ = run(
        capsys,
        "analyze", "--family", full_family_file, "--model", "swap", "--out", str(target), *extra,
    )
    assert code in (0, 3)
    assert target.read_bytes() == out.encode()
    assert (json.loads(out)["subspace"]["detail"] is not None) == bool(extra)


def test_stdout_write_failure_is_input_error_and_skips_out(
    capsys, monkeypatch, tmp_path, full_family_file
):
    """A reader that goes away after the first piece: one error line, and no ``--out`` file."""
    pieces = []

    def write(text):
        if pieces:
            raise BrokenPipeError(32, "Broken pipe")
        pieces.append(text)

    target = tmp_path / "report.json"
    monkeypatch.setattr(sys, "stdout", SimpleNamespace(write=write))
    code = main(["analyze", "--family", full_family_file, "--model", "swap", "--out", str(target)])
    assert code == 1
    assert len(pieces) == 1
    assert capsys.readouterr().err == "input error: cannot write stdout: [Errno 32] Broken pipe\n"
    assert not target.exists()


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


def test_non_utf8_family_file_names_its_path(capsys, tmp_path):
    path = tmp_path / "latin.json"
    path.write_bytes(b"\xff\xfe{}")
    code, out, err = run(capsys, "analyze", "--family", str(path), "--model", "swap")
    assert code == 1
    assert out == ""
    assert err == (
        f"input error: cannot read {path}: "
        "'utf-8' codec can't decode byte 0xff in position 0: invalid start byte\n"
    )


def test_deeply_nested_json_is_input_error(capsys, tmp_path):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000 + "]" * 100_000)
    code, out, err = run(capsys, "analyze", "--family", str(path), "--model", "swap")
    assert code == 1
    assert out == ""
    assert err == f"input error: {path}: JSON nested too deeply\n"


def test_out_flag_naming_a_directory_is_input_error(capsys, tmp_path, full_family_file):
    code, out, err = run(
        capsys, "analyze", "--family", full_family_file, "--model", "swap", "--out", str(tmp_path)
    )
    assert code == 1
    assert json.loads(out)["command"] == "analyze"  # stdout is written first
    assert err == f"input error: cannot write {tmp_path}: [Errno 21] Is a directory: '{tmp_path}'\n"


def test_infinite_diagonal_entry_is_one_input_error_line(capsys, tmp_path):
    """inf - inf on the diagonal is NaN, refused as non-Hermitian without a RuntimeWarning."""
    obj = family_to_json(rdl.full_two_qubit_family())
    obj["members"][1]["data"][0][0] = float("inf")
    path = tmp_path / "inf.json"
    path.write_text(json.dumps(obj))
    code, out, err = run(capsys, "analyze", "--family", str(path), "--model", "swap")
    assert code == 1
    assert out == ""
    assert err == "input error: member 1 is not Hermitian: max |X - X^dag| = nan > 1.000e-09\n"


def test_malformed_json_reports_location(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"d_s": 2,\n  "oops"')
    code, _, err = run(capsys, "analyze", "--family", str(bad), "--model", "swap")
    assert code == 1
    assert err == f"input error: {bad}: malformed JSON at line 2, column 9: Expecting ':' delimiter\n"


def test_malformed_json_names_the_broken_file_of_two(capsys, tmp_path):
    states = tmp_path / "states.json"
    states.write_text(json.dumps([matrix_to_json(np.eye(2, dtype=complex) / 2)]))
    omega = tmp_path / "omega.json"
    omega.write_text('{"rows": 2,\n "cols"')
    code, out, err = run(capsys, "swap-demo", "--states", str(states), "--omega-e", str(omega))
    assert code == 1
    assert out == ""
    assert err == f"input error: {omega}: malformed JSON at line 2, column 8: Expecting ':' delimiter\n"


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


@pytest.mark.parametrize("flag", ["--omega", "--t"])
@pytest.mark.parametrize("source", ["unitary", "swap"])
def test_omega_and_t_need_the_two_qubit_model(capsys, tmp_path, full_family_file, flag, source):
    """A coupling or a time that no propagator reads is an input error, not silently dropped."""
    if source == "unitary":
        upath = tmp_path / "u.json"
        upath.write_text(json.dumps(matrix_to_json(np.eye(4, dtype=complex))))
        argv = ("--unitary", str(upath))
    else:
        argv = ("--model", "swap")
    code, out, err = run(capsys, "analyze", "--family", full_family_file, *argv, flag, "1.0")
    assert code == 1
    assert out == ""
    assert "--omega and --t apply only to --model two-qubit" in err


def test_model_two_qubit_needs_omega_and_t(capsys, full_family_file):
    code, _, err = run(capsys, "analyze", "--family", full_family_file, "--model", "two-qubit")
    assert code == 1
    assert "--omega" in err


def test_two_qubit_generation_requires_seed(capsys):
    code, _, err = run(capsys, "two-qubit", "--samples", "4")
    assert code == 1
    assert "--seed" in err or "seed" in err


def test_negative_seed_is_input_error(capsys):
    """The member draws, the one path that samples, refuse a negative seed."""
    code, out, err = run(capsys, "two-qubit", "--seed", "-1")
    assert code == 1
    assert out == ""
    assert err == "input error: seed must be nonnegative, got -1\n"


@pytest.mark.parametrize("command", ["analyze", "swap-demo"])
def test_commands_that_draw_nothing_take_no_seed(capsys, full_family_file, command):
    argv = [command]
    if command == "analyze":
        argv += ["--family", full_family_file, "--model", "swap"]
    code, out, err = run(capsys, *argv, "--hull", "--seed", "1")
    assert code == 1
    assert out == ""
    assert err == "input error: unrecognized arguments: --seed 1\n"


def test_trials_is_accepted_and_ignored(capsys, full_family_file):
    argv = ["analyze", "--family", full_family_file, "--model", "swap", "--hull"]
    plain = run(capsys, *argv)
    assert run(capsys, *argv, "--trials", "1000") == plain
    assert run(capsys, *argv, "--trials", "0") == plain


def test_two_qubit_members_need_independent_bloch_vectors(capsys, tmp_path):
    rho = np.diag([0.6, 0.4]).astype(complex)
    omega = np.eye(2, dtype=complex) / 2
    fam = rdl.product_family([rho] * 4, omega)
    path = write_family(tmp_path / "flat.json", fam)
    code, out, err = run(capsys, "two-qubit", "--members", path)
    assert (code, out) == (1, "")
    assert "fewer than 4 members with independent Bloch vectors (rank 1 at tolerance 1.0e-08)" in err


@pytest.mark.parametrize(
    "flags, named",
    [
        (("--seed", "5"), "--seed"),
        (("--samples", "99"), "--samples"),
        (("--scale", "0.9"), "--scale"),
        (("--a11", "0.3"), "--a11"),
        (("--a21", "0.3"), "--a21"),
        (("--b11", "1,0,0"), "--b11"),
        (("--b21", "1,0,0"), "--b21"),
        (("--scale", "0.9", "--seed", "5"), "--seed, --scale"),
    ],
)
def test_two_qubit_members_refuse_sampling_flags(capsys, full_family_file, flags, named):
    """A flag that only shapes sampled members is an input error, not silently dropped."""
    code, out, err = run(capsys, "two-qubit", "--members", full_family_file, *flags)
    assert code == 1
    assert out == ""
    assert err == f"input error: --members takes no sampling flags, got {named}\n"


def test_two_qubit_sampling_defaults_apply_when_flags_are_absent(capsys):
    spelled = (
        "--samples", "12", "--scale", "0.35",
        "--a11", "0", "--a21", "0", "--b11", "0,0,0", "--b21", "0,0,0",
    )
    bare = run(capsys, "two-qubit", "--seed", "3")
    assert bare[0] == 0
    assert run(capsys, "two-qubit", "--seed", "3", *spelled) == bare


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


# Every exception class the package exports.
EXPORTED_ERRORS = sorted(
    (
        obj
        for obj in map(vars(rdl).get, rdl.__all__)
        if isinstance(obj, type) and issubclass(obj, Exception)
    ),
    key=lambda e: e.__name__,
)


def planted_run(monkeypatch, error, family_file):
    """argv of a hull run on ``family_file``, with ``error`` planted in the members' evolution.

    The kernel test and the hull bound read that one evolution.
    """

    def fail(*args):
        raise error("planted failure")

    monkeypatch.setattr(rdl.operators, "_reduced_propagator", fail)
    return [
        "analyze", "--family", family_file, "--model", "swap", "--hull", "--trials", "3"
    ]


@pytest.mark.parametrize("error", EXPORTED_ERRORS, ids=[e.__name__ for e in EXPORTED_ERRORS])
def test_error_class_sets_exit_code(capsys, monkeypatch, full_family_file, error):
    code, out, err = run(capsys, *planted_run(monkeypatch, error, full_family_file))
    prefix = "input error" if error.exit_code == 1 else "numerical failure"
    assert code == error.exit_code
    assert out == ""
    assert err == f"{prefix}: planted failure\n"


@pytest.mark.parametrize("error", [ValueError, OSError])
def test_foreign_error_propagates_out_of_main(capsys, monkeypatch, full_family_file, error):
    """A ValueError or OSError that is no RdlError is a fault of the program, not an input error."""
    argv = planted_run(monkeypatch, error, full_family_file)
    with pytest.raises(error, match="^planted failure$") as info:
        main(argv)
    assert type(info.value) is error
    assert capsys.readouterr() == ("", "")


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
    """Every exported error class carries its exit status: 1 for an input error, 2 otherwise."""
    assert {rdl.RdlError, rdl.InputError} <= set(EXPORTED_ERRORS)
    for error in EXPORTED_ERRORS:
        assert issubclass(error, rdl.RdlError)
        is_input = issubclass(error, rdl.InputError)
        assert error.exit_code == (1 if is_input else 2)
        assert error.kind == ("input error" if is_input else "numerical failure")
    assert issubclass(rdl.InputError, ValueError)


@pytest.fixture
def family_3x2_file(tmp_path):
    fam = rdl.product_family([np.eye(3, dtype=complex) / 3], np.eye(2, dtype=complex) / 2)
    return write_family(tmp_path / "family-3x2.json", fam)


@pytest.mark.parametrize(
    "argv, message",
    [
        (("two-qubit", "--seed", "1", "--b11", "1,2"), "--b11 needs three comma-separated numbers, got '1,2'"),
        (("two-qubit", "--seed", "1", "--b11", "a,b,c"), "--b11 needs numeric entries, got 'a,b,c'"),
        (("two-qubit", "--seed", "1", "--samples", "0"), "--samples must be at least 1, got 0"),
        (
            ("analyze", "--family", "{3x2}", "--model", "two-qubit", "--omega", "1", "--t", "1"),
            "--model two-qubit needs a 2x2 system-environment family",
        ),
        (
            ("analyze", "--family", "{3x2}", "--model", "swap"),
            "--model swap needs equal dimensions, family has d_s=3, d_e=2",
        ),
        (("two-qubit", "--members", "{3x2}"), "--members must hold a 2x2 system-environment family"),
    ],
    ids=["b11-two-entries", "b11-not-numeric", "no-samples", "two-qubit-model-3x2", "swap-model-3x2",
         "members-3x2"],
)
def test_cli_refuses_malformed_flags_and_misshapen_families(capsys, family_3x2_file, argv, message):
    argv = [family_3x2_file if a == "{3x2}" else a for a in argv]
    assert run(capsys, *argv) == (1, "", f"input error: {message}\n")


@pytest.mark.parametrize("states", [[], {"rows": 2, "cols": 2, "data": []}], ids=["empty", "object"])
def test_swap_demo_states_must_be_a_non_empty_list(capsys, tmp_path, states):
    path = tmp_path / "states.json"
    path.write_text(json.dumps(states))
    code, out, err = run(capsys, "swap-demo", "--states", str(path))
    assert (code, out) == (1, "")
    assert err == "input error: --states must hold a non-empty JSON list of matrices\n"
