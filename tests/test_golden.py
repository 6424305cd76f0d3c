"""Golden CLI reports: stdout byte for byte, the exit code, and the report schema.

Each file under ``tests/golden/`` is the stdout of one command.  A mismatch
fails with the first differing JSON path and both values there.  A report
whose floats move on purpose is rewritten by ``tests/golden_delta.py
--write``, which counts the changed floats and leaves alone any report with
another kind of difference; such a report is rewritten by running the
command with stdout redirected to its file.  Either way the cause is named
with the change.  ``FAMILY`` stands for a file holding
``full_two_qubit_family()``; no report names it.  ``inputs/`` holds a 3x2
family of 14 random full-rank states and a random 6x6 unitary, so the
coordinate order at d = 3 and d = 6 is pinned too.
"""

import json
import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import jsonschema
import pytest

import rdl
from rdl.cli import main
from rdl.serialize import family_to_json, load_report_schema

GOLDEN = Path(__file__).parent / "golden"
SRC = Path(__file__).parent.parent / "src"
INPUTS = GOLDEN / "inputs"
FAMILY = "FAMILY"

CASES = {
    "two-qubit-hull": (
        ["two-qubit", "--omega", "1", "--t", "1.3", "--a11", "0.15", "--a21", "-0.1",
         "--b11", "0.1,0,0.05", "--b21", "0,0.1,0", "--samples", "12", "--scale", "0.3",
         "--seed", "7", "--hull", "--trials", "200"],
        0,
    ),
    "analyze-full-dump": (
        ["analyze", "--family", FAMILY, "--model", "two-qubit", "--omega", "1.5707963267948966",
         "--t", "1", "--hull", "--trials", "20", "--dump-subspace"],
        3,
    ),
    "analyze-full-swap": (["analyze", "--family", FAMILY, "--model", "swap"], 3),
    "analyze-3x2-dump": (
        ["analyze", "--family", str(INPUTS / "family-3x2.json"),
         "--unitary", str(INPUTS / "unitary-3x2.json"), "--dump-subspace",
         "--hull", "--trials", "20"],
        3,
    ),
    "swap-demo": (["swap-demo"], 0),
    "swap-demo-hull": (["swap-demo", "--hull", "--trials", "20"], 0),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_report_matches_golden(name, tmp_path, capsys):
    family = tmp_path / "family.json"
    family.write_text(json.dumps(family_to_json(rdl.full_two_qubit_family())))
    argv, expected_code = CASES[name]
    code = main([str(family) if a == FAMILY else a for a in argv])
    out = capsys.readouterr().out
    assert code == expected_code
    golden = (GOLDEN / f"{name}.json").read_text()
    jsonschema.validate(json.loads(golden), load_report_schema())
    if out != golden:
        path, old, new = next(
            leaf_differences(json.loads(golden), json.loads(out)), ("$", "<text>", "<text>")
        )
        pytest.fail(f"{name}: report differs from its golden first at {path}: {old!r} -> {new!r}")


def test_cli_report_is_streamed_in_pieces(monkeypatch):
    """The dump report reaches stdout as it is serialized, never as one string."""
    argv, expected_code = CASES["analyze-3x2-dump"]
    pieces = []
    monkeypatch.setattr(sys, "stdout", SimpleNamespace(write=pieces.append))
    assert main(argv) == expected_code
    golden = (GOLDEN / "analyze-3x2-dump.json").read_text()
    assert "".join(pieces) == golden
    assert max(map(len, pieces)) <= len(golden) / 10


def test_cli_report_matches_golden_through_a_real_stdout():
    """``python -m rdl.cli`` writes through a block-buffered stdout, not pytest's capture."""
    argv, expected_code = CASES["analyze-3x2-dump"]
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    proc = subprocess.run(
        [sys.executable, "-m", "rdl.cli", *argv], capture_output=True, env=env, timeout=120
    )
    assert proc.returncode == expected_code, proc.stderr.decode()
    assert proc.stdout == (GOLDEN / "analyze-3x2-dump.json").read_bytes()


_MISSING = "<missing>"


def leaf_differences(old, new, path="$"):
    """Yield (path, old, new) for every leaf where two parsed JSON values differ."""
    if isinstance(old, dict) and isinstance(new, dict):
        for key in sorted(old.keys() | new.keys()):
            yield from leaf_differences(
                old.get(key, _MISSING), new.get(key, _MISSING), f"{path}.{key}"
            )
    elif isinstance(old, list) and isinstance(new, list):
        if len(old) != len(new):
            yield f"{path}.length", len(old), len(new)
        else:
            for i, (a, b) in enumerate(zip(old, new)):
                yield from leaf_differences(a, b, f"{path}[{i}]")
    elif type(old) is not type(new) or old != new:
        if not (isinstance(old, float) and old != old and new != new):  # NaN on both sides
            yield path, old, new
