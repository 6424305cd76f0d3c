"""The runtime needs numpy alone: test-only packages stay out of the import graph."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

tomllib = pytest.importorskip("tomllib")

ROOT = Path(__file__).resolve().parent.parent
TEST_ONLY = ("scipy", "jsonschema", "hypothesis", "pytest")


def test_rdl_imports_no_test_only_package():
    probe = (
        "import json, sys; import rdl, rdl.cli, rdl.serialize; "
        "print(json.dumps(sorted(m for m in sys.modules if m.split('.')[0] in %r)))" % (TEST_ONLY,)
    )
    path = os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")])
    result = subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True,
        text=True,
        check=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert json.loads(result.stdout) == []


def test_declared_runtime_dependencies_are_numpy_only():
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    assert project["dependencies"] == ["numpy>=2.0"]
