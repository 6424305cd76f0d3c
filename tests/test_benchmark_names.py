"""The benchmark's workloads call rdl by name; every name they use must still resolve."""

import ast
import importlib
from pathlib import Path

import pytest

WORKLOADS = Path(__file__).parent.parent / "perfbench" / "workloads.py"


def _dotted(node):
    """``rdl.a.b`` for an attribute chain rooted at the name ``rdl``, else None."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name) and node.id == "rdl" and parts:
        return ".".join(["rdl", *reversed(parts)])
    return None


def workload_names() -> list[str]:
    """Every ``rdl.X`` / ``rdl.X.Y`` chain and ``import rdl.X`` in the workloads, read without running them."""
    names = set()
    for node in ast.walk(ast.parse(WORKLOADS.read_text())):
        if isinstance(node, ast.Import):
            names.update(a.name for a in node.names if a.name.startswith("rdl."))
        elif isinstance(node, ast.Attribute) and (name := _dotted(node)):
            names.add(name)
    return sorted(names)


def resolve(dotted: str):
    """The object ``dotted`` names, importing a submodule where an attribute is missing."""
    parts = dotted.split(".")
    obj = importlib.import_module(parts[0])
    for i, part in enumerate(parts[1:], start=2):
        try:
            obj = getattr(obj, part)
        except AttributeError:
            obj = importlib.import_module(".".join(parts[:i]))
    return obj


def test_workloads_use_the_names_this_test_expects():
    names = workload_names()
    for expected in ("rdl.build_assignment", "rdl.cli.main", "rdl.serialize.load_report_schema"):
        assert expected in names


@pytest.mark.parametrize("dotted", workload_names())
def test_benchmark_workload_name_resolves(dotted):
    resolve(dotted)
