"""The benchmark's workloads call rdl by name; every name they use must still resolve.

The tracer's observers also read the wrapped calls' arguments by parameter
name, so each name they read must still be a parameter of what they wrap.
"""

import ast
import importlib
import inspect
from pathlib import Path

import pytest

WORKLOADS = Path(__file__).parent.parent / "perfbench" / "workloads.py"
TRACING = Path(__file__).parent.parent / "perfbench" / "tracing.py"


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


def _assigned(tree, name):
    """The value bound to the module-level name ``name``."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == name for t in node.targets
        ):
            return node.value
    raise AssertionError(f"tracing.py binds no {name}")


def _argument_keys(func):
    """The constant keys ``func`` subscripts ``args.arguments`` with; ``.get`` reads may miss."""
    return {
        node.slice.value
        for node in ast.walk(func)
        if isinstance(node, ast.Subscript)
        and isinstance(node.value, ast.Attribute)
        and node.value.attr == "arguments"
        and isinstance(node.slice, ast.Constant)
    }


def observed_parameters() -> list[tuple[str, str, str]]:
    """(module, name, key) for every wrapped target whose observer reads argument ``key``.

    Read from tracing.py without importing it: ``OBSERVERS`` maps a wrapped
    name to its observer function, and ``IN_PROCESS_TARGETS`` and
    ``CLI_TARGETS`` list (module, names) pairs.
    """
    tree = ast.parse(TRACING.read_text())
    functions = {n.name: n for n in tree.body if isinstance(n, ast.FunctionDef)}
    observers = _assigned(tree, "OBSERVERS")
    keys = {
        k.value: _argument_keys(functions[v.id]) for k, v in zip(observers.keys, observers.values)
    }
    out = []
    for targets in ("IN_PROCESS_TARGETS", "CLI_TARGETS"):
        for pair in _assigned(tree, targets).elts:
            module_node, names = pair.elts
            module = _dotted(module_node) or module_node.id
            for name in (n.value for n in names.elts):
                out += [(module, name, key) for key in sorted(keys.get(name, ()))]
    return out


def test_observers_read_the_arguments_this_test_expects():
    found = observed_parameters()
    assert ("rdl", "check_subspace_consistency", "subspace") in found
    assert ("rdl.cli", "_load_json", "path") in found


@pytest.mark.parametrize("module, name, key", observed_parameters())
def test_observed_argument_is_a_parameter(module, name, key):
    target = getattr(resolve(module), name, None)
    if target is None:
        pytest.skip(f"{module} no longer binds {name}; the tracer skips it too")
    assert key in inspect.signature(target).parameters
