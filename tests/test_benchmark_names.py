"""The benchmark's workloads call rdl by name; every name they use must still resolve.

Every ``rdl.*(...)`` call in the workloads and the ladder must also bind to
its callee's signature, so a changed signature fails here before it breaks
the benchmark.  The tracer's observers also read the wrapped calls'
arguments by parameter name, so each name they read must still be a
parameter of what they wrap.
"""

import ast
import importlib
import inspect
from pathlib import Path

import pytest

WORKLOADS = Path(__file__).parent.parent / "perfbench" / "workloads.py"
TRACING = Path(__file__).parent.parent / "perfbench" / "tracing.py"
LADDER = Path(__file__).parent.parent / "perfbench" / "ladder.py"


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


def rdl_calls(source: str) -> list[tuple[int, str, int, tuple[str, ...]]]:
    """(line, callee, positional count, keyword names) of each ``rdl.*(...)`` call in ``source``."""
    calls = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call) and (name := _dotted(node.func)):
            keywords = tuple(k.arg for k in node.keywords)
            assert not any(isinstance(a, ast.Starred) for a in node.args) and None not in keywords
            calls.append((node.lineno, name, len(node.args), keywords))
    return sorted(calls)


def unbound_calls(source: str) -> list[str]:
    """Each ``rdl.*(...)`` call in ``source`` that its callee's signature cannot bind, with why."""
    unbound = []
    for line, name, positional, keywords in rdl_calls(source):
        try:
            inspect.signature(resolve(name)).bind(*[None] * positional, **dict.fromkeys(keywords))
        except TypeError as err:
            unbound.append(f"line {line}: {name}: {err}")
    return unbound


@pytest.mark.parametrize("path", [WORKLOADS, LADDER], ids=lambda p: p.name)
def test_benchmark_calls_bind_to_their_signatures(path):
    source = path.read_text()
    stages = {"rdl.build_subspace", "rdl.check_subspace_consistency", "rdl.build_dynamical_map"}
    assert stages <= {name for _, name, _, _ in rdl_calls(source)}
    assert unbound_calls(source) == []


def test_a_stray_keyword_does_not_bind():
    source = (
        "superop = rdl.build_dynamical_map(rdl.build_assignment(sub), u, consistency=rep, tols=tols)\n"
    )
    [message] = unbound_calls(source)
    assert message.startswith("line 1: rdl.build_dynamical_map: ")
    assert "tols" in message
    assert unbound_calls(source.replace(", tols=tols", "")) == []
    assert len(unbound_calls("rdl.verdicts(superop, 1e-9)\nrdl.build_subspace()\n")) == 2


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
