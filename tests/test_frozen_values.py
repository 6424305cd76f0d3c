"""Frozen values are written only while they are built, in ``__post_init__``."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "rdl"


def writes_after_construction(source: str) -> list[str]:
    """Where ``object.__setattr__`` is called outside a ``__post_init__``.

    Each entry reads ``line N in F``, F the innermost enclosing function.
    """
    found = []

    def visit(node, func):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            func = getattr(node, "name", "<lambda>")
        call = node.func if isinstance(node, ast.Call) else None
        if (
            isinstance(call, ast.Attribute)
            and call.attr == "__setattr__"
            and isinstance(call.value, ast.Name)
            and call.value.id == "object"
            and func != "__post_init__"
        ):
            found.append(f"line {node.lineno} in {func or '<module>'}")
        for child in ast.iter_child_nodes(node):
            visit(child, func)

    visit(ast.parse(source), None)
    return found


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_object_setattr_only_in_post_init(path):
    assert writes_after_construction(path.read_text()) == []


def test_a_write_after_construction_is_caught():
    source = (
        "class A:\n"
        "    def __post_init__(self):\n"
        "        object.__setattr__(self, 'x', 1)\n"
        "    def memo(self, u):\n"
        "        object.__setattr__(self, '_memo', u)\n"
        "object.__setattr__(A, 'y', 2)\n"
    )
    assert writes_after_construction(source) == ["line 5 in memo", "line 6 in <module>"]
