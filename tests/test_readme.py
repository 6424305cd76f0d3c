"""README's quick start and command-line synopsis, checked against the code."""

import argparse
import re
from pathlib import Path

import numpy as np

import rdl
from rdl.cli import _build_parser

README = Path(__file__).parent.parent / "README.md"
FLAG = r"--[a-z][a-z0-9-]*"


def quick_start() -> dict:
    """Run the README's ``python`` block and return its namespace."""
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), flags=re.DOTALL)
    assert len(blocks) == 1
    namespace = {}
    exec(compile(blocks[0], str(README), "exec"), namespace)
    return namespace


def test_quick_start_matches_its_comments():
    ns = quick_start()
    a = ns["a"]
    sub = a.subspace
    assert (sub.span_dim, sub.reduced_dim, sub.kernel_dim) == (12, 4, 8)
    assert a.consistent and a.consistency.max_violation < 1e-14
    assert a.verdicts.trace_preserving is True
    assert a.verdicts.completely_positive is False
    assert abs(a.verdicts.choi_min_eigenvalue + 0.01304) <= 5e-5
    assert "".join("+" if e > 0 else "-" for e, _ in a.kraus.terms) == "--++"

    law, residuals = ns["law"], ns["residuals"]
    got = [law.a11, *law.b11, law.a21, *law.b21]
    assert np.abs(np.subtract(got, [0.15, 0.1, 0, 0.05, -0.1, 0, 0.1, 0])).max() < 1e-12
    assert residuals.shape == (len(ns["family"]), 2) and np.abs(residuals).max() < 1e-14

    phi, rho = ns["phi"], ns["rho"]
    by_matrix = rdl.from_basis_coords(phi.matrix @ rdl.basis_coords(rho, 2), 2)
    assert np.abs(phi.apply(rho) - by_matrix).max() < 1e-14


def synopsis_flags() -> dict:
    """The flags README's ``## Command line`` synopsis names, per subcommand.

    A line ``rdl NAME ...`` starts a subcommand, indented lines continue the
    entry above them, and the ``COMMON:`` entry lists the flags of every
    subcommand whose entry says ``[COMMON]``.
    """
    section = README.read_text().split("## Command line", 1)[1]
    block = re.search(r"```\n(.*?)```", section, flags=re.DOTALL).group(1)
    entries, name = {}, None
    for line in block.splitlines():
        head = re.match(r"(?:rdl ([a-z-]+)|(COMMON):)", line)
        if head:
            name = head.group(1) or head.group(2)
            entries[name] = ""
        if line.strip():
            entries[name] += line
    common = set(re.findall(FLAG, entries.pop("COMMON")))
    return {
        name: set(re.findall(FLAG, text)) | (common if "[COMMON]" in text else set())
        for name, text in entries.items()
    }


def test_command_line_synopsis_names_every_flag():
    (subcommands,) = (
        action.choices
        for action in _build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    )
    accepted = {
        name: {flag for action in sub._actions for flag in action.option_strings} - {"-h", "--help"}
        for name, sub in subcommands.items()
    }
    assert synopsis_flags() == accepted
