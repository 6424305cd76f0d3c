"""README's quick start, executed, with the values its comments state."""

import re
from pathlib import Path

import numpy as np

import rdl

README = Path(__file__).parent.parent / "README.md"


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
