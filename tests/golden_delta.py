"""Rerun the golden CLI cases and say how each report moved, float by float.

Run from the repository root:

    PYTHONPATH=src python tests/golden_delta.py           # report only
    PYTHONPATH=src python tests/golden_delta.py --write   # also rewrite float-only changes

For every case in ``test_golden.CASES`` it prints the exit code against the
expected one, each difference that is not a float (keys, bools, ints,
strings, list lengths, a type change), the number of floats that changed
with the largest |delta|, and those counts per JSON path with list indices
and a matrix's ``data`` key dropped (``consistency.witness``,
``subspace.detail.kernel_basis``).  ``--write`` rewrites a golden only when
its exit code matches and every difference is a float, so a change in a
verdict, a dimension or a count is never written over.  Exits 1 when any
case has a wrong exit code or a non-float difference.  The file name keeps
pytest from collecting it.
"""

import argparse
import io
import json
import re
import sys
import tempfile
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import rdl
from rdl.cli import main
from rdl.serialize import family_to_json
from test_golden import CASES, FAMILY, GOLDEN, leaf_differences

def path_group(path):
    """``path`` without the root, list indices, or a trailing matrix ``data`` key."""
    return re.sub(r"\[\d+\]", "", path).removeprefix("$.").removesuffix(".data")


def run_case(argv, family_file):
    """Exit code and stdout of one CLI run, with stderr dropped."""
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        code = main([str(family_file) if a == FAMILY else a for a in argv])
    return code, out.getvalue()


def compare(name, argv, expected_code, family_file, write):
    """Print one case's delta; True when it has no exit-code or non-float difference."""
    golden = GOLDEN / f"{name}.json"
    code, text = run_case(argv, family_file)
    old = golden.read_text()
    if text == old:
        print(f"{name}: exit {code} (expected {expected_code}); byte-identical")
        return code == expected_code
    floats, other, groups = [], [], Counter()
    for path, a, b in leaf_differences(json.loads(old), json.loads(text)):
        if type(a) is float and type(b) is float:
            floats.append(abs(b - a))
            groups[path_group(path)] += 1
        else:
            other.append((path, a, b))
    print(
        f"{name}: exit {code} (expected {expected_code}); "
        f"{len(floats)} floats changed, max |delta| {max(floats, default=0.0):.3e}; "
        f"{len(other)} other differences"
    )
    for group, count in sorted(groups.items()):
        print(f"  {group}: {count} floats")
    for path, a, b in other:
        print(f"  {path}: {a!r} -> {b!r}")
    clean = code == expected_code and not other
    if write and clean:
        golden.write_text(text)
        print(f"  rewrote {golden}")
    return clean


def run(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--write", action="store_true", help="rewrite goldens whose only differences are floats"
    )
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        family_file = Path(tmp) / "family.json"
        family_file.write_text(json.dumps(family_to_json(rdl.full_two_qubit_family())))
        clean = [
            compare(name, *CASES[name], family_file, args.write) for name in sorted(CASES)
        ]
    return 0 if all(clean) else 1


if __name__ == "__main__":
    sys.exit(run())
