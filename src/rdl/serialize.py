"""JSON wire formats.

Complex matrices travel as {"rows": n, "cols": n, "data": [[re, im], ...]}
with entries flattened in row-major order.  Malformed input raises an
InputError with enough context to locate the problem.
"""

from __future__ import annotations

import importlib.resources
import json
from collections.abc import Callable
from itertools import chain
from json.encoder import encode_basestring_ascii

import numpy as np

from .config import DEFAULT_TOL, ToleranceConfig
from .consistency import ConsistencyReport
from .errors import InputError
from .families import StateFamily
from .operators import BipartiteDims
from .pipeline import Analysis
from .subspace import Subspace
from .two_qubit import LinearityCoefficients

SCHEMA_ID = "rdl/2"


def matrix_to_json(a: np.ndarray) -> dict:
    a = np.asarray(a, dtype=complex)
    if a.ndim != 2:
        raise InputError(f"can only serialize 2-d arrays, got ndim {a.ndim}")
    rows, cols = a.shape
    return {
        "rows": int(rows),
        "cols": int(cols),
        "data": np.ascontiguousarray(a).view(float).reshape(-1, 2).tolist(),
    }


def matrix_from_json(obj, what: str = "matrix") -> np.ndarray:
    if not isinstance(obj, dict):
        raise InputError(f"{what}: expected an object, got {type(obj).__name__}")
    for key in ("rows", "cols", "data"):
        if key not in obj:
            raise InputError(f"{what}: missing key {key!r}")
    rows, cols = obj["rows"], obj["cols"]
    if not (_is_int(rows) and _is_int(cols) and rows > 0 and cols > 0):
        raise InputError(f"{what}: rows/cols must be positive integers")
    data = obj["data"]
    if not isinstance(data, list) or len(data) != rows * cols:
        raise InputError(
            f"{what}: data must hold rows*cols = {rows * cols} entries, got "
            f"{len(data) if isinstance(data, list) else type(data).__name__}"
        )
    pairs = _number_pairs(data)
    out = np.zeros(rows * cols, dtype=complex)
    if pairs is not None:  # filled part by part: re + 1j * im would turn inf into NaN
        out.real, out.imag = pairs[:, 0], pairs[:, 1]
        return out.reshape(rows, cols)
    for idx, entry in enumerate(data):
        if (
            not isinstance(entry, list)
            or len(entry) != 2
            or not all(isinstance(v, float) or _is_int(v) for v in entry)
        ):
            raise InputError(f"{what}: entry {idx} must be a [re, im] pair, got {entry!r}")
        try:
            out[idx] = complex(entry[0], entry[1])
        except OverflowError:
            raise InputError(f"{what}: entry {idx} has a part too large for a float") from None
    return out.reshape(rows, cols)


def _is_int(v) -> bool:
    """True for an int that is not a bool: JSON's true and false are no numbers."""
    return isinstance(v, int) and not isinstance(v, bool)


def _number_pairs(data: list) -> np.ndarray | None:
    """``data`` as an (n, 2) array when every entry is a 2-list of numbers, else None.

    None sends the caller to its entry-by-entry loop, whose message names the
    first bad entry.
    """
    if (
        set(map(type, data)) != {list}
        or set(map(len, data)) != {2}
        or bool in set(map(type, chain.from_iterable(data)))
    ):
        return None
    try:
        pairs = np.array(data)
    except ValueError:  # ragged nesting inside an entry
        return None
    return pairs if pairs.shape == (len(data), 2) and pairs.dtype.kind in "iuf" else None


def family_to_json(family: StateFamily) -> dict:
    return {
        "d_s": family.dims.d_s,
        "d_e": family.dims.d_e,
        "label": family.label,
        "members": [matrix_to_json(m) for m in family.members],
    }


def family_from_json(obj, tol: ToleranceConfig = DEFAULT_TOL) -> StateFamily:
    if not isinstance(obj, dict):
        raise InputError(f"family: expected an object, got {type(obj).__name__}")
    for key in ("d_s", "d_e", "members"):
        if key not in obj:
            raise InputError(f"family: missing key {key!r}")
    if not isinstance(obj["members"], list):
        raise InputError("family: members must be a list")
    members = [
        matrix_from_json(m, what=f"family member {i}") for i, m in enumerate(obj["members"])
    ]
    label = obj.get("label", "")
    if not isinstance(label, str):
        raise InputError("family: label must be a string")
    dims = BipartiteDims(d_s=obj["d_s"], d_e=obj["d_e"])
    return StateFamily(dims=dims, members=tuple(members), label=label, tol=tol)


def consistency_report_to_json(rep: ConsistencyReport) -> dict:
    return {
        "consistent": rep.consistent,
        "max_violation": rep.max_violation,
        "tolerance": rep.tolerance,
        "witness": None if rep.witness is None else matrix_to_json(rep.witness),
        "pairs_tested": rep.pairs_tested,
        "marginal": rep.marginal,
    }


def subspace_to_json(sub: Subspace) -> dict:
    return {
        "d_s": sub.dims.d_s,
        "d_e": sub.dims.d_e,
        "tol_rank": sub.tol.rank,
        "span_basis": [matrix_to_json(e) for e in sub.span_basis],
        "kernel_basis": [matrix_to_json(e) for e in sub.kernel_basis],
    }


def coefficients_to_json(c: LinearityCoefficients) -> dict:
    return {
        "a11": c.a11,
        "b11": [float(v) for v in c.b11],
        "a21": c.a21,
        "b21": [float(v) for v in c.b21],
    }


def analysis_to_json(a: Analysis, command: str, dump_subspace: bool = False) -> dict:
    """The report fields every command shares; commands add their own keys.

    The tolerances are the ones the subspace and the kernel test ran with.
    """
    sub = a.subspace
    return {
        "schema": SCHEMA_ID,
        "command": command,
        "dims": {"d_s": sub.dims.d_s, "d_e": sub.dims.d_e},
        "family": {"label": a.family.label, "members": len(a.family), "rejected": None},
        "subspace": {
            "span_dim": sub.span_dim,
            "reduced_dim": sub.reduced_dim,
            "kernel_dim": sub.kernel_dim,
            "detail": subspace_to_json(sub) if dump_subspace else None,
        },
        "consistency": consistency_report_to_json(a.consistency),
        "hull_consistency": None if a.hull is None else consistency_report_to_json(a.hull),
        "consistent": a.consistent,
        "map": {
            "d_s": a.superoperator.d_s,
            "matrix": matrix_to_json(a.superoperator.matrix),
            "choi": matrix_to_json(a.superoperator.choi),
            "extension": "zero",  # the only completion outside the reduced span
            "consistency_certified": a.superoperator.consistency_certified,
        },
        "kraus": {"terms": [{"e": e, "op": matrix_to_json(op)} for e, op in a.kraus.terms]},
        "verdicts": {
            "hermitian_preserving": True,  # a real map matrix preserves Hermiticity
            "trace_preserving": a.verdicts.trace_preserving,
            "completely_positive": a.verdicts.completely_positive,
            "choi_min_eigenvalue": a.verdicts.choi_min_eigenvalue,
        },
        "tolerances": {"rank": sub.tol.rank, "consistency": a.consistency.tolerance},
    }


def write_report(report: dict, write: Callable[[str], object]) -> None:
    """Send the canonical text of ``report`` through ``write``, piece by piece.

    Sorted keys, two-space indent, trailing newline: byte for byte what
    ``json.dumps(report, indent=2, sort_keys=True) + "\\n"`` writes, without
    the pure-Python encoder that ``indent`` selects.  Each list of
    [float, float] pairs (matrix data) is one piece; every other piece is one
    scalar, bracket or key with its separator and indent.  So a ``write``
    that streams the pieces holds no more of the text than one matrix at a
    time.  A leaf that is no JSON value raises TypeError once the pieces
    before it have gone out.
    """
    _write(report, "\n", write)
    write("\n")


_INF = float("inf")


def _float_text(x: float) -> str:
    if x != x:
        return "NaN"
    if x == _INF:
        return "Infinity"
    if x == -_INF:
        return "-Infinity"
    return float.__repr__(x)


def _pair_block(items, nl: str) -> str | None:
    """``items`` as a JSON list when it holds only [float, float] lists, else None.

    ``nl`` is the newline and indent of the list's own line.
    """
    if not (
        set(map(type, items)) == {list}
        and set(map(len, items)) == {2}
        and set(map(type, chain.from_iterable(items))) == {float}
    ):
        return None
    inner, nested = nl + "  ", nl + "    "
    floats = iter(map(float.__repr__, chain.from_iterable(items)))
    text = (inner + "]," + inner + "[" + nested).join(map(("," + nested).join, zip(floats, floats)))
    if "n" in text:  # repr writes nan and inf; finite reprs hold no letter n
        text = text.replace("nan", "NaN").replace("inf", "Infinity")
    return "[" + inner + "[" + nested + text + inner + "]" + nl + "]"


def _write(o, nl: str, write: Callable[[str], object]) -> None:
    """Send the JSON text of ``o`` through ``write``; ``nl`` is the newline and indent of its line.

    Types are tried in the order of ``json.encoder._make_iterencode``.
    """
    if isinstance(o, str):
        write(encode_basestring_ascii(o))
    elif o is None:
        write("null")
    elif o is True:
        write("true")
    elif o is False:
        write("false")
    elif isinstance(o, int):
        write(int.__repr__(o))
    elif isinstance(o, float):
        write(_float_text(o))
    elif isinstance(o, (list, tuple)):
        if not o:
            write("[]")
            return
        block = _pair_block(o, nl)
        if block is not None:
            write(block)
            return
        inner = nl + "  "
        sep = "["
        for v in o:
            write(sep + inner)
            _write(v, inner, write)
            sep = ","
        write(nl + "]")
    elif isinstance(o, dict):
        if not o:
            write("{}")
            return
        for key in o:
            if not isinstance(key, str):
                raise TypeError(f"report keys must be str, not {type(key).__name__}")
        inner = nl + "  "
        sep = "{"
        for key in sorted(o):
            write(sep + inner + encode_basestring_ascii(key) + ": ")
            _write(o[key], inner, write)
            sep = ","
        write(nl + "}")
    else:
        raise TypeError(f"Object of type {type(o).__name__} is not JSON serializable")


def load_report_schema() -> dict:
    """The JSON schema every CLI report validates against."""
    text = importlib.resources.files("rdl").joinpath("report_schema.json").read_text()
    return json.loads(text)
