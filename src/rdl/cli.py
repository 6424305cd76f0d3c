"""Command-line front end: analyze, two-qubit, swap-demo.

Machine-readable JSON goes to stdout, a short human summary to stderr.
Exit codes: 0 consistent, 3 inconsistent, 1 input error, 2 numerical failure.
Reports are byte-identical across runs for identical inputs, seeds, and flag
order.  Only --tol-rank and --tol-consistency change a tolerance.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

import numpy as np

from .config import DEFAULT_TOL, ToleranceConfig
from .errors import DimensionError, InputError, RdlError
from .families import StateFamily, product_family
from .operators import max_norm, trace_distance
from .pipeline import analyze
from .serialize import (
    analysis_to_json,
    coefficients_to_json,
    family_from_json,
    matrix_from_json,
    matrix_to_json,
    write_report,
)
from .two_qubit import (
    LinearityCoefficients,
    ModelParams,
    affine_law,
    bloch_table,
    constrained_two_qubit_family,
    model_unitary,
    pauli_eigenstates,
    sample_two_qubit_params,
    swap_unitary,
)


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise InputError(message)


def _build_parser() -> _Parser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--tol-rank", type=float, default=None, help="rank / membership cutoff")
    common.add_argument(
        "--tol-consistency", type=float, default=None, help="marginal-equality violation threshold"
    )
    common.add_argument("--out", default=None, metavar="FILE", help="also write the report here")
    common.add_argument(
        "--hull",
        action="store_true",
        help="add the bound 2r, r the kernel test's violation, on every "
        "equal-marginal pair of the members' convex hull",
    )
    common.add_argument(
        "--trials",
        type=int,
        help="ignored; kept only so that existing command lines, the benchmark's "
        "flagship among them, still parse",
    )

    parser = _Parser(
        prog="rdl",
        description="Decide whether the reduced dynamics of a state family is linear "
        "and build the induced dynamical map.",
    )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    pa = sub.add_parser("analyze", parents=[common], help="full pipeline on a family file")
    pa.set_defaults(run=_cmd_analyze)
    pa.add_argument("--family", required=True, metavar="FILE", help="state family JSON")
    pa.add_argument("--unitary", metavar="FILE", help="propagator as a complex-matrix JSON")
    pa.add_argument("--model", choices=["two-qubit", "swap"], help="built-in propagator")
    pa.add_argument("--omega", type=float, help="coupling strength for --model two-qubit")
    pa.add_argument("--t", type=float, help="evolution time for --model two-qubit")
    pa.add_argument("--dump-subspace", action="store_true", help="embed the subspace bases")

    pt = sub.add_parser("two-qubit", parents=[common], help="constrained-family case study")
    pt.set_defaults(run=_cmd_two_qubit)
    pt.add_argument("--seed", type=int, help="seed for the member draws")
    pt.add_argument("--omega", type=float, default=1.0)
    pt.add_argument("--t", type=float, default=1.0)
    pt.add_argument("--a11", type=float)
    pt.add_argument("--a21", type=float)
    pt.add_argument("--b11", metavar="X,Y,Z")
    pt.add_argument("--b21", metavar="X,Y,Z")
    pt.add_argument("--samples", type=int, help="number of coefficient draws (default 12)")
    pt.add_argument("--scale", type=float, help="coefficient sampling half-width (default 0.35)")
    pt.add_argument("--members", default=None, metavar="FILE", help="use this family instead of sampling")

    ps = sub.add_parser("swap-demo", parents=[common], help="product family under the swap propagator")
    ps.set_defaults(run=_cmd_swap_demo)
    ps.add_argument("--states", default=None, metavar="FILE", help="JSON list of system states")
    ps.add_argument("--omega-e", dest="omega_e", default=None, metavar="FILE", help="environment state JSON")
    return parser


# The flags that shape sampled members, with the values sampling gives the absent ones.
_SAMPLING_DEFAULTS = {
    "seed": None, "samples": 12, "scale": 0.35, "a11": 0.0, "a21": 0.0, "b11": "0,0,0", "b21": "0,0,0"
}


def _tolerances(args) -> ToleranceConfig:
    tols = DEFAULT_TOL
    if args.tol_rank is not None:
        tols = dataclasses.replace(tols, rank=args.tol_rank)
    if args.tol_consistency is not None:
        tols = dataclasses.replace(tols, consistency=args.tol_consistency)
    return tols


def _load_json(path: str):
    try:
        return json.loads(Path(path).read_text())
    except (OSError, UnicodeDecodeError) as err:
        raise InputError(f"cannot read {path}: {err}") from None
    except RecursionError:
        raise InputError(f"{path}: JSON nested too deeply") from None
    except json.JSONDecodeError as err:
        raise InputError(
            f"{path}: malformed JSON at line {err.lineno}, column {err.colno}: {err.msg}"
        ) from None


def _parse_triple(text: str, flag: str) -> np.ndarray:
    parts = text.split(",")
    if len(parts) != 3:
        raise InputError(f"{flag} needs three comma-separated numbers, got {text!r}")
    try:
        return np.array([float(p) for p in parts])
    except ValueError:
        raise InputError(f"{flag} needs numeric entries, got {text!r}") from None


def _resolve_unitary(args, family: StateFamily):
    sources = [s for s in (args.unitary, args.model) if s is not None]
    if len(sources) != 1:
        raise InputError("exactly one propagator source is required: --unitary FILE or --model")
    if args.model != "two-qubit" and (args.omega is not None or args.t is not None):
        raise InputError("--omega and --t apply only to --model two-qubit")
    if args.unitary is not None:
        u = matrix_from_json(_load_json(args.unitary), what="propagator")
        return u, {"kind": "file"}
    if args.model == "two-qubit":
        if args.omega is None or args.t is None:
            raise InputError("--model two-qubit requires --omega and --t")
        if (family.dims.d_s, family.dims.d_e) != (2, 2):
            raise InputError("--model two-qubit needs a 2x2 system-environment family")
        u = model_unitary(ModelParams(omega=args.omega, t=args.t))
        return u, {"kind": "two-qubit", "omega": args.omega, "t": args.t}
    if family.dims.d_s != family.dims.d_e:
        raise InputError(
            f"--model swap needs equal dimensions, family has d_s={family.dims.d_s}, d_e={family.dims.d_e}"
        )
    return swap_unitary(family.dims.d_s), {"kind": "swap"}


def _cmd_analyze(args, tols: ToleranceConfig):
    family = family_from_json(_load_json(args.family), tols)
    u, source = _resolve_unitary(args, family)
    report = analysis_to_json(
        analyze(family, u, hull=args.hull), "analyze", dump_subspace=args.dump_subspace
    )
    report["unitary_source"] = source
    return report


def _cmd_two_qubit(args, tols: ToleranceConfig):
    model = ModelParams(omega=args.omega, t=args.t)
    u = model_unitary(model)
    planted = None
    rejected_count = None
    if args.members is not None:
        given = [f"--{name}" for name in _SAMPLING_DEFAULTS if getattr(args, name) is not None]
        if given:
            raise InputError(f"--members takes no sampling flags, got {', '.join(given)}")
        family = family_from_json(_load_json(args.members), tols)
        if (family.dims.d_s, family.dims.d_e) != (2, 2):
            raise InputError("--members must hold a 2x2 system-environment family")
    else:
        for name, default in _SAMPLING_DEFAULTS.items():
            if getattr(args, name) is None:
                setattr(args, name, default)
        if args.seed is None:
            raise InputError("sampling members requires --seed")
        if args.seed < 0:
            raise InputError(f"seed must be nonnegative, got {args.seed}")
        if args.samples < 1:
            raise InputError(f"--samples must be at least 1, got {args.samples}")
        b11 = _parse_triple(args.b11, "--b11")
        b21 = _parse_triple(args.b21, "--b21")
        rng = np.random.default_rng(args.seed)
        draws = [sample_two_qubit_params(rng, args.scale) for _ in range(args.samples)]
        family, rejected = constrained_two_qubit_family(
            args.a11, args.a21, b11, b21, draws, tols
        )
        rejected_count = len(rejected)
        planted = LinearityCoefficients(a11=args.a11, b11=b11, a21=args.a21, b21=b21)

    analysis = analyze(family, u, hull=args.hull)
    coeffs, residuals = affine_law(analysis.subspace)

    report = analysis_to_json(analysis, "two-qubit")
    report["family"]["rejected"] = rejected_count
    report["model"] = {"omega": model.omega, "t": model.t}
    report["coefficients_planted"] = None if planted is None else coefficients_to_json(planted)
    report["coefficients_solved"] = coefficients_to_json(coeffs)
    report["residuals"] = [[float(r[0]), float(r[1])] for r in residuals]
    report["bloch_table"] = bloch_table(family.stack, model.angle)
    return report


def _cmd_swap_demo(args, tols: ToleranceConfig):
    if args.states is not None:
        obj = _load_json(args.states)
        if not isinstance(obj, list) or not obj:
            raise InputError("--states must hold a non-empty JSON list of matrices")
        states = [matrix_from_json(m, what=f"system state {i}") for i, m in enumerate(obj)]
    else:
        states = list(pauli_eigenstates())
    omega_e = (
        matrix_from_json(_load_json(args.omega_e), what="environment state")
        if args.omega_e is not None
        else np.eye(2, dtype=complex) / 2
    )
    family = product_family(states, omega_e, label="product family under swap", tol=tols)
    d_s, d_e = family.dims.d_s, family.dims.d_e
    if d_s != d_e:
        raise DimensionError(f"swap needs equal factor dimensions, got {d_s} and {d_e}")
    analysis = analyze(family, swap_unitary(d_s), hull=args.hull)

    # With one environment state the kernel is empty and the map sends every
    # reduced state to omega_e: a constant, completely positive map.
    apply = analysis.superoperator.apply
    reduced = family.reduced()
    images = [apply(r) for r in reduced]
    pairs = []
    for i in range(len(reduced)):
        for j in range(i + 1, len(reduced)):
            before = trace_distance(reduced[i], reduced[j], family.tol)
            after = trace_distance(images[i], images[j], family.tol)
            increased = after > before + family.tol.psd
            pairs.append({"before": before, "after": after, "increased": increased})
    report = analysis_to_json(analysis, "swap-demo")
    report["pairs"] = pairs
    report["constant_output_deviation"] = float(max(max_norm(im - omega_e) for im in images))
    report["omega_e"] = matrix_to_json(omega_e)
    return report


def _summary_lines(report: dict) -> list[str]:
    dims = report["dims"]
    fam = report["family"]
    sub = report["subspace"]
    lines = [
        f"rdl {report['command']}: {fam['members']} members, "
        f"d_s={dims['d_s']}, d_e={dims['d_e']}",
        f"subspace: span {sub['span_dim']}, reduced {sub['reduced_dim']}, "
        f"kernel {sub['kernel_dim']}",
    ]
    for key, name in (("consistency", "consistency"), ("hull_consistency", "hull bound")):
        c = report.get(key)
        if c is None:
            continue
        if c["consistent"]:
            word = "consistent"
        elif c["marginal"]:
            word = "inconsistent (marginal)"
        else:
            word = "inconsistent"
        lines.append(
            f"{name}: {word}, max violation {c['max_violation']:.3e} "
            f"(tolerance {c['tolerance']:.3e})"
        )
    v = report.get("verdicts")
    if v is not None:
        m = report["map"]
        lines.append(
            f"map: certified={'yes' if m['consistency_certified'] else 'no'}; "
            f"hermitian={'yes' if v['hermitian_preserving'] else 'no'}, "
            f"trace={'yes' if v['trace_preserving'] else 'no'}, "
            f"completely positive={'yes' if v['completely_positive'] else 'no'}"
        )
    return lines


def _write_report(report: dict, out: str | None) -> None:
    """Stream the report's text to stdout, then to ``out`` when given.

    The text is written as it is serialized and never held whole.  The
    report is built in full before the first byte, so every input error has
    been raised by then; only a program fault (a TypeError from a leaf that
    is no JSON value) can leave a partial report on stdout.
    """
    target = "stdout"
    try:
        write_report(report, sys.stdout.write)
        if out is not None:
            target = out
            with open(out, "w") as fh:
                write_report(report, fh.write)
    except OSError as err:
        raise InputError(f"cannot write {target}: {err}") from None


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        report = args.run(args, _tolerances(args))
        _write_report(report, args.out)
    except RdlError as err:
        print(f"{err.kind}: {err}", file=sys.stderr)
        return err.exit_code

    code = 0 if report["consistent"] else 3
    for line in _summary_lines(report):
        print(line, file=sys.stderr)
    print(f"exit status: {code}", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
