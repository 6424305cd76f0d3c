"""Spans around rdl's public calls, recorded from outside the package.

The tracer replaces module attributes (``rdl.build_subspace``, the names
``rdl.cli`` and ``rdl.consistency`` bound at import, ...) with wrappers that
open a span, so calls made inside the CLI are seen without editing rdl.
A span records its name, start, end, parent span and operation id; spans stay
in memory until the run writes them out.  A span's self time is its duration
minus the time its child spans cover.

``operators`` is only reached from inside the other layers, so it has no
spans of its own here.
"""

from __future__ import annotations

import functools
import inspect
import os
import time
import tracemalloc
from collections import defaultdict
from contextlib import contextmanager

import rdl
import rdl.cli
import rdl.consistency
import rdl.serialize

LAYERS = ("families", "subspace", "consistency", "maps", "two_qubit", "serialize", "cli")
ROOT_SPAN = "bench.op"  # one per operation; its self time is glue outside every layer

# Attributes wrapped for the in-process workloads, which call through ``rdl``.
IN_PROCESS_TARGETS = (
    (rdl, (
        "StateFamily", "build_subspace", "check_subspace_consistency",
        "check_pairwise_consistency", "build_assignment", "build_dynamical_map",
        "decompose_signed_kraus", "verdicts",
    )),
)

# Attributes wrapped for the CLI run in-process: what rdl.cli and rdl.consistency
# bind at import, plus the StateFamily that family_from_json constructs.
CLI_TARGETS = (
    (rdl.cli, (
        "main", "_load_json", "family_from_json", "matrix_from_json", "dumps_report",
        "build_subspace", "check_subspace_consistency", "check_hull_consistency",
        "build_assignment", "build_dynamical_map", "decompose_signed_kraus", "verdicts",
        "constrained_two_qubit_family", "extract_two_qubit_params", "sample_two_qubit_params",
        "solve_linearity_coefficients", "linearity_residuals", "model_unitary",
    )),
    (rdl.consistency, ("build_subspace",)),
    (rdl.serialize, ("StateFamily",)),
)

LAYER_OVERRIDES = {"_load_json": "serialize"}  # reads and parses the JSON input files
PEAK_LAYERS = ("subspace", "maps")  # layers whose spans never nest in one another

# Per-layer timings: self time of these spans, per operation.
TIME_METRICS = {
    "subspace.build_ms": ("subspace.build_subspace",),
    "consistency.kernel_ms": ("consistency.check_subspace_consistency",),
    "consistency.pairwise_ms": ("consistency.check_pairwise_consistency",),
    "consistency.hull_ms": ("consistency.check_hull_consistency",),
    "maps.build_ms": ("maps.build_assignment", "maps.build_dynamical_map"),
    "maps.kraus_ms": ("maps.decompose_signed_kraus",),
    "maps.verdicts_ms": ("maps.verdicts",),
    "two_qubit.fit_ms": (
        "two_qubit.solve_linearity_coefficients", "two_qubit.linearity_residuals",
    ),
    "serialize.parse_ms": (
        "serialize._load_json", "serialize.family_from_json", "serialize.matrix_from_json",
    ),
    "serialize.emit_ms": ("serialize.dumps_report",),
}

# Counters summed per operation.
COUNT_METRICS = (
    ("families.members", "count"),
    ("subspace.calls", "count"),
    ("subspace.coord_bytes", "B-computed"),
    ("consistency.kernel_elements", "count"),
    ("consistency.pairs_tested", "count"),
    ("consistency.hull_trials", "count"),
    ("consistency.hull_tested", "count"),
    ("serialize.bytes_in", "B"),
    ("serialize.bytes_out", "B"),
)


def _observe_family(count, args, result):
    count("families.members", len(result))


def _observe_subspace(count, args, result):
    family_or_ops = args.arguments.get("family", args.arguments.get("ops"))
    count("subspace.calls", 1)
    count("subspace.span_dim_total", result.span_dim)
    count("subspace.kernel_dim_total", result.kernel_dim)
    # The basis-stack contraction reads d_j^2 basis matrices of d_j^2 complex entries per member.
    count("subspace.coord_bytes", len(family_or_ops) * result.dims.joint ** 4 * 16)


def _observe_kernel(count, args, result):
    count("consistency.kernel_elements", args.arguments["subspace"].kernel_dim)


def _observe_pairwise(count, args, result):
    count("consistency.pairs_tested", result.pairs_tested)


def _observe_hull(count, args, result):
    count("consistency.hull_trials", args.arguments["trials"])
    count("consistency.hull_tested", result.pairs_tested)


def _observe_load(count, args, result):
    count("serialize.bytes_in", os.path.getsize(args.arguments["path"]))


def _observe_dump(count, args, result):
    count("serialize.bytes_out", len(result.encode()))


OBSERVERS = {
    "StateFamily": _observe_family,
    "build_subspace": _observe_subspace,
    "check_subspace_consistency": _observe_kernel,
    "check_pairwise_consistency": _observe_pairwise,
    "check_hull_consistency": _observe_hull,
    "_load_json": _observe_load,
    "dumps_report": _observe_dump,
}


class Tracer:
    """In-memory span recorder; ``memory=True`` also records tracemalloc peaks."""

    def __init__(self, memory: bool = False):
        self.memory = memory
        self.spans: list[list] = []  # [name, start, end, parent index or -1, op id]
        self.ops: dict[int, str] = {}  # op id -> operation kind
        self.counts: dict[int, defaultdict] = {}
        self.peaks_mb: defaultdict = defaultdict(float)  # layer -> largest span peak
        self.cli_commands: dict[int, str] = {}  # index of a cli.main span -> its subcommand
        self._stack: list[int] = []
        self._op: int | None = None

    @contextmanager
    def span(self, name: str):
        rec = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, self._op]
        index = len(self.spans)
        self._stack.append(index)
        self.spans.append(rec)
        layer = name.split(".", 1)[0]
        watch = self.memory and layer in PEAK_LAYERS
        if watch:
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
        rec[1] = time.perf_counter()
        try:
            yield index
        finally:
            rec[2] = time.perf_counter()
            self._stack.pop()
            if watch:
                peak = (tracemalloc.get_traced_memory()[1] - base) / 2**20
                self.peaks_mb[layer] = max(self.peaks_mb[layer], peak)

    @contextmanager
    def operation(self, op: int, kind: str):
        self._op = op
        self.ops[op] = kind
        self.counts[op] = defaultdict(float)
        try:
            with self.span(ROOT_SPAN):
                yield
        finally:
            self._op = None

    def count(self, key: str, value: float) -> None:
        if self._op is not None:
            self.counts[self._op][key] += value

    def wrap(self, fn, name: str):
        layer = LAYER_OVERRIDES.get(name) or fn.__module__.rsplit(".", 1)[-1]
        span_name = f"{layer}.{name}"
        observe = OBSERVERS.get(name)
        signature = inspect.signature(fn) if observe else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(span_name) as index:
                if span_name == "cli.main":
                    self.cli_commands[index] = args[0][0]
                result = fn(*args, **kwargs)
            if observe is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                observe(self.count, bound, result)
            return result

        return traced

    @contextmanager
    def installed(self, targets):
        """Wrap every (module, names) target for the duration of the block.

        A name the module no longer binds is skipped; its metrics then read 0.
        """
        saved = []
        try:
            for module, names in targets:
                for name in names:
                    original = getattr(module, name, None)
                    if original is None:
                        continue
                    saved.append((module, name, original))
                    setattr(module, name, self.wrap(original, name))
            if self.memory:
                tracemalloc.start()
            yield self
        finally:
            if self.memory:
                tracemalloc.stop()
            for module, name, original in reversed(saved):
                setattr(module, name, original)

    def self_times(self) -> list[float]:
        """Self time of every span, in seconds, indexed like ``spans``."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        return [end - start - child[i] for i, (_, start, end, _, _) in enumerate(self.spans)]

    def layer_metrics(self) -> dict:
        """Per-operation layer metrics: {name: (value, unit)}."""
        n_ops = max(len(self.ops), 1)
        by_name: defaultdict = defaultdict(float)
        by_layer: defaultdict = defaultdict(float)
        op_total = 0.0
        for (name, start, end, _, _), own in zip(self.spans, self.self_times()):
            by_name[name] += own
            by_layer[name.split(".", 1)[0]] += own
            if name == ROOT_SPAN:
                op_total += end - start
        metrics = {"families.validate_ms": (1e3 * by_layer["families"] / n_ops, "ms")}
        for metric, names in TIME_METRICS.items():
            metrics[metric] = (1e3 * sum(by_name[n] for n in names) / n_ops, "ms")
        for layer in LAYERS + ("bench",):
            share = by_layer[layer] / op_total if op_total > 0 else 0.0
            metrics[f"{layer}.self_frac"] = (share, "ratio")
        metrics["trace.op_ms"] = (1e3 * op_total / n_ops, "ms")

        totals: defaultdict = defaultdict(float)
        for per_op in self.counts.values():
            for key, value in per_op.items():
                totals[key] += value
        for key, unit in COUNT_METRICS:
            metrics[key] = (totals[key] / n_ops, unit)
        calls = totals["subspace.calls"]
        for dim in ("span_dim", "kernel_dim"):
            per_call = totals[f"subspace.{dim}_total"] / calls if calls else 0.0
            metrics[f"subspace.{dim}"] = (per_call, "count")
        trials = totals["consistency.hull_trials"]
        yield_ = totals["consistency.hull_tested"] / trials if trials else 0.0
        metrics["consistency.hull_yield"] = (yield_, "ratio")
        metrics["subspace.calls.two-qubit-hull"] = (self.builds_per_cli_run("two-qubit"), "count")
        return metrics

    def builds_per_cli_run(self, command: str) -> float:
        """``build_subspace`` calls inside each ``rdl.cli.main`` run of ``command``, on average."""
        runs = {i for i, c in self.cli_commands.items() if c == command}
        if not runs:
            return 0.0
        hits = 0
        for name, _, _, parent, _ in self.spans:
            if name != "subspace.build_subspace":
                continue
            while parent >= 0 and self.spans[parent][0] != "cli.main":
                parent = self.spans[parent][3]
            hits += parent in runs
        return hits / len(runs)

    def peak_metrics(self) -> dict:
        return {f"{layer}.peak_mb": (self.peaks_mb[layer], "MB") for layer in PEAK_LAYERS}
