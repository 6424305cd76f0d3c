"""Run one rdl benchmark workload and print its metrics as one JSON line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere; the rdl sources measured are the ``src`` directory next
to ``perfbench``.  Each workload is a closed loop with one caller: the next
operation starts only after the previous one has finished and been checked
against its ground truth.

With ``--trace 0`` the last line carries the end-to-end metrics; set-up time
is the median of several fresh processes that only set the workload up.
With ``--trace 1`` the run is split into an untraced and a traced phase of
equal length (for the CLI workload: CLI subprocesses, then ``rdl.cli.main``
in-process untraced, then traced) and the last line carries the per-layer
metrics; the spans are written to ``perfbench/out/``.  ``--workload all`` runs every workload in
turn, each in its own process, and prints their end-to-end metrics as a table.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import subprocess
import sys
import time
from dataclasses import dataclass, field
from statistics import median

import common

SETUP_REPEATS = 7
IMPORT_REPEATS = 5
WORKLOAD_NAMES = ("wide-family", "propagator-sweep", "cli-case-study")


@dataclass
class Tally:
    """Closed-loop outcomes: (kind, seconds) per completed operation, and failures."""

    latencies: list = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    child_rss_mb: float = 0.0
    problems: list = field(default_factory=list)

    def seconds(self) -> list[float]:
        return [dt for _, dt in self.latencies]

    def throughput(self) -> float:
        busy = sum(self.seconds())
        return len(self.latencies) / busy if busy > 0 else 0.0


def closed_loop(workload, op, seconds: float, tally: Tally, start: int = 0,
                min_ops: int = 1) -> int:
    """Run operations start, start+1, ... until ``seconds`` have passed; return the next index."""
    deadline = time.perf_counter() + seconds
    i = start
    while i - start < min_ops or time.perf_counter() < deadline:
        tally.attempted += 1
        try:
            dt, result = op(i)
            tally.latencies.append((workload.kind(i), dt))
            tally.child_rss_mb = max(tally.child_rss_mb, getattr(result, "rss_mb", None) or 0.0)
            problem = workload.check(i, result)
        except Exception as err:  # an operation that raises is a failed operation
            problem = f"{type(err).__name__}: {err}"
        if problem is not None:
            tally.failed += 1
            tally.problems.append((i, workload.kind(i), problem))
        i += 1
    return i


def setup_seconds(name: str, seed: int) -> float:
    """Median wall time of fresh processes that import, generate inputs and warm up."""
    argv = [sys.executable, __file__, "--workload", name, "--seed", str(seed), "--setup-only"]
    walls = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=subprocess.DEVNULL)
        try:
            exited = common.exited_within(proc.pid, common.CHILD_TIMEOUT_S)
            walls.append(time.perf_counter() - t0)
        finally:
            if proc.poll() is None:
                proc.kill()
            proc.wait()
        if not exited or proc.returncode != 0:
            raise RuntimeError(f"set-up process failed: {argv}")
    return median(walls)


def end_to_end(workload, seed: int, seconds: float) -> tuple[Tally, dict]:
    setup_s = setup_seconds(workload.name, seed)
    tally = Tally()
    closed_loop(workload, workload.run, seconds, tally)
    lat_ms = [1e3 * s for s in tally.seconds()] or [0.0]
    tail_ms, pct, beyond = common.tail(lat_ms)
    rss = tally.child_rss_mb if workload.name == "cli-case-study" else common.self_peak_rss_mb()
    metrics = {
        "setup_s": (setup_s, "s"),
        "latency_p50_ms": (median(lat_ms), "ms"),
        "latency_tail_ms": (tail_ms, "ms"),
        "throughput_per_s": (tally.throughput(), "1/s"),
        "peak_rss_mb": (rss, "MB"),
        "ok_frac": ((tally.attempted - tally.failed) / max(tally.attempted, 1), "ratio"),
    }
    print(f"{workload.name}: {len(tally.latencies)} operations; latency_tail_ms is "
          f"p{pct:.1f} with {beyond} samples beyond it", file=sys.stderr)
    return tally, metrics


def traced(workload, seed: int, seconds: float) -> tuple[Tally, dict]:
    import tracing

    tally = Tally()
    metrics = {}
    cycle = len(workload.kinds)  # every phase runs each kind of operation at least once
    if workload.name == "cli-case-study":
        # Subprocess walls give start-up cost; the CLI itself is traced in-process.
        third = seconds / 3
        nxt = closed_loop(workload, workload.run, third, tally, min_ops=cycle)
        metrics["cli.import_ms"] = (import_ms(), "ms")
        untraced = Tally()
        nxt = closed_loop(workload, workload.run_in_process, third, untraced, nxt, cycle)
        startup = median(tally.seconds()) - median(untraced.seconds())
        metrics["cli.startup_ms"] = (1e3 * startup / len(workload.commands), "ms")
        op, targets, phase = workload.run_in_process, tracing.CLI_TARGETS, third
    else:
        half = seconds / 2
        untraced = Tally()
        nxt = closed_loop(workload, workload.run, half, untraced, min_ops=cycle)
        metrics["cli.import_ms"] = (0.0, "ms")
        metrics["cli.startup_ms"] = (0.0, "ms")
        op, targets, phase = workload.run, tracing.IN_PROCESS_TARGETS, half

    tracer = tracing.Tracer()
    traced_tally = Tally()
    with tracer.installed(targets):
        nxt = closed_loop(workload, spanned(tracer, workload, op), phase, traced_tally, nxt,
                          cycle)
    memory = tracing.Tracer(memory=True)
    memory_tally = Tally()  # tracemalloc slows every allocation: kept out of the overhead
    with memory.installed(targets):
        closed_loop(workload, spanned(memory, workload, op), 0.0, memory_tally, nxt, cycle)

    overhead = 1.0 - traced_tally.throughput() / untraced.throughput()
    metrics["trace.overhead_frac"] = (overhead, "ratio")
    metrics["env.blas_threads"] = (float(common.blas_info()["threads"] or 0), "count")
    metrics.update(tracer.layer_metrics())
    metrics.update(memory.peak_metrics())
    for part in (untraced, traced_tally, memory_tally):
        tally.attempted += part.attempted
        tally.failed += part.failed
        tally.problems += part.problems
    write_trace(workload.name, seed, tracer, metrics)
    return tally, metrics


def spanned(tracer, workload, op):
    def run(i):
        with tracer.operation(i, workload.kind(i)):
            return op(i)

    return run


def import_ms() -> float:
    """Median time of ``import rdl`` in fresh interpreters, timed inside the child."""
    code = "import time; t = time.perf_counter(); import rdl; print(time.perf_counter() - t)"
    times = []
    for _ in range(IMPORT_REPEATS):
        out = subprocess.run([sys.executable, "-c", code], env=common.child_env(),
                             capture_output=True, text=True, check=True, timeout=60)
        times.append(1e3 * float(out.stdout))
    return median(times)


def write_trace(name: str, seed: int, tracer, metrics: dict) -> None:
    common.OUT.mkdir(parents=True, exist_ok=True)
    path = common.OUT / f"trace-{name}-seed{seed}.json"
    path.write_text(json.dumps({
        "workload": name,
        "seed": seed,
        "env": common.blas_info(),
        "ops": tracer.ops,
        "span_fields": ["name", "start_s", "end_s", "parent", "op"],
        "spans": tracer.spans,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))


def run_all(seed: int, seconds: float) -> int:
    """Each workload in its own process; print a table of the end-to-end metrics."""
    worst = 0
    for name in WORKLOAD_NAMES:
        argv = [sys.executable, __file__, "--workload", name, "--seed", str(seed),
                "--seconds", str(seconds), "--trace", "0"]
        out = subprocess.run(argv, capture_output=True, text=True, timeout=600)
        worst = max(worst, out.returncode)
        if out.returncode != 0:
            print(f"{name}: exited {out.returncode}\n{out.stderr}", file=sys.stderr)
            continue
        result = json.loads(out.stdout.strip().splitlines()[-1])
        print(f"{name}  correct={result['correct']}  "
              f"failed={result['failed']}/{result['attempted']}")
        for metric, m in result["metrics"].items():
            print(f"  {metric:<18} {m['value']:>14.6g} {m['unit']}")
    return worst


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not common.has_source():
        print(f"perfbench: no rdl package under {common.SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args.seed, args.seconds)
    with contextlib.ExitStack() as stack:
        # The spawner must fork before this process grows (see spawner.py).
        spawner = None
        if args.workload == "cli-case-study":
            spawner = stack.enter_context(common.Spawner())
        try:
            common.use_source()
        except common.MissingSource as err:
            print(f"perfbench: {err}", file=sys.stderr)
            return 2
        import workloads

        workload = workloads.WORKLOADS[args.workload](args.seed, spawner)
        if args.setup_only:
            return 0
        info = common.blas_info()
        print(f"{info['name']} {info['version']}, BLAS threads {info['threads']} "
              f"(pinned {info['threads_pinned']}), numpy {info['numpy']}, nproc {info['nproc']}",
              file=sys.stderr)
        measure = traced if args.trace else end_to_end
        tally, metrics = measure(workload, args.seed, args.seconds)
    for i, kind, problem in tally.problems[:10]:
        print(f"operation {i} ({kind}) failed: {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
