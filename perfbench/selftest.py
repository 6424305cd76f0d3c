"""Self-tests of the benchmark harness, at tiny sizes.

    python3 perfbench/selftest.py            # or: python3 -m pytest perfbench/selftest.py

They check the statistics, the span arithmetic, that every workload passes
its own ground truth, that one corrupted expectation shows up as a failed
operation, that the printed metrics match BENCHMARK.json, and that the
benchmark refuses to run without the rdl sources.  The file name keeps it
out of the repository's own test collection.
"""

from __future__ import annotations

import json
import shutil
import subprocess

import common

common.use_source()

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SEED = 5
CONTRACT = json.loads((common.ROOT / "BENCHMARK.json").read_text())


def make(name: str, spawner):
    return workloads.WORKLOADS[name](SEED, spawner, size="tiny")


def each_workload(test):
    with common.Spawner() as spawner:
        for name in run.WORKLOAD_NAMES:
            test(make(name, spawner))


def test_tail_is_highest_percentile_with_ten_beyond():
    assert common.tail(range(1, 21)) == (10, 50.0, 10)
    assert common.tail(range(1, 101)) == (90, 90.0, 10)
    assert common.tail([3.0, 1.0, 2.0]) == (3.0, 100.0, 0)


def test_self_time_subtracts_children():
    tracer = tracing.Tracer()
    tracer.spans = [
        ["bench.op", 0.0, 10.0, -1, 0],
        ["subspace.build_subspace", 1.0, 7.0, 0, 0],
        ["consistency.check_hull_consistency", 7.0, 9.0, 0, 0],
        ["subspace.build_subspace", 7.5, 8.5, 2, 0],
    ]
    assert tracer.self_times() == [2.0, 6.0, 1.0, 1.0]


def test_every_workload_meets_its_ground_truth():
    def check(workload):
        tally = run.Tally()
        run.closed_loop(workload, workload.run, 0.0, tally, min_ops=6)
        assert tally.failed == 0, tally.problems

    each_workload(check)


def test_corrupted_expectation_raises_fail_frac():
    def check(workload):
        workload.corrupt(1)
        tally = run.Tally()
        run.closed_loop(workload, workload.run, 0.0, tally, min_ops=3)
        assert tally.attempted == 3 and tally.failed == 1, tally.problems
        assert tally.problems[0][0] == 1

    each_workload(check)


def test_traced_run_prints_every_per_layer_metric():
    names = {m["name"] for m in CONTRACT["per_layer"]}

    def check(workload):
        tally, metrics = run.traced(workload, SEED, 0.5)
        assert tally.failed == 0, tally.problems
        assert set(metrics) == names, set(metrics) ^ names
        if workload.name == "cli-case-study":
            assert metrics["subspace.calls.two-qubit-hull"][0] == 2
        if workload.name == "wide-family":
            assert metrics["subspace.calls"][0] == 1

    each_workload(check)


def test_untraced_run_prints_every_end_to_end_metric():
    names = {m["name"] for m in CONTRACT["end_to_end"]}
    with common.Spawner() as spawner:
        tally, metrics = run.end_to_end(make("propagator-sweep", spawner), SEED, 0.2)
    assert set(metrics) == names
    assert all(value > 0 for value, _ in metrics.values()), metrics


def test_refuses_to_run_without_sources():
    bare = common.OUT / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    for path in CONTRACT["paths"]:
        shutil.copytree(common.ROOT / path, bare / path,
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(common.ROOT / "BENCHMARK.json", bare)
    try:
        out = subprocess.run(
            [*CONTRACT["command"], "--workload", "propagator-sweep", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180,
        )
    finally:
        shutil.rmtree(bare)
    assert out.returncode != 0
    assert out.stdout.strip() == ""


if __name__ == "__main__":
    tests = [(k, v) for k, v in sorted(globals().items()) if k.startswith("test_")]
    for name, test in tests:
        test()
        print(f"ok  {name}")
    print(f"{len(tests)} self-tests passed")
