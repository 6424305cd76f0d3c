"""One-shot ladder report: pipeline stages across a fixed ladder of dimensions.

    python3 perfbench/ladder.py [--out FILE]

For each rung (d_s x d_e = 2x2, 3x3, 4x4, 4x8, 6x8, i.e. d_j = 4 .. 48) it
draws a random full-rank family and a Haar propagator, then reports for
each stage (family validation, ``build_subspace``, kernel test, map build,
pairwise test) the median wall time over ``REPEATS`` runs and the
tracemalloc peak of one further run.  It adds the wall time of the flagship
``two-qubit --hull`` CLI command and of ``import rdl``, and the machine's
nproc, numpy version, BLAS name and thread count, and git commit.

This report is not one of the gated workloads: run it by hand and commit its
JSON output when a change needs a before-and-after across dimensions.  The
6x8 rung takes about a minute at three repeats on a 2-core machine.
"""

from __future__ import annotations

import argparse
import json
import platform
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path
from statistics import median

import common

RUNGS = ((2, 2, 16), (3, 3, 60), (4, 4, 200), (4, 8, 300), (6, 8, 400))  # d_s, d_e, members
STAGES = ("families", "subspace", "kernel test", "map build", "pairwise")
REPEATS = 3
SEED = 0
CLI_REPEATS = 5


def stage_calls(rdl, dims, members, u):
    """The five stages as thunks; each later stage reads what earlier ones stored."""
    box = {}

    def families():
        box["family"] = rdl.StateFamily(dims=dims, members=members)

    def subspace():
        box["sub"] = rdl.build_subspace(box["family"])

    def kernel():
        box["rep"] = rdl.check_subspace_consistency(box["sub"], u)

    def map_build():
        rdl.build_dynamical_map(rdl.build_assignment(box["sub"]), u, consistency=box["rep"])

    def pairwise():
        rdl.check_pairwise_consistency(box["family"], u)

    return dict(zip(STAGES, (families, subspace, kernel, map_build, pairwise)))


def measure_rung(rdl, workloads, d_s: int, d_e: int, n: int) -> dict:
    import numpy as np

    rng = np.random.default_rng([SEED, d_s, d_e])
    d_j = d_s * d_e
    members = tuple(workloads.random_state(d_j, rng) for _ in range(n))
    u = workloads.haar_unitary(d_j, rng)
    dims = rdl.BipartiteDims(d_s, d_e)
    rdl.basis_coords(np.eye(d_j), d_j)  # first-call basis caches are set-up, not stage time
    rdl.basis_coords(np.eye(d_s), d_s)

    times = {s: [] for s in STAGES}
    for _ in range(REPEATS):
        for stage, call in stage_calls(rdl, dims, members, u).items():
            t0 = time.perf_counter()
            call()
            times[stage].append(time.perf_counter() - t0)
    peaks = {}
    tracemalloc.start()
    try:
        for stage, call in stage_calls(rdl, dims, members, u).items():
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            call()
            peaks[stage] = (tracemalloc.get_traced_memory()[1] - base) / 2**20
    finally:
        tracemalloc.stop()
    return {
        "d_s": d_s, "d_e": d_e, "d_j": d_j, "members": n,
        "stages": {
            s: {
                "median_ms": 1e3 * median(times[s]),
                "times_ms": [1e3 * t for t in times[s]],
                "peak_mb": peaks[s],
            }
            for s in STAGES
        },
    }


def cli_walls(workloads, run) -> dict:
    """Median wall of the flagship CLI command and of ``import rdl`` alone, in ms."""
    argv = ("-m", "rdl.cli", *workloads.CliCaseStudy.flagship, "--trials", "200", "--seed", "7")
    walls = []
    for _ in range(CLI_REPEATS):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, *argv], env=common.child_env(), check=True,
                       capture_output=True, timeout=120)
        walls.append(time.perf_counter() - t0)
    return {
        "command": ["python", *argv],
        "wall_ms": 1e3 * median(walls),
        "import_ms": run.import_ms(),
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--out", default=str(common.OUT / "ladder.json"))
    args = p.parse_args(argv)
    try:
        common.use_source()
    except common.MissingSource as err:
        print(f"ladder: {err}", file=sys.stderr)
        return 2
    import rdl
    import run
    import workloads

    rungs = []
    for d_s, d_e, n in RUNGS:
        rung = measure_rung(rdl, workloads, d_s, d_e, n)
        rungs.append(rung)
        cells = "  ".join(
            f"{s} {v['median_ms']:.4g} ms/{v['peak_mb']:.3g} MB" for s, v in rung["stages"].items()
        )
        print(f"{d_s}x{d_e} ({n} members): {cells}", flush=True)
    cli = cli_walls(workloads, run)
    print(f"cli two-qubit --hull --trials 200: {cli['wall_ms']:.1f} ms wall, "
          f"import rdl {cli['import_ms']:.1f} ms")
    report = {
        "env": {**common.blas_info(), "git_sha": common.git_sha(),
                "python": platform.python_version(), "machine": platform.machine()},
        "repeats": REPEATS,
        "seed": SEED,
        "rungs": rungs,
        "cli": cli,
    }
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
