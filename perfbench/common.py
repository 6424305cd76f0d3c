"""Paths, BLAS thread pinning, child processes and small statistics.

Import this module before numpy: it pins the BLAS thread pool of this process
and of every child it starts to one thread, so that contention on a small
machine shows up as run-to-run noise rather than as a difference between
commits.
"""

from __future__ import annotations

import os

BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import ctypes  # noqa: E402
import glob  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import select  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "perfbench" / "out"  # generated inputs, traces and reports

CHILD_TIMEOUT_S = 60.0


class MissingSource(Exception):
    """The checkout holds no rdl sources to measure."""


def has_source() -> bool:
    return (SRC / "rdl" / "__init__.py").is_file()


def use_source() -> None:
    """Put the checkout's ``src`` first on the import path and check rdl loads from it."""
    if not has_source():
        raise MissingSource(f"no rdl package under {SRC}")
    sys.path.insert(0, str(SRC))
    import rdl

    if Path(rdl.__file__).resolve().parent != (SRC / "rdl").resolve():
        raise MissingSource(f"rdl imported from {rdl.__file__}, not from {SRC}")


def exited_within(pid: int, timeout: float) -> bool:
    """Block until child ``pid`` exits or ``timeout`` s pass; True if it exited.

    ``Popen.wait(timeout)`` polls with sleeps of up to 50 ms, which would show
    up in every wall time taken around it; a pidfd wakes up at the exit.
    """
    fd = os.pidfd_open(pid)
    try:
        ready, _, _ = select.select([fd], [], [], timeout)
    finally:
        os.close(fd)
    return bool(ready)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


class Spawner:
    """Client of ``spawner.py``; start it before this process imports numpy."""

    def __init__(self):
        self._proc = subprocess.Popen(
            [sys.executable, str(Path(__file__).with_name("spawner.py"))],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )

    def run(self, argv: list[str], stdout_path: Path) -> tuple[int, float, float]:
        """Run ``argv`` in ROOT; return (exit code, wall s, its own peak RSS MB).

        Standard output goes to ``stdout_path``, standard error beside it.
        """
        req = {
            "argv": argv, "cwd": str(ROOT), "env": child_env(), "timeout": CHILD_TIMEOUT_S,
            "stdout": str(stdout_path), "stderr": str(stdout_path.with_suffix(".err")),
        }
        self._proc.stdin.write(json.dumps(req) + "\n")
        self._proc.stdin.flush()
        reply = json.loads(self._proc.stdout.readline())
        if reply.get("timeout"):
            raise TimeoutError(f"{argv} ran longer than {CHILD_TIMEOUT_S} s")
        return reply["code"], reply["wall_s"], reply["rss_mb"]

    def close(self) -> None:
        self._proc.stdin.close()
        try:
            self._proc.wait(timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self._proc.kill()
            self._proc.wait()
        self._proc.stdout.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


def self_peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def tail(samples) -> tuple[float, float, int]:
    """Highest percentile with at least ten samples beyond it.

    Returns (value, percentile, samples beyond).  With ten samples or fewer
    no such percentile exists and the maximum is returned with none beyond.
    """
    s = sorted(samples)
    n = len(s)
    if n <= 10:
        return s[-1], 100.0, 0
    k = n - 10
    return s[k - 1], 100.0 * k / n, n - k


def blas_info() -> dict:
    """BLAS library name, version and the thread count it reports."""
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    pattern = os.path.join(os.path.dirname(np.__file__), "..", "numpy.libs", "*openblas*")
    for path in glob.glob(pattern):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                threads = int(fn())
                break
    return {
        "name": blas.get("name"),
        "version": blas.get("version"),
        "threads": threads,
        "threads_pinned": BLAS_THREADS,
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
    }


def git_sha() -> str | None:
    """Commit of the measured sources, or None outside a git checkout."""
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except OSError:
        return None
    return out.stdout.strip() if out.returncode == 0 else None
