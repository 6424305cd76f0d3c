"""Small helper process that runs commands and reports each one's own peak RSS.

A child's ``ru_maxrss`` starts from the peak RSS of the process that forked
it, so CLI runs started straight from the harness (which holds numpy, the
generated inputs and the parsed reports) would all read the harness's peak.
This helper is started before the harness grows and does nothing but start
commands, so the peaks it reports are the commands' own.

Protocol: one JSON request per line on stdin,
``{"argv": [...], "cwd": ..., "env": {...}, "stdout": path, "stderr": path, "timeout": s}``;
one JSON reply per line on stdout, ``{"code": int, "wall_s": float, "rss_mb": float}``
or ``{"timeout": true}``.  The helper exits when stdin closes.
"""

import json
import os
import subprocess
import sys
import time

from common import exited_within


def run(req: dict) -> dict:
    with open(req["stdout"], "wb") as out, open(req["stderr"], "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(req["argv"], cwd=req["cwd"], env=req["env"], stdout=out,
                                stderr=err)
    try:
        ready = exited_within(proc.pid, req["timeout"])
        if not ready:
            proc.kill()
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
    except BaseException:
        if proc.returncode is None:
            proc.kill()
            proc.wait()
        raise
    if not ready:
        return {"timeout": True}
    return {"code": proc.returncode, "wall_s": wall, "rss_mb": usage.ru_maxrss / 1024.0}


def main() -> None:
    for line in sys.stdin:
        sys.stdout.write(json.dumps(run(json.loads(line))) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
