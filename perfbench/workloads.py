"""The benchmark's three workloads: seeded inputs, one operation, ground truth.

Inputs are generated here with numpy alone, so that rdl only ever receives
finished families, propagators and files.  Every operation's result is
checked against an answer known by construction:

* a local propagator U_s (x) U_e maps kernel elements to kernel elements, so
  the family must be consistent, the map completely positive, and the map
  must send each member's reduced state rho_s to U_s rho_s U_s^dag;
* a Haar propagator on the joint space entangles, so the family must be
  inconsistent, with a witness whose own partial trace vanishes;
* a family of m generic members (m <= d_j^2) spans m dimensions, its reduced
  states span all d_s^2, and its product members rho_i (x) omega_k share
  marginals in exactly n_sys * C(n_env, 2) pairs.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import time
from dataclasses import dataclass, replace
from math import comb

import numpy as np

import rdl
from common import OUT, Spawner

GROUND_TRUTH_TOL = 1e-8
FLAGSHIP_CHOI_MIN = -0.01304  # README's frozen case-study value
FLAGSHIP_CHOI_ATOL = 5e-5
HULL_SEEDS_VERIFIED = 120  # flagship hull seeds 0..119 all give the flagship map


def random_state(d: int, rng: np.random.Generator) -> np.ndarray:
    """Full-rank density matrix from a normalized Ginibre draw."""
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def haar_unitary(d: int, rng: np.random.Generator) -> np.ndarray:
    z = (rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))) / np.sqrt(2.0)
    q, r = np.linalg.qr(z)
    diag = np.diag(r)
    return q * (diag / np.abs(diag))


def partial_trace_env(x: np.ndarray, d_s: int, d_e: int) -> np.ndarray:
    return np.einsum("ikjk->ij", x.reshape(d_s, d_e, d_s, d_e))


@dataclass(frozen=True)
class FamilyShape:
    """n_sys x n_env product members rho_i (x) omega_k, then n_random correlated ones."""

    d_s: int
    d_e: int
    n_sys: int
    n_env: int
    n_random: int

    @property
    def members(self) -> int:
        return self.n_sys * self.n_env + self.n_random

    @property
    def matched_pairs(self) -> int:
        return self.n_sys * comb(self.n_env, 2)

    @property
    def dims(self) -> tuple[int, int, int]:
        """Expected (span, reduced, kernel) dimensions of a generic draw."""
        reduced = self.d_s * self.d_s
        return self.members, reduced, self.members - reduced

    def draw(self, rng: np.random.Generator) -> tuple[np.ndarray, ...]:
        sys_states = [random_state(self.d_s, rng) for _ in range(self.n_sys)]
        env_states = [random_state(self.d_e, rng) for _ in range(self.n_env)]
        products = [np.kron(s, e) for s in sys_states for e in env_states]
        joint = self.d_s * self.d_e
        return tuple(products + [random_state(joint, rng) for _ in range(self.n_random)])


@dataclass(frozen=True)
class Propagator:
    """A joint unitary; ``u_s`` is its system factor when it is local."""

    u: np.ndarray
    u_s: np.ndarray | None
    expect_consistent: bool


def draw_propagator(d_s: int, d_e: int, local: bool, rng: np.random.Generator) -> Propagator:
    if local:
        u_s = haar_unitary(d_s, rng)
        return Propagator(np.kron(u_s, haar_unitary(d_e, rng)), u_s, True)
    return Propagator(haar_unitary(d_s * d_e, rng), None, False)


@dataclass
class Outcome:
    """What one in-process operation returned."""

    subspace: object
    report: object
    pairwise: object | None
    superop: object
    kraus: object
    verdicts: object


def analyze(sub, u, family=None) -> Outcome:
    """Kernel test, pairwise test (when ``family`` is given), map, signed Kraus, verdicts."""
    rep = rdl.check_subspace_consistency(sub, u)
    pw = None if family is None else rdl.check_pairwise_consistency(family, u)
    superop = rdl.build_dynamical_map(rdl.build_assignment(sub), u, consistency=rep)
    kraus = rdl.decompose_signed_kraus(superop)
    return Outcome(sub, rep, pw, superop, kraus, rdl.verdicts(superop))


def check_outcome(
    out: Outcome, prop: Propagator, shape: FamilyShape, reduced: list[np.ndarray]
) -> str | None:
    """First disagreement with the ground truth, or None."""
    sub = out.subspace
    got_dims = (sub.span_dim, sub.reduced_dim, sub.kernel_dim)
    if got_dims != shape.dims:
        return f"subspace dims {got_dims}, expected {shape.dims}"
    if out.pairwise is not None and out.pairwise.pairs_tested != shape.matched_pairs:
        return f"pairwise tested {out.pairwise.pairs_tested} pairs, expected {shape.matched_pairs}"
    if not prop.expect_consistent:
        if out.report.consistent or out.report.witness is None:
            return "entangling propagator passed the kernel test"
        leak = np.max(np.abs(partial_trace_env(out.report.witness, shape.d_s, shape.d_e)))
        if leak > GROUND_TRUTH_TOL:
            return f"witness has partial trace {leak:.3e}"
        if out.pairwise is not None and out.pairwise.consistent:
            return "entangling propagator passed the pairwise test"
        return None
    if not out.report.consistent:
        return f"local propagator failed the kernel test ({out.report.max_violation:.3e})"
    if out.pairwise is not None and not out.pairwise.consistent:
        return "local propagator failed the pairwise test"
    v = out.verdicts
    if not (v.completely_positive and v.trace_preserving):
        return f"local propagator map is not CPTP: {v}"
    if prop.u_s is None:
        return "expected a consistent map but the propagator has no system factor"
    for rho in reduced:
        expected = prop.u_s @ rho @ prop.u_s.conj().T
        err = np.max(np.abs(out.superop.apply(rho) - expected))
        if err > GROUND_TRUTH_TOL:
            return f"map misses U_s rho U_s^dag by {err:.3e}"
    err = np.max(np.abs(out.kraus.reconstruct(reduced[0]) - out.superop.apply(reduced[0])))
    if err > GROUND_TRUTH_TOL:
        return f"signed Kraus form misses the map by {err:.3e}"
    return None


def warm_up(shape: FamilyShape) -> None:
    """Fill the basis caches for ``shape`` and touch the LAPACK paths the pipeline uses."""
    d_j = shape.d_s * shape.d_e
    rdl.basis_coords(np.eye(d_j), d_j)
    rdl.basis_coords(np.eye(shape.d_s), shape.d_s)
    rng = np.random.default_rng(0)
    tiny = FamilyShape(2, 2, 2, 2, 2)
    family = rdl.StateFamily(dims=rdl.BipartiteDims(2, 2), members=tiny.draw(rng))
    analyze(rdl.build_subspace(family), haar_unitary(4, rng), family)


class InProcess:
    """Shared loop plumbing for the two workloads that call rdl directly."""

    kinds = ("local", "entangling")

    def kind(self, i: int) -> str:
        return self.kinds[i % 2]

    def corrupt(self, i: int) -> None:
        """Flip the expected verdict of operation ``i`` (harness self-test)."""
        self.flipped.add(i)


class WideFamily(InProcess):
    """Whole pipeline on a 4x8 family of 120 members; build_subspace dominates."""

    name = "wide-family"
    shapes = {
        "full": FamilyShape(4, 8, n_sys=8, n_env=6, n_random=72),
        "tiny": FamilyShape(2, 3, n_sys=2, n_env=2, n_random=6),
    }
    pool = 7  # odd, so every family meets both kinds of propagator

    def __init__(self, seed: int, spawner: Spawner | None = None, size: str = "full"):
        self.shape = shape = self.shapes[size]
        rng = np.random.default_rng([seed, 1])
        self.families = [shape.draw(rng) for _ in range(self.pool)]
        self.reduced = [
            [partial_trace_env(m, shape.d_s, shape.d_e) for m in fam] for fam in self.families
        ]
        self.propagators = [
            [draw_propagator(shape.d_s, shape.d_e, local, rng) for _ in range(self.pool)]
            for local in (True, False)
        ]
        self.flipped: set[int] = set()
        warm_up(shape)

    def _inputs(self, i: int):
        prop = self.propagators[i % 2][(i // 2) % self.pool]
        if i in self.flipped:
            prop = replace(prop, expect_consistent=not prop.expect_consistent)
        return self.families[i % self.pool], self.reduced[i % self.pool], prop

    def run(self, i: int):
        members, _, prop = self._inputs(i)
        t0 = time.perf_counter()
        dims = rdl.BipartiteDims(self.shape.d_s, self.shape.d_e)
        family = rdl.StateFamily(dims=dims, members=members)
        out = analyze(rdl.build_subspace(family), prop.u, family)
        return time.perf_counter() - t0, out

    def check(self, i: int, out: Outcome) -> str | None:
        _, reduced, prop = self._inputs(i)
        return check_outcome(out, prop, self.shape, reduced)


class PropagatorSweep(InProcess):
    """One 3x4 family of 100 members built once; each operation scans 8 propagators.

    A single propagator takes a few milliseconds, so a run would hold thousands
    of samples and its tail percentile would sit in the scheduler's hiccups; a
    scan segment of 8 keeps the tail where run-to-run spread is bounded.
    """

    name = "propagator-sweep"
    kinds = ("segment",)  # 4 local and 4 entangling propagators, alternating
    shapes = {
        "full": FamilyShape(3, 4, n_sys=5, n_env=4, n_random=80),
        "tiny": FamilyShape(2, 2, n_sys=2, n_env=2, n_random=3),
    }
    pool = 256
    segment = 8

    def __init__(self, seed: int, spawner: Spawner | None = None, size: str = "full"):
        self.shape = shape = self.shapes[size]
        rng = np.random.default_rng([seed, 2])
        members = shape.draw(rng)
        self.reduced = [partial_trace_env(m, shape.d_s, shape.d_e) for m in members]
        self.propagators = [
            draw_propagator(shape.d_s, shape.d_e, i % 2 == 0, rng) for i in range(self.pool)
        ]
        self.flipped: set[int] = set()
        warm_up(shape)
        dims = rdl.BipartiteDims(shape.d_s, shape.d_e)
        self.subspace = rdl.build_subspace(rdl.StateFamily(dims=dims, members=members))

    def kind(self, i: int) -> str:
        return self.kinds[0]

    def _props(self, i: int) -> list[Propagator]:
        props = [self.propagators[(i * self.segment + j) % self.pool] for j in range(self.segment)]
        if i in self.flipped:
            props[0] = replace(props[0], expect_consistent=not props[0].expect_consistent)
        return props

    def run(self, i: int):
        props = self._props(i)
        t0 = time.perf_counter()
        outs = [analyze(self.subspace, prop.u) for prop in props]
        return time.perf_counter() - t0, outs

    def check(self, i: int, outs: list[Outcome]) -> str | None:
        for prop, out in zip(self._props(i), outs):
            problem = check_outcome(out, prop, self.shape, self.reduced)
            if problem is not None:
                return problem
        return None


def matrix_json(a: np.ndarray) -> dict:
    rows, cols = a.shape
    return {
        "rows": rows,
        "cols": cols,
        "data": [[float(z.real), float(z.imag)] for z in a.reshape(-1)],
    }


def family_json(members, d_s: int, d_e: int, label: str) -> dict:
    return {"d_s": d_s, "d_e": d_e, "label": label, "members": [matrix_json(m) for m in members]}


def full_two_qubit_members(eps: float = 0.2) -> list[np.ndarray]:
    """I/4 plus eps times each of the 15 product-Pauli directions: spans all 16 dimensions."""
    paulis = [
        np.eye(2, dtype=complex),
        np.array([[0, 1], [1, 0]], dtype=complex),
        np.array([[0, -1j], [1j, 0]], dtype=complex),
        np.array([[1, 0], [0, -1]], dtype=complex),
    ]
    eye4 = np.eye(4, dtype=complex) / 4.0
    directions = [np.kron(p, q) for p in paulis for q in paulis][1:]  # all but I (x) I
    return [eye4] + [eye4 + eps * pq for pq in directions]


@dataclass(frozen=True)
class CliCommand:
    kind: str
    argv: tuple[str, ...]
    expect_code: int


@dataclass
class CliRun:
    command: CliCommand
    code: int
    stdout: bytes


@dataclass
class CliCycle:
    """The three runs of one operation; ``rss_mb`` is the largest child peak."""

    runs: list[CliRun]
    rss_mb: float | None


class CliCaseStudy:
    """Sequential ``python -m rdl.cli`` runs; one operation runs the three commands in turn.

    One operation is a whole cycle rather than one command: the commands take
    about 0.3, 0.5 and 0.5 s, so a per-command median would sit on the edge
    between the fast command and the two slow ones and jump with the load on
    the machine.  Each command's runs are still checked one by one.
    """

    name = "cli-case-study"
    kinds = ("cycle",)
    commands = ("two-qubit-hull", "analyze-full", "analyze-dump")
    flagship = (
        "two-qubit", "--omega", "1", "--t", "1.3", "--a11", "0.15", "--a21", "-0.1",
        "--b11", "0.1,0,0.05", "--b21", "0,0.1,0", "--samples", "12", "--scale", "0.3",
        "--hull",
    )
    sizes = {
        "full": (1000, FamilyShape(3, 4, n_sys=3, n_env=5, n_random=60)),
        "tiny": (20, FamilyShape(3, 4, n_sys=2, n_env=2, n_random=8)),
    }

    def __init__(self, seed: int, spawner: Spawner, size: str = "full"):
        self.spawner = spawner
        trials, self.shape = self.sizes[size]
        shape = self.shape
        work = OUT / f"{self.name}-seed{seed}-{size}"
        work.mkdir(parents=True, exist_ok=True)
        self.stdout_path = work / "stdout.json"
        rng = np.random.default_rng([seed, 3])
        family = work / "family-3x4.json"
        unitary = work / "unitary-3x4.json"
        full = work / "family-full-2x2.json"
        members = shape.draw(rng)
        label = f"benchmark {shape.d_s}x{shape.d_e} seed {seed}"
        family.write_text(json.dumps(family_json(members, shape.d_s, shape.d_e, label)))
        local = draw_propagator(shape.d_s, shape.d_e, True, rng)
        unitary.write_text(json.dumps(matrix_json(local.u)))
        full.write_text(json.dumps(family_json(full_two_qubit_members(), 2, 2, "full two-qubit")))
        hull_seeds = [(3 * seed + j) % HULL_SEEDS_VERIFIED for j in range(3)]
        self.flagship_cmds = [
            CliCommand(
                self.commands[0],
                self.flagship + ("--trials", str(trials), "--seed", str(k)),
                0,
            )
            for k in hull_seeds
        ]
        self.others = [
            CliCommand(
                self.commands[1],
                ("analyze", "--family", str(full), "--model", "two-qubit",
                 "--omega", "1.5707963267948966", "--t", "1"),
                3,
            ),
            CliCommand(
                self.commands[2],
                ("analyze", "--family", str(family), "--unitary", str(unitary),
                 "--dump-subspace"),
                0,
            ),
        ]
        self.flipped: set[int] = set()
        # argv -> (stdout of its first run, that run's problem or None)
        self.first_runs: dict[tuple[str, ...], tuple[bytes, str | None]] = {}
        import jsonschema  # the validator only; the CLI runs in its own processes
        import rdl.serialize

        schema = rdl.serialize.load_report_schema()
        self.validator = jsonschema.validators.validator_for(schema)(schema)
        # Compile the package once, as an installed package would be.
        code, *_ = spawner.run([sys.executable, "-c", "import rdl.cli"], work / "warm.out")
        if code != 0:
            raise RuntimeError("cannot import rdl.cli in a child process")

    def kind(self, i: int) -> str:
        return self.kinds[0]

    def cycle(self, i: int) -> list[CliCommand]:
        """Flagship (hull seeds cycle over three), full two-qubit family, subspace dump."""
        return [self.flagship_cmds[i % len(self.flagship_cmds)], *self.others]

    def corrupt(self, i: int) -> None:
        """Expect exit 0 instead of 3 from the full-family command of operation ``i``."""
        self.flipped.add(i)

    def run(self, i: int):
        runs, wall, rss = [], 0.0, 0.0
        for cmd in self.cycle(i):
            argv = [sys.executable, "-m", "rdl.cli", *cmd.argv]
            code, seconds, peak = self.spawner.run(argv, self.stdout_path)
            runs.append(CliRun(cmd, code, self.stdout_path.read_bytes()))
            wall += seconds
            rss = max(rss, peak)
        return wall, CliCycle(runs, rss)

    def run_in_process(self, i: int):
        """The same commands through ``rdl.cli.main`` in this process."""
        import rdl.cli

        runs, wall = [], 0.0
        for cmd in self.cycle(i):
            out, err = io.StringIO(), io.StringIO()
            t0 = time.perf_counter()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = rdl.cli.main(list(cmd.argv))
            wall += time.perf_counter() - t0
            runs.append(CliRun(cmd, code, out.getvalue().encode()))
        return wall, CliCycle(runs, None)

    def check(self, i: int, result: CliCycle) -> str | None:
        for run in result.runs:
            problem = self._check_run(run, flipped=i in self.flipped)
            if problem is not None:
                return problem
        return None

    def _check_run(self, run: CliRun, flipped: bool) -> str | None:
        cmd = run.command
        expect_code = cmd.expect_code
        if flipped and cmd.kind == self.commands[1]:
            expect_code = 0
        if run.code != expect_code:
            return f"{cmd.kind} exited {run.code}, expected {expect_code}"
        if cmd.argv in self.first_runs:
            stdout, problem = self.first_runs[cmd.argv]
            if stdout != run.stdout:
                return f"{cmd.kind} stdout differs from its first run"
            return problem
        problem = self._check_report(cmd, json.loads(run.stdout))
        self.first_runs[cmd.argv] = (run.stdout, problem)
        return problem

    def _check_report(self, cmd: CliCommand, report: dict) -> str | None:
        if cmd.kind == "two-qubit-hull":
            v = report["verdicts"]
            if not report["consistent"] or report["hull_consistency"] is None:
                return "flagship family is not consistent under the kernel and hull tests"
            if v["completely_positive"]:
                return "flagship map came out completely positive"
            if abs(v["choi_min_eigenvalue"] - FLAGSHIP_CHOI_MIN) > FLAGSHIP_CHOI_ATOL:
                return f"flagship Choi minimum {v['choi_min_eigenvalue']:.6g}"
        elif cmd.kind == "analyze-full":
            if report["consistent"]:
                return "full two-qubit family came out consistent"
        else:
            errors = sorted(self.validator.iter_errors(report), key=str)
            if errors:
                return f"dump report breaks the schema: {errors[0].message}"
            sub = report["subspace"]
            dims = (sub["span_dim"], sub["reduced_dim"], sub["kernel_dim"])
            if dims != self.shape.dims or sub["detail"] is None:
                return f"dump subspace dims {dims}, expected {self.shape.dims}"
            if not (report["consistent"] and report["verdicts"]["completely_positive"]):
                return "local propagator on the 3x4 family is not consistent and CP"
        return None


WORKLOADS = {w.name: w for w in (WideFamily, PropagatorSweep, CliCaseStudy)}
