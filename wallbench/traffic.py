"""Inputs, client loops and answer checks of the wall-clock benchmark.

Four traffic phases drive the public API of :mod:`repro.serving`:

* ``hot_sync`` -- a :class:`SketchServer` with the default config (the
  paper's multisketch ``sketch_and_solve``) and one closed-loop client:
  submit 8 right-hand sides against one of four 16384x32 matrices, flush.
* ``hot_async`` -- an :class:`AsyncSketchServer` with two workers fed by one
  submitting thread that keeps 16 requests in flight, on the same matrices;
  each turn of the phase gets a freshly built runtime.
* ``routed_sync`` -- a ``policy="cheapest_accurate"`` server; every step is
  a fresh row permutation of one of eight 32768/65536 x 64 matrices with
  condition numbers 1e2..1e11 and carries 2 right-hand sides.
* ``sessions`` -- a durable server (directory checkpoint store) with four
  sliding-window stream sessions and four flat frequency sessions, fed
  round-robin and queried between rounds; every turn ends in a crash image
  of the store that a fresh server restores.

Inputs are generated from the seed before any timed call.  Every served
answer is checked after its phase (so checks never sit inside a timed
region); a failed or wrong answer is recorded in a :class:`Ledger`.
"""

from __future__ import annotations

import shutil
import statistics
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.durability.store import DirectoryCheckpointStore, DurabilityConfig
from repro.gpu.executor import GPUExecutor
from repro.linalg.conditioning import matrix_with_condition
from repro.linalg.registry import get_solver
from repro.problems.frequency import build_frequency_sketch, plan_frequency_sketch
from repro.serving import AdmissionError, AsyncSketchServer, ServerConfig, SketchServer
from repro.theory.distortion import observed_residual_inflation, residual_distortion_bound
from repro.workloads.streams import piecewise_stationary_stream, zipf_stream

HOT_SHAPE = (16384, 32)
HOT_MATRICES = 4
HOT_RHS = 8
HOT_COND = 1e4
ROUTED_ROWS = (32768, 65536)
ROUTED_COLS = 64
ROUTED_CONDS = (1e2, 1e5, 1e8, 1e11)
ROUTED_RHS = 2
ASYNC_WORKERS = 2
ASYNC_IN_FLIGHT = 16
#: Requests per async burst (a quarter of a second of traffic).
ASYNC_BURST = 128
#: How often the async client looks for completions besides the oldest.
ASYNC_POLL_S = 0.001
STREAM_SESSIONS = 4
STREAM_COLS = 16
STREAM_BATCH = 128
FREQ_SESSIONS = 4
FREQ_DOMAIN = 1 << 16
FREQ_BATCH = 4096
#: Rounds of pre-generated session input; longer phases wrap around.
SESSION_ROUNDS = 256
#: Stream and point queries every this many rounds.
QUERY_EVERY = 4
#: A heavy-hitter query (one session at a time, round-robin) every this
#: many rounds.
HH_EVERY = 4
#: Ids whose point estimates are queried: the heaviest plus a random sample.
POINT_IDS = 64
HH_RECALL_MIN = 0.9
#: Slack on the residual bound: the planner routes to a solver whose
#: accuracy floor meets the request's accuracy target (the config default).
ACCURACY_TARGET = ServerConfig().accuracy_target
#: Checkpoint interval of the durable server (the DurabilityConfig default);
#: the crash images are taken mid-interval, so restore replays a WAL tail
#: of the same length every time.
CHECKPOINT_INTERVAL = 8
CRASH_ROUND = CHECKPOINT_INTERVAL // 2 + 1


def now() -> int:
    return time.perf_counter_ns()


# ---------------------------------------------------------------------------
# bookkeeping
# ---------------------------------------------------------------------------
@dataclass
class Ledger:
    """Operations attempted and failed, with the reasons for failures."""

    attempted: int = 0
    failed: int = 0
    reasons: Counter = field(default_factory=Counter)

    def ok(self, count: int = 1) -> None:
        self.attempted += count

    def fail(self, reason: str, count: int = 1) -> None:
        self.attempted += count
        self.failed += count
        self.reasons[reason] += count


@dataclass
class Budget:
    """How long a phase runs: wall seconds, or a fixed number of steps."""

    seconds: Optional[float] = None
    steps: Optional[int] = None

    def more(self, done: int, started_ns: int) -> bool:
        if self.steps is not None:
            return done < self.steps
        return (now() - started_ns) * 1e-9 < self.seconds


@dataclass
class PhaseResult:
    """What one phase measured (all times in seconds).

    ``busy_s`` is the time inside the timed calls of the phase's main
    operation, so ``requests / busy_s`` is its throughput.
    """

    name: str
    wall_s: float = 0.0
    requests: int = 0
    busy_s: float = 0.0
    latencies_s: List[float] = field(default_factory=list)
    #: Served solve answers ``(problem, rhs, x, executed solver, failed)``
    #: or frequency answers ``(session, round, kind, value)``, checked
    #: after the phase.
    answers: List[tuple] = field(default_factory=list)
    extra: Dict[str, object] = field(default_factory=dict)
    #: ``[start, end)`` of every timed client call, for trace attribution.
    windows: List[Tuple[int, int]] = field(default_factory=list)


# ---------------------------------------------------------------------------
# least-squares inputs and answer checks
# ---------------------------------------------------------------------------
@dataclass
class Problem:
    """A design matrix, its right-hand sides and their lstsq optimum."""

    a: np.ndarray
    rhs: List[np.ndarray]
    optimum: np.ndarray  # relative residual of the exact lstsq solution per rhs


def make_problem(rng: np.random.Generator, d: int, n: int, cond: float, nrhs: int) -> Problem:
    a = matrix_with_condition(d, n, cond, seed=int(rng.integers(1 << 31))) * np.sqrt(d * n)
    x = rng.normal(1.0, 1.0, size=(n, nrhs))
    b = a @ x + 0.1 * rng.standard_normal((d, nrhs))
    sol = np.linalg.lstsq(a, b, rcond=None)[0]
    optimum = np.linalg.norm(b - a @ sol, axis=0) / np.linalg.norm(b, axis=0)
    return Problem(a=a, rhs=[np.ascontiguousarray(b[:, j]) for j in range(nrhs)], optimum=optimum)


def hot_problems(rng: np.random.Generator) -> List[Problem]:
    d, n = HOT_SHAPE
    return [make_problem(rng, d, n, HOT_COND, HOT_RHS) for _ in range(HOT_MATRICES)]


def routed_problems(rng: np.random.Generator) -> List[Problem]:
    return [
        make_problem(rng, d, ROUTED_COLS, cond, ROUTED_RHS)
        for d in ROUTED_ROWS
        for cond in ROUTED_CONDS
    ]


def residual_bound(executed_solver: str) -> float:
    """Largest residual inflation the executed solver may show.

    The solver's declared distortion ``1 + eps`` gives the paper's bound
    ``sqrt((1 + eps) / (1 - eps))``; distortion-free solvers get 1 plus
    the accuracy target the planner routed them against.
    """
    eps = get_solver(executed_solver).capabilities.distortion - 1.0
    return residual_distortion_bound(eps) + ACCURACY_TARGET


def check_solves(problems: List[Problem], answers: List[tuple], ledger: Ledger) -> float:
    """Check ``(problem, rhs, x, executed_solver, failed)`` answers; returns the max inflation.

    The residual is recomputed here from ``x`` against the unpermuted
    matrix (a row permutation leaves it unchanged), never taken from the
    server's response.
    """
    worst = 0.0
    by_problem: Dict[int, List[tuple]] = {}
    for answer in answers:
        by_problem.setdefault(answer[0], []).append(answer)
    for p, group in by_problem.items():
        problem = problems[p]
        for start in range(0, len(group), 64):
            usable = []
            for g in group[start : start + 64]:
                if g[4] or g[2] is None or not np.all(np.isfinite(g[2])):
                    ledger.fail("solve_failed")
                else:
                    usable.append(g)
            if not usable:
                continue
            x = np.column_stack([g[2] for g in usable])
            b = np.column_stack([problem.rhs[g[1]] for g in usable])
            served = np.linalg.norm(b - problem.a @ x, axis=0) / np.linalg.norm(b, axis=0)
            for g, res in zip(usable, served):
                inflation = observed_residual_inflation(float(res), float(problem.optimum[g[1]]))
                worst = max(worst, inflation)
                if inflation > residual_bound(g[3]):
                    ledger.fail("residual_inflation")
                else:
                    ledger.ok()
    return worst


def _answer(problem: int, rhs: int, response) -> tuple:
    return (problem, rhs, response.x, response.executed_solver, bool(response.extra.get("failed", 0.0)))


# ---------------------------------------------------------------------------
# synchronous solves (hot and routed)
# ---------------------------------------------------------------------------
def build_sync(problems: List[Problem], policy: str) -> Tuple[SketchServer, List[tuple]]:
    """Construct a server and warm it: one request on each distinct matrix."""
    server = SketchServer(ServerConfig(policy=policy))
    answers = []
    for p, problem in enumerate(problems):
        server.submit(problem.a, problem.rhs[0])
        answers.extend(_answer(p, 0, r) for r in server.flush())
    return server, answers


class SyncTraffic:
    """Closed loop on a :class:`SketchServer`: submit every rhs of one matrix, flush, repeat.

    With ``permute`` each step serves a fresh row permutation of its
    matrix, made before the step's timed calls.  A request's latency runs
    from its ``submit`` to the return of the ``flush`` that answers it.
    Every :meth:`run` ends on a whole pass over the matrices, so each
    weighs the same in every figure.
    """

    def __init__(self, name, server, problems, rng, ledger, *, permute: bool) -> None:
        self.result = PhaseResult(name)
        self.server, self.problems, self.rng, self.ledger = server, problems, rng, ledger
        self.permute = permute
        self.order = rng.permutation(len(problems))
        self.step = 0

    def run(self, budget: Budget) -> None:
        result, started, done = self.result, now(), 0
        while budget.more(done, started) or self.step % len(self.order):
            p = int(self.order[self.step % len(self.order)])
            self.step += 1
            done += 1
            problem = self.problems[p]
            if self.permute:
                perm = self.rng.permutation(problem.a.shape[0])
                a = problem.a[perm]
                rhs = [b[perm] for b in problem.rhs]
            else:
                a, rhs = problem.a, problem.rhs
            submitted = []
            for b in rhs:
                submitted.append(now())
                self.server.submit(a, b)
            try:
                responses = self.server.flush()
            except Exception:  # noqa: BLE001 - any raise is a failed request
                self.ledger.fail("exception", len(rhs))
                continue
            end = now()
            result.windows.append((submitted[0], end))
            result.busy_s += (end - submitted[0]) * 1e-9
            result.latencies_s.extend((end - t) * 1e-9 for t in submitted)
            result.requests += len(rhs)
            result.answers.extend(_answer(p, j, r) for j, r in enumerate(responses))
        result.wall_s += (now() - started) * 1e-9

    def finish(self) -> PhaseResult:
        return self.result


# ---------------------------------------------------------------------------
# asynchronous solves
# ---------------------------------------------------------------------------
def build_async(problems: List[Problem], ledger: Ledger) -> Tuple[AsyncSketchServer, List[tuple]]:
    """Construct the runtime and warm it: one request on each distinct matrix."""
    runtime = AsyncSketchServer(workers=ASYNC_WORKERS)
    answers = []
    for p, problem in enumerate(problems):
        try:
            answers.append(_answer(p, 0, runtime.submit(problem.a, problem.rhs[0]).result(timeout=60)))
        except Exception:  # noqa: BLE001 - shed, timeout or dispatch error
            ledger.fail("exception")
    return runtime, answers


def _wait_any(pending: List[tuple], timeout_s: float = 60.0) -> bool:
    """Block until any pending future is done; False on timeout.

    Futures expose only a blocking wait, so the client waits on the oldest
    for ``ASYNC_POLL_S`` at a time and checks the others in between: a
    slow batch then does not hide the completion of faster ones.
    """
    deadline = now() + int(timeout_s * 1e9)
    while now() < deadline:
        try:
            pending[0][0].exception(timeout=ASYNC_POLL_S)
            return True
        except TimeoutError:
            if any(item[0].done() for item in pending):
                return True
    return False


class AsyncTraffic:
    """One submitting thread holding ``ASYNC_IN_FLIGHT`` requests in flight.

    Request ``k`` is rhs ``k % 8`` of the matrix scheduled for step
    ``k // 8``.  The client refills as soon as any request is done, and a
    latency ends when the client sees it done.

    Traffic comes in bursts of ``ASYNC_BURST`` requests, each drained
    before the next starts, so that a burst's throughput and latency
    describe one stretch of steady closed-loop load.  Each burst is one
    entry of ``result.extra["bursts"]``: ``(completed, seconds, latencies)``.
    """

    def __init__(self, runtime, problems, rng, ledger) -> None:
        self.result = PhaseResult("hot_async")
        self.result.extra.update(bursts=[], submitted=0)
        self.runtime, self.problems, self.ledger = runtime, problems, ledger
        self.order = rng.permutation(len(problems))
        self.submitted = 0

    def run(self, budget: Budget) -> None:
        """Serve one warm-up burst, then measured bursts until the budget is spent.

        The warm-up is served and checked but not measured: after other
        traffic in this process, the first burst runs up to twice as slow
        while the BLAS thread pools settle -- a cost of sharing the process
        with the benchmark's other phases, not of serving.
        """
        started, bursts = now(), 0
        self._burst(measure=False)
        while budget.more(bursts, started) or not self.result.extra["bursts"]:
            self._burst()
            bursts += 1
        self.result.wall_s += (now() - started) * 1e-9

    def _burst(self, measure: bool = True) -> None:
        result, ledger = self.result, self.ledger
        pending: List[tuple] = []
        latencies: List[float] = []
        start, last = now(), self.submitted + ASYNC_BURST
        while self.submitted < last or pending:
            while len(pending) < ASYNC_IN_FLIGHT and self.submitted < last:
                k = self.submitted
                self.submitted += 1
                p = int(self.order[(k // HOT_RHS) % len(self.order)])
                t = now()
                try:
                    future = self.runtime.submit(self.problems[p].a, self.problems[p].rhs[k % HOT_RHS])
                except AdmissionError:
                    ledger.fail("shed")
                    result.extra["shed"] = result.extra.get("shed", 0) + 1
                    continue
                pending.append((future, t, p, k % HOT_RHS))
            if not pending:
                continue
            if not _wait_any(pending):
                ledger.fail("timeout", len(pending))
                break
            seen = now()
            still = []
            for future, t, p, j in pending:
                if not future.done():
                    still.append((future, t, p, j))
                    continue
                result.windows.append((t, seen))
                error = future.exception()
                if error is not None:
                    ledger.fail("shed" if isinstance(error, AdmissionError) else "exception")
                    continue
                latencies.append((seen - t) * 1e-9)
                result.requests += 1
                result.answers.append(_answer(p, j, future.result()))
            pending = still
        if latencies and measure:
            result.extra["bursts"].append((len(latencies), (now() - start) * 1e-9, latencies))
        result.extra["submitted"] = self.submitted

    def replace_runtime(self, runtime) -> None:
        """Stop the current runtime and carry on with ``runtime``.

        A runtime can settle for seconds into a spell at about half its
        throughput (not seen with the BLAS pools pinned to one thread); a
        fresh runtime per turn keeps one such spell from setting a whole
        run's figures.
        """
        self.runtime.stop()
        self.runtime = runtime

    def finish(self) -> PhaseResult:
        return self.result


# ---------------------------------------------------------------------------
# durable stream + frequency sessions
# ---------------------------------------------------------------------------
@dataclass
class SessionInputs:
    streams: list
    items: List[List[np.ndarray]]
    probe_ids: np.ndarray


def session_inputs(rng: np.random.Generator) -> SessionInputs:
    streams = [
        piecewise_stationary_stream(
            STREAM_COLS,
            rows_per_segment=STREAM_BATCH * SESSION_ROUNDS // 4,
            n_segments=4,
            batch_size=STREAM_BATCH,
            seed=int(rng.integers(1 << 31)),
        )
        for _ in range(STREAM_SESSIONS)
    ]
    items = [
        [
            b.ids
            for b in zipf_stream(
                FREQ_DOMAIN,
                total_items=FREQ_BATCH * SESSION_ROUNDS,
                batch_size=FREQ_BATCH,
                seed=int(rng.integers(1 << 31)),
            )
        ]
        for _ in range(FREQ_SESSIONS)
    ]
    heavy = np.argsort(-np.bincount(np.concatenate(items[0][:8]), minlength=FREQ_DOMAIN))[: POINT_IDS // 2]
    sample = rng.choice(FREQ_DOMAIN, size=POINT_IDS // 2, replace=False)
    return SessionInputs(streams, items, np.unique(np.concatenate([heavy, sample])).astype(np.int64))


def durable_server(store_dir: Path) -> SketchServer:
    store = DirectoryCheckpointStore(store_dir)
    return SketchServer(ServerConfig(durability=DurabilityConfig(store, CHECKPOINT_INTERVAL)))


def build_sessions(store_dir: Path) -> Tuple[SketchServer, List[int], List[int]]:
    """Construct a durable server and open the stream and frequency sessions."""
    server = durable_server(store_dir)
    sids = [server.open_stream(STREAM_COLS, mode="sliding") for _ in range(STREAM_SESSIONS)]
    fids = [server.open_frequency_stream(FREQ_DOMAIN) for _ in range(FREQ_SESSIONS)]
    return server, sids, fids


def _timed(windows: List[Tuple[int, int]], fn, *args, **kwargs):
    """Call ``fn``; returns its value and the seconds it took."""
    start = now()
    value = fn(*args, **kwargs)
    end = now()
    windows.append((start, end))
    return value, (end - start) * 1e-9


class SessionTraffic:
    """Durable sessions: append round-robin, query between rounds, crash, restore.

    Ingest throughput is the median over rounds of one round's rows (or
    items) over the time its appends took: an fsync stall of the disk
    moves one round, not the figure.  Each :meth:`run` plays on to a round
    that leaves a WAL tail past the last checkpoint and ends in a crash:
    the store as the appends left it is copied, and a fresh server
    restores the copy and must answer as the live server does.  Restores
    are thus spread over the run, and each replays the same tail.
    """

    def __init__(self, server, sids, fids, inputs: SessionInputs, store_dir: Path, ledger: Ledger) -> None:
        self.result = PhaseResult("sessions")
        self.server, self.sids, self.fids = server, sids, fids
        self.inputs, self.store_dir, self.ledger = inputs, store_dir, ledger
        self.rnd = 0
        self.stream_round_s: List[float] = []
        self.freq_round_s: List[float] = []
        self.stream_q: List[float] = []
        self.point_q: List[float] = []
        self.hh_q: List[float] = []
        self.restore_s: List[float] = []

    def run(self, budget: Budget) -> None:
        started, done = now(), 0
        while budget.more(done, started) or self.rnd % CHECKPOINT_INTERVAL != CRASH_ROUND:
            self._round()
            done += 1
        self._crash_and_restore()
        self.result.wall_s += (now() - started) * 1e-9

    def _round(self) -> None:
        server, inputs, ledger, windows = self.server, self.inputs, self.ledger, self.result.windows
        rnd, src = self.rnd, self.rnd % SESSION_ROUNDS
        self.rnd += 1
        try:
            stream_s = 0.0
            for s, sid in enumerate(self.sids):
                batch = inputs.streams[s].batches[src]
                stream_s += _timed(windows, server.append_rows, sid, batch.rows, batch.targets)[1]
            freq_s = 0.0
            for f, fid in enumerate(self.fids):
                freq_s += _timed(windows, server.append_items, fid, inputs.items[f][src])[1]
            self.stream_round_s.append(stream_s)
            self.freq_round_s.append(freq_s)
            ledger.ok(len(self.sids) + len(self.fids))
            if rnd % QUERY_EVERY == QUERY_EVERY - 1:
                for sid in self.sids:
                    response, seconds = _timed(windows, server.query_solution, sid)
                    self.stream_q.append(seconds)
                    if response.extra.get("failed", 0.0) or not np.all(np.isfinite(response.x)):
                        ledger.fail("stream_query_failed")
                    else:
                        ledger.ok()
                for f, fid in enumerate(self.fids):
                    response, seconds = _timed(windows, server.query_point, fid, inputs.probe_ids)
                    self.point_q.append(seconds)
                    self.result.answers.append((f, rnd, "point", response.value))
            if rnd % HH_EVERY == HH_EVERY - 1:
                f = (rnd // HH_EVERY) % len(self.fids)
                response, seconds = _timed(windows, server.query_heavy_hitters, self.fids[f])
                self.hh_q.append(seconds)
                self.result.answers.append((f, rnd, "hh", response.value))
        except Exception:  # noqa: BLE001 - any raise is a failed operation
            ledger.fail("exception")

    def _crash_and_restore(self) -> None:
        """Restore a copy of the store into a fresh server; compare its answers."""
        server, ledger, inputs, result = self.server, self.ledger, self.inputs, self.result
        sids, fids = self.sids, self.fids
        copy = self.store_dir.with_name(f"{self.store_dir.name}-crash")
        shutil.copytree(self.store_dir, copy)
        try:
            start = now()
            restored = durable_server(copy)
            report = restored.restore()
            end = now()
            self.restore_s.append((end - start) * 1e-9)
            result.windows.append((start, end))
            if report.failed or set(report.restored) != set(sids) | set(fids):
                ledger.fail("restore_incomplete")
                return
            ids = inputs.probe_ids
            same = all(
                np.array_equal(restored.query_solution(sid).x, server.query_solution(sid).x) for sid in sids
            ) and all(
                np.array_equal(restored.query_point(fid, ids).value, server.query_point(fid, ids).value)
                and restored.query_norm(fid).value == server.query_norm(fid).value
                for fid in fids
            )
            if same:
                ledger.ok()
            else:
                ledger.fail("restore_mismatch")
        except Exception:  # noqa: BLE001 - a raising restore is a failed one
            ledger.fail("restore_exception")
        finally:
            shutil.rmtree(copy, ignore_errors=True)

    def finish(self) -> PhaseResult:
        result, sids, fids = self.result, self.sids, self.fids
        result.extra["records_retained"] = retained_records(self.server)
        result.extra["stream_resolves"] = sum(self.server.streams.session(sid).solver.resolve_count for sid in sids)
        result.requests = (
            self.rnd * (len(sids) + len(fids)) + len(self.stream_q) + len(self.point_q) + len(self.hh_q)
        )
        result.extra.update(
            stream_rows_per_s=statistics.median(len(sids) * STREAM_BATCH / t for t in self.stream_round_s),
            freq_items_per_s=statistics.median(len(fids) * FREQ_BATCH / t for t in self.freq_round_s),
            stream_query_s=self.stream_q,
            point_query_s=self.point_q,
            hh_query_s=self.hh_q,
            restore_s=self.restore_s,
            rounds=self.rnd,
        )
        return result


def retained_records(server: SketchServer) -> int:
    """Kernel records the server's executors still hold (``GPUExecutor.mark``)."""
    return sum(server.pool[i].mark() for i in range(server.pool.size))


def check_frequency_answers(inputs: SessionInputs, served: List[tuple], ledger: Ledger) -> None:
    """Replay each session's items into a library twin and compare every answer.

    Point estimates and heavy-hitter lists must be bit-equal to the twin's;
    heavy hitters must also recall ``HH_RECALL_MIN`` of the exact
    ``phi``-heavy items of the stream fed so far.  The twin is fed each
    id once per check with its count since the last check as the weight:
    with unit weights every table entry is an integer far below 2**53, so
    the sums, and hence the answers, are exact in any order.
    """
    plan = plan_frequency_sketch(FREQ_DOMAIN)
    by_session: Dict[int, List[tuple]] = {}
    for entry in served:
        by_session.setdefault(entry[0], []).append(entry)
    for f, answers in by_session.items():
        twin = build_frequency_sketch(
            plan,
            executor=GPUExecutor(numeric=True, track_memory=False),
            seed=ServerConfig().seed,
        )
        truth = np.zeros(FREQ_DOMAIN)
        in_twin = np.zeros(FREQ_DOMAIN)
        fed = 0
        for _, rnd, kind, value in answers:
            while fed <= rnd:
                truth += np.bincount(inputs.items[f][fed % SESSION_ROUNDS], minlength=FREQ_DOMAIN)
                fed += 1
            ids = np.flatnonzero(truth != in_twin)
            twin.update(ids, truth[ids] - in_twin[ids])
            in_twin[ids] = truth[ids]
            if kind == "point":
                if np.array_equal(value, twin.point_query(inputs.probe_ids)):
                    ledger.ok()
                else:
                    ledger.fail("point_query_mismatch")
                continue
            if value != twin.heavy_hitters(plan.phi):
                ledger.fail("heavy_hitters_mismatch")
                continue
            heavy = set(np.flatnonzero(truth >= plan.phi * np.linalg.norm(truth)).tolist())
            recall = len(heavy & {i for i, _ in value}) / len(heavy) if heavy else 1.0
            if recall < HH_RECALL_MIN:
                ledger.fail("heavy_hitter_recall")
            else:
                ledger.ok()
