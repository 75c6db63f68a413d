"""Wall-clock benchmark of the repro serving stack.

Run from the repository root::

    python3 wallbench/run.py --workload solve_hot --seed 1 --seconds 20 --trace 0

Workloads (see ``BENCHMARK.json`` for why each was chosen):

* ``solve_hot`` -- hot fused solves, sync server then async runtime;
* ``solve_routed`` -- planner-routed solves on fresh, ill-conditioned arrays;
* ``sessions`` -- durable stream and frequency sessions, crash and restore.

Every end-to-end metric is measured on every workload.  A run gives half
or more of its ``--seconds`` to the workload's own phases and the rest to
companion phases of the other traffic those metrics need (whose servers
are set up untimed).  The run is cut into ``CYCLES`` cycles; in each, the
workload's own servers may be set up afresh (timed and discarded) and
every phase takes one turn, so the samples of every metric are spread
over the whole run.  ``setup_s`` is the median of all set-ups, the one
whose servers carry the traffic included.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs every
phase for a fixed number of steps twice -- untraced, then with every
layer boundary wrapped (``layers.install``) -- and prints the per-layer
metrics; the difference in wall time is the wrapper overhead.

Stdout ends with one JSON line: ``correct``, ``attempted``, ``failed``,
``metrics``.  Lines before it record the environment, the per-layer table,
``failed_ratio`` and every metric by name and unit, ``stream_rows_per_s``
included (printed, not gated: see ``UNGATED``).  The run reads and writes only inside the checkout
(a scratch directory at ``.bench_tmp/`` holds the durable stores).
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

#: Phases each workload runs, own phases first, with their share of ``--seconds``.
WORKLOADS = {
    "solve_hot": {"own": {"hot_sync": 0.35, "hot_async": 0.4}, "companions": {"sessions": 0.25}},
    "solve_routed": {"own": {"routed_sync": 0.5}, "companions": {"hot_async": 0.25, "sessions": 0.25}},
    "sessions": {"own": {"sessions": 0.5}, "companions": {"hot_sync": 0.25, "hot_async": 0.25}},
}
PHASES = ("hot_sync", "hot_async", "routed_sync", "sessions")
#: Cycles a run is cut into; each phase takes one turn per cycle, so spells
#: of outside load fall on all phases and on many stretches of each.
CYCLES = 8
#: Timed set-ups per run: as many as fit in SETUP_SHARE of ``--seconds``
#: at the first set-up's cost, within these limits, spread over the cycles.
SETUP_SHARE = 0.15
SETUPS = (5, 33)
#: Steps per phase in a traced run (sync solve steps, async bursts,
#: session rounds); companion phases run a quarter of them.
TRACE_STEPS = {"hot_sync": 64, "hot_async": 4, "routed_sync": 16, "sessions": 64}

END_TO_END = {
    "setup_s": "s",
    "solve_rps": "1/s",
    "solve_p50_ms": "ms",
    "solve_p99_ms": "ms",
    "async_rps": "1/s",
    "async_p50_ms": "ms",
    "async_p99_ms": "ms",
    "residual_inflation_max": "ratio",
    "stream_query_p50_ms": "ms",
    "freq_items_per_s": "1/s",
    "freq_hh_query_p50_ms": "ms",
    "freq_point_query_p50_ms": "ms",
    "restore_s": "s",
    "peak_rss_mb": "MB",
}
#: Printed with the end-to-end metrics but kept out of the result line:
#: stream ingest is bound by the fsync latency of the shared disk, whose
#: run-to-run spread exceeds any bound the result line may carry.
UNGATED = {"stream_rows_per_s": "1/s"}


def environment() -> dict:
    """What the numbers depend on beyond the code: cores, versions, BLAS threads."""
    import numpy
    import scipy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_commit": git_commit(),
        **{var: os.environ.get(var) for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def git_commit():
    """HEAD's commit read from ``.git`` without running git; None outside a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        return None
    return None


class Run:
    """One benchmark run: inputs, servers and phase results of one workload."""

    def __init__(self, workload: str, seed: int, scratch: Path) -> None:
        import numpy as np

        import traffic

        self.np = np
        self.traffic_module = traffic
        self.workload = workload
        self.seed = seed
        self.scratch = scratch
        self.ledger = traffic.Ledger()
        rng = np.random.default_rng([seed, 0])
        self.hot = traffic.hot_problems(rng)
        self.routed = None
        self.session_inputs = traffic.session_inputs(rng)
        self._stores = 0

    def rng(self, phase: str):
        return self.np.random.default_rng([self.seed, 1 + PHASES.index(phase)])

    def ensure_routed(self) -> None:
        if self.routed is None:
            self.routed = self.traffic_module.routed_problems(self.np.random.default_rng([self.seed, 9]))

    def store_dir(self) -> Path:
        self._stores += 1
        return self.scratch / f"store{self._stores}"

    # -- set-up ---------------------------------------------------------
    def build(self, phase: str):
        """Construct and warm the server a phase uses; warm-up answers are checked."""
        t = self.traffic_module
        if phase == "hot_sync":
            server, answers = t.build_sync(self.hot, "fixed")
            t.check_solves(self.hot, answers, self.ledger)
        elif phase == "routed_sync":
            server, answers = t.build_sync(self.routed, "cheapest_accurate")
            t.check_solves(self.routed, answers, self.ledger)
        elif phase == "hot_async":
            server, answers = t.build_async(self.hot, self.ledger)
            t.check_solves(self.hot, answers, self.ledger)
        else:
            store = self.store_dir()
            server = (t.build_sessions(store), store)
        return server

    def discard(self, phase: str, server) -> None:
        if phase == "hot_async":
            server.stop()
        elif phase == "sessions":
            shutil.rmtree(server[1], ignore_errors=True)

    # -- phases ---------------------------------------------------------
    def traffic(self, phase: str, server):
        """The client of one phase, bound to its (built) server."""
        t = self.traffic_module
        if phase in ("hot_sync", "routed_sync"):
            routed = phase == "routed_sync"
            problems = self.routed if routed else self.hot
            return t.SyncTraffic(phase, server, problems, self.rng(phase), self.ledger, permute=routed)
        if phase == "hot_async":
            return t.AsyncTraffic(server, self.hot, self.rng(phase), self.ledger)
        (srv, sids, fids), store = server
        return t.SessionTraffic(srv, sids, fids, self.session_inputs, store, self.ledger)

    def finish(self, phase: str, client, server):
        """End a phase's traffic, release its server; returns the phase result."""
        result = client.finish()
        if phase != "sessions":  # SessionTraffic.finish counts its own
            sketch_server = server.server if phase == "hot_async" else server
            result.extra["records_retained"] = self.traffic_module.retained_records(sketch_server)
        self.discard(phase, server)
        return result

    def verify(self, result) -> None:
        """Check a phase's served answers (outside every timed region)."""
        t = self.traffic_module
        if result.name == "sessions":
            t.check_frequency_answers(self.session_inputs, result.answers, self.ledger)
            return
        problems = self.routed if result.name == "routed_sync" else self.hot
        result.extra["residual_inflation_max"] = t.check_solves(problems, result.answers, self.ledger)
        result.answers = []


def percentile_ms(samples, q: float) -> float:
    import numpy as np

    return float(np.percentile(samples, q)) * 1e3


def burst_medians(result) -> dict:
    """Medians over the async phase's bursts of throughput and p50/p99 latency."""
    bursts = result.extra["bursts"]
    return {
        "rps": statistics.median(done / seconds for done, seconds, _ in bursts),
        "p50_ms": statistics.median(percentile_ms(lat, 50) for _, _, lat in bursts),
        "p99_ms": statistics.median(percentile_ms(lat, 99) for _, _, lat in bursts),
    }


def run_untraced(run: Run, seconds: float) -> dict:
    """Measure the end-to-end metrics of one workload."""
    spec = WORKLOADS[run.workload]
    own, companions = tuple(spec["own"]), tuple(spec["companions"])
    shares = {**spec["own"], **spec["companions"]}
    if "routed_sync" in own:
        run.ensure_routed()
    start = run.traffic_module.now()
    servers = {phase: run.build(phase) for phase in own}
    setup_s = [(run.traffic_module.now() - start) * 1e-9]
    fewest, most = SETUPS
    extra_setups = min(max(int(SETUP_SHARE * seconds / setup_s[0]), fewest), most) - 1
    for phase in companions:
        servers[phase] = run.build(phase)

    clients = {phase: run.traffic(phase, servers[phase]) for phase in shares}
    spent = dict.fromkeys(shares, 0.0)
    for cycle in range(1, CYCLES + 1):
        gc.collect()  # garbage of earlier cycles is no phase's cost
        for _ in range(extra_setups * cycle // CYCLES - extra_setups * (cycle - 1) // CYCLES):
            start = run.traffic_module.now()
            fresh = {phase: run.build(phase) for phase in own}
            setup_s.append((run.traffic_module.now() - start) * 1e-9)
            for phase, server in fresh.items():
                run.discard(phase, server)
        for phase, share in shares.items():
            if phase == "hot_async" and cycle > 1:
                servers[phase] = run.build(phase)
                clients[phase].replace_runtime(servers[phase])
            left = max(0.0, share * seconds * cycle / CYCLES - spent[phase])
            start = run.traffic_module.now()
            clients[phase].run(run.traffic_module.Budget(seconds=left))
            spent[phase] += (run.traffic_module.now() - start) * 1e-9
    results = {}
    for phase, client in clients.items():
        results[phase] = run.finish(phase, client, servers[phase])
        run.verify(results[phase])

    sync = results["routed_sync" if "routed_sync" in results else "hot_sync"]
    asyn = burst_medians(results["hot_async"])
    sess = results["sessions"].extra
    return {
        "setup_s": statistics.median(setup_s),
        "solve_rps": sync.requests / sync.busy_s,
        "solve_p50_ms": percentile_ms(sync.latencies_s, 50),
        "solve_p99_ms": percentile_ms(sync.latencies_s, 99),
        "async_rps": asyn["rps"],
        "async_p50_ms": asyn["p50_ms"],
        "async_p99_ms": asyn["p99_ms"],
        "residual_inflation_max": sync.extra["residual_inflation_max"],
        "stream_rows_per_s": sess["stream_rows_per_s"],
        "stream_query_p50_ms": percentile_ms(sess["stream_query_s"], 50),
        "freq_items_per_s": sess["freq_items_per_s"],
        "freq_hh_query_p50_ms": percentile_ms(sess["hh_query_s"], 50),
        "freq_point_query_p50_ms": percentile_ms(sess["point_query_s"], 50),
        "restore_s": statistics.median(sess["restore_s"]),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def traced_pass(run: Run, phases, recorder=None):
    """Set up and run every phase for its fixed step count; returns results and wall time."""
    results, wall, windows = {}, 0.0, []
    for phase in phases:
        steps = TRACE_STEPS[phase] if phase in WORKLOADS[run.workload]["own"] else -(-TRACE_STEPS[phase] // 4)
        gc.collect()
        if recorder is not None:
            recorder.enabled = True
        start = run.traffic_module.now()
        server = run.build(phase)
        windows.append((start, run.traffic_module.now()))
        client = run.traffic(phase, server)
        client.run(run.traffic_module.Budget(steps=steps))
        result = run.finish(phase, client, server)
        wall += (run.traffic_module.now() - start) * 1e-9
        if recorder is not None:
            recorder.enabled = False
        windows.extend(result.windows)
        run.verify(result)
        results[phase] = result
    return results, wall, windows


def run_traced(run: Run) -> dict:
    """Measure the per-layer metrics: the same traffic untraced, then traced."""
    import layers
    from spans import Recorder, layer_totals

    run.ensure_routed()
    own = tuple(WORKLOADS[run.workload]["own"])
    phases = own + tuple(p for p in PHASES if p not in own)
    _, untraced_wall, _ = traced_pass(run, phases)

    recorder = Recorder()
    layers.install(recorder)
    try:
        results, traced_wall, windows = traced_pass(run, phases, recorder)
    finally:
        recorder.unpatch_all()

    print("layer                             count      busy_s      self_s")
    for name, row in sorted(layer_totals(recorder.spans).items()):
        print(f"{name:<30} {row['count']:>8} {row['busy_s']:>11.4f} {row['self_s']:>11.4f}")
    for name, (unit, moves) in layers.PER_LAYER.items():
        print(f"moves: {name} -> {moves}")

    sessions = results["sessions"].extra
    asyn = results["hot_async"]
    frequency_queries = len(sessions["point_query_s"]) + len(sessions["hh_query_s"])
    return layers.per_layer_metrics(
        recorder,
        requests=sum(r.requests for r in results.values()),
        windows=windows,
        async_wall_s=asyn.wall_s,
        async_submitted=asyn.extra["submitted"],
        async_shed=asyn.extra.get("shed", 0),
        records_retained=sum(r.extra.get("records_retained", 0) for r in results.values()),
        stream_resolves=sessions["stream_resolves"],
        frequency_queries=frequency_queries,
        trace_overhead_s=traced_wall - untraced_wall,
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no repro package under {ROOT / 'src'}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(Path(__file__).resolve().parent))

    print("env " + json.dumps(environment(), sort_keys=True))
    scratch = ROOT / ".bench_tmp" / f"wallbench-{os.getpid()}"
    scratch.mkdir(parents=True, exist_ok=True)
    try:
        run = Run(args.workload, args.seed, scratch)
        if args.trace:
            values = run_traced(run)
            import layers

            units = {name: unit for name, (unit, _) in layers.PER_LAYER.items()}
        else:
            values = run_untraced(run, args.seconds)
            units = END_TO_END
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            scratch.parent.rmdir()
        except OSError:
            pass

    ledger = run.ledger
    failed_ratio = ledger.failed / max(ledger.attempted, 1)
    print(f"failed_ratio {failed_ratio:.6g} ratio ({ledger.failed} of {ledger.attempted}; {dict(ledger.reasons)})")
    for name, value in values.items():
        print(f"{name} {value:.6g} {units.get(name) or UNGATED[name]}")
    print(
        json.dumps(
            {
                "correct": ledger.failed == 0,
                "attempted": ledger.attempted,
                "failed": ledger.failed,
                "metrics": {
                    name: {"value": value, "unit": units[name]}
                    for name, value in values.items()
                    if name in units
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
