"""Which public calls of each layer are timed, and the per-layer metrics.

:func:`install` wraps, from outside the package, the functions each layer
of :mod:`repro` exposes to the layer above it.  A span's name is its
layer (``serving.cache``, ``linalg.solver.qr``, ``gpu.launch`` ...);
counts that belong to a boundary (cache hits, kernel flops, WAL bytes) are
taken in the same wrapper.

:data:`PER_LAYER` lists every per-layer metric with its unit and the
end-to-end metric (and workload) it is expected to move.
"""

from __future__ import annotations

import statistics
import time
from typing import Dict, List

from spans import Recorder, layer_totals, uncovered_ns
from traffic import ASYNC_WORKERS

#: name -> (unit, end-to-end metric it should move, on which workload).
PER_LAYER: Dict[str, tuple] = {
    "serving.batcher.batch_size_mean": ("requests", "solve_rps on solve_hot"),
    "serving.cache.hit_ratio": ("ratio", "setup_s; solve_p99_ms on solve_routed"),
    "serving.cache.build_count": ("count", "setup_s; solve_p99_ms on solve_routed"),
    "serving.cache.build_s": ("s", "setup_s; solve_p99_ms on solve_routed"),
    "serving.scheduler.place_s": ("s", "solve_rps on solve_hot"),
    "serving.runtime.queue_wait_ms_p50": ("ms", "async_rps, async_p50_ms on solve_hot"),
    "serving.runtime.worker_busy_ratio": ("ratio", "async_rps, async_p50_ms on solve_hot"),
    "serving.runtime.shed_ratio": ("ratio", "async_rps, async_p50_ms on solve_hot"),
    "linalg.conditioning.probe_count": ("count", "solve_p50_ms on solve_routed"),
    "linalg.conditioning.probe_s": ("s", "solve_p50_ms on solve_routed"),
    "linalg.planner.plan_s": ("s", "solve_p50_ms on solve_routed"),
    "linalg.planner.attempts_per_batch": ("attempts", "solve_p50_ms on solve_routed"),
    "linalg.planner.execute_s": ("s", "solve_rps on solve_hot and solve_routed"),
    "linalg.solver.qr_s": ("s", "solve_rps on solve_hot and solve_routed"),
    "linalg.solver.normal_equations_s": ("s", "solve_rps on solve_hot and solve_routed"),
    "linalg.solver.sketch_and_solve_s": ("s", "solve_rps on solve_hot and solve_routed"),
    "linalg.solver.rand_cholqr_s": ("s", "solve_rps on solve_hot and solve_routed"),
    "core.sketch.apply_s": ("s", "solve_rps on solve_hot"),
    "core.sketch.generate_s": ("s", "solve_rps on solve_hot"),
    "gpu.launch_count_per_req": ("launches", "solve_rps, peak_rss_mb on all workloads"),
    "gpu.launch_s": ("s", "solve_rps, peak_rss_mb on all workloads"),
    "gpu.flops_per_req": ("flop", "solve_rps, peak_rss_mb on all workloads"),
    "gpu.bytes_per_req": ("B", "solve_rps, peak_rss_mb on all workloads"),
    "gpu.records_retained": ("count", "solve_rps, peak_rss_mb on all workloads"),
    "gpu.sim_s_per_req": ("s", "solve_rps, peak_rss_mb on all workloads"),
    "obs.trace_s": ("s", "solve_rps on solve_hot"),
    "obs.telemetry_s": ("s", "solve_rps on solve_hot"),
    "obs.spans_per_req": ("spans", "solve_rps on solve_hot"),
    "streaming.ingest_s": ("s", "stream_rows_per_s, stream_query_p50_ms on sessions"),
    "streaming.solution_s": ("s", "stream_rows_per_s, stream_query_p50_ms on sessions"),
    "streaming.resolve_count": ("count", "stream_rows_per_s, stream_query_p50_ms on sessions"),
    "core.frequency.update_s": ("s", "freq_items_per_s, freq_hh_query_p50_ms on sessions"),
    "core.frequency.query_s": ("s", "freq_items_per_s, freq_hh_query_p50_ms on sessions"),
    "core.sampling.hashed_per_query": ("ids", "freq_items_per_s, freq_hh_query_p50_ms on sessions"),
    "durability.wal_append_s": ("s", "stream_rows_per_s, restore_s on sessions"),
    "durability.checkpoint_write_s": ("s", "stream_rows_per_s, restore_s on sessions"),
    "durability.bytes_written_per_batch": ("B", "stream_rows_per_s, restore_s on sessions"),
    "durability.restore_read_s": ("s", "stream_rows_per_s, restore_s on sessions"),
    "unattributed_s": ("s", "every end-to-end metric: client time in no layer span"),
    "trace_overhead_s": ("s", "none: traced minus untraced wall time of the same traffic"),
}

SOLVERS = ("qr", "normal_equations", "sketch_and_solve", "rand_cholqr")


# ---------------------------------------------------------------------------
# counts taken at the wrapped boundaries
# ---------------------------------------------------------------------------
def _cache_lookup(rec: Recorder, args, kwargs, entry) -> None:
    rec.count("cache_lookups")
    if entry is not None:
        rec.count("cache_hits")


def _executed(rec: Recorder, args, kwargs, result) -> None:
    rec.sample("attempts", len(result.attempted_solvers))


def _launched(rec: Recorder, args, kwargs, timing) -> None:
    request = args[1] if len(args) > 1 else kwargs["request"]
    rec.count("launches", timing.launches)
    rec.count("flops", request.flops)
    rec.count("bytes", request.bytes_moved)
    rec.count("sim_s", timing.seconds)


def _spawned(rec: Recorder, args, kwargs, span) -> None:
    rec.count("program_spans")


def _hashed(rec: Recorder, args, kwargs, mixed) -> None:
    if rec.inside("core.frequency.query"):
        rec.count("hashed_in_query", mixed.size)


def _wal_bytes(rec: Recorder, args, kwargs, _) -> None:
    rec.count("durable_bytes", len(args[2]))
    rec.count("wal_appends")


def _checkpoint_bytes(rec: Recorder, args, kwargs, _) -> None:
    rec.count("durable_bytes", len(args[2]))


def install(rec: Recorder) -> None:
    """Wrap every layer boundary; :meth:`Recorder.unpatch_all` undoes it."""
    import repro.core.sampling as sampling
    import repro.linalg.conditioning as conditioning
    import repro.linalg.planner as planner
    import repro.serving.frequency as serving_frequency
    import repro.serving.server as serving_server
    import repro.serving.streaming as serving_streaming
    import repro.streaming.solver as streaming_solver
    from repro.core.base import SketchOperator
    from repro.core.frequency import FrequencySketch
    from repro.durability.store import DirectoryCheckpointStore
    from repro.gpu.executor import GPUExecutor
    from repro.linalg.registry import RegisteredSolver
    from repro.obs.calibrate import CalibratedEstimator
    from repro.obs.trace import Span, Tracer
    from repro.serving.batcher import MicroBatcher
    from repro.serving.cache import OperatorCache
    from repro.serving.frequency import FrequencySessionManager
    from repro.serving.runtime import AsyncSketchServer
    from repro.serving.scheduler import ShardScheduler
    from repro.serving.server import SketchServer
    from repro.serving.streaming import StreamingSessionManager
    from repro.serving.telemetry import ServingTelemetry

    patch = rec.patch
    admitted: Dict[int, int] = {}  # runtime request id -> admission time

    def _added(rec: Recorder, args, kwargs, _) -> None:
        admitted[args[1].request_id] = time.perf_counter_ns()

    def _drained(rec: Recorder, args, kwargs, batches) -> None:
        for batch in batches:
            rec.sample("batch_size", batch.size)
            for req in batch.requests:
                admitted.pop(req.request_id, None)

    def _popped(rec: Recorder, args, kwargs, batch) -> None:
        if batch is None:
            return
        rec.sample("batch_size", batch.size)
        popped = time.perf_counter_ns()
        for req in batch.requests:
            at = admitted.pop(req.request_id, None)
            if at is not None:
                rec.sample("queue_wait_s", (popped - at) * 1e-9)

    for method in (
        "submit", "flush", "append_rows", "query_solution", "append_items",
        "query_heavy_hitters", "query_point", "query_norm", "open_stream",
        "open_frequency_stream", "restore",
    ):
        patch(SketchServer, method, "serving.server")
    patch(AsyncSketchServer, "submit", "serving.runtime.submit")
    patch(
        AsyncSketchServer, "_dispatch_solve", "serving.runtime.dispatch",
        request_id=lambda self, batch: batch.requests[0].request_id,
    )
    patch(MicroBatcher, "add", "serving.batcher", after=_added)
    patch(MicroBatcher, "drain", "serving.batcher", after=_drained)
    patch(MicroBatcher, "pop_batch", "serving.batcher", after=_popped)
    patch(OperatorCache, "get", "serving.cache", after=_cache_lookup)
    patch(OperatorCache, "put", "serving.cache")
    patch(serving_server, "build_operator", "serving.cache.build")
    patch(ShardScheduler, "place", "serving.scheduler")
    patch(StreamingSessionManager, "append", "serving.streaming")
    patch(StreamingSessionManager, "query", "serving.streaming")
    for method in ("append", "query_heavy_hitters", "query_point", "query_norm"):
        patch(FrequencySessionManager, method, "serving.frequency")

    patch(conditioning, "estimate_spectrum_bounds", "linalg.conditioning")
    patch(planner, "estimate_spectrum_bounds", "linalg.conditioning")
    patch(planner, "estimate_condition", "linalg.conditioning")
    for module in (serving_server, streaming_solver):
        patch(module, "plan", "linalg.planner.plan")
        patch(module, "execute_plan", "linalg.planner.execute", after=_executed)
    patch(RegisteredSolver, "solve", lambda self, *a, **k: f"linalg.solver.{self.name}")

    patch(SketchOperator, "apply", "core.sketch.apply")
    patch(SketchOperator, "apply_vector", "core.sketch.apply")
    patch(SketchOperator, "generate", "core.sketch.generate")
    patch(GPUExecutor, "launch", "gpu.launch", after=_launched)

    for method in ("start_trace", "start_span", "event"):
        patch(Tracer, method, "obs.trace", after=_spawned)
    patch(Tracer, "end_trace", "obs.trace")
    patch(Span, "finish", "obs.trace")
    for method in sorted(vars(ServingTelemetry)):
        if method.startswith("record_") or method == "set_active_shards":
            patch(ServingTelemetry, method, "obs.telemetry")
    patch(CalibratedEstimator, "observe", "obs.calibrate")

    patch(streaming_solver.StreamingSolver, "ingest", "streaming.ingest")
    patch(streaming_solver.StreamingSolver, "solution", "streaming.solution")
    patch(FrequencySketch, "update", "core.frequency.update")
    for method in ("point_query", "heavy_hitters", "l2_estimate"):
        patch(FrequencySketch, method, "core.frequency.query")
    patch(sampling, "splitmix64", "core.sampling.hash", after=_hashed)

    patch(DirectoryCheckpointStore, "append_wal", "durability.wal_append", after=_wal_bytes)
    patch(DirectoryCheckpointStore, "write_checkpoint", "durability.checkpoint_write", after=_checkpoint_bytes)
    patch(DirectoryCheckpointStore, "write_wal", "durability.checkpoint_write", after=_checkpoint_bytes)
    patch(DirectoryCheckpointStore, "read_checkpoint", "durability.restore_read")
    patch(DirectoryCheckpointStore, "read_wal", "durability.restore_read")
    for name in ("encode_wal_batch", "decode_wal_batch", "serialize_session", "deserialize_session"):
        patch(serving_streaming, name, "durability.codec")
    for name in ("encode_record", "decode_record"):
        patch(serving_frequency, name, "durability.codec")


# ---------------------------------------------------------------------------
# per-layer metrics of one traced pass
# ---------------------------------------------------------------------------
def per_layer_metrics(
    rec: Recorder,
    *,
    requests: int,
    windows: List[tuple],
    async_wall_s: float,
    async_submitted: int,
    async_shed: int,
    records_retained: int,
    stream_resolves: int,
    frequency_queries: int,
    trace_overhead_s: float,
) -> Dict[str, float]:
    """Derive every :data:`PER_LAYER` metric from a traced pass."""
    totals = layer_totals(rec.spans)
    zero = {"count": 0, "busy_s": 0.0, "self_s": 0.0}

    def row(name: str) -> Dict[str, float]:
        return totals.get(name, zero)

    def mean(samples: List[float]) -> float:
        return statistics.fmean(samples) if samples else 0.0

    c = rec.counters
    per_req = 1.0 / max(requests, 1)
    appends = c["wal_appends"]
    dispatch = sum(
        s.duration_ns for s in rec.spans if s.name == "serving.runtime.dispatch"
    ) * 1e-9
    queue_waits = rec.samples["queue_wait_s"]
    layer_cover = [(s.start, s.end) for s in rec.spans]
    metrics = {
        "serving.batcher.batch_size_mean": mean(rec.samples["batch_size"]),
        "serving.cache.hit_ratio": c["cache_hits"] / c["cache_lookups"] if c["cache_lookups"] else 0.0,
        "serving.cache.build_count": row("serving.cache.build")["count"],
        "serving.cache.build_s": row("serving.cache.build")["busy_s"],
        "serving.scheduler.place_s": row("serving.scheduler")["self_s"],
        "serving.runtime.queue_wait_ms_p50": statistics.median(queue_waits) * 1e3 if queue_waits else 0.0,
        "serving.runtime.worker_busy_ratio": dispatch / (ASYNC_WORKERS * async_wall_s) if async_wall_s else 0.0,
        "serving.runtime.shed_ratio": async_shed / async_submitted if async_submitted else 0.0,
        "linalg.conditioning.probe_count": row("linalg.conditioning")["count"],
        "linalg.conditioning.probe_s": row("linalg.conditioning")["busy_s"],
        "linalg.planner.plan_s": row("linalg.planner.plan")["self_s"],
        "linalg.planner.attempts_per_batch": mean(rec.samples["attempts"]),
        "linalg.planner.execute_s": row("linalg.planner.execute")["busy_s"],
        **{f"linalg.solver.{s}_s": row(f"linalg.solver.{s}")["self_s"] for s in SOLVERS},
        "core.sketch.apply_s": row("core.sketch.apply")["self_s"],
        "core.sketch.generate_s": row("core.sketch.generate")["self_s"],
        "gpu.launch_count_per_req": c["launches"] * per_req,
        "gpu.launch_s": row("gpu.launch")["self_s"],
        "gpu.flops_per_req": c["flops"] * per_req,
        "gpu.bytes_per_req": c["bytes"] * per_req,
        "gpu.records_retained": float(records_retained),
        "gpu.sim_s_per_req": c["sim_s"] * per_req,
        "obs.trace_s": row("obs.trace")["self_s"],
        "obs.telemetry_s": row("obs.telemetry")["self_s"],
        "obs.spans_per_req": c["program_spans"] * per_req,
        "streaming.ingest_s": row("streaming.ingest")["self_s"],
        "streaming.solution_s": row("streaming.solution")["self_s"],
        "streaming.resolve_count": float(stream_resolves),
        "core.frequency.update_s": row("core.frequency.update")["self_s"],
        "core.frequency.query_s": row("core.frequency.query")["self_s"],
        "core.sampling.hashed_per_query": c["hashed_in_query"] / frequency_queries if frequency_queries else 0.0,
        "durability.wal_append_s": row("durability.wal_append")["self_s"],
        "durability.checkpoint_write_s": row("durability.checkpoint_write")["busy_s"],
        "durability.bytes_written_per_batch": c["durable_bytes"] / appends if appends else 0.0,
        "durability.restore_read_s": row("durability.restore_read")["self_s"],
        "unattributed_s": uncovered_ns(windows, layer_cover) * 1e-9,
        "trace_overhead_s": trace_overhead_s,
    }
    return metrics
