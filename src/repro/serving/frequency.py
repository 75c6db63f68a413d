"""Frequency-analytics sessions on the :class:`~repro.serving.server.SketchServer`.

The first query family the stack serves beyond solves: a frequency session
pins a planned :mod:`repro.core.frequency` engine (flat or hierarchical, as
:func:`~repro.problems.frequency.plan_frequency_sketch` decides) to a
scheduler-chosen shard, ``append_items`` folds arriving ``(id, weight)``
batches into it on that shard's simulated clock, and the query endpoints --
``query_heavy_hitters`` / ``query_norm`` / ``query_range`` /
``query_point`` -- answer from the sketch alone.

**Bit-for-bit serving contract.**  The manager never post-processes the
engine's answers: a served query returns exactly what the corresponding
library call (:meth:`~repro.core.frequency.FrequencySketch.heavy_hitters`,
:meth:`~repro.core.frequency.FrequencySketch.l2_estimate`, ...) returns on
an identically-seeded, identically-fed sketch.  The acceptance benchmark
asserts this equality through the whole session path.

**Durability.**  With a :class:`~repro.durability.store.DurabilityConfig`
on the server, sessions are durable objects exactly like streaming-solver
sessions: every append is framed into a WAL *before* it is folded, every
``checkpoint_interval_batches`` appends the engine's ``state_dict`` is
snapshotted (one :func:`~repro.durability.codec.encode_record` per
session, level tables as raw arrays) and the WAL truncated, and
:meth:`restore_all` replays checkpoints + WAL tails exactly-once after a
crash.  Restored sketches are bit-identical, so answers served after a
restore match answers served before it.

Telemetry lands in the ``frequency_*`` series of
:class:`~repro.serving.telemetry.ServingTelemetry`; traces nest ingest and
query spans under runtime-provided roots like the streaming lane does.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple, Union

import numpy as np

from repro.core.frequency import FrequencySketch, HierarchicalFrequencySketch, as_item_ids
from repro.durability.codec import (
    DurabilityError,
    SchemaError,
    decode_record,
    encode_record,
)
from repro.durability.wal import frame, replay_wal
from repro.problems.frequency import (
    FrequencyPlan,
    build_frequency_sketch,
    plan_frequency_sketch,
)
from repro.serving.streaming import RestoreReport

__all__ = [
    "FrequencyIngestReport",
    "FrequencyQueryResponse",
    "FrequencySession",
    "FrequencySessionManager",
]

#: Record kinds of the frequency durability payloads.
_CHECKPOINT_KIND = "frequency-session"
_WAL_KIND = "frequency-wal"

FrequencyEngine = Union[FrequencySketch, HierarchicalFrequencySketch]


@dataclass
class FrequencyIngestReport:
    """Outcome of one ``append_items`` call."""

    session_id: int
    items: int
    items_seen: int
    simulated_seconds: float
    shard: int


@dataclass
class FrequencyQueryResponse:
    """Answer to one frequency query through the session path.

    ``value`` carries the query's library-exact answer: a list of
    ``(id, estimate)`` pairs for heavy-hitter queries, a float for norm and
    range queries, an estimate array for point queries.
    """

    session_id: int
    kind: str
    value: object
    simulated_seconds: float
    compute_seconds: float
    comm_seconds: float
    shard: int
    extra: Dict[str, object] = field(default_factory=dict)


@dataclass
class FrequencySession:
    """One live frequency session: engine, plan, shard binding, counters."""

    session_id: int
    engine: FrequencyEngine
    plan: FrequencyPlan
    shard: int
    seed: int
    batches: int = 0
    queries: int = 0
    last_used: float = 0.0
    wal_batches: int = 0
    durable_seq: int = 0

    def stats(self) -> Dict[str, float]:
        """The session's own counters (serving keys + plan operating point)."""
        return {
            "session_id": float(self.session_id),
            "shard": float(self.shard),
            "items_seen": float(self.engine.items_seen),
            "batches": float(self.batches),
            "queries": float(self.queries),
            "phi": float(self.plan.phi),
            "eps": float(self.plan.eps),
            "width": float(self.plan.width),
            "depth": float(self.plan.depth),
            "hierarchical": float(self.plan.hierarchical),
            "levels": float(self.plan.levels),
        }


class FrequencySessionManager:
    """Owns every live :class:`FrequencySession` of one server."""

    def __init__(self, server) -> None:
        self._server = server
        self._sessions: Dict[int, FrequencySession] = {}

    def __len__(self) -> int:
        return len(self._sessions)

    def __contains__(self, session_id: int) -> bool:
        return session_id in self._sessions

    def _get(self, session_id: int) -> FrequencySession:
        session = self._sessions.get(session_id)
        if session is None:
            raise KeyError(f"unknown or closed frequency session {session_id}")
        return session

    def session(self, session_id: int) -> FrequencySession:
        """The live session object (for the runtime and tests)."""
        return self._get(session_id)

    @property
    def _durability(self):
        return self._server.config.durability

    @staticmethod
    def _key(session_id: int) -> str:
        return f"freq-session-{session_id}"

    def _touch(self, session: FrequencySession) -> None:
        session.last_used = self._server.pool[session.shard].elapsed

    # ------------------------------------------------------------------
    def open(
        self,
        domain: int,
        *,
        phi: float = 0.05,
        delta: float = 1e-3,
        branch: int = 16,
        need_ranges: bool = False,
        max_width: Optional[int] = None,
        seed: Optional[int] = None,
    ) -> int:
        """Open a frequency session; returns its id (the server's id stream).

        The sketch is sized by :func:`plan_frequency_sketch` for the
        requested ``(phi, delta)`` operating point and built on a
        scheduler-chosen shard's executor, so every update and query is
        charged to that shard's simulated clock like any other request.
        """
        server = self._server
        plan = plan_frequency_sketch(
            domain,
            phi,
            delta,
            branch=branch,
            need_ranges=need_ranges,
            max_width=max_width,
        )
        shard = server.scheduler.place()
        use_seed = int(seed if seed is not None else server.config.seed)
        engine = build_frequency_sketch(
            plan, executor=server.pool[shard], seed=use_seed
        )
        session_id = server._next_id
        server._next_id += 1
        session = FrequencySession(
            session_id=session_id, engine=engine, plan=plan, shard=shard, seed=use_seed
        )
        self._sessions[session_id] = session
        self._touch(session)
        server.telemetry.record_frequency_open()
        if self._durability is not None:
            # Baseline checkpoint: the plan and seed live in the snapshot,
            # so WAL-only batches are recoverable from the very first append.
            self.checkpoint(session_id)
        return session_id

    # ------------------------------------------------------------------
    def append(
        self, session_id: int, ids, weights=None, *, root=None
    ) -> FrequencyIngestReport:
        """Fold one ``(ids, weights)`` batch into the session's sketch.

        ``root`` is an optional trace root (the runtime passes the one it
        opened at admission); without one a standalone ``frequency_ingest``
        trace is started here.  With durability, the batch is framed into
        the session's WAL before it is folded; it is validated first
        (integer ids in the domain, one weight per id), so a batch the
        sketch would refuse never reaches the WAL.
        """
        session = self._get(session_id)
        server = self._server
        tracer = server.tracer
        own_root = root is None and tracer.enabled
        ids_arr = as_item_ids(ids, session.engine.domain)
        w_arr = (
            None
            if weights is None
            else np.asarray(weights, dtype=np.float64).ravel()
        )
        if w_arr is not None and ids_arr.size and w_arr.shape != ids_arr.shape:
            raise ValueError(f"expected {ids_arr.size} weights, got {w_arr.size}")
        durability = self._durability
        if durability is not None and ids_arr.size:
            payload = encode_record(
                _WAL_KIND,
                {"seq": session.durable_seq},
                {
                    "ids": ids_arr,
                    "weights": w_arr if w_arr is not None else np.zeros(0),
                },
            )
            durability.store.append_wal(self._key(session_id), frame(payload))
            session.durable_seq += 1
            session.wal_batches += 1
            server.telemetry.record_wal_append(len(payload))

        shard_clock = server.pool[session.shard]
        start = shard_clock.elapsed
        session.engine.update(ids_arr, w_arr)
        end = shard_clock.elapsed
        session.batches += 1
        self._touch(session)
        if (
            durability is not None
            and session.wal_batches >= durability.checkpoint_interval_batches
        ):
            self.checkpoint(session_id)
        server.telemetry.record_frequency_ingest(int(ids_arr.size), end - start)
        if tracer.enabled:
            if own_root:
                root = tracer.start_trace(
                    "frequency_ingest", start, session_id=session_id, lane="stream"
                )
            tracer.start_span(
                "freq_ingest", root, start, items=int(ids_arr.size), shard=session.shard
            ).finish(end)
            if own_root:
                tracer.end_trace(root, end)
        return FrequencyIngestReport(
            session_id=session_id,
            items=int(ids_arr.size),
            items_seen=int(session.engine.items_seen),
            simulated_seconds=end - start,
            shard=session.shard,
        )

    # ------------------------------------------------------------------
    def _respond(
        self,
        session: FrequencySession,
        kind: str,
        value,
        start: float,
        end: float,
        answer_bytes: float,
        root,
        own_root: bool,
        **extra,
    ) -> FrequencyQueryResponse:
        """Shared query epilogue: comm charge, telemetry, tracing, response."""
        server = self._server
        comm_seconds = server.scheduler.charge_transfer(
            f"frequency_{kind}", answer_bytes
        )
        session.queries += 1
        self._touch(session)
        compute_seconds = end - start
        server.telemetry.record_frequency_query(kind, compute_seconds + comm_seconds)
        tracer = server.tracer
        if tracer.enabled:
            if own_root:
                root = tracer.start_trace(
                    f"frequency_{kind}", start, session_id=session.session_id, lane="stream"
                )
            tracer.start_span(
                f"freq_{kind}", root, start, shard=session.shard, **extra
            ).finish(end)
            tracer.start_span("respond", root, end).finish(
                end + comm_seconds, comm_seconds=comm_seconds
            )
            if own_root:
                tracer.end_trace(root, end + comm_seconds)
        return FrequencyQueryResponse(
            session_id=session.session_id,
            kind=kind,
            value=value,
            simulated_seconds=compute_seconds + comm_seconds,
            compute_seconds=compute_seconds,
            comm_seconds=comm_seconds,
            shard=session.shard,
            extra=dict(extra),
        )

    def query_heavy_hitters(
        self,
        session_id: int,
        *,
        k: Optional[int] = None,
        phi: Optional[float] = None,
        root=None,
    ) -> FrequencyQueryResponse:
        """Serve the session's heavy hitters at level ``phi``.

        Hierarchical engines answer by dyadic descent (``top_k``; ``k``
        defaults to ``ceil(1 / phi)``, the largest possible number of
        ``phi``-heavy items); flat engines answer by the ``findHH`` scan
        with an optional top-``k`` truncation.  ``value`` is the engine's
        ``(id, estimate)`` list, bit-for-bit.
        """
        session = self._get(session_id)
        use_phi = float(phi if phi is not None else session.plan.phi)
        engine = session.engine
        shard_clock = self._server.pool[session.shard]
        start = shard_clock.elapsed
        if isinstance(engine, HierarchicalFrequencySketch):
            use_k = int(k if k is not None else int(np.ceil(1.0 / use_phi)))
            value: List[Tuple[int, float]] = engine.top_k(use_k, use_phi)
        else:
            value = engine.heavy_hitters(use_phi)
            if k is not None:
                value = value[: int(k)]
        end = shard_clock.elapsed
        answer_bytes = 16.0 * max(1, len(value))
        return self._respond(
            session, "heavy_hitters", value, start, end, answer_bytes,
            root, root is None and self._server.tracer.enabled,
            phi=use_phi, hits=len(value),
        )

    def query_norm(self, session_id: int, *, root=None) -> FrequencyQueryResponse:
        """Serve the session's l2-norm estimate (``value`` is a float)."""
        session = self._get(session_id)
        shard_clock = self._server.pool[session.shard]
        start = shard_clock.elapsed
        value = session.engine.l2_estimate()
        end = shard_clock.elapsed
        return self._respond(
            session, "norm", value, start, end, 8.0,
            root, root is None and self._server.tracer.enabled,
        )

    def query_range(
        self, session_id: int, lo: int, hi: int, *, root=None
    ) -> FrequencyQueryResponse:
        """Serve the estimated total weight of ids in ``[lo, hi)``.

        Requires a hierarchical engine (open the session with
        ``need_ranges=True`` or an address-space domain); a flat session
        raises ``RuntimeError`` -- a typed refusal, not a silent scan.
        """
        session = self._get(session_id)
        if not isinstance(session.engine, HierarchicalFrequencySketch):
            raise RuntimeError(
                f"frequency session {session_id} was opened without range "
                f"support; open with need_ranges=True for dyadic range queries"
            )
        shard_clock = self._server.pool[session.shard]
        start = shard_clock.elapsed
        value = session.engine.range_query(lo, hi)
        end = shard_clock.elapsed
        return self._respond(
            session, "range", value, start, end, 8.0,
            root, root is None and self._server.tracer.enabled,
            lo=int(lo), hi=int(hi),
        )

    def query_point(
        self, session_id: int, ids, *, root=None
    ) -> FrequencyQueryResponse:
        """Serve point estimates for the given ids (``value`` is an array)."""
        session = self._get(session_id)
        shard_clock = self._server.pool[session.shard]
        start = shard_clock.elapsed
        value = session.engine.point_query(ids)
        end = shard_clock.elapsed
        return self._respond(
            session, "point", value, start, end, 8.0 * max(1, value.size),
            root, root is None and self._server.tracer.enabled,
            count=int(value.size),
        )

    # ------------------------------------------------------------------
    def close(self, session_id: int) -> Dict[str, float]:
        """Close a session and return its final stats (durable state deleted)."""
        session = self._sessions.pop(session_id, None)
        if session is None:
            raise KeyError(f"unknown or closed frequency session {session_id}")
        stats = session.stats()
        if self._durability is not None:
            self._durability.store.delete(self._key(session_id))
        self._server.telemetry.record_frequency_close()
        return stats

    # ------------------------------------------------------------------
    # durability: checkpoint / restore
    # ------------------------------------------------------------------
    @staticmethod
    def _encode_engine_state(engine: FrequencyEngine) -> Tuple[dict, Dict[str, np.ndarray]]:
        """Split an engine's ``state_dict`` into JSON meta + raw arrays."""
        state = engine.state_dict()
        if isinstance(engine, HierarchicalFrequencySketch):
            arrays: Dict[str, np.ndarray] = {}
            levels_meta = []
            for i, sub in enumerate(state["levels"]):
                sub = dict(sub)
                table = sub.pop("table")
                if table is not None:
                    arrays[f"level_{i}"] = table
                levels_meta.append(sub)
            return {"hierarchical": True, "branch": state["branch"], "levels": levels_meta}, arrays
        state = dict(state)
        table = state.pop("table")
        arrays = {"table": table} if table is not None else {}
        state["hierarchical"] = False
        return state, arrays

    @staticmethod
    def _decode_engine_state(engine: FrequencyEngine, meta: dict, arrays: Dict[str, np.ndarray]) -> None:
        """Rebuild and load the ``state_dict`` the encoder split apart."""
        if meta.get("hierarchical"):
            if not isinstance(engine, HierarchicalFrequencySketch):
                raise SchemaError("hierarchical snapshot for a flat frequency engine")
            levels = []
            for i, sub in enumerate(meta["levels"]):
                sub = dict(sub)
                sub["table"] = arrays.get(f"level_{i}")
                levels.append(sub)
            engine.load_state({"branch": meta["branch"], "levels": levels})
        else:
            if isinstance(engine, HierarchicalFrequencySketch):
                raise SchemaError("flat snapshot for a hierarchical frequency engine")
            state = dict(meta)
            state.pop("hierarchical", None)
            state["table"] = arrays.get("table")
            engine.load_state(state)

    def checkpoint(self, session_id: int) -> int:
        """Snapshot one session and truncate its WAL; returns blob size."""
        if self._durability is None:
            raise RuntimeError("server has no durability config; nothing to checkpoint to")
        session = self._get(session_id)
        state_meta, arrays = self._encode_engine_state(session.engine)
        plan = session.plan
        blob = encode_record(
            _CHECKPOINT_KIND,
            {
                "session_id": session.session_id,
                "durable_seq": session.durable_seq,
                "queries": session.queries,
                "batches": session.batches,
                "seed": session.seed,
                "plan": {
                    "domain": plan.domain,
                    "phi": plan.phi,
                    "delta": plan.delta,
                    "branch": plan.branch,
                    "need_ranges": plan.hierarchical,
                    "max_width": plan.width,
                },
                "state": state_meta,
            },
            arrays,
        )
        store = self._durability.store
        key = self._key(session_id)
        store.write_checkpoint(key, blob)
        store.reset_wal(key)
        session.wal_batches = 0
        self._server.telemetry.record_checkpoint(len(blob))
        return len(blob)

    def save(self) -> Dict[int, int]:
        """Checkpoint every live session; maps session id -> snapshot bytes."""
        return {sid: self.checkpoint(sid) for sid in sorted(self._sessions)}

    def _restore_one(self, session_id: int) -> Tuple[FrequencySession, int]:
        """Rebuild one session from checkpoint + WAL tail; returns replay count."""
        durability = self._durability
        if durability is None:
            raise RuntimeError("server has no durability config; nothing to restore from")
        server = self._server
        store = durability.store
        key = self._key(session_id)
        blob = store.read_checkpoint(key)
        if blob is None:
            raise KeyError(f"no checkpoint stored for frequency session {session_id}")
        try:
            record = decode_record(blob, expect_kind=_CHECKPOINT_KIND)
        except DurabilityError:
            server.telemetry.record_corrupt_checkpoint()
            raise
        meta = record.meta
        try:
            base_seq = int(meta["durable_seq"])
            plan_meta = dict(meta["plan"])
            seed = int(meta["seed"])
        except (KeyError, TypeError, ValueError) as exc:
            server.telemetry.record_corrupt_checkpoint()
            raise SchemaError("frequency checkpoint is missing required metadata") from exc

        plan = plan_frequency_sketch(
            int(plan_meta["domain"]),
            float(plan_meta["phi"]),
            float(plan_meta["delta"]),
            branch=int(plan_meta["branch"]),
            need_ranges=bool(plan_meta["need_ranges"]),
            max_width=int(plan_meta["max_width"]),
        )
        shard = server.scheduler.place()
        engine = build_frequency_sketch(plan, executor=server.pool[shard], seed=seed)
        self._decode_engine_state(engine, dict(meta["state"]), record.arrays)

        replay = replay_wal(store.read_wal(key))
        if not replay.clean:
            server.telemetry.record_wal_truncation()
        replayed = 0
        next_seq = base_seq
        for payload in replay.payloads:
            try:
                wal = decode_record(payload, expect_kind=_WAL_KIND)
                seq = int(wal.meta["seq"])
            except (DurabilityError, KeyError, TypeError, ValueError):
                server.telemetry.record_wal_truncation()
                break
            if seq < base_seq:
                continue  # already inside the checkpoint: exactly-once replay
            ids = wal.arrays["ids"]
            weights = wal.arrays.get("weights")
            if weights is not None and weights.size == 0:
                weights = None
            engine.update(ids, weights)
            replayed += 1
            next_seq = seq + 1

        session = FrequencySession(
            session_id=session_id,
            engine=engine,
            plan=plan,
            shard=shard,
            seed=seed,
            batches=int(meta.get("batches", 0)) + replayed,
            queries=int(meta.get("queries", 0)),
            durable_seq=next_seq,
        )
        self._sessions[session_id] = session
        self._touch(session)
        server._next_id = max(server._next_id, session_id + 1)
        server.telemetry.record_restore(replayed)
        self.checkpoint(session_id)
        return session, replayed

    def restore(self, session_id: int) -> FrequencySession:
        """Restore one session from its durable state (checkpoint + WAL)."""
        if session_id in self._sessions:
            return self._sessions[session_id]
        session, _replayed = self._restore_one(session_id)
        return session

    def restore_all(self) -> RestoreReport:
        """Restore every durable frequency session from checkpoint + WAL.

        Returns a :class:`~repro.serving.streaming.RestoreReport`:
        ``restored`` maps session ids to replayed WAL batches,
        unrecoverable sessions land in ``failed`` with their typed error
        string -- the fallback is a running server without that session,
        never a wrong answer.
        """
        if self._durability is None:
            raise RuntimeError("server has no durability config; nothing to restore from")
        report = RestoreReport()
        prefix = "freq-session-"
        for key in self._durability.store.keys():
            if not key.startswith(prefix):
                continue
            try:
                session_id = int(key[len(prefix):])
            except ValueError:
                continue
            if session_id in self._sessions:
                continue
            try:
                _session, replayed = self._restore_one(session_id)
            except (DurabilityError, KeyError) as exc:
                report.failed[session_id] = f"{type(exc).__name__}: {exc}"
                continue
            report.restored[session_id] = replayed
        return report
