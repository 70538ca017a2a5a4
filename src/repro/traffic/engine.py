"""The open-loop execution engine: intended time vs. the time you got.

The engine replays an arrival schedule (:mod:`repro.traffic.arrivals`)
against a live :class:`~repro.shard.cluster.ShardedCluster` on the
:class:`~repro.obs.ManualClock`, running every operation through a real
attested router (MACs verified, replay counters advanced, faults and
failovers live) while *time* is modelled deterministically:

- each handled server frame accrues a seeded service cost into an
  accumulator via the server's ``service_hook`` seam (it does **not**
  advance the global clock, so distinct shards overlap in time instead
  of serializing behind one another -- retries under a
  :class:`~repro.faults.engine.FaultEngine` naturally accrue extra
  frames and therefore extra service time);
- a **connection** is busy until its previous reply lands: an arrival
  whose intended start falls inside that window is *delayed at the
  client*, exactly the queueing a closed-loop driver silently absorbs;
- a **shard** serves one request at a time: requests from different
  connections queue at the owning shard, visible to both metrics.

Per operation, with ``intended`` from the schedule::

    send       = max(intended, connection_free)
    start      = max(send, shard_free[owner])
    completion = start + accrued_service
    uncorrected = completion - send        # what a closed-loop tool sees
    corrected   = completion - intended    # what the user experienced

The difference is precisely the coordinated-omission component: time
the request spent waiting for its own connection before it was ever
sent.  Below saturation connections are mostly idle and the two agree;
past the knee the backlog grows without bound and only ``corrected``
keeps telling the truth.

Event order is a heap on ``(send, seq)``; since each connection's next
send is at least its predecessor's completion, popped send times are
non-decreasing and the manual clock never moves backwards.
"""

from __future__ import annotations

import heapq
import random
from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, List, Tuple

from repro.errors import ConfigurationError, PrecursorError
from repro.sim.stats import LatencyRecorder
from repro.traffic.arrivals import NS_PER_MS, ArrivalProcess
from repro.traffic.sessions import SessionModel

__all__ = ["OpenLoopResult", "OpenLoopEngine"]

#: Default modelled service cost per handled frame (ns).
DEFAULT_BASE_SERVICE_NS = 400_000
DEFAULT_JITTER_SERVICE_NS = 200_000
#: Fixed wire/verify overhead charged per operation on top of frames.
DEFAULT_WIRE_NS = 20_000
#: Modelled cost of a validated near-cache hit (client-local: a digest
#: lookup, a checksum and a MAC compare -- no wire, no shard queue).
DEFAULT_CACHE_HIT_NS = 2_000


@dataclass
class OpenLoopResult:
    """Raw measurements of one engine run (no scenario metadata)."""

    offered: int = 0
    admitted: int = 0
    throttled: int = 0
    executed: int = 0
    errors: int = 0
    duration_ns: int = 0
    ticks: int = 0
    #: Latency from actual send time (the closed-loop illusion).
    uncorrected: LatencyRecorder = field(
        default_factory=lambda: LatencyRecorder(bounded=True)
    )
    #: Latency from intended start time (coordinated-omission corrected).
    corrected: LatencyRecorder = field(
        default_factory=lambda: LatencyRecorder(bounded=True)
    )
    #: Corrected latency per owning shard (feeds the SLO evaluation).
    per_shard: Dict[str, LatencyRecorder] = field(default_factory=dict)
    #: Errors per owning shard.
    shard_errors: Dict[str, int] = field(default_factory=dict)

    @property
    def throughput_ops_s(self) -> float:
        """Completed operations per second of simulated time."""
        if self.executed == 0 or self.duration_ns <= 0:
            return 0.0
        return self.executed / (self.duration_ns / 1e9)


class OpenLoopEngine:
    """Drives one arrival schedule through a session model; see module doc."""

    def __init__(
        self,
        model: SessionModel,
        process: ArrivalProcess,
        clock,
        seed: int = 0,
        pipeline=None,
        tick_every_ns: int = 5 * NS_PER_MS,
        base_service_ns: int = DEFAULT_BASE_SERVICE_NS,
        jitter_service_ns: int = DEFAULT_JITTER_SERVICE_NS,
        wire_ns: int = DEFAULT_WIRE_NS,
        cache_hit_ns: int = DEFAULT_CACHE_HIT_NS,
    ):
        if tick_every_ns < 1:
            raise ConfigurationError(
                f"tick_every_ns must be >= 1, got {tick_every_ns}"
            )
        if base_service_ns < 0 or jitter_service_ns < 1 or wire_ns < 0:
            raise ConfigurationError("bad service model parameters")
        if cache_hit_ns < 0:
            raise ConfigurationError(
                f"cache_hit_ns must be >= 0, got {cache_hit_ns}"
            )
        self.model = model
        self.process = process
        self.clock = clock
        self.pipeline = pipeline
        self.tick_every_ns = tick_every_ns
        self.base_service_ns = base_service_ns
        self.jitter_service_ns = jitter_service_ns
        self.wire_ns = wire_ns
        self.cache_hit_ns = cache_hit_ns
        self._service_rng = random.Random(seed ^ 0x5E2F1CE)
        self._accum_ns = 0
        self._hooked = False

    # -- service model -----------------------------------------------------

    def install_service_model(self) -> None:
        """Install accruing service hooks on every shard-group member.

        Call *after* any preload: the warm-up writes then cost nothing,
        so the measured window starts from a clean accumulator.  Every
        member (primaries and replicas) accrues into the same counter --
        a sync-replicated put pays for its backup frames too.
        """
        def accrue() -> None:
            self._accum_ns += self.base_service_ns + self._service_rng.randrange(
                self.jitter_service_ns
            )

        cluster = self.model.cluster
        for name in cluster.shards:
            for member in cluster.group(name).members():
                member.service_hook = accrue
        self._hooked = True

    # -- run ---------------------------------------------------------------

    def run(self, max_ops: int) -> OpenLoopResult:
        """Replay ``max_ops`` arrivals; returns the raw measurements."""
        if not self._hooked:
            self.install_service_model()
        model = self.model
        process = self.process
        cluster = model.cluster
        result = OpenLoopResult()
        t0 = self.clock.now_ns()

        # Phase 1 -- admission, in intended-start order.  Token buckets
        # and the draw RNG see monotone timestamps; throttled arrivals
        # are counted and dropped before they cost anything.
        storm_theta = getattr(process, "storm_theta", 0.99)
        storm_keys = getattr(process, "storm_keys", 4)
        queues: Dict[Tuple[int, int], Deque[tuple]] = {}
        for intended in process.schedule(max_ops):
            result.offered += 1
            drawn = model.draw(
                intended,
                storm=process.in_storm(intended),
                storm_theta=storm_theta,
                storm_keys=storm_keys,
            )
            if drawn is None:
                result.throttled += 1
                continue
            result.admitted += 1
            tenant, conn_key, op, key, value = drawn
            queues.setdefault(conn_key, deque()).append(
                (intended, tenant, op, key, value)
            )

        # Phase 2 -- event-driven replay.  One heap entry per connection
        # (its next operation's send time); each pop executes one real
        # operation and re-arms the connection.
        heap: List[Tuple[int, int, Tuple[int, int]]] = []
        seq = 0
        for conn_key, queue in sorted(queues.items()):
            intended = queue[0][0]
            heapq.heappush(heap, (intended, seq, conn_key))
            seq += 1
        conn_free: Dict[Tuple[int, int], int] = {}
        shard_free: Dict[str, int] = {}
        next_tick = self.tick_every_ns
        last_completion = 0

        while heap:
            send, _seq, conn_key = heapq.heappop(heap)
            # Publish telemetry windows at exact boundaries crossed
            # before this send.
            while self.pipeline is not None and next_tick <= send:
                self._advance_to(t0 + next_tick)
                self.pipeline.tick()
                result.ticks += 1
                next_tick += self.tick_every_ns
            self._advance_to(t0 + send)

            queue = queues[conn_key]
            intended, tenant, op, key, value = queue.popleft()
            shard = cluster.owner(key)
            conn = model.connections[conn_key]

            self._accum_ns = 0
            ok = True
            try:
                if op == "get":
                    conn.get(key)
                else:
                    conn.put(key, value)
            except PrecursorError:
                # A typed store failure is an error sample; anything
                # else is a bug and propagates.
                ok = False
                result.errors += 1
                tenant.errors += 1
                result.shard_errors[shard] = (
                    result.shard_errors.get(shard, 0) + 1
                )
            # Time modelling follows where the router actually served
            # the read from.  A near-cache hit never leaves the client:
            # no shard queueing, a fixed local cost.  A backup-served
            # read queues on the shard's *backup lane* -- its service
            # frames accrued on the backup's hook -- leaving the primary
            # free for writes.  Everything else (including all writes
            # and all errors) queues on the primary exactly as before.
            path = "primary"
            if ok and op == "get":
                path = getattr(conn, "last_read_path", "primary")
            if path == "cache":
                start = send
                service = self.cache_hit_ns
                completion = start + service
            else:
                lane = shard if path != "backup" else f"{shard}@backup"
                start = max(send, shard_free.get(lane, 0))
                service = self._accum_ns + self.wire_ns
                completion = start + service
                shard_free[lane] = completion
            conn_free[conn_key] = completion
            last_completion = max(last_completion, completion)

            uncorrected = completion - send
            corrected = completion - intended
            result.executed += 1
            tenant.executed += 1
            result.uncorrected.record(uncorrected)
            result.corrected.record(corrected)
            tenant.corrected.record(corrected)
            recorder = result.per_shard.get(shard)
            if recorder is None:
                recorder = LatencyRecorder(bounded=True)
                result.per_shard[shard] = recorder
            recorder.record(corrected)
            if self.pipeline is not None:
                self.pipeline.observe(shard, op, corrected, ok=ok)

            if queue:
                # The connection is serial: its next send waits for this
                # completion (>= the current send, keeping the heap and
                # the clock monotone).
                next_send = max(queue[0][0], completion)
                heapq.heappush(heap, (next_send, seq, conn_key))
                seq += 1

        result.duration_ns = last_completion
        # Flush the final partial window so short runs still publish.
        if self.pipeline is not None:
            self._advance_to(t0 + max(last_completion, next_tick))
            self.pipeline.tick()
            result.ticks += 1
        return result

    def _advance_to(self, target_ns: int) -> None:
        now = self.clock.now_ns()
        if target_ns > now:
            self.clock.advance(target_ns - now)
