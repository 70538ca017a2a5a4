"""The four benchmark workloads and the systems they drive.

Every workload is closed loop: one load-generating thread issues a call,
waits for its reply, then issues the next.  Precursor's API is
synchronous, so this is how its callers behave.  A *call* is one
``get``/``put`` -- or, in the pipelined workload, one ``get_many`` /
``put_many`` window of :data:`PIPELINE_WINDOW` keys.

Systems are built through the public API with library defaults
(``trace_ops=True`` included: the program's own tracer is part of what
users run), except the near-cache's lease clock (:class:`ClusterSystem`).
Inputs come from :class:`repro.ycsb.OperationStream` and are generated
before anything is timed: a fixed *cycle* of operations per workload,
cut into *blocks* of :data:`BLOCK_OPS` operations.  The closed loop runs
the cycle over and over, so every block is timed several times in a run
(see ``perf.run`` for why).
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.client import PrecursorClient
from repro.core.protocol import OpCode
from repro.core.server import PrecursorServer, ServerConfig
from repro.core.threading import ServerThreadPool
from repro.obs.clock import ManualClock
from repro.shard.cluster import ShardedCluster
from repro.shard.router import ShardedClient
from repro.ycsb.generator import OperationStream
from repro.ycsb.workload import WorkloadSpec

__all__ = [
    "BLOCK_OPS",
    "Call",
    "Workload",
    "WORKLOADS",
    "PIPELINE_WINDOW",
    "specs_sha256",
]

#: Keys per ``get_many``/``put_many`` call in the pipelined workload --
#: the client's own batch window (half the 64-slot ring).
PIPELINE_WINDOW = 32

#: Operations per timed block: 15-90 ms of work on these workloads,
#: shorter than the host's fast and slow spells.
BLOCK_OPS = 32

#: Near-cache lease time that passes per operation in the cluster workload.
LEASE_NS_PER_OP = 1_000_000

#: One call: (is_read, keys, values).  ``values`` is empty for reads.
Call = Tuple[bool, Tuple[bytes, ...], Tuple[bytes, ...]]


class System:
    """A built, preloaded Precursor deployment the benchmark drives."""

    def preload(self, items: Sequence[Tuple[bytes, bytes]]) -> None:
        raise NotImplementedError

    def read(self, keys: Sequence[bytes]) -> List[bytes]:
        raise NotImplementedError

    def write(self, keys: Sequence[bytes], values: Sequence[bytes]) -> None:
        raise NotImplementedError

    def servers(self) -> List[PrecursorServer]:
        """Every server (primaries and backups) in the deployment."""
        raise NotImplementedError

    def integrity_failures(self) -> int:
        """Client-side MAC verification failures so far."""
        raise NotImplementedError

    def pool_errors(self) -> List[BaseException]:
        """Exceptions that killed a server thread (threaded systems)."""
        return []

    def counters(self) -> Dict[str, float]:
        """Cumulative layer counters read from outside the program."""
        servers = self.servers()
        return {
            "server_requests": sum(
                s.stats.puts + s.stats.gets + s.stats.deletes for s in servers
            ),
        }

    def close(self) -> None:
        """Stop every thread the system started."""


class DirectSystem(System):
    """``clients`` sessions on one serial server, pumped inline, round-robin."""

    def __init__(self, clients: int):
        self.server = PrecursorServer()
        self.clients = [PrecursorClient(self.server) for _ in range(clients)]
        self._turn = 0

    def _next_client(self) -> PrecursorClient:
        client = self.clients[self._turn % len(self.clients)]
        self._turn += 1
        return client

    def preload(self, items):
        for index, client in enumerate(self.clients):
            client.put_many(items[index :: len(self.clients)])

    def read(self, keys):
        client = self._next_client()
        return [client.get(key) for key in keys]

    def write(self, keys, values):
        client = self._next_client()
        for key, value in zip(keys, values):
            client.put(key, value)

    def servers(self):
        return [self.server]

    def integrity_failures(self):
        return sum(c.integrity_failures for c in self.clients)


class ThreadedSystem(System):
    """One client pipelining windows into a batched, threaded server."""

    def __init__(self):
        self.server = PrecursorServer(config=ServerConfig(ecall_batch=16))
        self.pool = ServerThreadPool(self.server, threads=1)
        self.pool.start()
        self.client = PrecursorClient(
            self.server, auto_pump=False, response_timeout_s=5.0
        )

    def preload(self, items):
        self.client.put_many(items)

    def read(self, keys):
        return self.client.get_many(keys)

    def write(self, keys, values):
        self.client.put_many(zip(keys, values))

    def servers(self):
        return [self.server]

    def integrity_failures(self):
        return self.client.integrity_failures

    def pool_errors(self):
        return list(self.pool.errors)

    def counters(self):
        registry = self.server.obs.registry
        out = super().counters()
        out["idle_sleeps"] = sum(self.pool.idle_sleeps)
        for key, name, labels in (
            (
                "batch_messages",
                "sgx_batched_messages_total",
                {"enclave": self.server.enclave.name},
            ),
            ("batch_cycles", "server_batch_cycles_total", None),
        ):
            counter = registry.get(name, labels)
            out[key] = counter.value if counter is not None else 0
        return out

    def close(self):
        self.pool.stop()


class ClusterSystem(System):
    """A near-caching router over two sync-replicated shards.

    The near-cache's leases tick on a logical clock that advances
    :data:`LEASE_NS_PER_OP` per operation, as the chaos harness's do.  On
    the wall clock a slow spell on the host would expire more leases
    before reuse, so fewer reads would hit and the run would slow further:
    host noise, amplified.  One millisecond per operation is about the
    workload's own rate on an undisturbed host.
    """

    def __init__(self):
        self.cluster = ShardedCluster(shards=2, replicas=1, ack_mode="sync")
        self.lease_clock = ManualClock()
        self.client = ShardedClient(
            self.cluster,
            near_cache=True,
            cache_entries=256,
            cache_clock=self.lease_clock,
        )

    def preload(self, items):
        self.client.put_many(items)

    def read(self, keys):
        values = []
        for key in keys:
            self.lease_clock.advance(LEASE_NS_PER_OP)
            values.append(self.client.get(key))
        return values

    def write(self, keys, values):
        for key, value in zip(keys, values):
            self.lease_clock.advance(LEASE_NS_PER_OP)
            self.client.put(key, value)

    def _groups(self):
        return [self.cluster.group(name) for name in self.cluster.shards]

    def servers(self):
        return [m for g in self._groups() for m in g.members()]

    def integrity_failures(self):
        return self.client.integrity_failures

    def counters(self):
        out = super().counters()
        groups = self._groups()
        out["records_logged"] = sum(g.records_logged for g in groups)
        out["log_bytes"] = sum(g.log_bytes for g in groups)
        stats = self.client.cache_stats()
        out["cache_hits"] = stats["hits"]
        out["cache_lookups"] = stats["hits"] + stats["misses"]
        out["cache_revalidations"] = stats["revalidations"]
        return out


@dataclass(frozen=True)
class Workload:
    """One named traffic mix: its YCSB spec, system shape and rationale."""

    name: str
    why: str
    spec: WorkloadSpec
    #: "direct" | "threaded" | "cluster"
    system: str
    #: Operations in the cycle: about 0.5 s of work, so that a run
    #: times each block 15-35 times and a short fast spell of the host
    #: covers a whole pass.
    cycle_ops: int
    clients: int = 1

    def build(self) -> System:
        """Construct (and attest) the system; nothing is stored yet."""
        if self.system == "direct":
            return DirectSystem(self.clients)
        if self.system == "threaded":
            return ThreadedSystem()
        return ClusterSystem()

    def preload_items(self) -> List[Tuple[bytes, bytes]]:
        """Every record once, as YCSB's load phase writes it."""
        return list(OperationStream(self.spec, 0).load_phase())

    def blocks(self, seed: int) -> List[List[Call]]:
        """The seeded cycle of calls, cut into blocks of BLOCK_OPS operations."""
        calls = self.calls(seed)
        per_block = max(1, BLOCK_OPS // len(calls[0][1]))
        return [calls[i : i + per_block] for i in range(0, len(calls), per_block)]

    def calls(self, seed: int, ops: Optional[int] = None) -> List[Call]:
        """The seeded run-phase calls, ``ops`` (default: a cycle) operations."""
        if ops is None:
            ops = self.cycle_ops
        stream = OperationStream(self.spec, seed)
        if self.system != "threaded":
            calls: List[Call] = []
            for _ in range(ops):
                opcode, key, value = stream.next_operation()
                if opcode is OpCode.GET:
                    calls.append((True, (key,), ()))
                else:
                    calls.append((False, (key,), (value,)))
            return calls
        # Pipelined: the same mix, each type gathered into full windows
        # in stream order (reads and writes never share a window).
        calls = []
        pending: Dict[bool, list] = {True: [], False: []}
        for _ in range(ops):
            opcode, key, value = stream.next_operation()
            is_read = opcode is OpCode.GET
            pending[is_read].append((key, value))
            if len(pending[is_read]) == PIPELINE_WINDOW:
                keys, values = zip(*pending[is_read])
                calls.append((is_read, keys, () if is_read else values))
                pending[is_read] = []
        return calls


_YCSB_A_32B = WorkloadSpec(
    name="ycsb-a-32b", read_fraction=0.5, record_count=4096, value_size=32
)

#: The benchmark's workloads, by name.  Later changes cite these names.
WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="ycsb-b-4k",
            why="95/5 get/put, 4 KiB values, 1024 zipfian records, one "
            "client: client payload crypto dominates",
            spec=WorkloadSpec(
                name="ycsb-b-4k",
                read_fraction=0.95,
                record_count=1024,
                value_size=4096,
                distribution="zipfian",
            ),
            system="direct",
            cycle_ops=192,
        ),
        Workload(
            name="ycsb-a-32b",
            why="50/50 get/put, 32 B values, 4096 uniform records, 4 "
            "clients on one serial server: fixed per-request costs dominate",
            spec=_YCSB_A_32B,
            system="direct",
            cycle_ops=1024,
            clients=4,
        ),
        Workload(
            name="pipelined-32b-threaded",
            why="the same 50/50 32 B mix as get_many/put_many windows of 32 "
            "against a batched server on a real polling thread",
            spec=_YCSB_A_32B,
            system="threaded",
            cycle_ops=1024,
        ),
        Workload(
            name="cluster-ycsb-b-1k",
            why="95/5 get/put, 1 KiB values, 2048 zipfian records through a "
            "near-caching router over 2 sync-replicated shards",
            spec=WorkloadSpec(
                name="cluster-ycsb-b-1k",
                read_fraction=0.95,
                record_count=2048,
                value_size=1024,
                distribution="zipfian",
            ),
            system="cluster",
            cycle_ops=512,
        ),
    )
}


def specs_sha256(names: Optional[Sequence[str]] = None) -> str:
    """sha256 of the canonical JSON of the named workloads' definitions."""
    chosen = sorted(names if names is not None else WORKLOADS)
    blob = json.dumps(
        [
            {
                "name": WORKLOADS[n].name,
                "spec": asdict(WORKLOADS[n].spec),
                "system": WORKLOADS[n].system,
                "clients": WORKLOADS[n].clients,
                "pipeline_window": PIPELINE_WINDOW,
                "cycle_ops": WORKLOADS[n].cycle_ops,
                "block_ops": BLOCK_OPS,
                "lease_ns_per_op": LEASE_NS_PER_OP,
            }
            for n in chosen
        ],
        sort_keys=True,
    ).encode()
    return hashlib.sha256(blob).hexdigest()
