"""Outside-in layer profile: timing wrappers around public functions.

:class:`LayerProfiler` replaces the public functions listed in
:data:`TARGETS` with wrappers that time each call.  It touches no file
under ``src/``: the spans are recorded from the benchmark's side, around
the calls into each layer.

- Each thread keeps its own span stack and its own counters, so the
  server thread of the threaded workload never races the client thread.
- A span's *self* time is its duration minus that of the wrapped spans
  it directly contains.
- ``crypto.provider`` transport calls are split by side: ``.server``
  under a ``core.server``/``core.batch`` span or on a
  ``precursor-trusted-*`` thread, ``.client`` otherwise.
- :meth:`LayerProfiler.mark` snapshots the counters (after warm-up);
  :meth:`LayerProfiler.since_mark` returns the difference.
- :meth:`LayerProfiler.uninstall` puts every original function back.
"""

from __future__ import annotations

import functools
import threading
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from repro.cache.nearcache import NearCache
from repro.core.batch import BatchPipeline
from repro.core.client import PrecursorClient
from repro.core.payload_store import PayloadStore
from repro.core.replay import ReplayGuard
from repro.core.ring_buffer import RingConsumer, RingProducer
from repro.core.server import PrecursorServer
from repro.crypto.provider import CryptoProvider
from repro.htable.robinhood import RobinHoodTable
from repro.obs.span import Trace, Tracer
from repro.obs.telemetry import ContextLog
from repro.rdma.fabric import Fabric
from repro.shard.router import ShardedClient

__all__ = ["Target", "TARGETS", "LayerProfiler", "span_names"]

#: Name prefix of the server's trusted polling threads.
TRUSTED_THREAD_PREFIX = "precursor-trusted-"


@dataclass(frozen=True)
class Target:
    """One wrapped function: ``layer.fn`` names it in the metrics."""

    layer: str
    owner: type
    fn: str
    #: Split into ``.client`` / ``.server`` by the side making the call.
    split: bool = False
    #: Calls made while this span is open count as server side.
    server_scope: bool = False
    #: Count the calls whose result satisfies this predicate as useful.
    useful: Optional[Callable[[object], bool]] = None

    @property
    def key(self) -> str:
        return f"{self.layer}.{self.fn}"


def _frame_returned(result) -> bool:
    return result is not None


#: Every function the traced run wraps, outermost layers last.
TARGETS: Tuple[Target, ...] = (
    Target("crypto.provider", CryptoProvider, "payload_encrypt"),
    Target("crypto.provider", CryptoProvider, "payload_decrypt"),
    Target("crypto.provider", CryptoProvider, "transport_seal", split=True),
    Target("crypto.provider", CryptoProvider, "transport_open", split=True),
    Target("crypto.provider", CryptoProvider, "transport_seal_many", split=True),
    Target("crypto.provider", CryptoProvider, "transport_open_many", split=True),
    Target("core.server", PrecursorServer, "process_pending", server_scope=True),
    Target("core.server", PrecursorServer, "process_client", server_scope=True),
    Target("core.batch", BatchPipeline, "process_client", server_scope=True),
    Target("core.ring_buffer", RingProducer, "produce"),
    Target("core.ring_buffer", RingProducer, "produce_many"),
    Target("core.ring_buffer", RingConsumer, "poll"),
    Target("core.ring_buffer", RingConsumer, "poll_one", useful=_frame_returned),
    Target("rdma.fabric", Fabric, "post_send"),
    Target("htable.robinhood", RobinHoodTable, "get"),
    Target("htable.robinhood", RobinHoodTable, "put"),
    Target("core.payload_store", PayloadStore, "store"),
    Target("core.payload_store", PayloadStore, "load"),
    Target("core.replay", ReplayGuard, "check_and_advance"),
    Target("replica.group", PrecursorServer, "export_entry"),
    Target("replica.group", PrecursorServer, "import_entry"),
    Target("cache.nearcache", NearCache, "lookup"),
    Target("cache.nearcache", NearCache, "fill"),
    Target("shard.router", ShardedClient, "get"),
    Target("shard.router", ShardedClient, "put"),
    Target("core.client", PrecursorClient, "get"),
    Target("core.client", PrecursorClient, "put"),
    Target("core.client", PrecursorClient, "get_many"),
    Target("core.client", PrecursorClient, "put_many"),
    Target("obs.span", Tracer, "start"),
    Target("obs.span", Trace, "stage"),
    Target("obs.span", Trace, "finish"),
    Target("obs.telemetry", ContextLog, "hop"),
)


def span_names() -> List[str]:
    """Every span name the profiler can report, in :data:`TARGETS` order."""
    names = []
    for target in TARGETS:
        if target.split:
            names += [f"{target.key}.client", f"{target.key}.server"]
        else:
            names.append(target.key)
    return names


class _ThreadState:
    """One thread's span stack and counters."""

    __slots__ = ("stack", "server_depth", "trusted", "stats", "top_ns")

    def __init__(self, trusted: bool):
        #: Per open span: wrapped-child time accumulated so far (ns).
        self.stack: List[int] = []
        self.server_depth = 0
        self.trusted = trusted
        #: span name -> [calls, self_ns, useful]
        self.stats: Dict[str, List[int]] = {}
        #: Total duration of this thread's top-level spans (ns).
        self.top_ns = 0


class LayerProfiler:
    """Installs timing wrappers on :data:`TARGETS`; see the module docstring."""

    def __init__(self):
        self._local = threading.local()
        self._states: List[_ThreadState] = []
        self._states_lock = threading.Lock()
        self._originals: List[Tuple[type, str, object]] = []
        self._mark: Dict[_ThreadState, Tuple[Dict[str, List[int]], int]] = {}

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        """Wrap every target (idempotent)."""
        if self._originals:
            return
        for target in TARGETS:
            original = target.owner.__dict__[target.fn]
            self._originals.append((target.owner, target.fn, original))
            setattr(target.owner, target.fn, self._wrap(target, original))

    def uninstall(self) -> None:
        """Restore every original function."""
        while self._originals:
            owner, fn, original = self._originals.pop()
            setattr(owner, fn, original)

    def _new_state(self) -> _ThreadState:
        """Create the calling thread's state on its first wrapped call."""
        name = threading.current_thread().name
        state = _ThreadState(name.startswith(TRUSTED_THREAD_PREFIX))
        self._local.state = state
        with self._states_lock:
            self._states.append(state)
        return state

    def _wrap(self, target: Target, original):
        key = target.key
        split = target.split
        server_scope = target.server_scope
        useful = target.useful
        clock = time.perf_counter_ns
        local = self._local
        new_state = self._new_state

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            try:
                state = local.state
            except AttributeError:
                state = new_state()
            stack = state.stack
            stack.append(0)
            if server_scope:
                state.server_depth += 1
            result = None
            t0 = clock()
            try:
                result = original(*args, **kwargs)
                return result
            finally:
                elapsed = clock() - t0
                children = stack.pop()
                if server_scope:
                    state.server_depth -= 1
                name = key
                if split:
                    server = state.server_depth or state.trusted
                    name += ".server" if server else ".client"
                record = state.stats.get(name)
                if record is None:
                    record = state.stats[name] = [0, 0, 0]
                record[0] += 1
                record[1] += elapsed - children
                if useful is not None and useful(result):
                    record[2] += 1
                if stack:
                    stack[-1] += elapsed
                else:
                    state.top_ns += elapsed

        return wrapper

    # -- counters ----------------------------------------------------------

    def _snapshot(self) -> Dict[_ThreadState, Tuple[Dict[str, List[int]], int]]:
        with self._states_lock:
            states = list(self._states)
        return {
            state: (
                {name: list(rec) for name, rec in list(state.stats.items())},
                state.top_ns,
            )
            for state in states
        }

    def mark(self) -> None:
        """Remember the current counters; :meth:`since_mark` subtracts them."""
        self._mark = self._snapshot()

    def since_mark(self) -> dict:
        """Counters accumulated since :meth:`mark`.

        Returns ``{"spans": {name: {"calls", "self_ns", "useful"}},
        "load_self_ns", "trusted_top_ns"}``: the self time summed over
        the load (non-trusted) threads, and the top-level span time on
        the trusted server threads.
        """
        spans: Dict[str, Dict[str, int]] = {}
        load_self = trusted_top = 0
        for state, (stats, top_ns) in self._snapshot().items():
            base_stats, base_top = self._mark.get(state, ({}, 0))
            if state.trusted:
                trusted_top += top_ns - base_top
            for name, (calls, self_ns, useful) in stats.items():
                b_calls, b_self, b_useful = base_stats.get(name, (0, 0, 0))
                agg = spans.setdefault(name, {"calls": 0, "self_ns": 0, "useful": 0})
                agg["calls"] += calls - b_calls
                agg["self_ns"] += self_ns - b_self
                agg["useful"] += useful - b_useful
                if not state.trusted:
                    load_self += self_ns - b_self
        return {"spans": spans, "load_self_ns": load_self, "trusted_top_ns": trusted_top}
