"""What one frame of the batched request path costs, in function calls.

A batched frame should cost its transport crypto, its replay check, one
table probe and its payload-store access; everything else on the path
is bookkeeping.  These tests count the calls into ``repro`` functions
(``sys.setprofile``) while:

- a K=16 server drains one 32-frame PUT window, then one GET window;
- the client runs ``_send`` and ``_collect`` for those windows;
- one of four clients runs a traced ``put``, then a traced ``get``, end
  to end against a K=1 server: the single-op path, a window of one.

Only functions defined under ``src/repro`` are counted, and list, dict
and set comprehensions are not (Python 3.12 inlines them), so the
counts are the same on every Python version CI runs.  Calls per frame
before this accounting existed, by the same count:

============================  =====  =====
side                          PUT    GET
============================  =====  =====
server drain                  84.1   71.1
client ``_send``              38.7   38.8
client ``_collect``           19.5   19.5
============================  =====  =====

The single-op path, by the same count, before its trace record became a
flat log and its window, fabric post and K=1 cycle lost their
per-request bookkeeping (in ``repro.obs`` alone in brackets):

============================  =========  =========
op                            before     after
============================  =========  =========
traced ``put``                332 (140)  212 (37)
traced ``get``                284 (129)  172 (34)
============================  =========  =========

The bounds below hold today's counts with a little slack: a change that
adds per-frame work to the hot path fails here and says where.
"""

import collections
import os
import sys

import pytest

import repro
from repro.core.client import PrecursorClient
from repro.core.protocol import OpCode
from repro.core.server import PrecursorServer, ServerConfig
from repro.crypto.keys import KeyGenerator

_REPRO = os.path.dirname(os.path.abspath(repro.__file__)) + os.sep
_INLINED = {"<listcomp>", "<dictcomp>", "<setcomp>"}
_WINDOW = 32

#: Calls per frame the path may make: (server drain, client send +
#: collect), per window kind.
_BOUNDS = {"put": (50, 28), "get": (45, 28)}

#: Calls one traced single-key operation may make end to end: (all of
#: ``repro``, ``repro.obs`` alone).
_SINGLE_BOUNDS = {"put": (224, 39), "get": (182, 36)}


def _count_calls(fn, *args):
    """``fn(*args)``'s calls into ``repro`` functions, by function."""
    tally = collections.Counter()

    def profile(frame, event, _arg):
        if event == "call":
            code = frame.f_code
            if code.co_filename.startswith(_REPRO) and code.co_name not in _INLINED:
                tally[f"{code.co_filename[len(_REPRO):]}:{code.co_name}"] += 1

    sys.setprofile(profile)
    try:
        fn(*args)
    finally:
        sys.setprofile(None)
    return tally


def _per_frame(tally) -> float:
    return sum(tally.values()) / _WINDOW


@pytest.fixture(scope="module")
def costs():
    """Per window kind: (server, send, collect) call tallies."""
    server = PrecursorServer(
        config=ServerConfig(ecall_batch=16), keygen=KeyGenerator(seed=3)
    )
    client = PrecursorClient(server, auto_pump=False, keygen=KeyGenerator(seed=4))
    keys = [b"user%08d" % i for i in range(_WINDOW)]
    items = [(key, b"v" * 32) for key in keys]

    def window(kind):
        if kind == "put":
            return client._put_requests(items)
        return [(client._next_control(OpCode.GET, key), None) for key in keys]

    # Warm up: the table, the cipher cache and the rings exist before
    # anything is counted.
    for kind in ("put", "get"):
        entries = window(kind)
        client._send(entries)
        server.process_pending()
        client._collect(entries, [])
    out = {}
    for kind in ("put", "get"):
        entries = window(kind)
        send = _count_calls(client._send, entries)
        drain = _count_calls(server.process_pending)
        replies = []
        collect = _count_calls(client._collect, entries, replies)
        assert len(replies) == _WINDOW
        assert all(control.status == 0 for _response, control in replies)
        out[kind] = (drain, send, collect)
    return out


@pytest.mark.parametrize("kind", ["put", "get"])
def test_server_calls_per_frame(costs, kind):
    drain = costs[kind][0]
    assert _per_frame(drain) <= _BOUNDS[kind][0], drain.most_common(12)


@pytest.mark.parametrize("kind", ["put", "get"])
def test_client_calls_per_frame(costs, kind):
    _drain, send, collect = costs[kind]
    assert _per_frame(send + collect) <= _BOUNDS[kind][1], (
        (send + collect).most_common(12)
    )


def test_one_table_probe_per_frame(costs):
    """A PUT installs with one probe and a GET reads with one: one
    FNV-1a hash per frame, and no lookup before an install."""
    put, get = costs["put"][0], costs["get"][0]
    assert put["htable/robinhood.py:_fnv1a"] == _WINDOW
    assert put["htable/robinhood.py:put"] == _WINDOW
    assert put["htable/robinhood.py:get"] == 0
    assert get["htable/robinhood.py:_fnv1a"] == _WINDOW
    assert get["htable/robinhood.py:get"] == _WINDOW


def test_untraced_frames_open_no_stage(costs):
    """With no trace current, no stage handle is built for any frame."""
    for kind in ("put", "get"):
        drain = costs[kind][0]
        assert drain["obs/span.py:stage"] == 0
        assert drain["obs/span.py:__enter__"] == 0
        assert drain["obs/span.py:hop"] == 0


@pytest.fixture(scope="module")
def single_op_costs():
    """Per op: the call tally of one traced ``put``/``get`` by one of
    four clients on a K=1 server, the single-op path's shape."""
    server = PrecursorServer(keygen=KeyGenerator(seed=3))
    clients = [
        PrecursorClient(server, keygen=KeyGenerator(seed=10 + i)) for i in range(4)
    ]
    client = clients[0]
    keys = [b"user%08d" % i for i in range(8)]
    for key in keys:  # warm up, as above
        client.put(key, b"v" * 32)
        client.get(key)
    return {
        "put": _count_calls(client.put, keys[1], b"w" * 32),
        "get": _count_calls(client.get, keys[1]),
    }


@pytest.mark.parametrize("op", ["put", "get"])
def test_traced_single_op_calls(single_op_costs, op):
    tally = single_op_costs[op]
    obs = collections.Counter(
        {name: n for name, n in tally.items() if name.startswith("obs" + os.sep)}
    )
    total_bound, obs_bound = _SINGLE_BOUNDS[op]
    assert sum(tally.values()) <= total_bound, tally.most_common(12)
    assert sum(obs.values()) <= obs_bound, obs.most_common(12)


def test_traced_frame_records_one_server_hop():
    """The twin: with a trace current, a window of one records exactly
    one ``server`` hop on the server, into that trace."""
    server = PrecursorServer(
        config=ServerConfig(ecall_batch=16), keygen=KeyGenerator(seed=3)
    )
    client = PrecursorClient(server, auto_pump=False, keygen=KeyGenerator(seed=4))
    entries = client._put_requests([(b"user00000000", b"v" * 32)])
    trace = server.obs.tracer.start("put", client_id=client.client_id)
    client._send(entries)
    drain = _count_calls(server.process_pending)
    replies = []
    client._collect(entries, replies)
    trace.finish()
    assert len(replies) == 1
    assert drain["obs/span.py:hop"] == 1
    assert trace.hop_kinds() == ["server"]
    assert trace.hops[0]["detail"] == {"op": "put", "oid": 1}
