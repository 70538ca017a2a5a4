"""Precursor core: the paper's primary contribution.

- :class:`PrecursorServer` / :class:`PrecursorClient` -- the client-centric
  scheme: payload encrypted client-side under one-time keys, control data
  sealed to the enclave, payloads in untrusted memory, one-sided RDMA rings.
- :class:`PrecursorServerEncryption` / :class:`ServerEncryptionClient` --
  the conventional server-encryption variant used as the paper's second
  baseline: the same dispatch, client request path and entry record, with
  only the payload step swapped (the value travels sealed to the enclave,
  which re-encrypts it for storage).
- :func:`make_pair` -- one-call construction of a wired server+client pair
  for quickstarts and tests.
"""

from repro.core.client import PrecursorClient
from repro.core.payload_store import PayloadPointer, PayloadStore
from repro.core.protocol import (
    ControlData,
    OpCode,
    Request,
    Response,
    ResponseControl,
    Status,
)
from repro.core.replay import ReplayGuard
from repro.core.ring_buffer import RingConsumer, RingLayout, RingProducer
from repro.core.server import PrecursorServer, ServerConfig, ServerStats
from repro.core.server_encryption import (
    PrecursorServerEncryption,
    ServerEncryptionClient,
)
from repro.core.threading import ServerThreadPool

__all__ = [
    "PrecursorServer",
    "PrecursorClient",
    "PrecursorServerEncryption",
    "ServerEncryptionClient",
    "ServerConfig",
    "ServerStats",
    "OpCode",
    "Status",
    "ControlData",
    "ResponseControl",
    "Request",
    "Response",
    "RingLayout",
    "RingProducer",
    "RingConsumer",
    "PayloadStore",
    "PayloadPointer",
    "ReplayGuard",
    "ServerThreadPool",
    "make_pair",
]


def make_pair(
    config: ServerConfig = None,
    seed: int = None,
    server_encryption: bool = False,
):
    """Create a wired (server, client) pair on a fresh fabric.

    Parameters
    ----------
    config:
        Optional :class:`ServerConfig`.
    seed:
        Seed for deterministic key material (tests/experiments).
    server_encryption:
        Build the server-encryption variant instead of client-centric
        Precursor.

    Returns
    -------
    (server, client):
        The client is constructed with ``auto_pump=True`` so operations
        behave synchronously.
    """
    from repro.crypto.keys import KeyGenerator

    keygen = KeyGenerator(seed=seed) if seed is not None else None
    if server_encryption:
        server = PrecursorServerEncryption(config=config, keygen=keygen)
        client = ServerEncryptionClient(server, keygen=keygen)
    else:
        server = PrecursorServer(config=config, keygen=keygen)
        client = PrecursorClient(server, keygen=keygen)
    return server, client
