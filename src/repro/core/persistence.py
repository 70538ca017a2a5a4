"""Persistent checkpoints of a Precursor server, rollback-protected.

Paper §2.1: "When the data is persistently saved to the disk, SGX provides
trusted time and monotonic counters to detect state rollback attacks and
forking.  In this regard, previous works propose different prevention
techniques, which can be integrated into our design."

This module is that integration.  A checkpoint carries each entry as the
record migration and replication already ship
(:meth:`~repro.core.server.PrecursorServer.export_entry`: key, one-time
key, owner, strict-mode MAC, tenant grants, inline flag) plus every
client's replay expectation.  That *trusted* part is sealed to the
enclave's identity (:mod:`repro.sgx.sealing`); the payload blobs travel
beside it as they are, and a monotonic counter
(:class:`~repro.sgx.counters.RollbackGuard`) binds both parts.  Restoring
verifies identity, integrity and freshness before any byte is trusted:

- a snapshot from a different enclave fails unsealing;
- a modified snapshot fails its seal or digest;
- an *old* snapshot (the rollback/forking attack) fails the counter check.

Restore installs each record the way ``import_entry`` does -- inline
values back into trusted memory, pool blobs re-stored compactly -- but
reports nothing to replication: a replicated primary keeps its hook
across the crash, and its group already shipped (or queued) every
restored entry.  Payload blobs need no extra protection: they are
client-encrypted and client-verified, exactly as in live operation --
persistence preserves the split-trust design.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Dict

from repro.core.server import PrecursorServer
from repro.errors import PrecursorError
from repro.sgx.counters import MonotonicCounterService, RollbackGuard, SealedCheckpoint
from repro.sgx.sealing import SealingKey, seal_data, unseal_data

__all__ = ["ServerCheckpoint", "CheckpointManager"]

_CHECKPOINT_AAD = b"precursor-ckpt"


@dataclass(frozen=True)
class ServerCheckpoint:
    """Everything persisted for one checkpoint."""

    #: Enclave-sealed: entry count, entry records, replay expectations.
    sealed_trusted_state: bytes
    #: Blob count, then each client-encrypted blob, length-framed, in
    #: record order.
    untrusted_payloads: bytes
    rollback: SealedCheckpoint  # counter binding over both parts


class CheckpointManager:
    """Creates and restores rollback-protected server checkpoints.

    These are *operator snapshots* and enclave-crash restore points on
    a surviving host's disk -- never a stand-in for replication: a
    machine loss (``shard_death``) keeps only what the shard's replica
    group shipped to backups (docs/REPLICATION.md).
    """

    def __init__(
        self,
        counters: MonotonicCounterService = None,
        counter_name: str = "precursor-state",
    ):
        self.counters = counters if counters is not None else MonotonicCounterService()
        self.counter_name = counter_name
        self._guards: Dict[bytes, RollbackGuard] = {}

    def _guard_for(self, server: PrecursorServer) -> RollbackGuard:
        measurement = server.enclave.measurement
        guard = self._guards.get(measurement)
        if guard is None:
            guard = RollbackGuard(
                self.counters,
                sealing_key=SealingKey(server.enclave).key,
                counter_name=self.counter_name,
            )
            self._guards[measurement] = guard
        return guard

    def checkpoint(self, server: PrecursorServer) -> ServerCheckpoint:
        """Snapshot ``server``: seal trusted state, bind to the counter."""
        guard = self._guard_for(server)
        records, blobs = [], []
        for key in server.stored_keys():
            record, blob = server._export_record(key)
            records.append(record)
            blobs.append(struct.pack(">I", len(blob)) + blob)
        expectations = sorted(server._replay.expectations().items())
        trusted = b"".join([
            struct.pack(">I", len(records)),
            *records,
            struct.pack(">I", len(expectations)),
            *(struct.pack(">IQ", *pair) for pair in expectations),
        ])
        untrusted = struct.pack(">I", len(blobs)) + b"".join(blobs)
        counter_value = self.counters.read(self.counter_name) + 1
        sealed = seal_data(
            server.enclave, trusted, iv_counter=counter_value, aad=_CHECKPOINT_AAD
        )
        rollback = guard.checkpoint(sealed + untrusted)
        return ServerCheckpoint(
            sealed_trusted_state=sealed,
            untrusted_payloads=untrusted,
            rollback=rollback,
        )

    def restore(self, server: PrecursorServer, checkpoint: ServerCheckpoint) -> int:
        """Rebuild ``server`` state from ``checkpoint``; returns key count.

        Verifies freshness (rollback counter), seal (enclave identity) and
        integrity before mutating anything.  The target server must be
        freshly started (no keys).
        """
        if server.key_count != 0:
            raise PrecursorError("restore target must be empty")
        guard = self._guard_for(server)
        payloads = checkpoint.untrusted_payloads
        guard.verify_restore(
            checkpoint.rollback, checkpoint.sealed_trusted_state + payloads
        )
        trusted = unseal_data(
            server.enclave, checkpoint.sealed_trusted_state, aad=_CHECKPOINT_AAD
        )
        # The rollback guard bound both parts together, so the blobs
        # follow the records one for one.
        (count,) = struct.unpack_from(">I", trusted, 0)
        offset = cursor = 4
        for _ in range(count):
            (length,) = struct.unpack_from(">I", payloads, cursor)
            blob = payloads[cursor + 4 : cursor + 4 + length]
            cursor += 4 + length
            _key, offset = server._install_record(trusted, blob, offset)
        (clients,) = struct.unpack_from(">I", trusted, offset)
        for client_id, oid in struct.iter_unpack(
            ">IQ", trusted[offset + 4 : offset + 4 + 12 * clients]
        ):
            # Re-admitted clients resume their replay counters.
            server._replay.resume(client_id, oid)
        return count
