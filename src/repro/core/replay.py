"""Replay protection: per-client operation identifiers.

Every request carries a unique sequence number ``oid`` authenticated inside
the sealed control data (paper §3.7, Algorithm 1 l.5).  The enclave "keeps
an array indexed by a client identifier, where each entry holds the most
recent oid" (Algorithm 2 l.4-5): a request is accepted only when its oid is
exactly the expected next value, then the expectation advances.  Replays --
and, with authenticated control data, any reordering an attacker could
force -- are detected and discarded.

This state lives in trusted memory: 1 byte of oid plus the 4-byte client id
per client in the paper's layout (§4); the guard reports its nominal
trusted footprint for working-set accounting.
"""

from __future__ import annotations

from typing import Dict

from repro.errors import ReplayError

__all__ = ["ReplayGuard"]


class ReplayGuard:
    """Tracks the next expected oid per client."""

    #: Nominal trusted bytes per tracked client (oid + client id, §4).
    TRUSTED_BYTES_PER_CLIENT = 5

    def __init__(self) -> None:
        self._expected: Dict[int, int] = {}
        self.rejected = 0

    def register_client(self, client_id: int) -> None:
        """Start tracking a client; its first request must carry oid 1."""
        if client_id in self._expected:
            raise ReplayError(f"client {client_id} already registered")
        self._expected[client_id] = 1

    def check_and_advance(self, client_id: int, oid: int) -> None:
        """Accept ``oid`` if it is the expected next value, else raise.

        Mirrors Algorithm 2 lines 4-6: on match the expectation advances;
        on mismatch the request is discarded (we raise
        :class:`ReplayError` and count the rejection).
        """
        expected = self._expected.get(client_id)
        if expected is None:
            self.rejected += 1
            raise ReplayError(f"unknown client {client_id}")
        if oid != expected:
            self.rejected += 1
            raise ReplayError(
                f"client {client_id}: oid {oid} != expected {expected} "
                "(replayed or dropped request)"
            )
        self._expected[client_id] = expected + 1

    def is_registered(self, client_id: int) -> bool:
        """Whether ``client_id`` is being tracked."""
        return client_id in self._expected

    def expected_oid(self, client_id: int) -> int:
        """The oid the next request from ``client_id`` must carry."""
        expected = self._expected.get(client_id)
        if expected is None:
            raise ReplayError(f"unknown client {client_id}")
        return expected

    def expectations(self) -> Dict[int, int]:
        """Every tracked client's next expected oid (a checkpoint's copy)."""
        return dict(self._expected)

    def resume(self, client_id: int, oid: int) -> None:
        """Track ``client_id`` from ``oid`` on: a restored expectation."""
        self._expected[client_id] = oid

    @property
    def client_count(self) -> int:
        """Number of registered clients."""
        return len(self._expected)

    def trusted_bytes(self) -> int:
        """Nominal trusted memory this state occupies."""
        return self.client_count * self.TRUSTED_BYTES_PER_CLIENT
