"""The untrusted payload store: a pre-allocated memory pool.

Precursor keeps every encrypted value outside the enclave.  To store one,
the trusted thread needs untrusted space -- but calling ``malloc`` would be
an ocall per request.  Instead the server "pre-allocates a memory pool and
issues an ocall only when needed, i.e., to add extra space and reduce
enclave transitions" (paper §3.8); the implementation uses "a single ocall
function (called periodically to limit frequent transitions) to enlarge the
pre-allocated untrusted list" (paper §4).

The pool is a list of fixed-size arenas (bytearrays) with bump allocation.
Updates allocate a fresh slot and mark the old one as garbage; a dead-bytes
counter tracks fragmentation.  Pointers are ``(arena, offset, length)``
triples -- the ``ptr`` the enclave's hash table stores next to
``K_operation``.
"""

from __future__ import annotations

import threading
from typing import Callable, List, NamedTuple, Optional

from repro.errors import CapacityError, ConfigurationError

__all__ = ["PayloadPointer", "PayloadStore"]


class PayloadPointer(NamedTuple):
    """Location of one stored payload in untrusted memory (immutable)."""

    arena: int
    offset: int
    length: int


class PayloadStore:
    """Arena-based pool for encrypted payloads in untrusted memory."""

    def __init__(
        self,
        arena_size: int = 4 * 1024 * 1024,
        initial_arenas: int = 1,
        grow_ocall: Optional[Callable[[int], None]] = None,
        max_arenas: Optional[int] = None,
    ):
        if arena_size < 64:
            raise ConfigurationError(f"arena_size too small: {arena_size}")
        if initial_arenas < 1:
            raise ConfigurationError("need at least one initial arena")
        self.arena_size = arena_size
        self._arenas: List[bytearray] = [
            bytearray(arena_size) for _ in range(initial_arenas)
        ]
        self._bump: List[int] = [0] * initial_arenas
        self._grow_ocall = grow_ocall
        self._max_arenas = max_arenas
        # Trusted threads allocate concurrently (paper §3.8); the pool is
        # the one piece of untrusted state they all write.
        self._lock = threading.Lock()
        #: Number of times the pool had to grow (== ocalls issued).
        self.grow_count = 0
        self.live_bytes = 0
        self.dead_bytes = 0

    # -- allocation -----------------------------------------------------------

    def store(self, data: bytes) -> PayloadPointer:
        """Copy ``data`` into the pool; returns its pointer.

        Grows the pool (one modelled ocall) when the current arenas are
        exhausted.  Raises :class:`CapacityError` if data exceeds an arena
        or the arena cap is hit.
        """
        length = len(data)
        if length > self.arena_size:
            raise CapacityError(
                f"payload of {length} B exceeds arena size {self.arena_size}"
            )
        with self._lock:
            arena_idx = self._find_space(length)
            if arena_idx is None:
                self._grow()
                arena_idx = len(self._arenas) - 1
            offset = self._bump[arena_idx]
            self._arenas[arena_idx][offset : offset + length] = data
            self._bump[arena_idx] = offset + length
            self.live_bytes += length
        return PayloadPointer(arena=arena_idx, offset=offset, length=length)

    def _find_space(self, length: int) -> Optional[int]:
        for idx in range(len(self._arenas) - 1, -1, -1):
            if self.arena_size - self._bump[idx] >= length:
                return idx
        return None

    def _grow(self) -> None:
        if (
            self._max_arenas is not None
            and len(self._arenas) >= self._max_arenas
        ):
            raise CapacityError(
                f"payload store at its cap of {self._max_arenas} arenas"
            )
        if self._grow_ocall is not None:
            # The single batched ocall of paper §4.
            self._grow_ocall(self.arena_size)
        self._arenas.append(bytearray(self.arena_size))
        self._bump.append(0)
        self.grow_count += 1

    # -- access ---------------------------------------------------------------

    def load(self, ptr: PayloadPointer) -> bytes:
        """Read the payload bytes at ``ptr`` (no integrity check -- the
        client verifies; this memory is untrusted by design)."""
        self._check_ptr(ptr)
        arena = self._arenas[ptr.arena]
        return bytes(arena[ptr.offset : ptr.offset + ptr.length])

    def release(self, ptr: PayloadPointer) -> None:
        """Mark a slot as garbage after an update or delete."""
        self._check_ptr(ptr)
        with self._lock:
            self.live_bytes -= ptr.length
            self.dead_bytes += ptr.length

    def corrupt(self, ptr: PayloadPointer, flip_at: int = 0) -> None:
        """Flip one payload byte -- an *attack helper* for tests and the
        security examples, exercising exactly what a rogue administrator
        with access to untrusted memory could do (threat model §2.3)."""
        self._check_ptr(ptr)
        if not 0 <= flip_at < ptr.length:
            raise ConfigurationError(f"flip offset {flip_at} out of range")
        self._arenas[ptr.arena][ptr.offset + flip_at] ^= 0xFF

    def _check_ptr(self, ptr: PayloadPointer) -> None:
        if not 0 <= ptr.arena < len(self._arenas):
            raise ConfigurationError(f"bad arena index {ptr.arena}")
        if ptr.offset < 0 or ptr.offset + ptr.length > self.arena_size:
            raise ConfigurationError(
                f"pointer [{ptr.offset}, {ptr.offset + ptr.length}) outside arena"
            )

    # -- introspection -----------------------------------------------------

    @property
    def arena_count(self) -> int:
        """Arenas currently allocated."""
        return len(self._arenas)

    @property
    def total_bytes(self) -> int:
        """Untrusted bytes reserved by the pool."""
        return self.arena_size * len(self._arenas)

    def utilization(self) -> float:
        """Live bytes over reserved bytes."""
        return self.live_bytes / self.total_bytes if self.total_bytes else 0.0
