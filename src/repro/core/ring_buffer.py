"""Per-client circular request/reply buffers over registered memory.

Paper §3.5: "The core design choice is to use a separate ring buffer for
incoming and outgoing requests per client. Inside the TEE, a worker thread
updates these buffers."  Clients RDMA-WRITE frames into slots; the consumer
polls for ready slots without any notification; flow-control credits flow
back with the server's periodic one-sided writes (§3.8), so a client can
always "compute the available space in its pre-allocated buffer" (§3.7).

Slot layout::

    u32 length | u32 sequence | frame bytes ...

A slot is ready when its stored sequence equals the consumer's expected
sequence for that slot; sequence numbers increase monotonically across ring
wraps, so stale slot contents are never mistaken for fresh requests and the
consumer never needs to zero memory.
"""

from __future__ import annotations

import struct
from typing import Callable, Iterable, List, Optional, Sequence, Tuple

from repro.errors import CapacityError, ConfigurationError
from repro.rdma.memory import MemoryRegion

__all__ = ["RingLayout", "RingProducer", "RingConsumer"]

_HEADER = struct.Struct(">II")


class RingLayout:
    """Geometry shared by the producer and consumer of one ring."""

    def __init__(self, slot_count: int, slot_size: int):
        if slot_count < 1:
            raise ConfigurationError(f"slot_count must be >= 1: {slot_count}")
        if slot_size <= _HEADER.size:
            raise ConfigurationError(
                f"slot_size must exceed the {_HEADER.size}-byte header"
            )
        self.slot_count = slot_count
        self.slot_size = slot_size
        #: Bytes of registered memory one ring occupies.
        self.total_bytes = slot_count * slot_size
        #: Largest frame that fits one slot.
        self.max_frame = slot_size - _HEADER.size

    def slot_offset(self, index: int) -> int:
        """Byte offset of slot ``index`` within the region."""
        return (index % self.slot_count) * self.slot_size


class RingProducer:
    """The writing side: a client for requests, the server for replies.

    ``write_remote(offset, data)`` abstracts the transport -- the Precursor
    client wires it to a one-sided RDMA WRITE into the server's region.
    Credits limit outstanding writes: the producer refuses to overwrite a
    slot the consumer has not freed (paper §3.5: clients must not overwrite
    data "unless it has already been processed by the server").
    """

    def __init__(
        self,
        layout: RingLayout,
        write_remote: Callable[[int, bytes], None],
        write_remote_many: Optional[
            Callable[[Sequence[Tuple[int, bytes]]], None]
        ] = None,
    ):
        self.layout = layout
        self._write_remote = write_remote
        self._write_remote_many = write_remote_many
        self._sequence = 0
        self._consumed = 0  # consumer's progress, updated via credits

    @property
    def outstanding(self) -> int:
        """Frames written but not yet acknowledged as consumed."""
        return self._sequence - self._consumed

    @property
    def free_slots(self) -> int:
        """Slots the producer may still write without overrunning."""
        return self.layout.slot_count - (self._sequence - self._consumed)

    def produce(self, frame: bytes) -> int:
        """Write one frame into the next slot; returns its sequence number.

        Raises :class:`CapacityError` when no credit is available -- the
        caller must pump the consumer (or wait for a credit update).
        """
        layout = self.layout
        if len(frame) > layout.max_frame:
            raise CapacityError(
                f"frame of {len(frame)} B exceeds slot payload "
                f"{layout.max_frame} B"
            )
        produced = self._sequence
        if produced - self._consumed >= layout.slot_count:
            raise CapacityError("ring full: no consumer credit")
        self._sequence = seq = produced + 1
        self._write_remote(
            produced % layout.slot_count * layout.slot_size,
            _HEADER.pack(len(frame), seq) + frame,
        )
        return seq

    def produce_many(self, frames: Iterable[bytes]) -> List[int]:
        """Write several frames with one coalesced transport operation.

        The batched reply path of the server: slot *contents* are exactly
        what ``len(frames)`` individual :meth:`produce` calls would have
        written (same slots, same headers, same sequence numbers), but
        the bytes travel as a single gather write when the transport
        supports it (``write_remote_many``).  Credits are checked for the
        whole batch up front, so the write is all-or-nothing from the
        producer's point of view: :class:`CapacityError` is raised
        *before* any slot is written or any sequence number consumed,
        which lets a caller that wants serial-style partial delivery
        (the server's batched reply phase does) fall back to per-frame
        :meth:`produce` and fail on the same frame the serial path
        would.

        A batch of zero or one frames falls back to :meth:`produce`, so
        the wire behaviour -- including any fault-injection judgement
        sequence -- is indistinguishable from the serial path.
        """
        staged = list(frames)
        if len(staged) <= 1:
            return [self.produce(staged[0])] if staged else []
        layout = self.layout
        for frame in staged:
            if len(frame) > layout.max_frame:
                raise CapacityError(
                    f"frame of {len(frame)} B exceeds slot payload "
                    f"{layout.max_frame} B"
                )
        if self.free_slots < len(staged):
            raise CapacityError(
                f"ring cannot take {len(staged)} frames: only "
                f"{self.free_slots} credits free"
            )
        first = self._sequence + 1
        self._sequence += len(staged)
        slot_count, slot_size = layout.slot_count, layout.slot_size
        writes: List[Tuple[int, bytes]] = [
            (
                (seq - 1) % slot_count * slot_size,
                _HEADER.pack(len(frame), seq) + frame,
            )
            for seq, frame in enumerate(staged, first)
        ]
        if self._write_remote_many is not None:
            self._write_remote_many(writes)
        else:
            for offset, payload in writes:
                self._write_remote(offset, payload)
        return list(range(first, first + len(staged)))

    def credit_update(self, consumed: int) -> None:
        """Apply a credit write from the consumer (monotonic)."""
        if consumed < self._consumed or consumed > self._sequence:
            raise ConfigurationError(
                f"bad credit {consumed} (consumed={self._consumed}, "
                f"produced={self._sequence})"
            )
        self._consumed = consumed


class RingConsumer:
    """The polling side: a trusted server thread for requests, the client
    for replies.

    ``poll()`` scans from the read cursor and returns every ready frame,
    in order.  ``credits_due()`` reports progress for the periodic
    one-sided credit write back to the producer.
    """

    def __init__(self, layout: RingLayout, region: MemoryRegion):
        if region.length < layout.total_bytes:
            raise ConfigurationError(
                f"region of {region.length} B cannot hold ring of "
                f"{layout.total_bytes} B"
            )
        self.layout = layout
        self._region = region
        #: The ring's slots, read in place: the layout fits the region,
        #: so a slot read needs no bounds check and only a frame is copied.
        self._view = region.view()
        self._next_seq = 1
        self._reported = 0
        self.polls = 0
        self.frames_consumed = 0

    def idle(self) -> bool:
        """True when no frame is ready and no credit is due.

        One header read, so a poller skips an empty ring without a
        drain; a garbage slot reads as not idle, for the drain to skip.
        """
        seq = self._next_seq
        if self._reported != seq - 1:
            return False
        layout = self.layout
        offset = (seq - 1) % layout.slot_count * layout.slot_size
        return _HEADER.unpack_from(self._view, offset)[1] != seq

    def poll_one(self) -> Optional[bytes]:
        """Return the next ready frame, or None."""
        self.polls += 1
        layout = self.layout
        seq = self._next_seq
        offset = (seq - 1) % layout.slot_count * layout.slot_size
        length, stored = _HEADER.unpack_from(self._view, offset)
        if stored != seq:
            return None
        self._next_seq = seq + 1
        if length > layout.max_frame:
            # Garbage from a rogue producer; skip the slot defensively.
            return None
        self.frames_consumed += 1
        start = offset + _HEADER.size
        return self._view[start : start + length].tobytes()

    def poll(self, limit: int = 64) -> List[bytes]:
        """Drain up to ``limit`` ready frames."""
        frames = []
        while len(frames) < limit:
            frame = self.poll_one()
            if frame is None:
                break
            frames.append(frame)
        return frames

    def pending(self, limit: Optional[int] = None) -> int:
        """Count ready-but-unconsumed frames without consuming them.

        The telemetry pipeline's queue-depth probe: scans headers from
        the read cursor forward, stopping at the first slot that is not
        ready (or looks like garbage), leaving the cursor untouched.

        ``limit=None`` (the default) scans the whole ring.  The scan is
        always capped at ``slot_count``: a ring can never hold more
        ready frames than it has slots, and scanning further would wrap
        back onto slots already counted.  (An earlier version silently
        capped at 64 regardless of geometry, so partially-drained rings
        larger than 64 slots under-reported their queue depth.)

        A garbage slot (rogue length field) stops the scan: the frames
        behind it are invisible to telemetry until the consumer's next
        poll skips the slot and re-exposes them.  That is deliberately
        conservative -- depth never counts frames the consumer might not
        actually reach on its next drain.
        """
        layout = self.layout
        if limit is None or limit > layout.slot_count:
            limit = layout.slot_count
        count = 0
        seq = self._next_seq
        while count < limit:
            length, stored = _HEADER.unpack_from(
                self._view, layout.slot_offset(seq - 1)
            )
            if stored != seq or length > layout.max_frame:
                break
            count += 1
            seq += 1
        return count

    @property
    def consumed(self) -> int:
        """Total frames consumed (the credit value to advertise)."""
        return self._next_seq - 1

    def credits_due(self) -> Optional[int]:
        """Credit value to push to the producer, or None if unchanged."""
        consumed = self._next_seq - 1
        if consumed == self._reported:
            return None
        self._reported = consumed
        return consumed
