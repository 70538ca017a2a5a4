"""Verbs-level work requests and opcodes.

A work request describes one operation posted to a queue pair's send queue.
Precursor uses one-sided WRITEs for both directions of its data path and
adopts two standard optimizations (paper §4, citing Kalia et al.):

- **inline**: payloads up to the NIC's inline threshold (912 B on the
  paper's machines) are copied into the work request itself, sparing the
  NIC a DMA read from host memory and cutting small-message latency;
- **selective signaling**: only every Nth request asks for a completion,
  so the sender does not pay per-message completion handling.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional, Tuple

from repro.errors import ConfigurationError

__all__ = ["Opcode", "WorkRequest"]


class Opcode(enum.Enum):
    """Operation kinds supported by the substrate."""

    SEND = "send"
    RDMA_WRITE = "rdma_write"
    RDMA_READ = "rdma_read"


@dataclass(slots=True)
class WorkRequest:
    """One entry of a send queue.

    Attributes
    ----------
    wr_id:
        Caller-chosen identifier returned in the completion.
    opcode:
        SEND / RDMA_WRITE / RDMA_READ.
    data:
        Bytes to transmit (WRITE/SEND); ``None`` for READ.
    remote_rkey / remote_offset:
        Target for one-sided operations; unused by SEND.
    length:
        Bytes to fetch for RDMA_READ.
    signaled:
        Whether a work completion should be generated (selective
        signaling posts mostly unsignaled requests).
    inline:
        Whether the payload travels inline in the WQE.
    segments:
        Optional gather list for RDMA_WRITE: ``(remote_offset, length)``
        pairs tiling ``data`` in order.  One posted request then lands
        each slice at its own remote offset -- the coalesced-reply shape
        of the batched server path (one WQE, one doorbell, K frames).
        The wire payload is still the single ``data`` buffer, so
        in-flight tamper flips exactly one byte of exactly one segment.
    """

    wr_id: int
    opcode: Opcode
    data: Optional[bytes] = None
    remote_rkey: int = 0
    remote_offset: int = 0
    length: int = 0
    signaled: bool = True
    inline: bool = False
    segments: Optional[Tuple[Tuple[int, int], ...]] = None

    def __post_init__(self) -> None:
        if self.opcode in (Opcode.SEND, Opcode.RDMA_WRITE):
            if self.data is None:
                raise ConfigurationError(f"{self.opcode.value} requires data")
        elif self.opcode is Opcode.RDMA_READ:
            if self.length <= 0:
                raise ConfigurationError("RDMA_READ requires a positive length")
            if self.inline:
                raise ConfigurationError("RDMA_READ cannot be inline")
        if self.segments is not None:
            if self.opcode is not Opcode.RDMA_WRITE:
                raise ConfigurationError(
                    "gather segments are only valid on RDMA_WRITE"
                )
            if not self.segments:
                raise ConfigurationError("gather list must not be empty")
            total = 0
            for offset, length in self.segments:
                if length <= 0:
                    raise ConfigurationError(
                        f"gather segment length must be positive: {length}"
                    )
                if offset < 0:
                    raise ConfigurationError(
                        f"gather segment offset must be >= 0: {offset}"
                    )
                total += length
            if total != len(self.data):
                raise ConfigurationError(
                    f"gather segments cover {total} bytes but data "
                    f"holds {len(self.data)}"
                )

    @property
    def byte_len(self) -> int:
        """Bytes moved by this request."""
        if self.opcode is Opcode.RDMA_READ:
            return self.length
        return len(self.data)
