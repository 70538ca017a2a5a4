"""The one work request Precursor posts: a one-sided RDMA WRITE.

Requests go into the server's per-client ring, replies into the client's
ring and credits into the client's credit word, all as one-sided WRITEs
(paper §3.5, §3.8).  Inline sends and selective signalling (§4) change
what a post *costs*, not what it does: :class:`~repro.rdma.nic.RNic`
prices the inline discount, and the simulations charge no per-post
completion handling, the cost selective signalling avoids.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from repro.errors import ConfigurationError

__all__ = ["WorkRequest"]


@dataclass(slots=True)
class WorkRequest:
    """One RDMA WRITE: ``data`` lands at ``remote_offset`` of ``remote_rkey``.

    ``segments`` is an optional gather list of ``(remote_offset, length)``
    pairs tiling ``data`` in order.  One posted request then lands each
    slice at its own remote offset -- the coalesced-reply shape of the
    batched server path (one WQE, one doorbell, K frames).  The wire
    payload is still the single ``data`` buffer, so in-flight tamper
    flips exactly one byte of exactly one segment.
    """

    data: bytes
    remote_rkey: int = 0
    remote_offset: int = 0
    segments: Optional[Tuple[Tuple[int, int], ...]] = None

    def __post_init__(self) -> None:
        if self.segments is None:
            return
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
