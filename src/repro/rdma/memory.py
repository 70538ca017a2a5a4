"""Registered memory regions and protection domains.

RDMA requires applications to register buffers with the NIC before any
remote access (paper §2.2): the OS pins the region and hands out keys -- an
``lkey`` for local use and an ``rkey`` that remote peers must present.  A
peer holding the rkey and the region bounds can write the memory without
involving the host CPU, subject to the access flags set at registration.

Two security-relevant behaviours are modelled faithfully:

- a write outside the registered bounds or without REMOTE_WRITE
  completes with an error (remote access violations);
- regions can be flagged ``trusted`` -- enclave memory.  The fabric refuses
  remote access to them, just as SGX forbids DMA to the EPC, which is the
  very reason Precursor lands payloads in *untrusted* memory.
"""

from __future__ import annotations

import enum
import itertools
from typing import Dict

from repro.errors import AccessError, ConfigurationError

__all__ = ["AccessFlags", "MemoryRegion", "ProtectionDomain"]


class AccessFlags(enum.Flag):
    """Registration permissions, mirroring ibv_access_flags."""

    LOCAL_WRITE = enum.auto()
    REMOTE_WRITE = enum.auto()


class MemoryRegion:
    """A pinned, registered buffer addressable by (rkey, offset)."""

    def __init__(
        self,
        length: int,
        flags: AccessFlags,
        lkey: int,
        rkey: int,
        trusted: bool = False,
    ):
        if length <= 0:
            raise ConfigurationError(f"region length must be positive: {length}")
        self.length = length
        self.flags = flags
        self.lkey = lkey
        self.rkey = rkey
        #: True for enclave (EPC) memory: remote access must be refused.
        self.trusted = trusted
        self._buf = bytearray(length)
        # Remote permission is fixed at registration, so it is decided
        # once here rather than by an enum.Flag test per access.
        self._remote_write = not trusted and bool(
            flags & AccessFlags.REMOTE_WRITE
        )

    # -- local access (host CPU, no permission checks beyond bounds) -------

    def read_local(self, offset: int, length: int) -> bytes:
        """Read as the host CPU (e.g. the polling server thread)."""
        self._check_bounds(offset, length)
        return bytes(self._buf[offset : offset + length])

    def write_local(self, offset: int, data: bytes) -> None:
        """Write as the host CPU."""
        self._check_bounds(offset, len(data))
        self._buf[offset : offset + len(data)] = data

    def view(self) -> memoryview:
        """The region's bytes as the host CPU sees them, without a copy.

        For a local poller that reads fixed slots of its own region many
        times over (a ring consumer): it indexes the view within
        :attr:`length` itself, so no access is bounds-checked again.
        """
        return memoryview(self._buf)

    # -- remote access (via the fabric, permission-checked) ----------------

    def remote_write(self, offset: int, data: bytes) -> None:
        """DMA write by a remote peer; enforces REMOTE_WRITE and bounds."""
        if not self._remote_write:
            if self.trusted:
                raise AccessError(
                    "DMA to enclave memory: SGX forbids device access to the EPC"
                )
            raise AccessError(
                f"region rkey={self.rkey:#x} lacks REMOTE_WRITE permission"
            )
        self._check_bounds(offset, len(data))
        self._buf[offset : offset + len(data)] = data

    def _check_bounds(self, offset: int, length: int) -> None:
        if offset < 0 or length < 0 or offset + length > self.length:
            raise AccessError(
                f"access [{offset}, {offset + length}) outside region of "
                f"{self.length} bytes"
            )


class ProtectionDomain:
    """Issues and resolves memory registrations for one host.

    rkeys are allocated from a predictable counter -- deliberately so: the
    paper's security discussion (§3.9) notes that real RDMA rkeys are
    predictable and unauthenticated, citing ReDMArk.  Tests demonstrate the
    resulting attack surface against *untrusted* regions and show the
    trusted region refuses access regardless.
    """

    def __init__(self, name: str = "pd"):
        self.name = name
        self._keys = itertools.count(start=0x1000, step=2)
        self._regions: Dict[int, MemoryRegion] = {}

    def register(
        self, length: int, flags: AccessFlags, trusted: bool = False
    ) -> MemoryRegion:
        """Register a new region; returns it with fresh lkey/rkey."""
        lkey = next(self._keys)
        rkey = next(self._keys)
        region = MemoryRegion(
            length=length, flags=flags, lkey=lkey, rkey=rkey, trusted=trusted
        )
        self._regions[rkey] = region
        return region

    def lookup(self, rkey: int) -> MemoryRegion:
        """Resolve an rkey as the NIC would; raises AccessError if unknown."""
        region = self._regions.get(rkey)
        if region is None:
            raise AccessError(f"unknown rkey {rkey:#x}")
        return region

    def __len__(self) -> int:
        return len(self._regions)
