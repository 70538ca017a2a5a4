"""RDMA substrate: one-sided WRITEs, modelled in memory.

Precursor's data path is one-sided RDMA (paper §2.2, §3.5): clients WRITE
requests directly into per-client ring buffers registered in the server's
*untrusted* memory; server threads poll those buffers without any network
interrupt; replies and credits flow back the same way.  This package
reproduces that one verb:

- :mod:`repro.rdma.memory` -- registered memory regions, rkeys, protection
  domains, permission- and bounds-checked remote writes;
- :mod:`repro.rdma.qp` -- connected queue pairs that a fault or a
  revocation drives to ERR (Precursor revokes rogue clients that way);
- :mod:`repro.rdma.verbs` -- the work request: a WRITE, plain or gathered;
- :mod:`repro.rdma.nic` -- RNIC timing (bandwidth, base latency, the
  **inline** discount) and the QP-state cache whose misses cause the
  client-scaling decline in Fig. 6;
- :mod:`repro.rdma.fabric` -- the in-memory "wire" that actually moves
  bytes, refuses DMA into trusted (enclave) memory -- the SGX constraint
  that motivates the whole design -- and applies the fault hook.
"""

from repro.rdma.fabric import Fabric
from repro.rdma.memory import AccessFlags, MemoryRegion, ProtectionDomain
from repro.rdma.nic import QpCacheModel, RNic
from repro.rdma.qp import QpState, QueuePair
from repro.rdma.verbs import WorkRequest

__all__ = [
    "MemoryRegion",
    "ProtectionDomain",
    "AccessFlags",
    "QueuePair",
    "QpState",
    "WorkRequest",
    "RNic",
    "QpCacheModel",
    "Fabric",
]
