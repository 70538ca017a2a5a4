"""Connected queue pairs and the one state change that matters.

Endpoints communicate by posting work requests to queue pairs (paper
§2.2).  A QP here is born connected, ready to send (RTS); the only other
state is ERR.  That transition matters for security: Precursor "can
revoke access to corrupted clients using RDMA queue pair state
transitions" (paper §3.9, citing DARE) -- a QP in ERR refuses every
later post, and recovery means a fresh QP pair.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional

from repro.rdma.memory import ProtectionDomain

__all__ = ["QpState", "QueuePair"]


class QpState(enum.Enum):
    """The two states a connected QP can be in."""

    RTS = "rts"  # ready to send
    ERR = "err"


@dataclass(eq=False)
class QueuePair:
    """One endpoint of a reliable connection, owned by ``pd``'s host."""

    qp_num: int
    pd: ProtectionDomain
    remote: Optional["QueuePair"] = None
    state: QpState = QpState.RTS

    def error_out(self) -> None:
        """Force ERR -- how the server revokes a rogue client (§3.9)."""
        self.state = QpState.ERR
