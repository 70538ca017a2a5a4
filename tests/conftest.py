"""Shared fixtures for the Precursor reproduction test suite."""

import pytest

from repro.core import ServerConfig, make_pair
from repro.rdma.fabric import FaultAction


@pytest.fixture
def pair():
    """A deterministic wired (server, client) Precursor pair."""
    return make_pair(seed=1234)


@pytest.fixture
def se_pair():
    """A deterministic server-encryption pair."""
    return make_pair(seed=1234, server_encryption=True)


@pytest.fixture
def small_ring_config():
    """Server config with a tiny ring, to exercise wrap/credit paths."""
    return ServerConfig(ring_slots=4, ring_slot_size=4096)


@pytest.fixture
def fail_next_post():
    """``arm(fabric)`` fails the fabric's next post through a one-shot
    fault hook: the write is lost and its QP goes to ERR (a link flap)."""

    def arm(fabric):
        state = {"armed": True}

        def hook(qp, wr):
            if state["armed"]:
                state["armed"] = False
                return FaultAction.QP_ERROR
            return None

        fabric.install_fault_hook(hook)

    return arm
