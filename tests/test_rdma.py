"""RDMA substrate: memory regions, queue pairs, the WRITE verb, the fabric."""

import pytest

from repro.errors import AccessError, ConfigurationError
from repro.rdma import (
    AccessFlags,
    Fabric,
    MemoryRegion,
    ProtectionDomain,
    QpCacheModel,
    QpState,
    RNic,
    WorkRequest,
)


class TestMemoryRegions:
    def test_local_read_write(self):
        pd = ProtectionDomain()
        region = pd.register(64, AccessFlags.LOCAL_WRITE)
        region.write_local(8, b"hello")
        assert region.read_local(8, 5) == b"hello"

    def test_remote_write_requires_permission(self):
        pd = ProtectionDomain()
        local_only = pd.register(64, AccessFlags.LOCAL_WRITE)
        with pytest.raises(AccessError, match="REMOTE_WRITE"):
            local_only.remote_write(0, b"x")

    def test_bounds_enforced(self):
        pd = ProtectionDomain()
        region = pd.register(64, AccessFlags.REMOTE_WRITE)
        with pytest.raises(AccessError):
            region.remote_write(60, b"toolong")
        with pytest.raises(AccessError):
            region.read_local(-1, 4)

    def test_trusted_region_refuses_dma(self):
        """SGX forbids DMA to the EPC: even a correctly-keyed remote access
        to enclave memory must fail.  This is the constraint that forces
        Precursor's split-transfer design."""
        pd = ProtectionDomain()
        enclave_mem = pd.register(4096, AccessFlags.REMOTE_WRITE, trusted=True)
        with pytest.raises(AccessError, match="enclave"):
            enclave_mem.remote_write(0, b"attack")
        # The host CPU (enclave code) can still use it locally.
        enclave_mem.write_local(0, b"fine")
        assert enclave_mem.read_local(0, 4) == b"fine"

    def test_rkeys_are_predictable(self):
        """The paper notes RDMA rkeys are predictable (§3.9, citing
        ReDMArk) -- our PD mirrors that, making the attack surface real."""
        pd1 = ProtectionDomain("a")
        pd2 = ProtectionDomain("b")
        r1 = pd1.register(64, AccessFlags.REMOTE_WRITE)
        r2 = pd2.register(64, AccessFlags.REMOTE_WRITE)
        assert r1.rkey == r2.rkey  # same allocation sequence -> same key

    def test_lookup_resolves_only_registered_rkeys(self):
        pd = ProtectionDomain()
        region = pd.register(64, AccessFlags.REMOTE_WRITE)
        assert pd.lookup(region.rkey) is region
        with pytest.raises(AccessError):
            pd.lookup(region.rkey + 2)

    def test_zero_length_region_rejected(self):
        with pytest.raises(ConfigurationError):
            MemoryRegion(0, AccessFlags.LOCAL_WRITE, 1, 2)


class TestQueuePairs:
    def _pair(self):
        fabric = Fabric()
        fabric.add_host("a")
        fabric.add_host("b")
        return fabric, *fabric.create_qp_pair("a", "b")

    def test_connect_reaches_rts(self):
        _, qa, qb = self._pair()
        assert qa.state is QpState.RTS
        assert qb.state is QpState.RTS
        assert qa.remote is qb and qb.remote is qa

    def test_errored_qp_refuses_sends(self):
        fabric, qa, qb = self._pair()
        at_a = qa.pd.register(64, AccessFlags.REMOTE_WRITE)
        at_b = qb.pd.register(64, AccessFlags.REMOTE_WRITE)
        qa.error_out()
        with pytest.raises(AccessError, match="ERR"):
            fabric.post_send(qa, WorkRequest(b"x", at_b.rkey))
        # The healthy end of a revoked connection cannot write either.
        with pytest.raises(AccessError, match="no connected remote"):
            fabric.post_send(qb, WorkRequest(b"x", at_a.rkey))
        assert at_a.read_local(0, 1) == at_b.read_local(0, 1) == b"\x00"


class TestWorkRequests:
    def test_write_requires_data(self):
        with pytest.raises(TypeError):
            WorkRequest()


class TestFabric:
    def _setup(self):
        fabric = Fabric()
        fabric.add_host("client")
        server_pd = fabric.add_host("server")
        qp_c, qp_s = fabric.create_qp_pair("client", "server")
        region = server_pd.register(4096, AccessFlags.REMOTE_WRITE)
        return fabric, qp_c, qp_s, region

    def test_one_sided_write_moves_bytes(self):
        fabric, qp_c, _, region = self._setup()
        fabric.post_send(
            qp_c,
            WorkRequest(
                data=b"remote write!",
                remote_rkey=region.rkey,
                remote_offset=100,
            ),
        )
        assert region.read_local(100, 13) == b"remote write!"
        assert fabric.bytes_moved == 13

    def test_bad_rkey_errors_the_qp(self):
        fabric, qp_c, _, region = self._setup()
        with pytest.raises(AccessError, match="unknown rkey"):
            fabric.post_send(
                qp_c, WorkRequest(data=b"x", remote_rkey=0xDEAD)
            )
        assert qp_c.state is QpState.ERR
        assert fabric.bytes_moved == 0

    def test_write_to_trusted_region_fails(self):
        fabric = Fabric()
        fabric.add_host("client")
        server_pd = fabric.add_host("server")
        qp_c, _ = fabric.create_qp_pair("client", "server")
        enclave_region = server_pd.register(
            4096, AccessFlags.REMOTE_WRITE, trusted=True
        )
        with pytest.raises(AccessError, match="enclave"):
            fabric.post_send(
                qp_c,
                WorkRequest(data=b"inject", remote_rkey=enclave_region.rkey),
            )

    def test_duplicate_host_rejected(self):
        fabric = Fabric()
        fabric.add_host("h")
        with pytest.raises(ConfigurationError):
            fabric.add_host("h")


class TestNicModels:
    def test_serialization_time_scales(self):
        nic = RNic(bandwidth_gbps=40.0)
        assert nic.serialization_ns(4096) == pytest.approx(819.2)
        assert nic.transfer_ns(4096) > nic.transfer_ns(64)

    def test_inline_is_faster(self):
        nic = RNic()
        assert nic.transfer_ns(256, inline=True) < nic.transfer_ns(256, inline=False)

    def test_line_rate(self):
        assert RNic(bandwidth_gbps=40.0).line_rate_mbps() == 5000.0

    def test_qp_cache_no_misses_within_capacity(self):
        cache = QpCacheModel(capacity=56)
        assert cache.miss_probability(56) == 0.0
        assert cache.miss_probability(10) == 0.0

    def test_qp_cache_misses_grow_past_capacity(self):
        cache = QpCacheModel(capacity=56)
        p70 = cache.miss_probability(70)
        p100 = cache.miss_probability(100)
        assert 0 < p70 < p100 < 1
        assert cache.expected_overhead_ns(100) > 0

    def test_invalid_parameters(self):
        with pytest.raises(ConfigurationError):
            RNic(bandwidth_gbps=0)
        with pytest.raises(ConfigurationError):
            QpCacheModel(capacity=0)
        with pytest.raises(ConfigurationError):
            RNic().serialization_ns(-1)
