"""Key choosers, value synthesis and operation streams.

Key popularity follows either the uniform distribution (the paper
"concentrate[s] on the uniform YCSB workload", §5.1) or YCSB's scrambled
zipfian (provided for sensitivity studies).  Everything is deterministic
under a seed so experiments are exactly repeatable.
"""

from __future__ import annotations

import hashlib
import random
from typing import Iterator, Tuple

from repro.core.protocol import OpCode
from repro.errors import ConfigurationError
from repro.ycsb.workload import WorkloadSpec

__all__ = [
    "KeyChooser",
    "UniformChooser",
    "ZipfianChooser",
    "LatestChooser",
    "make_key",
    "make_value",
    "stream_seed",
    "OperationStream",
]


def stream_seed(seed: int, client_id: int = 0) -> int:
    """Effective RNG seed for one client's operation stream.

    Multi-client runs (e.g. one router per simulated YCSB process, see
    :mod:`repro.shard`) need *disjoint but reproducible* streams per
    client.  ``client_id == 0`` maps to ``seed`` unchanged, so
    single-client runs stay bit-identical across releases; any other id
    derives an independent 64-bit seed from the pair.
    """
    if client_id == 0:
        return seed
    digest = hashlib.sha256(f"stream:{seed}:{client_id}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


def make_key(index: int, key_size: int = 16) -> bytes:
    """Deterministic key for record ``index`` (YCSB's ``user<hash>``)."""
    digest = hashlib.sha256(f"user{index}".encode()).hexdigest()
    key = f"u{digest}".encode()[:key_size]
    return key.ljust(key_size, b"0")


def make_value(index: int, value_size: int, version: int = 0) -> bytes:
    """Deterministic value bytes for record ``index`` at ``version``.

    Repeating a short digest keeps generation O(size) with recognisable
    structure for debugging.
    """
    if value_size < 1:
        raise ConfigurationError("value_size must be positive")
    seed = hashlib.sha256(f"val{index}:{version}".encode()).digest()
    repeats = (value_size + len(seed) - 1) // len(seed)
    return (seed * repeats)[:value_size]


class KeyChooser:
    """Base class: picks record indices in ``[0, record_count)``."""

    def __init__(self, record_count: int, seed: int = 0):
        if record_count < 1:
            raise ConfigurationError("record_count must be positive")
        self.record_count = record_count
        self._rng = random.Random(seed)

    def next_index(self) -> int:
        """Draw the next record index."""
        raise NotImplementedError


class UniformChooser(KeyChooser):
    """Every record equally likely (the paper's configuration)."""

    def next_index(self) -> int:
        """Draw uniformly from the key space."""
        return self._rng.randrange(self.record_count)


class ZipfianChooser(KeyChooser):
    """YCSB's scrambled-zipfian: skewed popularity, theta ~ 0.99.

    Implementation follows Gray et al.'s rejection-free method as used in
    the YCSB source, with FNV scrambling so hot keys are spread across the
    key space.
    """

    def __init__(self, record_count: int, seed: int = 0, theta: float = 0.99):
        super().__init__(record_count, seed)
        if not 0 < theta < 1:
            raise ConfigurationError(f"theta must be in (0, 1): {theta}")
        self.theta = theta
        self._zetan = self._zeta(record_count, theta)
        self._zeta2 = self._zeta(2, theta)
        self._alpha = 1.0 / (1.0 - theta)
        self._eta = (1 - (2.0 / record_count) ** (1 - theta)) / (
            1 - self._zeta2 / self._zetan
        )

    @staticmethod
    def _zeta(n: int, theta: float) -> float:
        return sum(1.0 / (i ** theta) for i in range(1, n + 1))

    def next_rank(self) -> int:
        """Draw a popularity rank (0 = hottest), unscrambled."""
        u = self._rng.random()
        uz = u * self._zetan
        if uz < 1.0:
            rank = 0
        elif uz < 1.0 + 0.5 ** self.theta:
            rank = 1
        else:
            rank = int(
                self.record_count
                * (self._eta * u - self._eta + 1) ** self._alpha
            )
            rank = min(rank, self.record_count - 1)
        return rank

    def next_index(self) -> int:
        """Draw a scrambled-zipfian record index."""
        # Scramble so popular ranks are spread over the key space.
        scrambled = (self.next_rank() * 0x9E3779B97F4A7C15) & ((1 << 64) - 1)
        return scrambled % self.record_count


class LatestChooser(KeyChooser):
    """YCSB's "latest" distribution: recently inserted records are hot.

    Implemented as a zipfian over recency rank -- rank 0 is the newest
    record.  Callers advance :attr:`newest` as the dataset grows (the
    operation stream does this automatically when it emits inserts).
    """

    def __init__(self, record_count: int, seed: int = 0, theta: float = 0.99):
        super().__init__(record_count, seed)
        self._zipf = ZipfianChooser(record_count, seed, theta)
        #: Index of the newest record; popularity decays behind it.
        self.newest = record_count - 1

    def next_index(self) -> int:
        """Draw an index skewed towards the newest record."""
        rank = self._zipf.next_rank()
        return (self.newest - rank) % self.record_count


def _make_chooser(spec: WorkloadSpec, seed: int) -> KeyChooser:
    if spec.distribution == "uniform":
        return UniformChooser(spec.record_count, seed)
    if spec.distribution == "latest":
        return LatestChooser(spec.record_count, seed)
    return ZipfianChooser(spec.record_count, seed)


class OperationStream:
    """Deterministic stream of (opcode, key, value) operations.

    The stream is a pure function of ``(spec, seed, client_id)``: two
    clients sharing a seed but holding different ids draw independent
    key/op sequences (see :func:`stream_seed`).
    """

    def __init__(self, spec: WorkloadSpec, seed: int = 0, client_id: int = 0):
        self.spec = spec
        effective = stream_seed(seed, client_id)
        self._chooser = _make_chooser(spec, effective)
        self._rng = random.Random(effective ^ 0x5BD1E995)
        self._versions = {}

    def load_phase(self) -> Iterator[Tuple[bytes, bytes]]:
        """The warm-up inserts: one (key, value) per record."""
        spec = self.spec
        for index in range(spec.record_count):
            yield (
                make_key(index, spec.key_size),
                make_value(index, spec.value_size),
            )

    def __iter__(self) -> Iterator[Tuple[OpCode, bytes, bytes]]:
        while True:
            yield self.next_operation()

    def next_operation(self) -> Tuple[OpCode, bytes, bytes]:
        """Draw one operation according to the mix."""
        spec = self.spec
        index = self._chooser.next_index()
        key = make_key(index, spec.key_size)
        if self._rng.random() < spec.read_fraction:
            return OpCode.GET, key, b""
        version = self._versions.get(index, 0) + 1
        self._versions[index] = version
        return (
            OpCode.PUT,
            key,
            make_value(index, spec.value_size, version),
        )
