"""Robin Hood hash table with open addressing and backward-shift deletion.

This is the enclave-resident table of Precursor (paper §4): it stores the
security metadata -- ``key -> (K_operation, pointer-to-untrusted-payload,
...)`` -- and was chosen by the authors because open addressing avoids the
pointer chasing (and TLB misses) of chained tables, which matters inside an
enclave where every page touch can cost an EPC fault.

Robin Hood hashing keeps probe-sequence lengths short and uniform by
"taking from the rich": on insertion, an element that has probed further
than the resident element steals its slot, and the displaced element
continues probing.  Deletion uses backward shifting, which preserves the
invariant without tombstones.

The table grows incrementally (doubling) so the initial footprint is tiny --
this is what Table 1 measures: Precursor starts at ~0.2 MiB of trusted
memory versus ShieldStore's statically allocated ~68 MiB.
"""

from __future__ import annotations

from typing import Any, Iterator, List, Optional, Tuple

from repro.errors import ConfigurationError

__all__ = ["RobinHoodTable"]

#: What :meth:`RobinHoodTable._insert_hashed` displaces when it creates
#: a new entry.
_MISSING = object()

_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3
_MASK64 = (1 << 64) - 1


def _fnv1a(key: bytes) -> int:
    """FNV-1a 64-bit hash; simple, fast and enclave-friendly."""
    h = _FNV_OFFSET
    for byte in key:
        h = ((h ^ byte) * _FNV_PRIME) & _MASK64
    return h


class RobinHoodTable:
    """Open-addressing hash map from ``bytes`` keys to arbitrary values.

    Parameters
    ----------
    initial_capacity:
        Number of slots allocated up front (rounded up to a power of two).
    max_load:
        Resize threshold; Robin Hood tables stay fast up to high loads, the
        default 0.85 matches common practice.
    """

    __slots__ = ("_keys", "_values", "_hashes", "_count", "_capacity",
                 "_max_load", "probe_stats")

    _EMPTY = None

    def __init__(self, initial_capacity: int = 64, max_load: float = 0.85):
        if initial_capacity < 1:
            raise ConfigurationError(
                f"capacity must be >= 1, got {initial_capacity}"
            )
        if not 0.1 <= max_load < 1.0:
            raise ConfigurationError(
                f"max_load must be in [0.1, 1.0), got {max_load}"
            )
        capacity = 1
        while capacity < initial_capacity:
            capacity *= 2
        self._capacity = capacity
        self._keys: List[Optional[bytes]] = [None] * capacity
        self._values: List[Any] = [None] * capacity
        self._hashes: List[int] = [0] * capacity
        self._count = 0
        self._max_load = max_load
        #: Total probes performed (diagnostics for probe-length tests).
        self.probe_stats = 0

    # -- internal helpers --------------------------------------------------

    def _probe_distance(self, hash_value: int, slot: int) -> int:
        return (slot - hash_value) & (self._capacity - 1)

    def _grow(self) -> None:
        old_keys, old_values, old_hashes = self._keys, self._values, self._hashes
        self._capacity *= 2
        self._keys = [None] * self._capacity
        self._values = [None] * self._capacity
        self._hashes = [0] * self._capacity
        self._count = 0
        for key, value, h in zip(old_keys, old_values, old_hashes):
            if key is not None:
                self._insert_hashed(key, value, h)

    def _insert_hashed(self, key: bytes, value: Any, h: int) -> Any:
        """Insert with known hash; returns the value replaced, or
        :data:`_MISSING` when a new entry was created."""
        mask = self._capacity - 1
        slot = h & mask
        distance = 0
        keys, values, hashes = self._keys, self._values, self._hashes
        while True:
            resident = keys[slot]
            if resident is None:
                keys[slot] = key
                values[slot] = value
                hashes[slot] = h
                self._count += 1
                return _MISSING
            if resident == key and hashes[slot] == h:
                old, values[slot] = values[slot], value
                return old
            resident_distance = (slot - hashes[slot]) & mask
            if resident_distance < distance:
                # Rob the rich: swap with the resident and keep probing.
                keys[slot], key = key, keys[slot]
                values[slot], value = value, values[slot]
                hashes[slot], h = h, hashes[slot]
                distance = resident_distance
            slot = (slot + 1) & mask
            distance += 1
            self.probe_stats += 1

    # -- public API --------------------------------------------------------

    def put(self, key: bytes, value: Any, *, swap: bool = False) -> Any:
        """Insert or update; returns True when a *new* entry was created.

        With ``swap=True`` it returns the value it replaced instead, or
        None when it created a new entry: one probe serves a caller that
        must release what the new value displaces.
        """
        if not isinstance(key, (bytes, bytearray)):
            raise ConfigurationError("keys must be bytes")
        if (self._count + 1) > self._max_load * self._capacity:
            self._grow()
        old = self._insert_hashed(bytes(key), value, _fnv1a(key))
        if swap:
            return None if old is _MISSING else old
        return old is _MISSING

    def get(self, key: bytes) -> Any:
        """Return the value for ``key`` or raise ``KeyError``."""
        slot = self._find_slot(key)
        if slot is None:
            raise KeyError(key)
        return self._values[slot]

    def _find_slot(self, key: bytes) -> Optional[int]:
        h = _fnv1a(key)
        mask = self._capacity - 1
        slot = h & mask
        distance = 0
        keys, hashes = self._keys, self._hashes
        while True:
            resident = keys[slot]
            if resident is None:
                return None
            if hashes[slot] == h and resident == key:
                return slot
            if self._probe_distance(hashes[slot], slot) < distance:
                # Robin Hood invariant: key would have stolen this slot.
                return None
            slot = (slot + 1) & mask
            distance += 1

    def contains(self, key: bytes) -> bool:
        """Membership test without raising."""
        return self._find_slot(key) is not None

    __contains__ = contains

    def delete(self, key: bytes) -> Any:
        """Remove and return the value; raises ``KeyError`` if absent.

        Uses backward-shift deletion: subsequent displaced entries slide
        back one slot, so no tombstones accumulate.
        """
        slot = self._find_slot(key)
        if slot is None:
            raise KeyError(key)
        value = self._values[slot]
        mask = self._capacity - 1
        keys, values, hashes = self._keys, self._values, self._hashes
        current = slot
        while True:
            nxt = (current + 1) & mask
            if keys[nxt] is None or self._probe_distance(hashes[nxt], nxt) == 0:
                keys[current] = None
                values[current] = None
                hashes[current] = 0
                break
            keys[current] = keys[nxt]
            values[current] = values[nxt]
            hashes[current] = hashes[nxt]
            current = nxt
        self._count -= 1
        return value

    def __len__(self) -> int:
        return self._count

    @property
    def capacity(self) -> int:
        """Current number of allocated slots."""
        return self._capacity

    @property
    def load_factor(self) -> float:
        """Fraction of slots occupied."""
        return self._count / self._capacity

    def items(self) -> Iterator[Tuple[bytes, Any]]:
        """Iterate over (key, value) pairs in slot order."""
        for key, value in zip(self._keys, self._values):
            if key is not None:
                yield key, value

    def max_probe_distance(self) -> int:
        """Longest probe-sequence length currently in the table."""
        worst = 0
        for slot, key in enumerate(self._keys):
            if key is not None:
                worst = max(
                    worst, self._probe_distance(self._hashes[slot], slot)
                )
        return worst
