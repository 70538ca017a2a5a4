"""A read-write lock with writer preference.

Precursor's in-enclave hash table is "read-write locked with a completely
in-enclave mechanism" (paper §4) -- taking an OS mutex would require an
ocall, so the lock must live in trusted memory.  In this reproduction the
lock is a real ``threading``-based RW lock usable by multi-threaded
functional servers, and it exposes counters that tests and the simulator use
to reason about contention.
"""

from __future__ import annotations

import threading

from repro.errors import PrecursorError

__all__ = ["ReadWriteLock"]


class _ReadSide:
    """``with lock.read():`` -- the read side of a :class:`ReadWriteLock`.

    Each lock holds one guard per side for its whole life, and a guard's
    ``__enter__``/``__exit__`` *are* the acquire and release, so a
    ``with`` block costs two calls beyond the one it guards.
    """

    __slots__ = ("_rw",)

    def __init__(self, rw: "ReadWriteLock") -> None:
        self._rw = rw

    def __enter__(self) -> None:
        """Block until no writer is active or waiting, then enter."""
        rw = self._rw
        with rw._lock:
            if rw._active_writer or rw._waiting_writers > 0:
                rw._waiting_readers += 1
                while rw._active_writer or rw._waiting_writers > 0:
                    rw._readers_ok.wait()
                rw._waiting_readers -= 1
            rw._active_readers += 1
            rw.read_acquisitions += 1

    def __exit__(self, exc_type=None, exc=None, tb=None) -> bool:
        """Leave the read side; wakes a waiting writer when last out."""
        rw = self._rw
        with rw._lock:
            if rw._active_readers <= 0:
                raise PrecursorError("release_read without acquire_read")
            rw._active_readers -= 1
            if rw._active_readers == 0 and rw._waiting_writers > 0:
                rw._writers_ok.notify()
        return False


class _WriteSide:
    """``with lock.write():`` -- the write side, shaped as :class:`_ReadSide`."""

    __slots__ = ("_rw",)

    def __init__(self, rw: "ReadWriteLock") -> None:
        self._rw = rw

    def __enter__(self) -> None:
        """Block until exclusive, then enter."""
        rw = self._rw
        with rw._lock:
            rw._waiting_writers += 1
            while rw._active_writer or rw._active_readers > 0:
                rw._writers_ok.wait()
            rw._waiting_writers -= 1
            rw._active_writer = True
            rw.write_acquisitions += 1

    def __exit__(self, exc_type=None, exc=None, tb=None) -> bool:
        """Leave the write side; prefers waking writers over readers."""
        rw = self._rw
        with rw._lock:
            if not rw._active_writer:
                raise PrecursorError("release_write without acquire_write")
            rw._active_writer = False
            if rw._waiting_writers > 0:
                rw._writers_ok.notify()
            elif rw._waiting_readers > 0:
                rw._readers_ok.notify_all()
        return False


class ReadWriteLock:
    """Multiple concurrent readers, exclusive writers, writer preference."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._readers_ok = threading.Condition(self._lock)
        self._writers_ok = threading.Condition(self._lock)
        self._active_readers = 0
        self._active_writer = False
        self._waiting_writers = 0
        # Waiting readers are counted so that a release wakes a
        # condition only when someone waits on it.
        self._waiting_readers = 0
        #: Total acquisitions, for contention diagnostics.
        self.read_acquisitions = 0
        self.write_acquisitions = 0
        self._read_side = _ReadSide(self)
        self._write_side = _WriteSide(self)

    def acquire_read(self) -> None:
        """Block until no writer is active or waiting, then enter."""
        self._read_side.__enter__()

    def release_read(self) -> None:
        """Leave the read side; wakes a waiting writer when last out."""
        self._read_side.__exit__()

    def acquire_write(self) -> None:
        """Block until exclusive, then enter."""
        self._write_side.__enter__()

    def release_write(self) -> None:
        """Leave the write side; prefers waking writers over readers."""
        self._write_side.__exit__()

    def read(self) -> _ReadSide:
        """``with lock.read(): ...`` context manager."""
        return self._read_side

    def write(self) -> _WriteSide:
        """``with lock.write(): ...`` context manager."""
        return self._write_side
