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


class _Guard:
    """``with`` support for one side of a :class:`ReadWriteLock`.

    Each lock holds one guard per side for its whole life, so a
    ``with lock.read():`` builds no generator and no context object.
    """

    __slots__ = ("_acquire", "_release")

    def __init__(self, acquire, release) -> None:
        self._acquire = acquire
        self._release = release

    def __enter__(self) -> None:
        self._acquire()

    def __exit__(self, exc_type, exc, tb) -> bool:
        self._release()
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
        self._read_guard = _Guard(self.acquire_read, self.release_read)
        self._write_guard = _Guard(self.acquire_write, self.release_write)

    def acquire_read(self) -> None:
        """Block until no writer is active or waiting, then enter."""
        with self._lock:
            if self._active_writer or self._waiting_writers > 0:
                self._waiting_readers += 1
                while self._active_writer or self._waiting_writers > 0:
                    self._readers_ok.wait()
                self._waiting_readers -= 1
            self._active_readers += 1
            self.read_acquisitions += 1

    def release_read(self) -> None:
        """Leave the read side; wakes a waiting writer when last out."""
        with self._lock:
            if self._active_readers <= 0:
                raise PrecursorError("release_read without acquire_read")
            self._active_readers -= 1
            if self._active_readers == 0 and self._waiting_writers > 0:
                self._writers_ok.notify()

    def acquire_write(self) -> None:
        """Block until exclusive, then enter."""
        with self._lock:
            self._waiting_writers += 1
            while self._active_writer or self._active_readers > 0:
                self._writers_ok.wait()
            self._waiting_writers -= 1
            self._active_writer = True
            self.write_acquisitions += 1

    def release_write(self) -> None:
        """Leave the write side; prefers waking writers over readers."""
        with self._lock:
            if not self._active_writer:
                raise PrecursorError("release_write without acquire_write")
            self._active_writer = False
            if self._waiting_writers > 0:
                self._writers_ok.notify()
            elif self._waiting_readers > 0:
                self._readers_ok.notify_all()

    def read(self) -> _Guard:
        """``with lock.read(): ...`` context manager."""
        return self._read_guard

    def write(self) -> _Guard:
        """``with lock.write(): ...`` context manager."""
        return self._write_guard
