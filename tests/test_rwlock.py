"""Read-write lock: exclusion, writer preference, real-thread smoke tests."""

import threading
import time

import pytest

from repro.errors import PrecursorError
from repro.htable import ReadWriteLock


class TestBasics:
    def test_read_then_release(self):
        lock = ReadWriteLock()
        lock.acquire_read()
        lock.release_read()
        assert lock.read_acquisitions == 1

    def test_write_then_release(self):
        lock = ReadWriteLock()
        lock.acquire_write()
        lock.release_write()
        assert lock.write_acquisitions == 1

    def test_multiple_concurrent_readers(self):
        lock = ReadWriteLock()
        lock.acquire_read()
        lock.acquire_read()  # must not deadlock
        lock.release_read()
        lock.release_read()

    def test_release_without_acquire_raises(self):
        lock = ReadWriteLock()
        with pytest.raises(PrecursorError):
            lock.release_read()
        with pytest.raises(PrecursorError):
            lock.release_write()

    def test_context_managers(self):
        lock = ReadWriteLock()
        with lock.read():
            pass
        with lock.write():
            pass
        assert lock.read_acquisitions == 1
        assert lock.write_acquisitions == 1


class TestExclusion:
    def test_writer_excludes_writer(self):
        lock = ReadWriteLock()
        counter = {"value": 0, "max_inside": 0, "inside": 0}

        def writer():
            for _ in range(200):
                with lock.write():
                    counter["inside"] += 1
                    counter["max_inside"] = max(
                        counter["max_inside"], counter["inside"]
                    )
                    counter["value"] += 1
                    counter["inside"] -= 1

        threads = [threading.Thread(target=writer) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert counter["value"] == 800
        assert counter["max_inside"] == 1

    def test_writer_excludes_readers(self):
        lock = ReadWriteLock()
        state = {"writing": False, "violations": 0}

        def writer():
            for _ in range(100):
                with lock.write():
                    state["writing"] = True
                    time.sleep(0)
                    state["writing"] = False

        def reader():
            for _ in range(100):
                with lock.read():
                    if state["writing"]:
                        state["violations"] += 1

        threads = [threading.Thread(target=writer)] + [
            threading.Thread(target=reader) for _ in range(3)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert state["violations"] == 0

    def test_waiting_writer_blocks_new_readers(self):
        """Writer preference: once a writer waits, new readers queue."""
        lock = ReadWriteLock()
        lock.acquire_read()
        order = []

        def writer():
            lock.acquire_write()
            order.append("w")
            lock.release_write()

        def late_reader():
            lock.acquire_read()
            order.append("r")
            lock.release_read()

        wt = threading.Thread(target=writer)
        wt.start()
        # Let the writer register as waiting.
        for _ in range(1000):
            if lock._waiting_writers:
                break
            time.sleep(0.001)
        rt = threading.Thread(target=late_reader)
        rt.start()
        time.sleep(0.01)
        lock.release_read()  # initial reader leaves; writer should go first
        wt.join(timeout=5)
        rt.join(timeout=5)
        assert order[0] == "w"


class TestWakeUps:
    def test_mixed_storm_loses_no_waiter(self):
        """A release wakes a condition only when someone waits on it, so
        a waiter it failed to count would sleep forever.  Readers and
        writers contend under a forced-short switch interval; every
        thread must finish, writers stay exclusive, and no update is
        lost."""
        import sys

        lock = ReadWriteLock()
        state = {"value": 0, "writing": 0, "violations": 0}

        def writer():
            for _ in range(300):
                with lock.write():
                    state["writing"] += 1
                    state["value"] += 1
                    state["writing"] -= 1

        def reader():
            for _ in range(300):
                with lock.read():
                    if state["writing"]:
                        state["violations"] += 1

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [
                threading.Thread(target=role, daemon=True)
                for role in [writer] * 4 + [reader] * 4
            ]
            for thread in threads:
                thread.start()
            deadline = time.monotonic() + 30
            for thread in threads:
                thread.join(timeout=max(0.0, deadline - time.monotonic()))
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert state["value"] == 4 * 300
        assert state["violations"] == 0
        assert lock.write_acquisitions == 4 * 300
        assert lock.read_acquisitions == 4 * 300
