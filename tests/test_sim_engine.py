"""The discrete-event kernel: ordering, events, processes, resources."""

import pytest

from repro.errors import SimulationError
from repro.sim import Resource, Simulator, Store, Timeout


class TestScheduling:
    def test_callbacks_run_in_time_order(self):
        sim = Simulator()
        order = []
        sim.schedule(30, lambda: order.append("c"))
        sim.schedule(10, lambda: order.append("a"))
        sim.schedule(20, lambda: order.append("b"))
        sim.run()
        assert order == ["a", "b", "c"]

    def test_ties_break_fifo(self):
        sim = Simulator()
        order = []
        for tag in "abc":
            sim.schedule(5, lambda t=tag: order.append(t))
        sim.run()
        assert order == ["a", "b", "c"]

    def test_now_advances(self):
        sim = Simulator()
        seen = []
        sim.schedule(42, lambda: seen.append(sim.now))
        sim.run()
        assert seen == [42]
        assert sim.now == 42

    def test_run_until_excludes_boundary(self):
        sim = Simulator()
        fired = []
        sim.schedule(100, lambda: fired.append(1))
        sim.run(until=100)
        assert fired == []
        assert sim.now == 100
        sim.run()
        assert fired == [1]

    def test_negative_delay_rejected(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            sim.schedule(-1, lambda: None)

    def test_peek(self):
        sim = Simulator()
        assert sim.peek() is None
        sim.schedule(7, lambda: None)
        assert sim.peek() == 7


class TestProcesses:
    def test_timeout_sequencing(self):
        sim = Simulator()
        trace = []

        def proc():
            trace.append(sim.now)
            yield Timeout(10)
            trace.append(sim.now)
            yield Timeout(5)
            trace.append(sim.now)

        sim.spawn(proc())
        sim.run()
        assert trace == [0, 10, 15]

    def test_event_wait_and_value(self):
        sim = Simulator()
        evt = sim.event()
        got = []

        def waiter():
            value = yield evt
            got.append((sim.now, value))

        sim.spawn(waiter())
        sim.schedule(25, lambda: evt.succeed("payload"))
        sim.run()
        assert got == [(25, "payload")]

    def test_pretriggered_event_resumes_immediately(self):
        sim = Simulator()
        evt = sim.event()
        evt.succeed(7)
        got = []

        def waiter():
            got.append((yield evt))

        sim.spawn(waiter())
        sim.run()
        assert got == [7]

    def test_event_cannot_succeed_twice(self):
        sim = Simulator()
        evt = sim.event()
        evt.succeed()
        with pytest.raises(SimulationError):
            evt.succeed()

    def test_process_join_returns_value(self):
        sim = Simulator()
        results = []

        def child():
            yield Timeout(30)
            return "done"

        def parent():
            value = yield sim.spawn(child())
            results.append((sim.now, value))

        sim.spawn(parent())
        sim.run()
        assert results == [(30, "done")]

    def test_multiple_waiters_all_wake(self):
        sim = Simulator()
        evt = sim.event()
        woken = []

        def waiter(tag):
            yield evt
            woken.append(tag)

        for tag in range(3):
            sim.spawn(waiter(tag))
        sim.schedule(1, evt.succeed)
        sim.run()
        assert sorted(woken) == [0, 1, 2]

    def test_yielding_garbage_raises(self):
        sim = Simulator()

        def bad():
            yield 42

        sim.spawn(bad())
        with pytest.raises(SimulationError):
            sim.run()

    def test_determinism(self):
        def build_and_run():
            sim = Simulator()
            trace = []

            def proc(tag, delay):
                for _ in range(3):
                    yield Timeout(delay)
                    trace.append((sim.now, tag))

            sim.spawn(proc("a", 7))
            sim.spawn(proc("b", 11))
            sim.run()
            return trace

        assert build_and_run() == build_and_run()


class TestResource:
    def test_capacity_enforced(self):
        sim = Simulator()
        res = Resource(sim, capacity=1)
        timeline = []

        def user(tag):
            grant = res.request()
            yield grant
            timeline.append((sim.now, tag, "in"))
            yield Timeout(10)
            timeline.append((sim.now, tag, "out"))
            res.release()

        sim.spawn(user("a"))
        sim.spawn(user("b"))
        sim.run()
        assert timeline == [
            (0, "a", "in"),
            (10, "a", "out"),
            (10, "b", "in"),
            (20, "b", "out"),
        ]

    def test_queue_length(self):
        sim = Simulator()
        res = Resource(sim, capacity=1)
        res.request()
        res.request()
        assert res.queue_length == 1

    def test_release_without_request_raises(self):
        sim = Simulator()
        res = Resource(sim, capacity=2)
        with pytest.raises(SimulationError):
            res.release()

    def test_bad_capacity(self):
        with pytest.raises(SimulationError):
            Resource(Simulator(), capacity=0)


class TestStore:
    def test_fifo_order(self):
        sim = Simulator()
        store = Store(sim)
        got = []

        def consumer():
            for _ in range(3):
                got.append((yield store.get()))

        sim.spawn(consumer())
        for item in ("x", "y", "z"):
            store.put(item)
        sim.run()
        assert got == ["x", "y", "z"]

    def test_get_blocks_until_put(self):
        sim = Simulator()
        store = Store(sim)
        got = []

        def consumer():
            item = yield store.get()
            got.append((sim.now, item))

        sim.spawn(consumer())
        sim.schedule(50, lambda: store.put("late"))
        sim.run()
        assert got == [(50, "late")]

    def test_try_get_all(self):
        sim = Simulator()
        store = Store(sim)
        store.put(1)
        store.put(2)
        assert store.try_get_all() == [1, 2]
        assert len(store) == 0
