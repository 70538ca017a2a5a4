"""Span lifecycle: stages, nesting, tiling, LIFO enforcement, tracer state."""

import threading

import pytest

from repro.errors import ObservabilityError
from repro.obs import ManualClock, SimClock, Tracer, UNTRACKED_STAGE, WallClock


def make_tracer(start_ns: int = 0):
    clock = ManualClock(start_ns)
    return Tracer(clock=clock), clock


class TestStageLifecycle:
    def test_simple_stage_sequence(self):
        tracer, clock = make_tracer()
        trace = tracer.start("get", client_id=7)
        with trace.stage("encrypt"):
            clock.advance(100)
        with trace.stage("write"):
            clock.advance(50)
        trace.finish()
        assert trace.finished
        assert trace.total_ns == 150
        assert trace.stage_names() == ["encrypt", "write"]
        assert trace.attrs == {"client_id": 7}

    def test_tiling_invariant_with_gaps(self):
        tracer, clock = make_tracer()
        trace = tracer.start("get")
        clock.advance(10)  # untimed work before the first stage
        with trace.stage("a"):
            clock.advance(100)
        clock.advance(30)  # untimed gap between stages
        with trace.stage("b"):
            clock.advance(50)
        clock.advance(5)  # trailing untimed work
        trace.finish()
        tops = trace.top_level_stages()
        assert sum(s.duration_ns for s in tops) == trace.total_ns == 195
        names = trace.stage_names(named_only=False)
        assert names == [UNTRACKED_STAGE, "a", UNTRACKED_STAGE, "b", UNTRACKED_STAGE]

    def test_nested_stages_do_not_break_tiling(self):
        tracer, clock = make_tracer()
        trace = tracer.start("put")
        with trace.stage("outer"):
            clock.advance(10)
            with trace.stage("inner"):
                clock.advance(20)
            clock.advance(5)
        trace.finish()
        tops = trace.top_level_stages()
        assert [s.name for s in tops] == ["outer"]
        assert sum(s.duration_ns for s in tops) == trace.total_ns == 35
        inner = [s for s in trace.stages if s.depth == 1]
        assert len(inner) == 1 and inner[0].duration_ns == 20

    def test_out_of_order_close_rejected(self):
        tracer, clock = make_tracer()
        trace = tracer.start("get")
        outer = trace.stage("outer").__enter__()
        trace.stage("inner").__enter__()
        with pytest.raises(ObservabilityError, match="out-of-order"):
            trace.close_stage(outer)

    def test_close_with_nothing_open_rejected(self):
        tracer, clock = make_tracer()
        trace = tracer.start("get")
        with trace.stage("a") as stage:
            pass
        with pytest.raises(ObservabilityError, match="no stage open"):
            trace.close_stage(stage)

    def test_finish_with_open_stage_rejected(self):
        tracer, clock = make_tracer()
        trace = tracer.start("get")
        trace.stage("still-open").__enter__()
        with pytest.raises(ObservabilityError, match="open stages"):
            trace.finish()

    def test_double_finish_rejected(self):
        tracer, _ = make_tracer()
        trace = tracer.start("get")
        trace.finish()
        with pytest.raises(ObservabilityError, match="already finished"):
            trace.finish()

    def test_stage_on_finished_trace_rejected(self):
        tracer, _ = make_tracer()
        trace = tracer.start("get")
        trace.finish()
        with pytest.raises(ObservabilityError, match="finished trace"):
            trace.stage("late")

    def test_open_stage_duration_raises(self):
        tracer, _ = make_tracer()
        trace = tracer.start("get")
        stage = trace.stage("open").__enter__()
        with pytest.raises(ObservabilityError, match="still open"):
            stage.duration_ns

    def test_context_manager_finishes_and_aborts(self):
        tracer, clock = make_tracer()
        with tracer.start("ok") as trace:
            with trace.stage("s"):
                clock.advance(1)
        assert trace.finished and tracer.last is trace
        with pytest.raises(RuntimeError):
            with tracer.start("boom"):
                raise RuntimeError("x")
        assert tracer.aborted_total == 1
        failed = tracer.last  # a failed record is kept, with its status
        assert failed is not trace and failed.op == "boom"
        assert failed.status == "error:RuntimeError" and trace.status == "ok"


class TestTracer:
    def test_only_one_current_trace(self):
        tracer, _ = make_tracer()
        tracer.start("get")
        with pytest.raises(ObservabilityError, match="still active"):
            tracer.start("put")

    def test_stage_noop_without_current_trace(self):
        tracer, _ = make_tracer()
        with tracer.stage("orphan") as stage:
            assert stage is None
        assert tracer.started_total == 0

    def test_abort_clears_current(self):
        tracer, _ = make_tracer()
        trace = tracer.start("get")
        trace.stage("open").__enter__()
        trace.finish("error:RuntimeError")
        assert tracer.current is None
        assert tracer.aborted_total == 1
        assert tracer.finished == [trace]  # kept, minus the open stage
        assert trace.stage_names() == []

    def test_capacity_bounds_finished_buffer(self):
        tracer, clock = make_tracer()
        tracer.capacity = 4
        for i in range(10):
            with tracer.start("op", index=i):
                clock.advance(1)
        assert len(tracer.finished) == 4
        assert tracer.finished_total == 10
        assert tracer.dropped_total > 0
        assert [t.attrs["index"] for t in tracer.finished] == [6, 7, 8, 9]

    def test_current_trace_is_thread_local(self):
        tracer, clock = make_tracer()
        tracer.start("main-op")
        seen = {}

        def other():
            seen["current"] = tracer.current
            with tracer.stage("no-op") as stage:
                seen["stage"] = stage

        thread = threading.Thread(target=other)
        thread.start()
        thread.join()
        assert seen == {"current": None, "stage": None}
        assert tracer.current is not None

    def test_bad_capacity_rejected(self):
        with pytest.raises(ObservabilityError):
            Tracer(capacity=0)

    def test_clear_keeps_counters(self):
        tracer, clock = make_tracer()
        with tracer.start("op"):
            clock.advance(1)
        tracer.clear()
        assert tracer.finished == [] and tracer.finished_total == 1


class TestClocks:
    def test_wall_clock_monotone(self):
        clock = WallClock()
        a, b = clock.now_ns(), clock.now_ns()
        assert b >= a

    def test_sim_clock_reads_simulator_now(self):
        class FakeSim:
            now = 1234

        assert SimClock(FakeSim()).now_ns() == 1234

    def test_manual_clock(self):
        clock = ManualClock(5)
        assert clock.now_ns() == 5
        assert clock.advance(10) == 15
        with pytest.raises(ObservabilityError):
            clock.advance(-1)
        with pytest.raises(ObservabilityError):
            ManualClock(-1)
