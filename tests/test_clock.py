import pytest

from helpers import advance, trace_events
from udigate.clock import SystemClock, Tracer, VirtualClock, fmt_time


def test_advance_and_now():
    c = VirtualClock()
    assert c.now() == 0.0
    assert c.run_until(1.5) == 0
    assert c.now() == 1.5
    assert c.run_until(1.0) == 0 and c.now() == 1.5  # never backwards


def test_events_fire_in_time_order():
    c = VirtualClock()
    fired = []
    c.schedule(3.0, lambda: fired.append("c"))
    c.schedule(1.0, lambda: fired.append("a"))
    c.schedule(2.0, lambda: fired.append("b"))
    c.run_until_idle()
    assert fired == ["a", "b", "c"]
    assert c.now() == 3.0


def test_same_time_orders_by_priority_then_seq():
    c = VirtualClock()
    fired = []
    c.schedule(1.0, lambda: fired.append("late"), priority=20)
    c.schedule(1.0, lambda: fired.append("first"), priority=5)
    c.schedule(1.0, lambda: fired.append("second"), priority=5)
    c.run_until_idle()
    assert fired == ["first", "second", "late"]


def test_cancel():
    c = VirtualClock()
    fired = []
    h = c.schedule(1.0, lambda: fired.append("x"))
    h.cancel()
    c.schedule(2.0, lambda: fired.append("y"))
    c.run_until_idle()
    assert fired == ["y"]


def test_run_until_stops_at_deadline():
    c = VirtualClock()
    fired = []
    c.schedule(1.0, lambda: fired.append(1))
    c.schedule(5.0, lambda: fired.append(5))
    c.run_until(2.5)
    assert fired == [1]
    assert c.now() == 2.5
    c.run_until_idle()
    assert fired == [1, 5]


def test_events_scheduled_during_run_execute():
    c = VirtualClock()
    fired = []

    def outer():
        fired.append("outer")
        c.schedule(1.0, lambda: fired.append("inner"))

    c.schedule(1.0, outer)
    c.run_until_idle()
    assert fired == ["outer", "inner"]
    assert c.now() == 2.0


def test_system_clock_moves_forward():
    s = SystemClock()
    a = s.now()
    b = s.now()
    assert b >= a


def test_tracer_line_format():
    tr = Tracer()
    tr.emit(1.5, "node/0002", "mount", [("job", "job-0001"), ("n", 3)])
    tr.emit(2.0, "gateway", "sweep")
    assert tr.lines[0] == "1.500000\tnode/0002\tmount\tjob=job-0001 n=3"
    assert tr.lines[1] == "2.000000\tgateway\tsweep\t"
    assert tr.text() == "\n".join(tr.lines) + "\n"


def test_tracer_filter_and_write(tmp_path):
    tr = Tracer()
    tr.emit(0.0, "node/0000", "mount", [("a", 1)])
    tr.emit(1.0, "node/0001", "unmount")
    tr.emit(2.0, "gateway", "mount")
    assert len(trace_events(tr, "mount")) == 2
    assert len(trace_events(tr, "mount", entity_prefix="node/")) == 1
    assert trace_events(tr, entity_prefix="node/0001") == [(1.0, "node/0001", "unmount", "")]
    out = tmp_path / "trace.tsv"
    tr.write(str(out))
    assert out.read_text() == tr.text()


def test_fmt_time_is_six_decimal_places():
    assert fmt_time(0) == "0.000000"
    assert fmt_time(1.23456789) == "1.234568"


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf"), -1.0])
def test_schedule_refuses_non_finite_or_negative_delay(bad):
    c = VirtualClock()
    fired = []
    c.schedule(0.5, lambda: fired.append(0.5))
    with pytest.raises(ValueError):
        c.schedule(bad, lambda: fired.append("bad"))
    c.schedule(1.0, lambda: fired.append(1.0))
    c.run_until_idle()
    assert fired == [0.5, 1.0] and c.now() == 1.0


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_schedule_at_refuses_non_finite_time(bad):
    c = VirtualClock()
    with pytest.raises(ValueError):
        c.schedule_at(bad, lambda: None)
    assert c.run_until_idle() == 0 and c.now() == 0.0


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_run_until_refuses_non_finite_deadline(bad):
    c = VirtualClock()
    fired = []
    c.schedule(0.5, lambda: fired.append(0.5))
    with pytest.raises(ValueError):
        c.run_until(bad)
    assert fired == [] and c.now() == 0.0
    # the clock still schedules and runs as before
    c.schedule(1.0, lambda: fired.append(1.0))
    assert c.run_until(2.0) == 2
    assert fired == [0.5, 1.0] and c.now() == 2.0


def test_both_runs_share_the_event_budget(monkeypatch):
    monkeypatch.setattr("udigate.clock.MAX_EVENTS", 3)
    for run in (VirtualClock.run_until_idle, lambda c: c.run_until(10.0)):
        c = VirtualClock()
        for i in range(4):
            c.schedule(float(i), lambda: None)
        with pytest.raises(RuntimeError, match="event budget"):
            run(c)


def test_advance_helper_refuses_a_due_event():
    c = VirtualClock()
    c.schedule(1.0, lambda: None)
    with pytest.raises(AssertionError):
        advance(c, 2.0)


def test_delay_that_overflows_time_is_refused():
    c = VirtualClock()
    advance(c, 1e308)
    with pytest.raises(ValueError):
        c.schedule(1e308, lambda: None)
