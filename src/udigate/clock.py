"""Virtual time, the event loop, and the trace writer.

The simulator runs on a discrete-event clock: events are (time, priority, seq)
ordered, so two runs with the same seed execute the same events in the same
order and produce byte-identical traces. seq is the global scheduling counter,
it breaks ties deterministically without comparing callbacks.
"""
from __future__ import annotations

import heapq
import time as _time
from typing import Callable, Iterable, Optional

MAX_EVENTS = 10_000_000  # run_until_idle's budget; more means a runaway loop


class SystemClock:
    """Wall clock, used by the real-service runtime."""

    def now(self) -> float:
        return _time.time()


class EventHandle:
    __slots__ = ("time", "priority", "seq", "fn", "cancelled")

    def __init__(self, time: float, priority: int, seq: int, fn: Callable[[], None]):
        self.time = time
        self.priority = priority
        self.seq = seq
        self.fn = fn
        self.cancelled = False

    def cancel(self) -> None:
        self.cancelled = True

    def __lt__(self, other: "EventHandle") -> bool:
        return (self.time, self.priority, self.seq) < (other.time, other.priority, other.seq)


class VirtualClock:
    def __init__(self):
        self._now = 0.0
        self._heap: list[EventHandle] = []
        self._seq = 0

    def now(self) -> float:
        return self._now

    def schedule(self, delay: float, fn: Callable[[], None], priority: int = 10) -> EventHandle:
        if delay < 0:
            raise ValueError(f"negative delay {delay}")
        return self.schedule_at(self._now + delay, fn, priority)

    def schedule_at(self, when: float, fn: Callable[[], None], priority: int = 10) -> EventHandle:
        if when < self._now:
            raise ValueError(f"scheduling into the past: {when} < {self._now}")
        ev = EventHandle(when, priority, self._seq, fn)
        self._seq += 1
        heapq.heappush(self._heap, ev)
        return ev

    def advance(self, dt: float) -> None:
        """Move time forward without running events (used by property drivers)."""
        if dt < 0:
            raise ValueError("cannot advance backwards")
        self._now += dt

    def run_until_idle(self) -> int:
        """Run events in order until the queue drains. Returns events run."""
        ran = 0
        while self._heap:
            ev = heapq.heappop(self._heap)
            if ev.cancelled:
                continue
            if ran >= MAX_EVENTS:
                raise RuntimeError(f"event budget exhausted at t={self._now}")
            self._now = ev.time
            ev.fn()
            ran += 1
        return ran

    def run_until(self, deadline: float) -> int:
        """Run events with time <= deadline, then set now to the deadline."""
        ran = 0
        while self._heap and self._heap[0].time <= deadline:
            ev = heapq.heappop(self._heap)
            if ev.cancelled:
                continue
            self._now = ev.time
            ev.fn()
            ran += 1
        if deadline > self._now:
            self._now = deadline
        return ran


def fmt_time(t: float) -> str:
    return f"{t:.6f}"


class Tracer:
    """Collects tab-separated trace lines: time, entity, event, details.

    details is a single ``k=v`` space-joined field string. Entities embed any
    numeric id zero-padded (node/0007) so text sorts match numeric sorts.
    Absolute filesystem paths must never be traced, they would break
    same-seed byte-identity across runs.
    """

    def __init__(self):
        self.lines: list[str] = []

    def emit(self, t: float, entity: str, event: str, details: Iterable[tuple[str, object]] = ()) -> None:
        body = " ".join(f"{k}={v}" for k, v in details)
        self.lines.append(f"{fmt_time(t)}\t{entity}\t{event}\t{body}")

    def text(self) -> str:
        return "\n".join(self.lines) + ("\n" if self.lines else "")

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.text())

    def events(self, event: Optional[str] = None, entity_prefix: str = "") -> list[tuple[float, str, str, str]]:
        out = []
        for line in self.lines:
            ts, entity, ev, details = line.split("\t", 3)
            if event is not None and ev != event:
                continue
            if entity_prefix and not entity.startswith(entity_prefix):
                continue
            out.append((float(ts), entity, ev, details))
        return out


class NullTracer(Tracer):
    def emit(self, t, entity, event, details=()):  # pragma: no cover - trivial
        pass
