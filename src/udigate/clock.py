"""Virtual time, the event loop, and the trace writer.

The simulator runs on a discrete-event clock: events are (time, priority, seq)
ordered, so two runs with the same seed execute the same events in the same
order and produce byte-identical traces. seq is the global scheduling counter,
it breaks ties deterministically without comparing callbacks.

The heap holds (time, priority, seq, handle) tuples. seq is unique, so heap
order is decided by the first three fields, compared in C, and never
reaches the handle. Times are finite: a NaN or infinite time is refused at
scheduling, since it would have no place in that order, and as a run_until
deadline, since the clock would move to it.
"""
from __future__ import annotations

import heapq
import math
import time as _time
from typing import Callable, Iterable

MAX_EVENTS = 10_000_000  # one run's event budget; more means a runaway loop


class SystemClock:
    """Wall clock, used by the real-service runtime."""

    def now(self) -> float:
        return _time.time()


class EventHandle:
    """A scheduled callback; cancel() makes the loop skip it."""

    __slots__ = ("fn", "cancelled")

    def __init__(self, fn: Callable[[], None]):
        self.fn = fn
        self.cancelled = False

    def cancel(self) -> None:
        self.cancelled = True


class VirtualClock:
    def __init__(self):
        self._now = 0.0
        self._heap: list[tuple[float, int, int, EventHandle]] = []
        self._seq = 0

    def now(self) -> float:
        return self._now

    def schedule(self, delay: float, fn: Callable[[], None], priority: int = 10) -> EventHandle:
        if not 0 <= delay < math.inf:
            raise ValueError(f"delay must be finite and >= 0, got {delay}")
        return self.schedule_at(self._now + delay, fn, priority)

    def schedule_at(self, when: float, fn: Callable[[], None], priority: int = 10) -> EventHandle:
        if not math.isfinite(when):
            raise ValueError(f"event time must be finite, got {when}")
        if when < self._now:
            raise ValueError(f"scheduling into the past: {when} < {self._now}")
        ev = EventHandle(fn)
        heapq.heappush(self._heap, (when, priority, self._seq, ev))
        self._seq += 1
        return ev

    def _run(self, deadline: float) -> int:
        """The one event loop: run events with time <= deadline in order,
        skipping cancelled ones. Returns events run."""
        ran = 0
        heap, pop = self._heap, heapq.heappop
        while heap and heap[0][0] <= deadline:
            when, _, _, ev = pop(heap)
            if ev.cancelled:
                continue
            if ran >= MAX_EVENTS:
                raise RuntimeError(f"event budget exhausted at t={self._now}")
            self._now = when
            ev.fn()
            ran += 1
        return ran

    def run_until_idle(self) -> int:
        """Run events in order until the queue drains. Returns events run."""
        return self._run(math.inf)

    def run_until(self, deadline: float) -> int:
        """Run events with time <= deadline, then set now to the deadline.
        Returns events run."""
        if not math.isfinite(deadline):
            raise ValueError(f"deadline must be finite, got {deadline}")
        ran = self._run(deadline)
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
        body = " ".join([f"{k}={v}" for k, v in details])
        self.lines.append(f"{t:.6f}\t{entity}\t{event}\t{body}")

    def text(self) -> str:
        return "\n".join(self.lines) + ("\n" if self.lines else "")

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.text())
