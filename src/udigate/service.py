"""Wall-clock runtime around the gateway: worker pool plus lease sweeper.

The simulator drives pull chains on a virtual clock; this module is the
real-time counterpart used by the CLI daemon. ``Gateway.run_pull`` ends
each chain itself (silent death, lost lease or failure), so a worker only
resumes it step after step: step costs are modelling artifacts, and actual
registry I/O sets the pace. Any other exception fails the task's record,
and the worker lives on to take the next task.
"""

from __future__ import annotations

import logging
import queue
import threading

from .gateway import Gateway, PullTask

log = logging.getLogger(__name__)

_STOP = object()


class GatewayRuntime:
    """Owns the worker threads that execute pull tasks against a gateway.

    The gateway must have been constructed with ``task_sink=runtime.submit``
    (or tasks can be handed in manually).  ``worker_pool_size`` caps how many
    pull chains run at once; everything else queues.
    """

    def __init__(self, gateway: Gateway):
        self.gateway = gateway
        self._queue: queue.Queue = queue.Queue()
        self._threads: list[threading.Thread] = []
        self._stop_event = threading.Event()
        self._sweeper: threading.Thread | None = None

    def submit(self, task: PullTask) -> None:
        self._queue.put(task)

    def start(self) -> None:
        if self._threads:
            raise RuntimeError("runtime already started")
        n = self.gateway.config.worker_pool_size
        for i in range(n):
            t = threading.Thread(target=self._worker_loop, name=f"udi-worker-{i}",
                                 daemon=True)
            t.start()
            self._threads.append(t)
        self._sweeper = threading.Thread(target=self._sweeper_loop,
                                         name="udi-sweeper", daemon=True)
        self._sweeper.start()

    def stop(self) -> None:
        self._stop_event.set()
        for _ in self._threads:
            self._queue.put(_STOP)
        for t in self._threads:
            t.join(timeout=10)
        if self._sweeper is not None:
            self._sweeper.join(timeout=10)
        self._threads = []
        self._sweeper = None

    def drain(self) -> None:
        """Block until every queued task has been picked up and finished."""
        self._queue.join()

    # -- loops ---------------------------------------------------------------

    def _worker_loop(self) -> None:
        while True:
            task = self._queue.get()
            try:
                if task is _STOP:
                    return
                for _ in self.gateway.run_pull(task):
                    pass
            except Exception as exc:
                log.exception("unexpected worker error for %s", task.ref.canonical())
                try:
                    self.gateway.fail_task(task, exc)
                except Exception:  # a log append that fails must not end the worker
                    log.exception("could not fail the record of %s", task.ref.canonical())
            finally:
                self._queue.task_done()

    def _sweeper_loop(self) -> None:
        interval = self.gateway.config.sweep_interval
        while not self._stop_event.wait(interval):
            try:
                flipped = self.gateway.sweep_stale()
                if flipped:
                    log.warning("sweeper failed %d stale records", len(flipped))
            except Exception:  # pragma: no cover - defensive
                log.exception("sweeper pass failed")
