"""The worker pool: one bounded queue and the threads that drain it.

A :class:`Job` is one unit of work crossing the asyncio/thread
boundary: the handler coroutine creates it with an ``asyncio.Future``,
a worker thread executes ``fn`` and delivers the outcome back onto
the event loop with ``call_soon_threadsafe``.  Outcomes are tagged
tuples so the HTTP layer can map them to status codes without the
pool knowing anything about HTTP:

``(OK, payload)``
    the job function returned ``payload`` (a JSON-able dict);
``(ERROR, message)``
    the job function raised an :class:`Exception` (a compile error);
``(CRASH, message)``
    the job function raised a :class:`BaseException`, or the
    ``pool.worker`` fault site injected a ``worker_death``;
``(EXPIRED, None)``
    the deadline passed, or the handler stopped waiting, while the job
    was still queued; it never runs.

Compilation is pure-Python CPU work, so the pool is a fixed list of
daemon threads over one bounded ``queue.Queue``.  ``try_put`` refuses
instead of blocking, which is what lets the server shed load with
``429`` instead of building an unbounded backlog.  A worker catches
everything a job raises, so no job can take a worker down: a crash
fails that request alone and the worker takes the next job.
``stop()`` queues one ``None`` per worker behind the backlog, so every
job admitted before shutdown still runs before the threads exit.
"""

from __future__ import annotations

import asyncio
import queue
import threading
import time
from dataclasses import dataclass, field

OK = "ok"
ERROR = "error"
CRASH = "crash"
EXPIRED = "expired"


@dataclass(slots=True)
class Job:
    """One admitted request travelling loop → queue → worker → loop."""

    fn: object                      # zero-arg callable run on a worker
    loop: asyncio.AbstractEventLoop
    future: asyncio.Future
    deadline: float                 # absolute, time.monotonic() terms
    #: Set by the handler when it stops waiting (client timeout or
    #: disconnect); workers skip abandoned jobs and discard results
    #: that finish after abandonment.
    abandoned: threading.Event = field(default_factory=threading.Event)

    def deliver(self, tag: str, value=None) -> None:
        """Hand an outcome to the waiting handler, from any thread."""
        try:
            self.loop.call_soon_threadsafe(self._resolve, (tag, value))
        except RuntimeError:
            pass  # loop already closed (shutdown race): nobody is waiting

    def _resolve(self, outcome: tuple) -> None:
        if not self.future.done():
            self.future.set_result(outcome)


class WorkerPool:
    def __init__(
        self,
        size: int,
        queue_limit: int,
        *,
        depth_gauge,
        inflight_gauge,
        crash_counter,
        injector,
    ) -> None:
        self._queue: queue.Queue = queue.Queue(maxsize=queue_limit)
        self._threads = [
            threading.Thread(
                target=self._work, name=f"repro-worker-{n}", daemon=True
            )
            for n in range(1, size + 1)
        ]
        self._depth_gauge = depth_gauge
        self._depth_lock = threading.Lock()
        self._inflight_gauge = inflight_gauge
        self._crash_counter = crash_counter
        #: a :class:`repro.faults.FaultInjector`, consulted at
        #: ``pool.worker`` before each job (worker_death / hang).
        self._injector = injector

    # -- admission -------------------------------------------------------

    def depth(self) -> int:
        """Jobs waiting for a worker (while draining, the ``None``s too)."""
        return self._queue.qsize()

    def try_put(self, job: Job) -> bool:
        """Admit ``job``; False (shed) when the queue is full."""
        try:
            self._queue.put_nowait(job)
        except queue.Full:
            return False
        self._publish_depth()
        return True

    def _publish_depth(self) -> None:
        # Read and publish under one lock: otherwise a thread can
        # publish a depth it read before another thread's later get,
        # and an idle server reports a stale nonzero depth.
        with self._depth_lock:
            self._depth_gauge.set(self.depth())

    # -- lifecycle -------------------------------------------------------

    def start(self) -> None:
        for thread in self._threads:
            thread.start()

    def alive(self) -> int:
        return sum(thread.is_alive() for thread in self._threads)

    def stop(self, timeout: float = 10.0) -> bool:
        """Drain queued jobs, then stop every worker.

        The caller has stopped admitting, so the queue only shrinks and
        a timed ``put`` of one ``None`` per worker gets in behind the
        backlog: "stop" means "finish the backlog, then exit".  Returns
        True when every worker exited within ``timeout``.
        """
        deadline = time.monotonic() + timeout
        try:
            for _ in self._threads:
                self._queue.put(
                    None, timeout=max(0.0, deadline - time.monotonic())
                )
        except queue.Full:
            pass  # the backlog outlived the budget; workers are daemons
        for thread in self._threads:
            thread.join(max(0.0, deadline - time.monotonic()))
        return self.alive() == 0

    # -- the worker loop -------------------------------------------------

    def _work(self) -> None:
        while True:
            job = self._queue.get()
            self._publish_depth()
            if job is None:
                return
            self._run(job)

    def _run(self, job: Job) -> None:
        if job.abandoned.is_set() or time.monotonic() >= job.deadline:
            job.deliver(EXPIRED)
            return
        rule = (
            self._injector.pick("pool.worker")
            if self._injector.enabled
            else None
        )
        if rule is not None and rule.kind == "worker_death":
            self._crash_counter.inc()
            job.deliver(CRASH, "worker crashed: injected worker death")
            return
        if rule is not None and rule.kind == "hang":
            self._injector.sleep(rule.delay_seconds)
        self._inflight_gauge.inc()
        try:
            payload = job.fn()
        except Exception as exc:
            job.deliver(ERROR, f"{type(exc).__name__}: {exc}")
        except BaseException as exc:
            # A worker thread gets no KeyboardInterrupt and no asyncio
            # cancellation, so this came from the job (SystemExit, a
            # test's crash): fail that request and keep serving.
            self._crash_counter.inc()
            job.deliver(
                CRASH, f"worker crashed: {type(exc).__name__}: {exc}"
            )
        else:
            job.deliver(OK, payload)
        finally:
            self._inflight_gauge.dec()
