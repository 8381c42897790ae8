"""Micro-batching request scheduler.

The paper's word2vec analysis (Fig. 5) shows the same pathology a
per-request serving path has: lots of tiny kernels, each paying fixed
launch overhead.  Batching sentences amortized the kernel launches
there; :class:`BatchScheduler` amortizes per-request numpy/Python
overhead here by coalescing concurrent requests into one vectorized
evaluation.

Two knobs bound the batching trade-off:

- ``max_batch_size`` — flush as soon as this many requests are pending
  (throughput bound);
- ``max_delay`` — flush at most this many seconds after the *oldest*
  pending request arrived (latency bound).

Requests are submitted from any thread and resolved through
``concurrent.futures.Future``; one worker thread drains the queue and
runs the processing callback.  Flush triggers, batch-size distribution,
and queue-wait times land in the ambient recorder
(``serving.batch.*``).
"""

from __future__ import annotations

import threading
import time
from collections import deque
from concurrent.futures import TimeoutError as FutureTimeoutError
from typing import Any, Callable, Sequence

from repro.errors import ServingError
from repro.observability import get_recorder


class BatchFuture:
    """Lightweight future resolved by a batch flush.

    ``concurrent.futures.Future`` allocates a private Condition per
    request and notifies it per ``set_result`` — measurable per-request
    overhead that micro-batching exists to amortize.  ``BatchFuture``
    instead shares its scheduler's result Condition: one flush resolves
    the whole batch under a single lock acquisition and wakes every
    waiter with a single ``notify_all``.  The lock-free ``_done`` fast
    path means a client that checks after the flush never touches the
    lock at all (safe under the GIL: ``_result``/``_exc`` are written
    before ``_done``).
    """

    __slots__ = ("_cv", "_done", "_result", "_exc")

    def __init__(self, cv: threading.Condition) -> None:
        self._cv = cv
        self._done = False
        self._result: Any = None
        self._exc: BaseException | None = None

    # Resolution happens inside the scheduler, which holds the shared
    # condition for the whole batch and notifies once afterwards.
    def _set_result(self, result: Any) -> None:
        self._result = result
        self._done = True

    def _set_exception(self, exc: BaseException) -> None:
        self._exc = exc
        self._done = True

    def done(self) -> bool:
        """True once a result or exception is available."""
        return self._done

    def result(self, timeout: float | None = None) -> Any:
        """Block until resolved; returns the result or raises."""
        if not self._done:
            deadline = (None if timeout is None
                        else time.monotonic() + timeout)
            with self._cv:
                while not self._done:
                    remaining = (None if deadline is None
                                 else deadline - time.monotonic())
                    if remaining is not None and remaining <= 0:
                        raise FutureTimeoutError()
                    self._cv.wait(remaining)
        if self._exc is not None:
            raise self._exc
        return self._result


class _Pending:
    """One enqueued request."""

    __slots__ = ("payload", "future", "enqueued_at")

    def __init__(self, payload: Any, cv: threading.Condition) -> None:
        self.payload = payload
        self.future = BatchFuture(cv)
        self.enqueued_at = time.monotonic()


class BatchScheduler:
    """Coalesces requests into micro-batches for one processing callback.

    ``process`` receives the list of payloads of one batch (length 1 to
    ``max_batch_size``) and must return one result per payload, in
    order.  An exception from ``process`` fails every future of that
    batch; the scheduler itself stays up.
    """

    def __init__(
        self,
        process: Callable[[list[Any]], Sequence[Any]],
        max_batch_size: int = 64,
        max_delay: float = 0.002,
        name: str = "requests",
    ) -> None:
        if max_batch_size < 1:
            raise ServingError(
                f"max_batch_size must be >= 1, got {max_batch_size}"
            )
        if max_delay < 0:
            raise ServingError(f"max_delay must be >= 0, got {max_delay}")
        self._process = process
        self.max_batch_size = max_batch_size
        self.max_delay = max_delay
        self.name = name
        self._queue: deque[_Pending] = deque()
        self._cv = threading.Condition()
        # Separate condition for result waiters, so a flush's single
        # notify_all never contends with queue waits.
        self._result_cv = threading.Condition()
        self._closed = False
        self._worker: threading.Thread | None = None

    # ------------------------------------------------------------------
    def start(self) -> "BatchScheduler":
        """Start the drain thread (idempotent); returns self."""
        with self._cv:
            if self._closed:
                raise ServingError(f"scheduler {self.name!r} is closed")
            if self._worker is None:
                self._worker = threading.Thread(
                    target=self._run, daemon=True,
                    name=f"batch-{self.name}",
                )
                self._worker.start()
        return self

    def close(self) -> None:
        """Drain remaining requests, then stop the worker (idempotent)."""
        with self._cv:
            if self._closed:
                return
            self._closed = True
            self._cv.notify_all()
            worker = self._worker
        if worker is not None:
            worker.join()

    def __enter__(self) -> "BatchScheduler":
        return self.start()

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    # ------------------------------------------------------------------
    def submit(self, payload: Any) -> BatchFuture:
        """Enqueue one request; returns its future."""
        pending = _Pending(payload, self._result_cv)
        with self._cv:
            if self._closed:
                raise ServingError(
                    f"scheduler {self.name!r} is closed; cannot submit"
                )
            if self._worker is None:
                raise ServingError(
                    f"scheduler {self.name!r} not started; call start()"
                )
            self._queue.append(pending)
            # Wake the worker only at the transitions it acts on: first
            # request (it may be idle) and a full batch (it may be
            # sleeping out max_delay).  Intermediate arrivals would only
            # wake it to recount and re-sleep.
            depth = len(self._queue)
            if depth == 1 or depth >= self.max_batch_size:
                self._cv.notify()
        return pending.future

    # ------------------------------------------------------------------
    def _run(self) -> None:
        while True:
            with self._cv:
                while not self._queue and not self._closed:
                    self._cv.wait()
                if not self._queue:
                    return  # closed and drained
                # Wait for a full batch, but no longer than max_delay
                # past the oldest request's arrival.
                deadline = self._queue[0].enqueued_at + self.max_delay
                while (len(self._queue) < self.max_batch_size
                       and not self._closed):
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        break
                    self._cv.wait(remaining)
                batch = [
                    self._queue.popleft()
                    for _ in range(min(len(self._queue),
                                       self.max_batch_size))
                ]
                if len(batch) >= self.max_batch_size:
                    trigger = "size"
                elif self._closed:
                    trigger = "close"
                else:
                    trigger = "delay"
            self._execute(batch, trigger)

    def _execute(self, batch: list[_Pending], trigger: str) -> None:
        rec = get_recorder()
        if rec.enabled:
            now = time.monotonic()
            rec.counter(f"serving.batch.flush_{trigger}")
            rec.observe("serving.batch.size", len(batch))
            for pending in batch:
                rec.observe("serving.batch.wait_s",
                            now - pending.enqueued_at)
        try:
            results = self._process([p.payload for p in batch])
            if len(results) != len(batch):
                raise ServingError(
                    f"scheduler {self.name!r}: process returned "
                    f"{len(results)} results for {len(batch)} requests"
                )
        except Exception as exc:  # noqa: BLE001 - forwarded to futures
            with self._result_cv:
                for pending in batch:
                    pending.future._set_exception(exc)
                self._result_cv.notify_all()
            return
        # One lock acquisition and one wakeup resolve the whole batch —
        # the per-request notify cost is what this scheduler amortizes.
        with self._result_cv:
            for pending, result in zip(batch, results):
                pending.future._set_result(result)
            self._result_cv.notify_all()
