"""The one-shot sweep coordinator: a single-sweep facade over the service.

Historically this module *was* the cluster: one thread-per-connection
socket server owning one task list.  The always-on verification service
generalized both halves -- task accounting moved into the transport-free
:class:`~repro.cluster.scheduler.SweepScheduler` (multi-sweep, fair-share,
latency-adaptive) and the socket loop into the asyncio
:class:`~repro.cluster.service.VerificationService` (plus an HTTP submit
API).  What remains here is the original convenience shape, unchanged for
callers: *one* coordinator owns *one* sweep, serves it to workers, and
:meth:`wait` returns when every task has an outcome.

All the one-shot invariants live on in the scheduler, now shared with the
service: journaling on arrival, requeue-on-disconnect with bounded retries
(exhaustion records an ``UNTESTED`` infrastructure error instead of
wedging the sweep), dedup by task ID so late results from workers presumed
lost are dropped, tail-leveled + latency-adaptive shard sizing, hung-worker
reaping (``worker_timeout``), and ``comparable_dict()`` parity with a
serial in-process run.

The one behavioral difference from a persistent service: the coordinator
runs its scheduler with ``done_when_idle=True``, so once the sweep
completes workers are told ``done`` and drain, exactly as before.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.cluster.journal import ResultStore
from repro.cluster.scheduler import SweepScheduler
from repro.cluster.service import VerificationService
from repro.pipeline.result import SweepResult
from repro.pipeline.runner import ProgressCallback
from repro.pipeline.tasks import SweepTask

__all__ = ["SweepCoordinator"]


class SweepCoordinator:
    """Serves one sweep's tasks to remote workers and aggregates the result.

    Typical use (the ``--serve`` path of the pipeline CLI)::

        coordinator = SweepCoordinator(tasks, host, port, store=store)
        coordinator.start()              # binds; .address is now concrete
        result = coordinator.wait()      # blocks until every task completed
        ...                              # let the caller's workers exit
        coordinator.stop()

    Waiting and stopping are separate: a worker whose final request
    arrives after the last outcome landed must still be answered ``done``,
    so stop the service only once your own workers have exited.
    """

    def __init__(
        self,
        tasks: Sequence[SweepTask],
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        store: Optional[ResultStore] = None,
        completed: Optional[Dict[str, Dict[str, Any]]] = None,
        max_task_retries: int = 2,
        batch_size: int = 0,
        worker_timeout: float = 0.0,
        progress_callback: Optional[ProgressCallback] = None,
        suite: Optional[str] = None,
        buggy: Optional[bool] = None,
        backend: Optional[str] = None,
        auth_token: Optional[str] = None,
        local_procs: int = 0,
        http_host: Optional[str] = None,
        http_port: Optional[int] = None,
    ) -> None:
        self.tasks = list(tasks)
        self.host = host
        self.port = port
        self.store = store
        #: Re-leases allowed per task after a lost worker before the task is
        #: recorded as an infrastructure error.
        self.max_task_retries = max_task_retries
        #: Upper bound on tasks per shard; 0 lets the worker's requested
        #: ``max_tasks`` (its process count) decide (both further capped by
        #: the latency-adaptive and tail-leveling bounds).
        self.batch_size = batch_size
        #: Seconds of connection silence after which a worker is declared
        #: hung and its leases requeued; 0 disables.  Enable only when every
        #: worker sends heartbeat pings, or long tasks will be misdeclared.
        self.worker_timeout = worker_timeout
        self.progress_callback = progress_callback

        self.scheduler = SweepScheduler(
            max_task_retries=max_task_retries,
            batch_size=batch_size,
            done_when_idle=True,
        )
        # Registered immediately (not at start()): .remaining and journal
        # preloading work before the socket exists, as they always did.
        self.sweep_id = self.scheduler.submit(
            self.tasks,
            suite=suite,
            buggy=buggy,
            backend=backend,
            store=store,
            completed=completed,
            progress_callback=progress_callback,
        )
        entry = self.scheduler._entry(self.sweep_id)
        self.suite = entry.suite
        self.buggy = entry.buggy
        self.backend = entry.backend
        self._service = VerificationService(
            host,
            port,
            scheduler=self.scheduler,
            http_host=http_host,
            http_port=http_port,
            auth_token=auth_token,
            worker_timeout=worker_timeout,
            local_procs=local_procs,
        )
        self._started = False

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    @property
    def address(self) -> Tuple[str, int]:
        """The bound (host, port); concrete only after :meth:`start`."""
        return self._service.address

    @property
    def http_address(self) -> Optional[Tuple[str, int]]:
        """The HTTP status endpoint, when one was requested."""
        return self._service.http_address

    @property
    def remaining(self) -> int:
        entry = self.scheduler._entry(self.sweep_id)
        with self.scheduler._lock:
            return entry.remaining

    @property
    def shard_sizes(self) -> List[int]:
        """Shard sizes issued, in lease order (observability + tests)."""
        entry = self.scheduler._entry(self.sweep_id)
        with self.scheduler._lock:
            return list(entry.shard_sizes)

    @property
    def shard_meta(self) -> List[Dict[str, Any]]:
        """Per-shard metadata: size, worker, latency estimate at lease time."""
        entry = self.scheduler._entry(self.sweep_id)
        with self.scheduler._lock:
            return [dict(m) for m in entry.shard_meta]

    def start(self) -> Tuple[str, int]:
        """Bind, listen and start accepting workers; returns the address."""
        if not self._started:
            self._started = True
            self._service.start()
        return self._service.address

    def wait(self, timeout: Optional[float] = None) -> SweepResult:
        """Block until every task has an outcome; returns the sweep result.

        The service keeps running, answering late worker requests with
        ``done``; call :meth:`stop` once the workers have exited.  With
        ``timeout``, raises :class:`TimeoutError` if the sweep has not
        completed in time (call again to keep waiting).
        """
        result = self.scheduler.wait(self.sweep_id, timeout)
        result.workers = max(1, self.scheduler.worker_count)
        result.sweep_id = None  # a one-shot sweep has no service identity
        return result

    def run(self, timeout: Optional[float] = None) -> SweepResult:
        """:meth:`start` + :meth:`wait` + :meth:`stop` in one call."""
        self.start()
        try:
            return self.wait(timeout)
        finally:
            self.stop()

    def stop(self) -> None:
        """Stop serving (idempotent); the local executors stop with it."""
        if self._started:
            self._started = False
            self._service.stop()
