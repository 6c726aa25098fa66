"""Loopback verification service with one long-lived worker subprocess.

A :class:`LoopbackService` starts a ``VerificationService`` in this process
(HTTP endpoint on a free loopback port, state directory inside the
checkout) and one ``python -m repro.cluster.worker --procs 1`` subprocess,
then submits sweeps over HTTP one at a time (a closed loop) and polls
their status every :data:`POLL_SECONDS`.  :meth:`LoopbackService.close`
stops the service, waits for the worker (killing it if it lingers) and
removes the state directory; it is a context manager, so this
happens on every exit path.
"""

from __future__ import annotations

import http.client
import os
import shutil
import subprocess
import sys
import time
from typing import Any, Dict, List, Optional

import harness

#: Status poll interval; also the resolution of per-outcome landing times.
POLL_SECONDS = 0.005
#: Longest wait for the worker to connect, and for one sweep to complete.
TIMEOUT_SECONDS = 60.0
#: Worker-side counters that mean work was retried, lost or repaired.
RETRY_COUNTERS = (
    "repro_task_timeouts_total",
    "repro_tasks_quarantined_total",
    "repro_journal_records_skipped_total",
)


class LoopbackService:
    """One service + worker pair (see module docstring)."""

    def __init__(self, workdir: str, worker_spans: Optional[str] = None) -> None:
        self.workdir = workdir
        self.state_dir = os.path.join(workdir, "state")
        self.worker_spans = worker_spans
        self.service: Any = None
        self.worker: Optional[subprocess.Popen] = None
        self._log: Any = None

    # ------------------------------------------------------------------ #
    def __enter__(self) -> "LoopbackService":
        from repro.cluster import client
        from repro.cluster.service import VerificationService

        os.makedirs(self.workdir, exist_ok=True)
        shutil.rmtree(self.state_dir, ignore_errors=True)
        try:
            self.service = VerificationService(state_dir=self.state_dir, http_port=0)
            host, port = self.service.start()
            self.http = self.service.http_address
            if self.worker_spans:
                cmd = [os.path.join(harness.BENCH_DIR, "traced_worker.py"),
                       "--spans", self.worker_spans]
            else:
                cmd = ["-m", "repro.cluster.worker"]
            self._log = open(os.path.join(self.workdir, "worker.log"), "w")
            self.worker = subprocess.Popen(
                [sys.executable, *cmd, "--connect", f"{host}:{port}",
                 "--procs", "1", "--quiet"],
                cwd=harness.ROOT,
                env=harness.child_env(),
                stdout=self._log,
                stderr=subprocess.STDOUT,
            )
            deadline = time.perf_counter() + TIMEOUT_SECONDS
            while client.service_status(*self.http)["active_workers"] < 1:
                if self.worker.poll() is not None or time.perf_counter() > deadline:
                    raise RuntimeError(f"worker did not connect; see {self._log.name}")
                time.sleep(POLL_SECONDS)
        except BaseException:
            self.close()
            raise
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()

    def close(self) -> None:
        """Stop the service, end the worker, remove the state directory."""
        if self.service is not None:
            self.service.stop()
            self.service = None
        if self.worker is not None:
            # With the service gone the worker sees EOF and exits (writing
            # its spans when traced); kill it if it does not.
            try:
                self.worker.wait(timeout=10.0)
            except subprocess.TimeoutExpired:
                self.worker.kill()
                self.worker.wait()
        if self._log is not None:
            self._log.close()
            self._log = None
        shutil.rmtree(self.state_dir, ignore_errors=True)

    # ------------------------------------------------------------------ #
    def sweep(self, tasks: List[Any], recorder: Any = None, root: str = "sweep") -> Dict[str, Any]:
        """Submit one sweep, poll it to completion, fetch and render it.

        Returns the wall time from submit to rendered reports, each
        outcome's landing time relative to the submit, and the sweep's
        journal size.  With a recorder, records the sweep's root span and
        its client-side children.
        """
        from repro.cluster import client

        def span(layer: str) -> Any:
            return recorder.begin(layer) if recorder else None

        def done(s: Any) -> None:
            if recorder:
                recorder.end(s)

        host, port = self.http
        root_span = span(root)
        start = time.perf_counter()
        s = span("cluster.submit")
        status = client.submit_sweep(host, port, tasks)
        done(s)
        sweep_id = status["sweep_id"]
        landed: List[float] = []
        while True:
            now = time.perf_counter()
            landed.extend([now] * (status["done"] - len(landed)))
            if status["state"] == "complete":
                break
            if now - start > TIMEOUT_SECONDS:
                raise TimeoutError(f"sweep {sweep_id} incomplete after {TIMEOUT_SECONDS} s")
            time.sleep(POLL_SECONDS)
            status = client.sweep_status(host, port, sweep_id)
        s = span("cluster.fetch")
        result = client.fetch_result(host, port, sweep_id)
        done(s)
        s = span("pipeline.report")
        result.to_json()
        result.to_markdown()
        done(s)
        end = time.perf_counter()
        done(root_span)

        journal = os.path.join(self.state_dir, f"{sweep_id}.jsonl")
        with open(journal, "rb") as f:
            records = sum(1 for line in f if b'"kind":"outcome"' in line)
        journal_bytes = os.path.getsize(journal) + os.path.getsize(
            os.path.join(self.state_dir, f"{sweep_id}.meta.json")
        )
        return {
            "sweep_s": end - start,
            "first_verdict_s": landed[0] - start,
            "verdict_s": [t - start for t in landed],
            "journal_bytes": journal_bytes,
            "journal_records": records,
            "rows": harness.summarize_outcomes(result.outcomes),
        }

    def worker_peak_rss_mb(self) -> float:
        return harness.peak_rss_mb(self.worker.pid)

    def retries(self) -> int:
        """Retried, lost or repaired work: the retry counters in
        ``GET /metrics`` plus worker reconnects seen in ``GET /status``."""
        from repro.cluster import client

        conn = http.client.HTTPConnection(*self.http, timeout=30.0)
        try:
            conn.request("GET", "/metrics")
            text = conn.getresponse().read().decode("utf-8")
        finally:
            conn.close()
        total = 0.0
        for line in text.splitlines():
            name = line.split("{")[0].split(" ")[0]
            if name in RETRY_COUNTERS:
                total += float(line.rsplit(" ", 1)[1])
        reconnects = client.service_status(*self.http)["workers_seen"] - 1
        return int(total) + reconnects


def probe_setup(t0: float, enumerate_kwargs: Dict[str, Any]) -> float:
    """Set up a service workload from a fresh interpreter started at ``t0``
    (imports, enumeration, service start, worker connect), then tear it
    down; returns the set-up seconds."""
    from repro.pipeline.tasks import enumerate_sweep_tasks

    enumerate_sweep_tasks(**enumerate_kwargs)
    workdir = os.path.join(harness.RUN_DIR, f"probe-{os.getpid()}")
    try:
        with LoopbackService(workdir):
            setup_s = time.perf_counter() - t0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return setup_s
