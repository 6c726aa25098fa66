"""Chaos smoke checks: the kill-matrix behind ``make smoke-chaos``.

Where :mod:`repro.cluster.smoke` proves the distributed pipeline matches
the serial runner on a *clean* day, this module proves it on a bad one.
Both scenarios drive real worker subprocesses against a real service with
:mod:`repro.faultinject` armed, and every fault is seeded -- a failing run
replays exactly.

**Scenario A -- parity under the kill matrix.**  One sweep, three
workers: one crashes hard (``os._exit``, like SIGKILL) mid-lease on its
third task, one delays every task and garbles a fraction of its protocol
frames, one is clean.  The service itself garbles a journal record and a
fraction of its outgoing frames (armed in-process only, via
``configure(export=False)``).  Mid-run the service is hard-stopped, the
journal tail is torn (a partial line appended, simulating a write cut off
by the kill), and a fresh instance restores from the state directory.
The check: the final result is **bitwise identical** to a serial run with
faults disabled -- lost leases re-ran, the garbled record failed its CRC
and was skipped (re-run, not resurrected corrupt), the torn tail was
repaired, and no task ran zero or two times into the final report.

**Scenario B -- containment of poison and hung tasks.**  One sweep with
two poisoned workloads -- every ``gemm`` execution crashes its process,
every ``atax`` execution hangs -- run by two ``--task-timeout`` workers.
The supervised executor kills and respawns stuck members, the scheduler
retries the contained failures, and once a task has failed on the
quarantine threshold of distinct workers it lands as a synthetic UNTESTED
outcome.  The check: the sweep *completes* (nothing poisoned stalls it),
poisoned outcomes carry the quarantine/deadline error taxonomy, clean
tasks' verdicts match their serial reference, ``/status`` surfaces the
quarantine records, and ``/metrics`` shows the timeout and hung-task
gauges the workers piggybacked on their heartbeats.

Exit status 0 on a clean run; the first violated invariant prints and
exits 1.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
from typing import Any, Dict, List, Optional

from repro import faultinject
from repro.cluster.smoke import (
    _enumerate,
    _first_difference,
    _free_port,
    _scrape_metrics,
    _worker_env,
)
from repro.core.reporting import Verdict
from repro.pipeline.runner import SweepRunner
from repro.telemetry import monotonic as _monotonic
from repro.telemetry.metrics import GLOBAL as _GLOBAL_METRICS

__all__ = ["main"]

#: Fault plan armed inside the service process only (never exported to
#: worker subprocesses): one deterministic journal garble plus a low-rate
#: frame garble on the service's outgoing writes.
SERVICE_FAULTS = "journal.record=garble@2,protocol.send=garble:0.1"

#: Per-worker fault plans for scenario A (passed via ``--faults``).
CRASHER_FAULTS = "task.execute=crash@3"
JITTER_FAULTS = "task.execute=delay:0.05,protocol.send=garble:0.15"

#: Scenario B: every gemm execution dies, every atax execution hangs.
POISON_FAULTS = "task.execute[gemm]=crash,task.execute[atax]=hang:30"


def _spawn_worker(
    port: int, *extra: str, faults: Optional[str] = None
) -> subprocess.Popen:
    cmd = [
        sys.executable, "-m", "repro.cluster.worker",
        "--connect", f"127.0.0.1:{port}",
        "--quiet",
        *extra,
    ]
    if faults:
        cmd += ["--faults", faults, "--fault-seed", "7"]
    return subprocess.Popen(cmd, env=_worker_env())


def _drain(workers: List[subprocess.Popen]) -> None:
    for proc in workers:
        try:
            proc.wait(timeout=30.0)
        except subprocess.TimeoutExpired:
            proc.terminate()
    for proc in workers:
        proc.wait(timeout=30.0)


def _counter(name: str) -> float:
    total = 0.0
    for key, value in _GLOBAL_METRICS.snapshot().get("counters", {}).items():
        if key == name or key.startswith(name + "{"):
            total += value
    return total


def _kill_matrix_scenario(args: argparse.Namespace) -> int:
    """Scenario A: serial parity through crashes, garbling, and a bounce."""
    from repro.cluster.client import submit_sweep, sweep_status, wait_sweep
    from repro.cluster.service import VerificationService

    tasks = _enumerate(["gemm", "atax", "mvt", "bicg"], args)
    print(
        f"[smoke-chaos/A] {len(tasks)} task(s); serial reference "
        f"(faults disabled) ...",
        flush=True,
    )
    serial = SweepRunner(workers=1).run(tasks)

    skipped_before = _counter("repro_journal_records_skipped_total")
    # Arm the service-side faults in this process only: worker subprocesses
    # get their own plans on their own command lines.
    faultinject.configure(SERVICE_FAULTS, seed=7, export=False)
    state_dir = tempfile.mkdtemp(prefix="chaos_state_")
    port = _free_port()
    workers: List[subprocess.Popen] = []
    service = VerificationService(
        "127.0.0.1", port, http_port=0, state_dir=state_dir,
    )
    try:
        service.start()
        http_host, http_port = service.http_address
        workers = [
            _spawn_worker(
                port, "--reconnect-seconds", "120", faults=CRASHER_FAULTS
            ),
            _spawn_worker(
                port, "--reconnect-seconds", "120", faults=JITTER_FAULTS
            ),
            _spawn_worker(port, "--reconnect-seconds", "120"),
        ]
        # Submit only once every worker is connected: tasks take
        # milliseconds, so a worker that joined late could find the sweep
        # drained -- and the crasher must reach its third task.
        deadline = _monotonic() + 120.0
        while service.scheduler.active_workers < len(workers):
            if _monotonic() > deadline:
                print(
                    "[smoke-chaos/A] FAIL: workers did not all connect",
                    file=sys.stderr,
                )
                return 1
            time.sleep(0.05)
        sweep_id = submit_sweep(http_host, http_port, tasks)["sweep_id"]
        print(
            f"[smoke-chaos/A] service on 127.0.0.1:{port} (state "
            f"{state_dir}); sweep {sweep_id}; workers: crasher@3, "
            f"jitter+garble, clean ...",
            flush=True,
        )

        # Let the sweep journal a few outcomes (the deterministic garble
        # clause corrupts record #2), then kill the service mid-drain.
        deadline = _monotonic() + 300.0
        while True:
            done = sweep_status(http_host, http_port, sweep_id)["done"]
            if done >= 3:
                break
            if _monotonic() > deadline:
                print(
                    f"[smoke-chaos/A] FAIL: only {done} task(s) done before "
                    f"the bounce deadline",
                    file=sys.stderr,
                )
                return 1
            time.sleep(0.2)
        print(
            f"[smoke-chaos/A] {done} done; hard-stopping the service and "
            f"tearing the journal tail ...",
            flush=True,
        )
        service.stop()
        journal = os.path.join(state_dir, f"{sweep_id}.jsonl")
        with open(journal, "a", encoding="utf-8") as f:
            # A write cut off mid-record: no trailing newline, broken JSON.
            f.write('{"kind":"outcome","task_id":"torn-')

        service = VerificationService(
            "127.0.0.1", port, http_port=0, state_dir=state_dir,
            done_when_idle=True,
        )
        service.start()
        http_host, http_port = service.http_address
        result = wait_sweep(
            http_host, http_port, sweep_id, timeout=600.0, poll_seconds=0.2
        )
    finally:
        _drain(workers)
        service.stop()
        faultinject.configure(None, export=False)

    # The crasher must die with the injected hard-exit code; the other two
    # must survive every garbled frame and the bounce, and drain cleanly.
    codes = [p.returncode for p in workers]
    if codes[0] != 137 or codes[1] != 0 or codes[2] != 0:
        print(
            f"[smoke-chaos/A] FAIL: worker exit codes {codes}, expected "
            f"[137, 0, 0] (crash containment / reconnect broken)",
            file=sys.stderr,
        )
        return 1

    diff = _first_difference(serial.comparable_dict(), result.comparable_dict())
    if diff:
        print(
            f"[smoke-chaos/A] FAIL: chaos run differs from the serial "
            f"reference at {diff}",
            file=sys.stderr,
        )
        return 1

    # The deterministically garbled record must have been caught by its
    # checksum on restore (skipped and re-run, not trusted).
    skipped = _counter("repro_journal_records_skipped_total") - skipped_before
    if skipped < 1:
        print(
            "[smoke-chaos/A] FAIL: the garbled journal record was not "
            "skipped on restore (CRC validation broken?)",
            file=sys.stderr,
        )
        return 1

    shutil.rmtree(state_dir, ignore_errors=True)
    print(
        f"[smoke-chaos/A] OK: {len(tasks)} task(s) bitwise identical to "
        f"serial through a worker SIGKILL mid-lease, garbled frames both "
        f"directions, a service bounce, {int(skipped)} checksum-skipped "
        f"journal record(s), and a torn journal tail"
    )
    return 0


def _containment_scenario(args: argparse.Namespace) -> int:
    """Scenario B: poison and hung tasks are contained, not contagious."""
    from repro.cluster.client import service_status, submit_sweep, wait_sweep
    from repro.cluster.service import VerificationService

    poisoned = {"gemm", "atax"}
    tasks = _enumerate(["gemm", "atax", "mvt"], args)
    clean_tasks = [t for t in tasks if t.workload not in poisoned]
    print(
        f"[smoke-chaos/B] {len(tasks)} task(s) "
        f"({len(tasks) - len(clean_tasks)} poisoned); serial reference for "
        f"the clean subset ...",
        flush=True,
    )
    serial_clean = SweepRunner(workers=1).run(clean_tasks)
    clean_verdicts = {
        o["task_id"]: o["verdict"] for o in serial_clean.outcomes
    }

    state_dir = tempfile.mkdtemp(prefix="chaos_poison_state_")
    port = _free_port()
    workers: List[subprocess.Popen] = []
    service = VerificationService(
        "127.0.0.1", port, http_port=0, state_dir=state_dir,
        done_when_idle=True, max_task_retries=6, quarantine_workers=2,
    )
    try:
        service.start()
        http_host, http_port = service.http_address
        sweep_id = submit_sweep(http_host, http_port, tasks)["sweep_id"]
        print(
            f"[smoke-chaos/B] service on 127.0.0.1:{port}; sweep "
            f"{sweep_id}; 2 supervised workers (--task-timeout 1.5) with "
            f"gemm=crash, atax=hang ...",
            flush=True,
        )
        workers = [
            _spawn_worker(
                port,
                "--task-timeout", "1.5",
                "--heartbeat-seconds", "0.5",
                "--reconnect-seconds", "60",
                faults=POISON_FAULTS,
            )
            for _ in range(2)
        ]
        result = wait_sweep(
            http_host, http_port, sweep_id, timeout=600.0, poll_seconds=0.2
        )
        status = service_status(http_host, http_port)
        exposition = _scrape_metrics(http_host, http_port)
    finally:
        _drain(workers)
        service.stop()

    codes = [p.returncode for p in workers if p.returncode != 0]
    if codes:
        print(
            f"[smoke-chaos/B] FAIL: worker exit codes {codes} (supervised "
            f"workers must survive member crashes and hangs)",
            file=sys.stderr,
        )
        return 1

    # Every poisoned task must be contained: UNTESTED with the quarantine
    # or contained-failure taxonomy.  Every clean task must match serial.
    quarantined_count = 0
    for outcome in result.outcomes:
        if outcome["workload"] in poisoned:
            error = outcome.get("error") or ""
            contained = (
                "quarantined" in error
                or "deadline" in error
                or "died" in error
                or "connection lost" in error
            )
            if outcome["verdict"] != Verdict.UNTESTED.value or not contained:
                print(
                    f"[smoke-chaos/B] FAIL: poisoned task "
                    f"{outcome['task_id']} escaped containment: "
                    f"verdict={outcome['verdict']!r} error={error!r}",
                    file=sys.stderr,
                )
                return 1
            if "quarantined" in error:
                quarantined_count += 1
        else:
            if outcome["verdict"] != clean_verdicts[outcome["task_id"]]:
                print(
                    f"[smoke-chaos/B] FAIL: clean task "
                    f"{outcome['task_id']} verdict "
                    f"{outcome['verdict']!r} differs from its serial "
                    f"reference {clean_verdicts[outcome['task_id']]!r} "
                    f"(poison leaked?)",
                    file=sys.stderr,
                )
                return 1

    # With 8 poisoned tasks failing on every execution and 2 eager
    # workers, the distinct-worker threshold must have tripped for most
    # of them; requiring one keeps the check timing-robust.
    sweep_doc = status["sweeps"][sweep_id]
    if quarantined_count < 1 or not sweep_doc.get("quarantined"):
        print(
            f"[smoke-chaos/B] FAIL: no quarantine recorded "
            f"(outcomes with quarantine error: {quarantined_count}, "
            f"/status records: {sweep_doc.get('quarantined')!r})",
            file=sys.stderr,
        )
        return 1

    for needle in ("repro_task_timeouts_total", "repro_worker_tasks_inflight"):
        if needle not in exposition:
            print(
                f"[smoke-chaos/B] FAIL: /metrics is missing {needle} "
                f"(deadline accounting / heartbeat gauge piggyback broken)",
                file=sys.stderr,
            )
            return 1

    # The quarantine outcomes are journaled (checksummed) like any other.
    journal = os.path.join(state_dir, f"{sweep_id}.jsonl")
    with open(journal, "r", encoding="utf-8") as f:
        records = [json.loads(line) for line in f if line.strip()]
    journaled: Dict[str, Dict[str, Any]] = {
        r["task_id"]: r for r in records if r.get("kind") == "outcome"
    }
    for task in tasks:
        record = journaled.get(task.task_id)
        if record is None or "crc" not in record:
            print(
                f"[smoke-chaos/B] FAIL: task {task.task_id} missing a "
                f"checksummed journal record",
                file=sys.stderr,
            )
            return 1

    shutil.rmtree(state_dir, ignore_errors=True)
    print(
        f"[smoke-chaos/B] OK: sweep completed with every poisoned task "
        f"contained ({quarantined_count} quarantined, "
        f"{len(sweep_doc['quarantined'])} /status record(s)), clean "
        f"verdicts identical to serial, deadline + hung-task metrics "
        f"exposed"
    )
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.cluster.chaos",
        description="Chaos kill-matrix: serial parity through worker "
        "crashes, frame/journal garbling and a service bounce, plus "
        "containment of poison and hung tasks.",
    )
    parser.add_argument("--trials", type=int, default=2)
    parser.add_argument("--max-instances", type=int, default=1)
    parser.add_argument(
        "--buggy", action="store_true",
        help="sweep the injected-bug transformation variants",
    )
    parser.add_argument(
        "--scenario", choices=("all", "parity", "containment"),
        default="all",
    )
    args = parser.parse_args(argv)

    if args.scenario in ("all", "parity"):
        rc = _kill_matrix_scenario(args)
        if rc:
            return rc
    if args.scenario in ("all", "containment"):
        rc = _containment_scenario(args)
        if rc:
            return rc
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
