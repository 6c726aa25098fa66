"""Shared pieces of the end-to-end sweep benchmark.

Workload definitions, the pinned verdict reference, child-process helpers
and the statistics every entry point of the benchmark uses.  This module
imports nothing from ``repro`` so ``run.py`` can start (and fail
cleanly) before the program under test is importable.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence

#: The benchmark's own directory and the checkout root it measures.
BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
#: Scratch space for run artifacts (service state, spans, the trace).
RUN_DIR = os.path.join(ROOT, ".perfbench-run")
REFERENCE_PATH = os.path.join(BENCH_DIR, "reference.json")

#: Fuzzing seeds of one run: sweep ``i`` of ``--seed s`` fuzzes with
#: ``s * SEED_STRIDE + i``, so ``--seed 0`` starts at the pinned seed.
SEED_STRIDE = 1000


@dataclass(frozen=True)
class Workload:
    """One benchmark workload: a CLI-default sweep configuration."""

    name: str
    buggy: bool
    backend: str
    trials: int
    via_service: bool
    #: Key of the pinned verdict table in ``reference.json``.
    reference: str
    #: Sweep shape shared with ``python -m repro.pipeline`` defaults.
    max_instances: int = 4
    size_max: int = 10


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("npbench-buggy", True, "interpreter", 6, False, "npbench-buggy"),
        Workload("npbench-clean-t50", False, "compiled", 50, False, "npbench-clean-t50"),
        Workload("service-buggy", True, "interpreter", 6, True, "npbench-buggy"),
    )
}


def fuzz_seed(seed: int, index: int) -> int:
    """Fuzzing seed of sweep ``index`` in a run started with ``--seed seed``."""
    return seed * SEED_STRIDE + index


def enumerate_kwargs(
    workload: Workload,
    seed: int,
    kernels: Optional[Sequence[str]] = None,
    trials: Optional[int] = None,
) -> Dict[str, Any]:
    """Keyword arguments of ``enumerate_sweep_tasks`` for one sweep, exactly
    as ``python -m repro.pipeline`` builds them from its defaults."""
    return dict(
        suite="npbench",
        workloads=list(kernels) if kernels else None,
        buggy=workload.buggy,
        max_instances=workload.max_instances,
        verifier_kwargs=dict(
            num_trials=trials if trials is not None else workload.trials,
            seed=seed,
            size_max=workload.size_max,
            minimize_inputs=False,
            backend=workload.backend,
            trial_batch=1,
        ),
    )


# ---------------------------------------------------------------------- #
# Outcomes and the pinned reference
# ---------------------------------------------------------------------- #
def outcome_key(outcome: Dict[str, Any]) -> str:
    """Reference key of an outcome: ``kernel/transformation/match_index``."""
    return f"{outcome['workload']}/{outcome['transformation']}/{outcome['match_index']}"


def summarize_outcomes(outcomes: Sequence[Dict[str, Any]]) -> List[Dict[str, Any]]:
    """The fields of each sweep outcome that the benchmark checks and times."""
    rows = []
    for o in outcomes:
        report = o.get("report") or {}
        fuzzing = report.get("fuzzing") or {}
        rows.append({
            "key": outcome_key(o),
            "verdict": o["verdict"],
            "error": o.get("error"),
            "duration_s": report.get("duration_seconds") or 0.0,
            "trials": fuzzing.get("trials_attempted") or 0,
        })
    return rows


def load_reference(path: str = REFERENCE_PATH) -> Dict[str, Any]:
    with open(path, "r", encoding="utf-8") as f:
        return json.load(f)


@dataclass
class Check:
    """Verdict check of one sweep against the pinned reference."""

    attempted: int
    mismatches: int
    errors: int
    #: Keys of seed-sensitive instances whose pass/fail flip was tolerated.
    flips: List[str]
    counts_ok: bool
    problems: List[str]

    @property
    def failed(self) -> int:
        return self.mismatches + self.errors


def check_sweep(
    rows: Sequence[Dict[str, Any]],
    reference: Dict[str, Any],
    workload: Workload,
    seed: int,
    trials: Optional[int],
    full_sweep: bool,
) -> Check:
    """Compare one sweep's verdicts with the pinned reference.

    Every instance must agree on pass/fail, except that at a seed other than
    the pinned one, up to the reference's ``max_flips_per_sweep`` instances
    it lists as ``seed_sensitive`` may flip (returned in ``flips``); any
    further flip is a mismatch.  At the pinned seed and trial budget the
    exact verdict class must agree too (other seeds may move an instance
    between ``semantic_change`` and ``input_dependent``).  A full sweep must
    also reproduce the reference's instance count and, tolerated flips
    aside, its failure count.  An instance that ends UNTESTED or carries an
    error counts as an error.
    """
    table = reference["workloads"][workload.reference]
    verdicts: Dict[str, str] = table["verdicts"]
    exact = seed == reference["pinned_seed"] and (trials or workload.trials) == table["trials"]
    sensitive = table.get("seed_sensitive", {})
    limit = reference["max_flips_per_sweep"]
    problems: List[str] = []
    flips: List[str] = []
    mismatches = errors = 0
    #: Net change of the failure count made by tolerated flips.
    flip_delta = 0
    for row in rows:
        expected = verdicts.get(row["key"])
        if row["error"] or row["verdict"] == "untested":
            errors += 1
            problems.append(f"{row['key']}: {row['verdict']} ({row['error']})")
        elif expected is None:
            mismatches += 1
            problems.append(f"{row['key']}: not in the reference")
        elif exact and row["verdict"] != expected:
            mismatches += 1
            problems.append(f"{row['key']}: {row['verdict']}, reference {expected}")
        elif (row["verdict"] != "pass") != (expected != "pass"):
            if row["key"] in sensitive and not exact and len(flips) < limit:
                flips.append(row["key"])
                problems.append(f"{row['key']}: {row['verdict']} (seed-sensitive flip)")
                flip_delta += 1 if expected == "pass" else -1
            else:
                mismatches += 1
                beyond = (f", beyond {limit} tolerated seed-sensitive flip(s) per sweep"
                          if row["key"] in sensitive and not exact else "")
                problems.append(f"{row['key']}: {row['verdict']}, reference {expected}{beyond}")
    counts_ok = True
    if full_sweep:
        missing = set(verdicts) - {row["key"] for row in rows}
        mismatches += len(missing)
        problems.extend(f"{key}: missing from the sweep" for key in sorted(missing))
        failing = sum(1 for row in rows if row["verdict"] != "pass") - flip_delta
        counts_ok = len(rows) == table["instances"] and failing == table["failing"]
        if not counts_ok:
            problems.append(
                f"{len(rows)} instances / {failing} failing (seed flips undone), "
                f"reference {table['instances']} / {table['failing']}"
            )
    return Check(len(rows), mismatches, errors, flips, counts_ok, problems)


# ---------------------------------------------------------------------- #
# Processes
# ---------------------------------------------------------------------- #
def child_env() -> Dict[str, str]:
    """Environment of every process the benchmark starts: the checkout's
    ``src`` first on the path, no inherited tracing or fault injection."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for name in ("REPRO_TRACE", "REPRO_FAULTS", "REPRO_FAULT_SEED", "REPRO_CACHE_DIR"):
        env.pop(name, None)
    return env


def run_child(args: Sequence[str], timeout: float) -> Dict[str, Any]:
    """Run ``python <args>`` to completion; return its last stdout line as JSON."""
    proc = subprocess.run(
        [sys.executable, *args],
        cwd=ROOT,
        env=child_env(),
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        timeout=timeout,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(
            f"{' '.join(args)} exited with {proc.returncode}:\n{proc.stderr[-2000:]}"
        )
    return json.loads(lines[-1])


def peak_rss_mb(pid: Optional[int] = None) -> float:
    """Peak resident set size (``VmHWM``) of a process, in MiB."""
    path = f"/proc/{pid if pid is not None else 'self'}/status"
    with open(path, "r", encoding="utf-8") as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM in {path}")


# ---------------------------------------------------------------------- #
# Statistics
# ---------------------------------------------------------------------- #
def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank ``q``-th percentile (0 < q <= 100) of ``values``."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]

