"""Fast self-test of the sweep benchmark harness.

Runs every workload on one kernel with one fuzzing trial, traced and
untraced, and checks that each run emits exactly the metrics
``BENCHMARK.json`` names, with their units; that the trace it writes
conforms to the span schema; that a wrong reference entry fails the run;
that seed-sensitive flips are tolerated only up to the reference's limits;
and that the benchmark refuses to run without the program's sources.

Run it by name (a bare ``pytest`` does not collect it)::

    PYTHONPATH=src python -m pytest perfbench/tests/selftest.py -q
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

BENCH_DIR = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH_DIR)
RUN = os.path.join(BENCH_DIR, "run.py")
WORKLOADS = ("npbench-buggy", "npbench-clean-t50", "service-buggy")
#: One kernel with a failing and a passing buggy instance whose verdicts
#: at one trial and the pinned seed match the six-trial reference.
SMALL = ["--kernels", "jacobi_2d", "--trials", "1"]
FAILING, PASSING = "jacobi_2d/MapExpansion/0", "jacobi_2d/MapTiling/0"


def _start(workload, trace, *extra, seconds=0, cwd=ROOT):
    return subprocess.Popen(
        [sys.executable, RUN if cwd == ROOT else "perfbench/run.py",
         "--workload", workload, "--seed", "0", "--trace", str(trace),
         "--seconds", str(seconds), *SMALL, *extra],
        cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )


def _finish(proc):
    out, err = proc.communicate(timeout=170)
    lines = out.strip().splitlines()
    return proc.returncode, (json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None), err


@pytest.fixture(scope="module")
def runs():
    """All six small runs, started together (they measure nothing)."""
    procs = {(w, t): _start(w, t) for w in WORKLOADS for t in (0, 1)}
    return {key: _finish(proc) for key, proc in procs.items()}


@pytest.fixture(scope="module")
def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        return json.load(f)


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", (0, 1))
def test_every_metric_is_emitted_with_its_unit(runs, spec, workload, trace):
    code, result, err = runs[(workload, trace)]
    assert code == 0, err
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 2
    wanted = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == wanted
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_trace_conforms_and_adds_up(runs, workload):
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from repro.telemetry.trace import read_events, validate_event

    metrics = {k: v["value"] for k, v in runs[(workload, 1)][1]["metrics"].items()}
    path = os.path.join(ROOT, ".perfbench-run", f"trace-{workload}.jsonl")
    events = [e for _, e in read_events(path)]
    assert events and all(validate_event(e) is None for e in events)
    assert any(e["args"]["task_id"] for e in events)
    self_times = [v for k, v in metrics.items()
                  if k.endswith("_s") and k not in
                  ("traced_sweep_s", "trace_overhead_s", "pipeline.enumerate_s",
                   "cluster.first_verdict_s", "cluster.overhead_s")]
    assert sum(self_times) == pytest.approx(metrics["traced_sweep_s"], rel=0.02)


def _inverted_reference(tmp_path, keys, seed_sensitive):
    """A copy of the reference with the pass/fail of ``keys`` inverted."""
    with open(os.path.join(BENCH_DIR, "reference.json"), encoding="utf-8") as f:
        reference = json.load(f)
    table = reference["workloads"]["npbench-buggy"]
    assert table["verdicts"][FAILING] != "pass" and table["verdicts"][PASSING] == "pass"
    for key in keys:
        table["verdicts"][key] = "pass" if key == FAILING else "semantic_change"
        if seed_sensitive:
            table["seed_sensitive"][key] = {}
    tmp_path.mkdir(exist_ok=True)
    path = tmp_path / "reference.json"
    path.write_text(json.dumps(reference))
    return str(path)


@pytest.mark.parametrize("workload", ("npbench-buggy", "service-buggy"))
def test_wrong_reference_entry_fails_the_run(tmp_path, workload):
    wrong = _inverted_reference(tmp_path, [FAILING], seed_sensitive=False)
    code, result, err = _finish(_start(workload, 0, "--reference", wrong))
    assert code == 1
    # One of the kernel's two instances is wrong in every sweep.
    assert result["correct"] is False and result["failed"] * 2 == result["attempted"]
    assert FAILING in err
    leftovers = os.listdir(os.path.join(ROOT, ".perfbench-run"))
    assert not [d for d in leftovers if d.startswith(("run-", "probe-"))]


def test_seed_flips_are_tolerated_only_within_the_limits(tmp_path):
    # One trial is not the reference's budget, so every sweep is checked on
    # pass/fail only, and an inverted seed-sensitive entry reads as a flip.
    one = _inverted_reference(tmp_path / "one", [FAILING], seed_sensitive=True)
    code, result, err = _finish(_start("npbench-buggy", 0, "--reference", one))
    # Three sweeps on three seeds: one flip each, the run's limit.
    assert code == 0 and result["correct"] is True, err
    assert result["attempted"] == 6 and err.count("seed-sensitive flip") == 3

    code, result, err = _finish(_start("npbench-buggy", 0, "--reference", one, seconds=10))
    sweeps = result["attempted"] // 2
    assert sweeps > 3 and code == 1 and result["correct"] is False
    assert result["failed"] == sweeps - 3 and "tolerated per run" in err

    both = _inverted_reference(tmp_path / "both", [FAILING, PASSING], seed_sensitive=True)
    code, result, err = _finish(_start("npbench-buggy", 0, "--reference", both))
    # Two flips in every sweep: the second exceeds the per-sweep limit.
    assert code == 1 and result["correct"] is False
    assert result["failed"] == 3 and "tolerated seed-sensitive flip(s) per sweep" in err


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    code, result, err = _finish(_start("npbench-buggy", 0, cwd=str(tmp_path)))
    assert code != 0 and result is None
    assert "missing" in err
