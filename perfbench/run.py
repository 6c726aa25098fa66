"""End-to-end benchmark of the npbench verification sweep.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see ``BENCHMARK.json`` and ``perfbench/README.md``):

* ``npbench-buggy``     -- the ``--buggy`` sweep on the interpreter, 6 trials;
* ``npbench-clean-t50`` -- the clean sweep on ``compiled``, 50 trials;
* ``service-buggy``     -- the buggy sweep submitted over HTTP to a loopback
  verification service with one worker subprocess.

Every sweep runs serially with the CLI's sweep defaults and is checked
against the pinned verdicts in ``reference.json``.  Sweep ``i`` of a run
fuzzes with seed ``N * 1000 + i``.  In-process sweeps each run in a fresh
interpreter, as a ``python -m repro.pipeline`` invocation would; the
service workload reuses its long-lived worker after one warm-up sweep.
New sweeps start until the next one would end after ``S`` seconds.

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` alternates
untraced and traced sweeps on the same seeds and reports per-layer self
times from spans recorded around each layer's entry points (``layers.py``),
plus the tracing overhead.  The merged trace is written to
``.perfbench-run/trace-<workload>.jsonl``.  The last line of stdout is one
JSON object: ``{"correct", "attempted", "failed", "metrics"}``.
"""

import argparse
import json
import os
import shutil
import statistics
import sys
import time

import harness

#: End-to-end metrics (reported with ``--trace 0``): name -> unit.
END_TO_END = {
    "setup_s": "s",
    "sweep_s": "s",
    "instances_per_s": "1/s",
    "verdict_p50_ms": "ms",
    "verdict_p95_ms": "ms",
    "peak_rss_mb": "MB",
}

#: Per-layer metrics (reported with ``--trace 1``): name -> unit.  Times
#: and counts are means per traced sweep.
PER_LAYER = {
    "sdfg.clone_s": "s",
    "sdfg.clone_calls": "count",
    "workloads.build_s": "s",
    "workloads.build_calls": "count",
    "core.cutout_s": "s",
    "transforms.match_s": "s",
    "transforms.apply_s": "s",
    "sdfg.validate_s": "s",
    "core.constraints_s": "s",
    "core.fuzzing_s": "s",
    "core.fuzzing.trials": "count",
    "core.fuzzing.compare_s": "s",
    "core.fuzzing.seed_flips": "count",
    "core.sampling_s": "s",
    "core.sampling.samples": "count",
    "backends.prepare_s": "s",
    "backends.prepare_calls": "count",
    "backends.run_s": "s",
    "pipeline.enumerate_s": "s",
    "pipeline.report_s": "s",
    "pipeline.unattributed_s": "s",
    "cluster.submit_s": "s",
    "cluster.fetch_s": "s",
    "cluster.first_verdict_s": "s",
    "cluster.overhead_s": "s",
    "cluster.journal_bytes": "bytes",
    "cluster.journal_records": "count",
    "cluster.retries": "count",
    "unattributed_s": "s",
    "traced_sweep_s": "s",
    "trace_overhead_s": "s",
}

#: Span layer whose per-sweep self time each ``*_s`` metric reports.
SELF_TIME_LAYERS = {
    "sdfg.clone_s": "sdfg.clone",
    "workloads.build_s": "workloads.build",
    "core.cutout_s": "core.cutout",
    "transforms.match_s": "transforms.match",
    "transforms.apply_s": "transforms.apply",
    "sdfg.validate_s": "sdfg.validate",
    "core.constraints_s": "core.constraints",
    "core.fuzzing_s": "core.fuzzing",
    "core.fuzzing.compare_s": "core.fuzzing.compare",
    "core.sampling_s": "core.sampling",
    "backends.prepare_s": "backends.prepare",
    "backends.run_s": "backends.run",
    "pipeline.report_s": "pipeline.report",
    "pipeline.unattributed_s": "pipeline.execute_task",
    "cluster.submit_s": "cluster.submit",
    "cluster.fetch_s": "cluster.fetch",
    "unattributed_s": "(unattributed)",
}

#: Span layer whose per-sweep call count each count metric reports.
CALL_LAYERS = {
    "sdfg.clone_calls": "sdfg.clone",
    "workloads.build_calls": "workloads.build",
    "core.sampling.samples": "core.sampling",
    "backends.prepare_calls": "backends.prepare",
}

MIN_SWEEPS = 3
SETUP_PROBES = 5
CHILD_TIMEOUT = 100.0


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(harness.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--reference", default=harness.REFERENCE_PATH,
        help="pinned verdict reference (default: perfbench/reference.json)",
    )
    parser.add_argument(
        "--kernels", default=None,
        help="comma-separated kernel subset (self-test only; skips the "
        "whole-sweep count check)",
    )
    parser.add_argument("--trials", type=int, default=None, help="override the trial budget")
    return parser.parse_args(argv)


# ---------------------------------------------------------------------- #
# Workloads
# ---------------------------------------------------------------------- #
def child_args(args: argparse.Namespace, seed: int) -> list:
    out = [os.path.join(harness.BENCH_DIR, "sweep_child.py"),
           "--workload", args.workload, "--fuzz-seed", str(seed)]
    if args.kernels:
        out += ["--kernels", args.kernels]
    if args.trials is not None:
        out += ["--trials", str(args.trials)]
    return out


def window_open(begin: float, count: int, last: float, seconds: float, minimum: int) -> bool:
    """Start another sweep unless ``minimum`` ran and it would overrun."""
    return count < minimum or time.perf_counter() - begin + last <= seconds


def run_in_process(args: argparse.Namespace, run_dir: str) -> dict:
    """Fresh-interpreter sweeps; with tracing, untraced/traced pairs per seed."""
    per_seed = 2 if args.trace else 1
    sweeps = []
    begin = time.perf_counter()
    last = 0.0
    while window_open(begin, len(sweeps), last * per_seed, args.seconds, MIN_SWEEPS * per_seed):
        seed = harness.fuzz_seed(args.seed, len(sweeps) // per_seed)
        for traced in (False, True)[:per_seed]:
            spans = os.path.join(run_dir, f"spans-{len(sweeps)}.json") if traced else None
            started = time.perf_counter()
            record = harness.run_child(
                child_args(args, seed) + (["--spans", spans] if spans else []),
                CHILD_TIMEOUT,
            )
            last = time.perf_counter() - started
            record.update(fuzz_seed=seed, traced=traced, spans=spans, warmup=False)
            sweeps.append(record)
    dumps = []
    if args.trace:
        import layers

        dumps = layers.load_dumps([s["spans"] for s in sweeps if s["traced"]])
    return {
        "sweeps": sweeps,
        "setup_s": [s["setup_s"] for s in sweeps],
        "peak_rss_mb": statistics.median([s["peak_rss_mb"] for s in sweeps]),
        "retries": 0,
        "dumps": dumps,
    }


def run_service(args: argparse.Namespace, run_dir: str) -> dict:
    """Sweeps over HTTP against one loopback service and worker per phase.

    Untraced runs first time :data:`SETUP_PROBES` fresh set-ups.  Traced runs
    spend half the window untraced and half with a traced worker, on the
    same seeds.
    """
    sys.path.insert(0, harness.SRC)
    import layers
    import service_harness
    from repro.pipeline.tasks import enumerate_sweep_tasks

    setup = []
    if not args.trace:
        for _ in range(SETUP_PROBES):
            probe = harness.run_child(child_args(args, args.seed) + ["--setup-probe"], CHILD_TIMEOUT)
            setup.append(probe["setup_s"])

    workload = harness.WORKLOADS[args.workload]
    kernels = args.kernels.split(",") if args.kernels else None
    sweeps, dumps = [], []
    rss = []
    retries = 0
    phases = (False, True) if args.trace else (False,)
    for traced in phases:
        recorder = layers.Recorder() if traced else None
        worker_spans = os.path.join(run_dir, "worker-spans.json") if traced else None

        def tasks_for(seed):
            span = recorder.begin("pipeline.enumerate") if recorder else None
            tasks = enumerate_sweep_tasks(
                **harness.enumerate_kwargs(workload, seed, kernels, args.trials)
            )
            if recorder:
                recorder.end(span)
            return tasks

        with service_harness.LoopbackService(run_dir, worker_spans) as service:
            seed = harness.fuzz_seed(args.seed, 0)
            record = service.sweep(tasks_for(seed), recorder, root="warmup")
            record.update(fuzz_seed=seed, traced=traced, warmup=True)
            sweeps.append(record)
            begin = time.perf_counter()
            count = 0
            last = 0.0
            while window_open(begin, count, last, args.seconds / len(phases), MIN_SWEEPS):
                seed = harness.fuzz_seed(args.seed, count)
                tasks = tasks_for(seed)
                started = time.perf_counter()
                record = service.sweep(tasks, recorder)
                last = time.perf_counter() - started
                record.update(fuzz_seed=seed, traced=traced, warmup=False)
                sweeps.append(record)
                count += 1
            rss.append(service.worker_peak_rss_mb())
            retries += service.retries()
        if traced:
            dumps.append({"pid": os.getpid(), "spans": recorder.spans})
            dumps.extend(layers.load_dumps([worker_spans]))
    return {
        "sweeps": sweeps,
        "setup_s": setup,
        "peak_rss_mb": max(rss),
        "retries": retries,
        "dumps": dumps,
    }


# ---------------------------------------------------------------------- #
# Metrics
# ---------------------------------------------------------------------- #
def end_to_end_metrics(run: dict) -> dict:
    measured = [s for s in run["sweeps"] if not s["warmup"]]
    latencies_ms = [v * 1e3 for s in measured for v in s["verdict_s"]]
    return {
        # Set-up is the same work every time: its minimum is the figure
        # least disturbed by other load on the machine.
        "setup_s": min(run["setup_s"]),
        "sweep_s": statistics.median([s["sweep_s"] for s in measured]),
        "instances_per_s": sum(len(s["rows"]) for s in measured)
        / sum(s["sweep_s"] for s in measured),
        "verdict_p50_ms": harness.percentile(latencies_ms, 50),
        "verdict_p95_ms": harness.percentile(latencies_ms, 95),
        "peak_rss_mb": run["peak_rss_mb"],
    }, len(measured), len(latencies_ms)


def per_layer_metrics(run: dict, trace_path: str) -> tuple:
    import layers

    measured = [s for s in run["sweeps"] if not s["warmup"]]
    traced = [s for s in measured if s["traced"]]
    untraced = [s for s in measured if not s["traced"]][: len(traced)]
    trace = layers.Trace(run["dumps"])
    roots = [i for i, s in enumerate(trace.spans) if s[0] == layers.ROOT]
    table = trace.layer_table(roots)
    n = len(roots)
    metrics = {}
    for name, layer in SELF_TIME_LAYERS.items():
        metrics[name] = table.get(layer, {}).get("self_s", 0.0) / n
    for name, layer in CALL_LAYERS.items():
        metrics[name] = table.get(layer, {}).get("calls", 0) / n
    enum_s, enum_calls = trace.total("pipeline.enumerate")
    metrics["pipeline.enumerate_s"] = enum_s / max(1, enum_calls)
    metrics["core.fuzzing.trials"] = statistics.fmean(
        [sum(r["trials"] for r in s["rows"]) for s in traced]
    )

    def mean_of(key, default=0.0):
        return statistics.fmean([s.get(key, default) for s in untraced])

    metrics["cluster.first_verdict_s"] = mean_of("first_verdict_s")
    metrics["cluster.overhead_s"] = statistics.fmean(
        [s["sweep_s"] - sum(r["duration_s"] for r in s["rows"]) for s in untraced]
    )
    metrics["cluster.journal_bytes"] = mean_of("journal_bytes", 0)
    metrics["cluster.journal_records"] = mean_of("journal_records", 0)
    metrics["cluster.retries"] = run["retries"]
    metrics["core.fuzzing.seed_flips"] = statistics.fmean([len(s["flips"]) for s in measured])
    metrics["traced_sweep_s"] = statistics.fmean([s["sweep_s"] for s in traced])
    metrics["trace_overhead_s"] = metrics["traced_sweep_s"] - mean_of("sweep_s")
    written = layers.write_trace(trace, trace_path)
    return {k: metrics[k] for k in PER_LAYER}, table, n, written


def print_layer_table(table: dict, sweeps: int, wall_s: float) -> None:
    print(f"per-layer self time, mean of {sweeps} traced sweep(s), wall {wall_s:.4f} s:")
    total = 0.0
    for layer, row in sorted(table.items(), key=lambda kv: -kv[1]["self_s"]):
        share = row["self_s"] / sweeps
        total += share
        print(f"  {layer:26s} {share:9.4f} s {100 * share / wall_s:6.1f}%  "
              f"{row['calls'] / sweeps:9.1f} calls")
    print(f"  {'sum':26s} {total:9.4f} s {100 * total / wall_s:6.1f}%")


# ---------------------------------------------------------------------- #
def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(harness.SRC, "repro", "__init__.py")):
        print(f"error: no program to measure: {harness.SRC}/repro is missing", file=sys.stderr)
        return 2
    reference = harness.load_reference(args.reference)
    workload = harness.WORKLOADS[args.workload]
    run_dir = os.path.join(harness.RUN_DIR, f"run-{os.getpid()}")
    os.makedirs(run_dir, exist_ok=True)
    try:
        run = (run_service if workload.via_service else run_in_process)(args, run_dir)
        attempted = failed = errors = 0
        #: Distinct (fuzzing seed, instance) flips: a seed's sweeps repeat.
        flips = set()
        correct = run["retries"] == 0
        for sweep in run["sweeps"]:
            check = harness.check_sweep(
                sweep["rows"], reference, workload, sweep["fuzz_seed"], args.trials,
                full_sweep=not args.kernels,
            )
            sweep["flips"] = check.flips
            attempted += check.attempted
            failed += check.failed
            errors += check.errors
            flips.update((sweep["fuzz_seed"], key) for key in check.flips)
            correct = correct and check.failed == 0 and check.counts_ok
            for problem in check.problems:
                print(f"verdict check (seed {sweep['fuzz_seed']}): {problem}", file=sys.stderr)
        excess = len(flips) - reference["max_flips_per_run"]
        if excess > 0:
            correct = False
            failed += excess
            print(f"verdict check: {len(flips)} seed-sensitive flips, more than the "
                  f"{reference['max_flips_per_run']} tolerated per run", file=sys.stderr)
        trace_path = os.path.join(harness.RUN_DIR, f"trace-{args.workload}.jsonl")
        if args.trace:
            metrics, table, n_traced, written = per_layer_metrics(run, trace_path)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    print(f"workload {args.workload}, seed {args.seed}, {len(run['sweeps'])} sweep(s)")
    print(f"  verdict_mismatches {failed - errors} count, error_rate "
          f"{errors / max(1, attempted):.4f} (of {attempted} attempted), "
          f"seed-sensitive flips {len(flips)}, cluster retries {run['retries']}")
    if args.trace:
        print_layer_table(table, n_traced, metrics["traced_sweep_s"])
        print(f"trace: {written} span(s) in {os.path.relpath(trace_path, harness.ROOT)}")
        units = PER_LAYER
    else:
        metrics, n_sweeps, n_latencies = end_to_end_metrics(run)
        print(f"  {n_sweeps} timed sweep(s), {n_latencies} verdict latencies, "
              f"{len(run['setup_s'])} set-up(s)")
        units = END_TO_END
    for name, unit in units.items():
        print(f"  {name:26s} {metrics[name]:.6g} {unit}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
