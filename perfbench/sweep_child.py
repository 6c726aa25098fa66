"""One benchmark sweep in a fresh interpreter, as ``python -m repro.pipeline``
runs it: import, enumerate, execute serially, render the JSON and Markdown
reports.  Prints one JSON line with the timings and the outcomes.

Usage (from the checkout root, with ``src`` on ``PYTHONPATH``)::

    python perfbench/sweep_child.py --workload npbench-buggy --fuzz-seed 0 \\
        [--spans PATH] [--kernels a,b] [--trials N]
    python perfbench/sweep_child.py --workload service-buggy --setup-probe

``--spans PATH`` wraps every layer (see ``layers.py``) and writes the
recorded spans to PATH at exit.  ``--setup-probe`` times only the set-up of
a service workload (imports, enumeration, service start, worker connect)
and tears it down again.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--fuzz-seed", type=int, default=0)
    parser.add_argument("--spans", default=None)
    parser.add_argument("--kernels", default=None)
    parser.add_argument("--trials", type=int, default=None)
    parser.add_argument("--setup-probe", action="store_true")
    args = parser.parse_args()

    import harness

    workload = harness.WORKLOADS[args.workload]
    kernels = args.kernels.split(",") if args.kernels else None
    if args.setup_probe:
        import service_harness

        setup_s = service_harness.probe_setup(
            T0, harness.enumerate_kwargs(workload, args.fuzz_seed, kernels, args.trials)
        )
        print(json.dumps({"setup_s": setup_s}))
        return 0

    from repro.pipeline import runner as runner_mod
    from repro.pipeline import tasks as tasks_mod

    recorder = None
    if args.spans:
        import layers

        recorder = layers.Recorder()
        layers.install(recorder)
    tasks = tasks_mod.enumerate_sweep_tasks(
        **harness.enumerate_kwargs(workload, args.fuzz_seed, kernels, args.trials)
    )
    setup_s = time.perf_counter() - T0

    landed = []

    def on_land(index, outcome, done, total):
        landed.append(time.perf_counter())

    root = recorder.begin(layers.ROOT) if recorder else None
    start = time.perf_counter()
    result = runner_mod.SweepRunner(workers=1).run(tasks, progress_callback=on_land)
    result.to_json()
    result.to_markdown()
    end = time.perf_counter()
    if recorder:
        recorder.end(root)
        recorder.dump(args.spans)

    marks = [start] + landed
    print(json.dumps({
        "setup_s": setup_s,
        "sweep_s": end - start,
        "first_verdict_s": landed[0] - start if landed else end - start,
        "verdict_s": [b - a for a, b in zip(marks, marks[1:])],
        "peak_rss_mb": harness.peak_rss_mb(),
        "rows": harness.summarize_outcomes(result.outcomes),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
