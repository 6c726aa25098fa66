"""Regenerate ``reference.json``, the benchmark's pinned verdicts.

Usage, from the checkout root::

    PYTHONPATH=src python3 perfbench/make_reference.py [--workers W]

Runs each reference sweep once at the pinned seed on the
``cross:compiled,interpreter`` backend, which executes every trial on both
tiers and fails on any divergence, so the interpreter oracle -- not the
tier a workload times -- decides each verdict.

Two more runs find the instances whose pass/fail may depend on the seed:

* a probe re-runs the sweep at the pinned seed with :data:`PROBE_TRIALS`
  trials and no early stop; an instance with both failing and passing
  trials is *seed-sensitive* (six trials at another seed may see only
  passing inputs, or only failing ones);
* a census re-runs the sweep on the workload's own backend at seeds
  ``1..N``; every pass/fail flip it sees must be a seed-sensitive instance,
  or no reference is written.

Refuses to write a reference from a sweep with errors.
"""

import argparse
import json
import sys
from dataclasses import replace

import harness

PINNED_SEED = 0
BACKEND = "cross:compiled,interpreter"
PROBE_TRIALS = 100
#: Census seeds per reference sweep: the buggy sweep is cheap and its
#: input-dependent bugs are missed rarely, so it gets the most seeds.
CENSUS = {"npbench-buggy": 200, "npbench-clean-t50": 20}
#: Seed flips tolerated in one sweep and in one run (distinct seed and
#: instance pairs).  A census seed flips at most one instance, at about 1%
#: of seeds, so a run of ~25 seeds sees more than three flips with a
#: probability near 1e-4, while a fuzzer that misses one of these bugs on
#: every seed fails the run.
MAX_FLIPS_PER_SWEEP = 1
MAX_FLIPS_PER_RUN = 3
CAVEAT = (
    "The exact class of an instance holds only at the pinned seed and trial "
    "budget: across seeds, a few failing instances move between "
    "semantic_change and input_dependent (1-4 on seeds 1-3).  Pass/fail "
    "holds at every seed except for the instances listed under "
    "seed_sensitive: injected bugs that only some input sizes trigger (the "
    "probe's failing and effective trials out of 100), which six trials at "
    "some seeds never sample.  The benchmark counts a pass/fail flip of one "
    "of those at another seed as a seed flip, and tolerates at most "
    "max_flips_per_sweep of them in a sweep and max_flips_per_run in a run "
    "(the census saw at most one per seed, at about 1% of seeds); any other "
    "pass/fail difference fails the run."
)


def run_sweep(workload, seed, workers=1, trials=None, stop_on_failure=True):
    """``{instance key: outcome}`` of one sweep."""
    from repro.pipeline import SweepRunner, enumerate_sweep_tasks

    kwargs = harness.enumerate_kwargs(workload, seed, trials=trials)
    kwargs["verifier_kwargs"]["stop_on_failure"] = stop_on_failure
    result = SweepRunner(workers=workers).run(enumerate_sweep_tasks(**kwargs))
    if result.errors():
        raise RuntimeError(f"{workload.name} seed {seed}: {result.errors()[0]}")
    return {harness.outcome_key(o): o for o in result.outcomes}


def seed_sensitive(workload, workers):
    """Instances whose probe trials both fail and pass, with the counts."""
    out = {}
    probe = replace(workload, backend="compiled")
    for key, outcome in run_sweep(probe, PINNED_SEED, workers, PROBE_TRIALS, False).items():
        fuzzing = (outcome["report"] or {}).get("fuzzing") or {}
        failures, effective = fuzzing.get("failures", 0), fuzzing.get("trials_effective", 0)
        if 0 < failures < effective:
            out[key] = {"failures": failures, "effective": effective}
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workers", type=int, default=1,
                        help="sweep worker processes for the probe and census")
    args = parser.parse_args()

    tables = {}
    for name, census in CENSUS.items():
        workload = harness.WORKLOADS[name]
        pinned = run_sweep(replace(workload, backend=BACKEND), PINNED_SEED)
        verdicts = {key: o["verdict"] for key, o in pinned.items()}
        sensitive = seed_sensitive(workload, args.workers)
        seeds = range(1, 1 + census)
        flips = {}
        for seed in seeds:
            for key, outcome in run_sweep(workload, seed, args.workers).items():
                if (outcome["verdict"] != "pass") != (verdicts[key] != "pass"):
                    flips.setdefault(key, []).append(seed)
        print(f"{name}: {len(verdicts)} instances, "
              f"{sum(1 for v in verdicts.values() if v != 'pass')} failing; "
              f"{len(sensitive)} seed-sensitive; pass/fail flips over "
              f"{len(seeds)} census seeds: {flips or 'none'}")
        unexplained = set(flips) - set(sensitive)
        if unexplained:
            print(f"error: census flips outside the probe: {sorted(unexplained)}",
                  file=sys.stderr)
            return 1
        for key, seeds_flipped in flips.items():
            sensitive[key]["census_flips"] = seeds_flipped
        tables[name] = {
            "buggy": workload.buggy,
            "trials": workload.trials,
            "instances": len(verdicts),
            "failing": sum(1 for v in verdicts.values() if v != "pass"),
            "census_seeds": len(seeds),
            "seed_sensitive": dict(sorted(sensitive.items())),
            "verdicts": dict(sorted(verdicts.items())),
        }
    doc = {
        "pinned_seed": PINNED_SEED,
        "backend": BACKEND,
        "key": "kernel/transformation/match_index",
        "caveat": CAVEAT,
        "max_flips_per_sweep": MAX_FLIPS_PER_SWEEP,
        "max_flips_per_run": MAX_FLIPS_PER_RUN,
        "workloads": tables,
    }
    with open(harness.REFERENCE_PATH, "w", encoding="utf-8") as f:
        json.dump(doc, f, indent=1)
        f.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
