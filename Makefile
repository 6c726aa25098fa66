# Convenience targets; CI runs `make smoke` on every PR.

PY ?= python
export PYTHONPATH := src

.PHONY: test smoke smoke-dist smoke-chaos sweep bench-scaling bench-quick lint-arch perfbench-check

test:
	$(PY) -m pytest -x -q

# Exercise the sweep pipeline end to end (2 workers, tiny budget) once per
# execution backend -- the 'cross' pairs double as backend self-checks --
# then a pooled sweep through the persistent compile cache (cold, then warm
# from the populated cache), a traced mini sweep whose JSONL is validated
# against the trace-event schema, the distributed loopback check and the
# tier-1 test suite.
smoke:
	$(MAKE) lint-arch
	$(PY) -m repro.pipeline --suite npbench --workers 2 --trials 2 --max-instances 1 --backend interpreter
	$(PY) -m repro.pipeline --suite npbench --workers 2 --trials 2 --max-instances 1 --backend vectorized
	$(PY) -m repro.pipeline --suite npbench --workers 2 --trials 2 --max-instances 1 --backend compiled
	$(PY) -m repro.pipeline --suite npbench --workers 2 --trials 2 --max-instances 1 --backend cross
	$(PY) -m repro.pipeline --suite npbench --workers 2 --trials 2 --max-instances 1 --backend cross:compiled,interpreter
	$(PY) -m repro.pipeline --suite npbench --workers 2 --trials 2 --max-instances 1 --backend cross:batched,interpreter --trial-batch 4
	$(PY) -m repro.pipeline --suite npbench --workers 2 --trials 2 --max-instances 1 --backend cross:native,interpreter --trial-batch 4
	rm -rf .smoke-cache && \
	$(PY) -m repro.pipeline --suite npbench --workers 2 --trials 2 --max-instances 1 --backend compiled --cache-dir .smoke-cache && \
	$(PY) -m repro.pipeline --suite npbench --workers 2 --trials 2 --max-instances 1 --backend compiled --cache-dir .smoke-cache && \
	ls .smoke-cache/*.json > /dev/null && rm -rf .smoke-cache
	rm -f .smoke-trace.jsonl && \
	$(PY) -m repro.pipeline --suite npbench --workers 2 --trials 2 --max-instances 1 --backend compiled --trace .smoke-trace.jsonl && \
	$(PY) -m repro.telemetry --validate .smoke-trace.jsonl && \
	rm -f .smoke-trace.jsonl
	$(MAKE) smoke-dist
	$(MAKE) smoke-chaos
	$(PY) -m pytest -x -q

# Loopback distributed sweep, two scenarios:
# 1. a one-shot coordinator plus two worker subprocesses (running
#    *different* backends), journaled, diffed field-by-field against the
#    serial runner (modulo timing/host metadata);
# 2. the always-on verification service: two concurrent HTTP-submitted
#    sweeps on one service with a state directory, hard-stopped and
#    restored mid-run, served by elastic reconnecting workers -- both
#    sweeps must match their serial references with isolated journals and
#    zero re-runs across the restart.
smoke-dist:
	$(PY) -m repro.cluster.smoke --trials 2 --max-instances 1
	$(PY) -m repro.cluster.smoke --two-sweeps --trials 2 --max-instances 1

# The chaos kill-matrix (seeded fault injection, repro.faultinject):
# scenario A runs one sweep through a worker SIGKILL mid-lease, garbled
# frames in both directions, a deterministically garbled journal record, a
# hard service bounce and a torn journal tail -- and must land bitwise
# identical to the serial runner with faults disabled; scenario B poisons
# two workloads (crash / hang) under --task-timeout supervised workers and
# must complete with the poison quarantined, clean verdicts unchanged, and
# the deadline/hung-task metrics exposed.
smoke-chaos:
	$(PY) -m repro.cluster.chaos --trials 2 --max-instances 1

# The full injected-bug sweep at default scale.
sweep:
	$(PY) -m repro.pipeline --suite npbench --buggy --workers 4

bench-scaling:
	cd benchmarks && PYTHONPATH=../src $(PY) -m pytest bench_pipeline_scaling.py -q -s

# Interpreter / vectorized / compiled throughput at tiny sizes, including
# the loop-nest kernel and the multi-scope fusion kernel (asserts the >=2x
# scope-fusion speedup), plus fuzz-trial and compile-cache series
# (BENCH_backends.json).
bench-quick:
	cd benchmarks && PYTHONPATH=../src REPRO_BENCH_QUICK=1 $(PY) -m pytest bench_backend_throughput.py -q -s

# Pre-PR gate for the end-to-end benchmark (perfbench/): a short run of
# every workload at the pinned seed, each sweep's verdicts checked against
# perfbench/reference.json, then the harness self-test.  Fails on a
# non-zero exit or a result line with "correct": false.
PERFBENCH_WORKLOADS := npbench-buggy npbench-clean-t50 service-buggy

perfbench-check:
	mkdir -p .perfbench-run
	for w in $(PERFBENCH_WORKLOADS); do \
		out=.perfbench-run/check-$$w.out; \
		$(PY) perfbench/run.py --workload $$w --seed 0 --seconds 5 --trace 0 > $$out; \
		status=$$?; cat $$out; \
		[ $$status -eq 0 ] || { echo "perfbench-check: $$w exited $$status"; exit 1; }; \
		tail -n 1 $$out | $(PY) -c 'import json, sys; sys.exit(json.load(sys.stdin).get("correct") is not True)' \
			|| { echo "perfbench-check: $$w is not correct"; exit 1; }; \
	done
	$(PY) -m pytest perfbench/tests/selftest.py -q

# Structural invariants of src/repro/backends/ and src/repro/cluster/:
# module-size caps, the codegen -> execute layering rule (emitters never
# import the runtime), FFI containment (only the native bridge imports
# ctypes), cluster transport containment (only the service module imports
# asyncio; the scheduler core stays socket-free), clock containment
# (only repro.telemetry touches time.monotonic/perf_counter), and fault
# containment (only repro.faultinject may hard-kill/signal a process;
# fault helpers import from the package root only).
lint-arch:
	$(PY) tools/lint_arch.py
