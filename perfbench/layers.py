"""Outside-in layer tracing for the sweep benchmark.

:func:`install` wraps the public entry points of each layer of ``repro``
in timing wrappers, from the benchmark's own files: the program's sources
stay untouched.  Spans are kept in memory (:class:`Recorder`) and written
once, when the process ends, as a compact JSON list that :class:`Trace`
merges across processes.  :func:`write_trace` exports
the merged spans as Chrome trace events in the JSONL form that
``python -m repro.telemetry --validate`` accepts.

Self time of a span is its duration minus the part of its interval that
its children cover.  The self times of every span under a sweep's root,
plus the root's own self time -- the ``(unattributed)`` row -- add up to
the sweep's wall time.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import threading
import time
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

#: (layer, module, attribute path) of every wrapped entry point.
ENTRY_POINTS: Tuple[Tuple[str, str, str], ...] = (
    ("sdfg.clone", "repro.sdfg.sdfg", "SDFG.clone"),
    ("sdfg.validate", "repro.sdfg.validation", "validate_sdfg"),
    ("workloads.build", "repro.pipeline.tasks", "SweepTask.build_sdfg"),
    ("transforms.match", "repro.core.verifier", "FuzzyFlowVerifier.enumerate_instances"),
    ("core.cutout", "repro.core.cutout", "extract_cutout"),
    ("core.cutout", "repro.core.cutout", "transfer_match"),
    ("core.constraints", "repro.core.constraints", "derive_constraints"),
    ("core.fuzzing", "repro.core.fuzzing", "DifferentialFuzzer.run"),
    ("core.fuzzing.compare", "repro.core.fuzzing", "compare_system_states"),
    ("core.sampling", "repro.core.sampling", "InputSampler.sample"),
    ("pipeline.enumerate", "repro.pipeline.tasks", "enumerate_sweep_tasks"),
    ("pipeline.execute_task", "repro.pipeline.runner", "execute_task"),
    ("pipeline.report", "repro.pipeline.result", "SweepResult.to_json"),
    ("pipeline.report", "repro.pipeline.result", "SweepResult.to_markdown"),
)

#: Root span of one timed sweep; its self time is the ``(unattributed)`` row.
ROOT = "sweep"
#: The span whose self time is reported as ``pipeline.unattributed``.
TASK = "pipeline.execute_task"

# A recorded span: [layer, start, end, parent index or -1, task id or None].
Span = List[Any]


class Recorder:
    """In-memory span store with one call stack per thread."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._local = threading.local()

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, layer: str, task_id: Optional[str] = None) -> Span:
        stack = self._stack()
        span = [layer, 0.0, 0.0, stack[-1] if stack else -1, task_id]
        stack.append(len(self.spans))
        self.spans.append(span)
        span[1] = time.perf_counter()
        return span

    def end(self, span: Span) -> None:
        span[2] = time.perf_counter()
        self._stack().pop()

    def wrap(self, fn: Callable[..., Any], layer: str) -> Callable[..., Any]:
        recorder = self
        task_arg = layer == TASK

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            span = recorder.begin(layer, args[0].task_id if task_arg else None)
            try:
                return fn(*args, **kwargs)
            finally:
                recorder.end(span)

        return traced

    def dump(self, path: str) -> None:
        """Write the spans once, with this process's id, for :class:`Trace`."""
        with open(path, "w", encoding="utf-8") as f:
            json.dump({"pid": os.getpid(), "spans": self.spans}, f)


def _subclasses(cls: type) -> List[type]:
    out: List[type] = []
    for sub in cls.__subclasses__():
        out.append(sub)
        out.extend(_subclasses(sub))
    return out


def _dynamic_entry_points() -> List[Tuple[str, type, str]]:
    """Per-class methods: every transformation's ``apply``, every backend's
    ``prepare`` and every prepared program's ``run``/``run_batch``."""
    from repro.backends.base import CompiledProgram, ExecutionBackend
    from repro.transforms import PatternTransformation

    targets: List[Tuple[str, type, str]] = []
    for layer, base, attrs in (
        ("transforms.apply", PatternTransformation, ("apply",)),
        ("backends.prepare", ExecutionBackend, ("prepare",)),
        ("backends.run", CompiledProgram, ("run", "run_batch")),
    ):
        for cls in _subclasses(base):
            targets.extend((layer, cls, a) for a in attrs if a in vars(cls))
    return targets


def install(recorder: Recorder) -> None:
    """Wrap every layer entry point in ``recorder`` spans.

    Module-level functions are replaced in every ``repro`` module that
    imported them by name, so callers see the wrapper wherever they look
    the function up.
    """
    import importlib

    import repro.pipeline  # noqa: F401 - loads every layer the sweep uses

    for layer, module_name, path in ENTRY_POINTS:
        module = importlib.import_module(module_name)
        owner_name, _, attr = path.rpartition(".")
        if owner_name:
            owner = getattr(module, owner_name)
            setattr(owner, attr, recorder.wrap(vars(owner)[attr], layer))
            continue
        original = getattr(module, attr)
        traced = recorder.wrap(original, layer)
        for name, mod in list(sys.modules.items()):
            if name.startswith("repro") and getattr(mod, attr, None) is original:
                setattr(mod, attr, traced)
    for layer, cls, attr in _dynamic_entry_points():
        setattr(cls, attr, recorder.wrap(vars(cls)[attr], layer))


# ---------------------------------------------------------------------- #
# Attribution
# ---------------------------------------------------------------------- #
class Trace:
    """Spans of one run, merged across processes, with parents resolved.

    Each entry of ``spans`` is ``(layer, start, end, parent, task_id, pid)``
    with ``parent`` an index into ``spans`` (or -1).  A process's top-level
    spans that start inside another process's root span become children of
    that root: a service worker's tasks belong to the sweep that was
    waiting for them.
    """

    def __init__(self, dumps: Iterable[Dict[str, Any]]) -> None:
        self.spans: List[Tuple[str, float, float, int, Optional[str], int]] = []
        for dump in dumps:
            base = len(self.spans)
            for layer, start, end, parent, task_id in dump["spans"]:
                self.spans.append(
                    (layer, start, end, parent + base if parent >= 0 else -1,
                     task_id, dump["pid"])
                )
        roots = [i for i, s in enumerate(self.spans) if s[0] == ROOT]
        for i, (layer, start, end, parent, task_id, pid) in enumerate(self.spans):
            if parent >= 0 or layer == ROOT:
                continue
            for r in roots:
                root = self.spans[r]
                if root[5] != pid and root[1] <= start < root[2]:
                    self.spans[i] = (layer, start, end, r, task_id, pid)
                    break
        self.children: Dict[int, List[int]] = {}
        for i, span in enumerate(self.spans):
            if span[3] >= 0:
                self.children.setdefault(span[3], []).append(i)

    def self_time(self, index: int) -> float:
        """Duration minus the union of the children's intervals (clipped)."""
        _, start, end, *_ = self.spans[index]
        covered = 0.0
        cursor = start
        for s, e in sorted(
            (self.spans[c][1], self.spans[c][2]) for c in self.children.get(index, ())
        ):
            s, e = max(s, cursor), min(e, end)
            if e > s:
                covered += e - s
                cursor = e
        return (end - start) - covered

    def descendants(self, index: int) -> List[int]:
        out, todo = [], list(self.children.get(index, ()))
        while todo:
            i = todo.pop()
            out.append(i)
            todo.extend(self.children.get(i, ()))
        return out

    def task_of(self, index: int) -> Optional[str]:
        while index >= 0:
            span = self.spans[index]
            if span[4] is not None:
                return span[4]
            index = span[3]
        return None

    def layer_table(self, roots: Sequence[int]) -> Dict[str, Dict[str, float]]:
        """``{layer: {"self_s", "calls"}}`` summed over the given roots' trees;
        the roots' own self time is the ``(unattributed)`` row."""
        table: Dict[str, Dict[str, float]] = {}
        for r in roots:
            for i in [r] + self.descendants(r):
                layer = "(unattributed)" if i == r else self.spans[i][0]
                row = table.setdefault(layer, {"self_s": 0.0, "calls": 0})
                row["self_s"] += self.self_time(i)
                row["calls"] += 1
        return table

    def total(self, layer: str) -> Tuple[float, int]:
        """Inclusive seconds and call count of every span of ``layer``."""
        spans = [s for s in self.spans if s[0] == layer]
        return sum(s[2] - s[1] for s in spans), len(spans)


def load_dumps(paths: Sequence[str]) -> List[Dict[str, Any]]:
    dumps = []
    for path in paths:
        with open(path, "r", encoding="utf-8") as f:
            dumps.append(json.load(f))
    return dumps


def write_trace(trace: Trace, path: str) -> int:
    """Write every span as one Chrome trace event per line; returns the count.

    ``args`` carry the span's ``id``, its ``parent`` id and the ``task_id``
    of the sweep task it ran under, plus its self time in microseconds.
    """
    with open(path, "w", encoding="utf-8") as f:
        for i, (layer, start, end, parent, _, pid) in enumerate(trace.spans):
            event = {
                "name": layer,
                "cat": layer.split(".")[0],
                "ph": "X",
                "ts": start * 1e6,
                "dur": (end - start) * 1e6,
                "pid": pid,
                "tid": pid,
                "args": {
                    "id": i,
                    "parent": parent if parent >= 0 else None,
                    "task_id": trace.task_of(i),
                    "self_us": trace.self_time(i) * 1e6,
                },
            }
            f.write(json.dumps(event, separators=(",", ":")) + "\n")
    return len(trace.spans)
