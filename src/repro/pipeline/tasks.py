"""Task enumeration for the parallel sweep pipeline.

A *sweep task* is one (workload x transformation x match instance) triple,
described entirely by plain picklable data: the workload is referenced by
its (suite, name) pair (or shipped as serialized JSON for custom programs),
the transformation by its registry name plus constructor kwargs, and the
match by its index in the deterministic enumeration order of
:meth:`repro.core.verifier.FuzzyFlowVerifier.enumerate_instances`.  Worker
processes rebuild everything from these descriptions -- no SDFG objects
cross the process boundary.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Sequence

from repro.core.verifier import FuzzyFlowVerifier
from repro.sdfg.sdfg import SDFG
from repro.sdfg.serialize import sdfg_from_json, sdfg_to_json
from repro.transforms import PatternTransformation, all_builtin_transformations
from repro.workloads import build_workload, get_workload_suite

__all__ = [
    "TransformationSpec",
    "SweepTask",
    "default_transformation_specs",
    "enumerate_sweep_tasks",
]

#: Suite name used for tasks that carry their program as serialized JSON.
CUSTOM_SUITE = "custom"


@dataclass(frozen=True)
class TransformationSpec:
    """A transformation referenced by registry name plus constructor kwargs."""

    name: str
    kwargs: Dict[str, Any] = field(default_factory=dict)

    def instantiate(self) -> PatternTransformation:
        registry = all_builtin_transformations()
        if self.name not in registry:
            raise KeyError(
                f"Unknown transformation '{self.name}' "
                f"(available: {', '.join(sorted(registry))})"
            )
        return registry[self.name](**dict(self.kwargs))


def default_transformation_specs(buggy: bool = False) -> List[TransformationSpec]:
    """One spec per registered built-in transformation (the Sec. 6.3 set)."""
    return [
        TransformationSpec(name, {"inject_bug": buggy})
        for name in sorted(all_builtin_transformations())
    ]


@dataclass
class SweepTask:
    """One (workload x transformation x match instance) unit of sweep work."""

    suite: str
    workload: str
    transformation: TransformationSpec
    match_index: int
    match_description: str
    symbols: Dict[str, int] = field(default_factory=dict)
    verifier_kwargs: Dict[str, Any] = field(default_factory=dict)
    #: Serialized program for ``suite == "custom"`` tasks (see
    #: :func:`repro.sdfg.serialize.sdfg_to_json`).
    sdfg_json: Optional[str] = None

    def build_sdfg(self) -> SDFG:
        """Rebuild the workload program on the worker side."""
        if self.sdfg_json is not None:
            return sdfg_from_json(self.sdfg_json)
        return build_workload(self.suite, self.workload)

    def describe(self) -> str:
        return f"{self.workload} / {self.transformation.name} #{self.match_index}"

    # ------------------------------------------------------------------ #
    # Identity and wire format (journal keys + cluster protocol)
    # ------------------------------------------------------------------ #
    @property
    def task_id(self) -> str:
        """Deterministic identity of this unit of work.

        The hash covers everything that decides the task's *outcome*: its
        coordinates, the fuzzing configuration and (for custom workloads)
        the serialized program.  Three fields are deliberately excluded:
        ``match_description`` (cosmetic, derived from the coordinates) and
        the ``backend`` and ``trial_batch`` entries of ``verifier_kwargs``
        -- backends are bitwise-equivalent by contract and trial batching
        is a pure execution-strategy knob with serial-identical verdicts,
        so a resumed or distributed sweep may complete a task on a
        different backend or batch size than the one that journaled it
        (heterogeneous workers are a free cross-check, not a different
        sweep).
        """
        kwargs = {
            k: v
            for k, v in self.verifier_kwargs.items()
            if k not in ("backend", "trial_batch")
        }
        basis = {
            "suite": self.suite,
            "workload": self.workload,
            "transformation": {
                "name": self.transformation.name,
                "kwargs": dict(self.transformation.kwargs),
            },
            "match_index": self.match_index,
            "symbols": dict(self.symbols),
            "verifier_kwargs": kwargs,
            "sdfg_json": self.sdfg_json,
        }
        canon = json.dumps(basis, sort_keys=True, default=str)
        return hashlib.sha256(canon.encode("utf-8")).hexdigest()[:16]

    def to_dict(self) -> Dict[str, Any]:
        """JSON-safe description for the cluster wire protocol."""
        return {
            "suite": self.suite,
            "workload": self.workload,
            "transformation": {
                "name": self.transformation.name,
                "kwargs": dict(self.transformation.kwargs),
            },
            "match_index": self.match_index,
            "match_description": self.match_description,
            "symbols": dict(self.symbols),
            "verifier_kwargs": dict(self.verifier_kwargs),
            "sdfg_json": self.sdfg_json,
        }

    @classmethod
    def from_dict(cls, d: Mapping[str, Any]) -> "SweepTask":
        return cls(
            suite=d["suite"],
            workload=d["workload"],
            transformation=TransformationSpec(
                d["transformation"]["name"], dict(d["transformation"]["kwargs"])
            ),
            match_index=d["match_index"],
            match_description=d.get("match_description", ""),
            symbols=dict(d.get("symbols", {})),
            verifier_kwargs=dict(d.get("verifier_kwargs", {})),
            sdfg_json=d.get("sdfg_json"),
        )


def enumerate_sweep_tasks(
    suite: str = "npbench",
    workloads: Optional[Sequence[str]] = None,
    transformations: Optional[Sequence[TransformationSpec]] = None,
    buggy: bool = False,
    max_instances: Optional[int] = None,
    verifier_kwargs: Optional[Mapping[str, Any]] = None,
    custom_workloads: Optional[Sequence[tuple]] = None,
) -> List[SweepTask]:
    """Enumerate every (workload x transformation x match instance) task.

    ``workloads`` restricts the sweep to a subset of the suite's kernels by
    name.  ``transformations`` defaults to every registered built-in
    transformation with ``inject_bug=buggy``.  ``custom_workloads`` adds
    ``(name, sdfg, symbols)`` triples outside any registered suite; their
    programs are shipped to workers as serialized JSON.
    """
    transformations = list(transformations or default_transformation_specs(buggy))
    verifier_kwargs = dict(verifier_kwargs or {})
    verifier = FuzzyFlowVerifier(**verifier_kwargs)

    entries: List[tuple] = []
    if custom_workloads is None or suite != CUSTOM_SUITE:
        specs = get_workload_suite(suite)
        if workloads is not None:
            wanted = set(workloads)
            unknown = wanted - {s.name for s in specs}
            if unknown:
                raise KeyError(f"Unknown workloads in suite '{suite}': {sorted(unknown)}")
            specs = [s for s in specs if s.name in wanted]
        for wspec in specs:
            entries.append(
                (suite, wspec.name, build_workload(suite, wspec.name), dict(wspec.symbols), None)
            )
    for name, sdfg, symbols in custom_workloads or []:
        entries.append((CUSTOM_SUITE, name, sdfg, dict(symbols), sdfg_to_json(sdfg)))

    tasks: List[SweepTask] = []
    for entry_suite, wname, sdfg, symbols, sdfg_json in entries:
        for tspec in transformations:
            xform = tspec.instantiate()
            matches = verifier.enumerate_instances(sdfg, xform, max_instances=max_instances)
            for index, match in enumerate(matches):
                tasks.append(
                    SweepTask(
                        suite=entry_suite,
                        workload=wname,
                        transformation=tspec,
                        match_index=index,
                        match_description=match.describe(),
                        symbols=symbols,
                        verifier_kwargs=verifier_kwargs,
                        sdfg_json=sdfg_json,
                    )
                )
    return tasks
