"""The top-level FuzzyFlow workflow (Fig. 1).

:class:`FuzzyFlowVerifier` ties the pieces together for one transformation
instance:

1. **change isolation** -- obtain ΔT from the transformation (white box) or by
   graph diffing (black box),
2. **cutout extraction** -- build a standalone test program around ΔT with its
   input configuration and system state,
3. **input minimization** -- optionally shrink the input configuration with
   the minimum input-flow cut,
4. **transformation application** -- transfer the match onto the cutout and
   apply it; failures or invalid results are reported as "generates invalid
   code",
5. **gray-box differential fuzzing** -- sample constrained inputs and compare
   system states, and
6. **test-case generation** -- persist the fault-inducing input together with
   both cutouts when a fault is found.

``verify_whole_program`` provides the baseline the paper compares against:
differential testing of the *entire* application instead of the cutout.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.core.constraints import derive_constraints
from repro.core.cutout import Cutout, extract_cutout, transfer_match
from repro.core.coverage_fuzz import CoverageGuidedFuzzer
from repro.core.fuzzing import DifferentialFuzzer
from repro.core.input_minimization import MinimizationResult, minimize_input_configuration
from repro.core.reporting import (
    FuzzingReport,
    TransformationTestReport,
    Verdict,
)
from repro.core.sampling import InputSampler
from repro.core.testcase import ReproducibleTestCase, save_test_case
from repro.sdfg.sdfg import SDFG
from repro.sdfg.validation import InvalidSDFGError, validate_sdfg
from repro.telemetry import TRACER as _TRACER
from repro.telemetry import perf_counter as _perf_counter
from repro.transforms.base import Match, PatternTransformation, TransformationError

__all__ = ["FuzzyFlowVerifier", "verify_transformation"]


class FuzzyFlowVerifier:
    """Configurable driver for testing transformation instances."""

    def __init__(
        self,
        num_trials: int = 50,
        tolerance: float = 1e-5,
        minimize_inputs: bool = True,
        use_black_box: bool = False,
        vary_sizes: bool = True,
        stop_on_failure: bool = True,
        size_max: int = 32,
        seed: int = 0,
        max_transitions: int = 100_000,
        test_case_dir: Optional[str] = None,
        use_coverage_guidance: bool = False,
        backend: str = "interpreter",
        trial_batch: int = 1,
    ) -> None:
        self.num_trials = num_trials
        self.tolerance = tolerance
        self.minimize_inputs = minimize_inputs
        self.use_black_box = use_black_box
        self.vary_sizes = vary_sizes
        self.stop_on_failure = stop_on_failure
        self.size_max = size_max
        self.seed = seed
        self.max_transitions = max_transitions
        self.test_case_dir = test_case_dir
        self.use_coverage_guidance = use_coverage_guidance
        #: Execution backend for differential fuzzing ("interpreter",
        #: "vectorized" or the self-checking "cross"; see repro.backends).
        self.backend = backend
        #: Trials per run_batch call (1 = serial; >1 enables batch-axis
        #: execution on batch-capable backends such as "batched").
        self.trial_batch = trial_batch

    # ------------------------------------------------------------------ #
    def _executable(self, cutout: Cutout, sdfg: SDFG) -> SDFG:
        """Make the cutout's input-configuration and system-state containers
        non-transient *in place*, so a harness can set and inspect them.

        ``sdfg`` must be a private copy (the cutout's own program or a clone
        of it); call this only after the transformation is applied, because
        applicability checks read ``transient``."""
        for name in set(cutout.input_configuration) | set(cutout.system_state):
            if name in sdfg.arrays:
                sdfg.arrays[name].transient = False
        return sdfg

    # ------------------------------------------------------------------ #
    def verify(
        self,
        sdfg: SDFG,
        transformation: PatternTransformation,
        match: Optional[Match] = None,
        symbol_values: Optional[Mapping[str, int]] = None,
        fixed_symbols: Optional[Mapping[str, int]] = None,
        custom_constraints: Optional[Mapping[str, Tuple[int, int]]] = None,
    ) -> TransformationTestReport:
        """Test one transformation instance on a program."""
        start = _perf_counter()
        symbol_values = dict(symbol_values or {})

        if match is None:
            candidates = [
                m
                for m in transformation.find_matches(sdfg)
                if transformation.can_be_applied(sdfg, m)
            ]
            if not candidates:
                return TransformationTestReport(
                    transformation=transformation.name,
                    match_description="(no applicable match)",
                    verdict=Verdict.UNTESTED,
                    duration_seconds=_perf_counter() - start,
                )
            match = candidates[0]

        report = TransformationTestReport(
            transformation=transformation.name,
            match_description=match.describe(),
            verdict=Verdict.UNTESTED,
        )

        # 1-2. Change isolation + cutout extraction.
        try:
            with _TRACER.span("verify.cutout", "verify"):
                cutout = extract_cutout(
                    sdfg,
                    transformation=transformation,
                    match=match,
                    use_black_box=self.use_black_box,
                    symbol_values=symbol_values,
                )
        except Exception as exc:  # noqa: BLE001 - reported as a verdict
            report.verdict = Verdict.INVALID_CODE
            report.error_message = f"cutout extraction failed: {exc}"
            report.duration_seconds = _perf_counter() - start
            return report

        # 3. Input-configuration minimization (dataflow cutouts only).
        minimization: Optional[MinimizationResult] = None
        if self.minimize_inputs and cutout.kind == "dataflow":
            try:
                with _TRACER.span("verify.minimize", "verify"):
                    original_state = sdfg.state_by_label(cutout.state_labels[0])
                    minimization = minimize_input_configuration(
                        sdfg, original_state, cutout, symbol_values
                    )
                cutout = minimization.cutout
                report.minimized = minimization.minimized
            except Exception as exc:  # noqa: BLE001 - minimization is best effort
                report.warnings.append(f"input minimization skipped: {exc}")

        report.cutout_containers = len(cutout.sdfg.arrays)
        report.cutout_nodes = cutout.num_nodes()
        report.cutout_states = len(cutout.sdfg.states())
        report.input_configuration = list(cutout.input_configuration)
        report.system_state = list(cutout.system_state)
        report.warnings.extend(cutout.warnings)
        try:
            report.input_volume_elements = cutout.input_volume(symbol_values)
        except Exception:
            report.input_volume_elements = None

        if not cutout.system_state:
            report.warnings.append(
                "cutout has an empty system state; the transformation cannot "
                "affect program semantics through data"
            )

        # 4. Apply the transformation to the cutout.
        transformed = cutout.sdfg.clone(new_name=f"{cutout.sdfg.name}_transformed")
        try:
            with _TRACER.span("verify.apply", "verify"):
                cutout_match = transfer_match(transformation, match, transformed)
                transformation.apply(transformed, cutout_match)
        except Exception as exc:  # noqa: BLE001 - reported as a verdict
            report.verdict = Verdict.INVALID_CODE
            report.error_message = f"failed to apply transformation to the cutout: {exc}"
            report.duration_seconds = _perf_counter() - start
            return report

        original_exec = self._executable(cutout, cutout.sdfg)
        transformed_exec = self._executable(cutout, transformed)

        # 5. Structural validation of the transformed cutout.
        try:
            validate_sdfg(transformed_exec)
        except InvalidSDFGError as exc:
            report.verdict = Verdict.INVALID_CODE
            report.error_message = f"transformed program is invalid: {exc}"
            report.duration_seconds = _perf_counter() - start
            self._maybe_save_test_case(report, cutout, transformed, None, {}, symbol_values)
            return report

        # 6. Gray-box differential fuzzing.
        constraints = derive_constraints(
            original_exec,
            original_sdfg=sdfg,
            symbol_values=symbol_values,
            size_max=self.size_max,
            custom=custom_constraints,
        )
        sampler = InputSampler(
            original_exec,
            cutout.input_configuration,
            cutout.system_state,
            constraints=constraints,
            fixed_symbols=fixed_symbols,
            vary_sizes=self.vary_sizes,
            seed=self.seed,
        )
        fuzzer = DifferentialFuzzer(
            original_exec,
            transformed_exec,
            cutout.system_state,
            sampler,
            tolerance=self.tolerance,
            max_transitions=self.max_transitions,
            backend=self.backend,
            trial_batch=self.trial_batch,
        )
        with _TRACER.span("verify.fuzz", "verify") as span:
            span.set("trials", self.num_trials)
            if self.use_coverage_guidance:
                cg = CoverageGuidedFuzzer(fuzzer, sampler, seed=self.seed)
                fuzzing_report = cg.run(
                    max_trials=self.num_trials,
                    default_symbols={
                        k: int(v) for k, v in symbol_values.items()
                        if k in original_exec.free_symbols
                    } or None,
                    stop_on_failure=self.stop_on_failure,
                )
            else:
                fuzzing_report = fuzzer.run(
                    num_trials=self.num_trials, stop_on_failure=self.stop_on_failure
                )

        report.fuzzing = fuzzing_report
        report.verdict = fuzzing_report.verdict()
        report.duration_seconds = _perf_counter() - start

        if report.verdict.is_failure:
            self._maybe_save_test_case(
                report,
                cutout,
                transformed,
                fuzzing_report.failing_inputs,
                fuzzing_report.failing_symbols or {},
                symbol_values,
            )
        return report

    # ------------------------------------------------------------------ #
    def _maybe_save_test_case(
        self,
        report: TransformationTestReport,
        cutout: Cutout,
        transformed: SDFG,
        failing_inputs: Optional[Dict[str, np.ndarray]],
        failing_symbols: Dict[str, int],
        symbol_values: Mapping[str, int],
    ) -> None:
        if self.test_case_dir is None:
            return
        import os

        case = ReproducibleTestCase(
            name=f"{report.transformation}_{len(os.listdir(self.test_case_dir)) if os.path.isdir(self.test_case_dir) else 0}",
            transformation=report.transformation,
            original_cutout=cutout.sdfg,
            transformed_cutout=transformed,
            inputs=failing_inputs or {},
            symbols=failing_symbols or {k: int(v) for k, v in symbol_values.items()},
            system_state=list(cutout.system_state),
            input_configuration=list(cutout.input_configuration),
            verdict=report.verdict.value,
        )
        path = os.path.join(self.test_case_dir, case.name)
        report.test_case_path = save_test_case(case, path)

    # ------------------------------------------------------------------ #
    def enumerate_instances(
        self,
        sdfg: SDFG,
        transformation: PatternTransformation,
        max_instances: Optional[int] = None,
    ) -> List[Match]:
        """Enumerate the applicable matches of a transformation on a program.

        Enumeration is separable from execution: the sweep pipeline uses it
        to fan (workload x transformation x match instance) tasks out to
        worker processes, which re-enumerate by index on a worker-side
        rebuild of the same program.  The order is deterministic for a given
        program construction."""
        matches = [
            m
            for m in transformation.find_matches(sdfg)
            if transformation.can_be_applied(sdfg, m)
        ]
        if max_instances is not None:
            matches = matches[:max_instances]
        return matches

    def verify_instance(
        self,
        sdfg: SDFG,
        transformation: PatternTransformation,
        instance_index: int,
        symbol_values: Optional[Mapping[str, int]] = None,
        fixed_symbols: Optional[Mapping[str, int]] = None,
    ) -> TransformationTestReport:
        """Test the ``instance_index``-th applicable match of a transformation."""
        matches = self.enumerate_instances(sdfg, transformation)
        if instance_index < 0 or instance_index >= len(matches):
            return TransformationTestReport(
                transformation=transformation.name,
                match_description=f"(instance {instance_index} out of range, "
                f"{len(matches)} available)",
                verdict=Verdict.UNTESTED,
                error_message=f"instance index {instance_index} out of range: "
                f"only {len(matches)} applicable match(es) on this program build",
            )
        return self.verify(
            sdfg,
            transformation,
            match=matches[instance_index],
            symbol_values=symbol_values,
            fixed_symbols=fixed_symbols,
        )

    # ------------------------------------------------------------------ #
    def verify_all_instances(
        self,
        sdfg: SDFG,
        transformation: PatternTransformation,
        symbol_values: Optional[Mapping[str, int]] = None,
        fixed_symbols: Optional[Mapping[str, int]] = None,
        max_instances: Optional[int] = None,
    ) -> List[TransformationTestReport]:
        """Test every applicable instance of a transformation on a program.

        Each instance is tested on a fresh clone of the program (instances
        are independent, as in the paper's per-instance testing)."""
        reports: List[TransformationTestReport] = []
        for m in self.enumerate_instances(sdfg, transformation, max_instances):
            reports.append(
                self.verify(
                    sdfg,
                    transformation,
                    match=m,
                    symbol_values=symbol_values,
                    fixed_symbols=fixed_symbols,
                )
            )
        return reports

    # ------------------------------------------------------------------ #
    def verify_whole_program(
        self,
        sdfg: SDFG,
        transformation: PatternTransformation,
        match: Optional[Match] = None,
        symbol_values: Optional[Mapping[str, int]] = None,
        fixed_symbols: Optional[Mapping[str, int]] = None,
        num_trials: Optional[int] = None,
    ) -> TransformationTestReport:
        """Baseline: differential testing of the entire application.

        This is the "traditional approach" the paper compares cutout-based
        testing against (e.g. the 528x headline of Sec. 6.1)."""
        start = _perf_counter()
        symbol_values = dict(symbol_values or {})
        if match is None:
            candidates = [
                m
                for m in transformation.find_matches(sdfg)
                if transformation.can_be_applied(sdfg, m)
            ]
            if not candidates:
                return TransformationTestReport(
                    transformation=transformation.name,
                    match_description="(no applicable match)",
                    verdict=Verdict.UNTESTED,
                    duration_seconds=_perf_counter() - start,
                )
            match = candidates[0]

        report = TransformationTestReport(
            transformation=transformation.name,
            match_description=f"whole-program: {match.describe()}",
            verdict=Verdict.UNTESTED,
        )
        transformed = sdfg.clone(new_name=f"{sdfg.name}_transformed")
        try:
            prog_match = transfer_match(transformation, match, transformed)
            transformation.apply(transformed, prog_match)
            validate_sdfg(transformed)
        except InvalidSDFGError as exc:
            report.verdict = Verdict.INVALID_CODE
            report.error_message = str(exc)
            report.duration_seconds = _perf_counter() - start
            return report
        except Exception as exc:  # noqa: BLE001
            report.verdict = Verdict.INVALID_CODE
            report.error_message = f"failed to apply transformation: {exc}"
            report.duration_seconds = _perf_counter() - start
            return report

        non_transient = [n for n, d in sdfg.arrays.items() if not d.transient]
        report.input_configuration = list(non_transient)
        report.system_state = list(non_transient)
        report.cutout_containers = len(sdfg.arrays)
        report.cutout_nodes = sum(len(s.nodes()) for s in sdfg.states())
        report.cutout_states = len(sdfg.states())

        constraints = derive_constraints(
            sdfg, original_sdfg=sdfg, symbol_values=symbol_values, size_max=self.size_max
        )
        sampler = InputSampler(
            sdfg,
            non_transient,
            non_transient,
            constraints=constraints,
            fixed_symbols=fixed_symbols,
            vary_sizes=self.vary_sizes,
            seed=self.seed,
        )
        fuzzer = DifferentialFuzzer(
            sdfg,
            transformed,
            non_transient,
            sampler,
            tolerance=self.tolerance,
            max_transitions=self.max_transitions,
            backend=self.backend,
            trial_batch=self.trial_batch,
        )
        fuzzing_report = fuzzer.run(
            num_trials=num_trials if num_trials is not None else self.num_trials,
            stop_on_failure=self.stop_on_failure,
        )
        report.fuzzing = fuzzing_report
        report.verdict = fuzzing_report.verdict()
        report.duration_seconds = _perf_counter() - start
        return report


def verify_transformation(
    sdfg: SDFG,
    transformation: PatternTransformation,
    match: Optional[Match] = None,
    symbol_values: Optional[Mapping[str, int]] = None,
    **verifier_kwargs,
) -> TransformationTestReport:
    """One-shot convenience wrapper around :class:`FuzzyFlowVerifier`."""
    verifier = FuzzyFlowVerifier(**verifier_kwargs)
    return verifier.verify(sdfg, transformation, match=match, symbol_values=symbol_values)
