"""The two batch workloads: ``replicate-fresh`` and ``analyze-warm``.

Both run the paper's loop over all eight programs per *pass* and time
each call into a layer from outside, through the layer's public
functions.  A pass is the unit of work: ``latency_p50_ms`` is the
median pass time, normalised for the host's speed.
"""

from __future__ import annotations

import time
from typing import Callable, Dict, List, Optional, Tuple

from harness import Checks, HostClock, Segments, Tracer, counter_delta, counters
from inputs import PROGRAMS, analyze_inputs, analyze_prefix_events, replicate_offsets

#: Trace scale of every batch input (≈ scale × 10k branch events).
SCALE = 4
#: State budget of the planner.  A sizing probe that planned and
#: applied 10-state selections did not finish within 10 minutes.
MAX_STATES = 4


class PassResult:
    """What one pass measured: wall time, program counter deltas, work
    counts the benchmark itself tallied, and the pass's root span."""

    def __init__(self) -> None:
        self.seconds = 0.0
        #: ``seconds`` normalised for the host's speed (``HostClock``).
        self.normalised = 0.0
        self.counters: Dict[str, float] = {}
        self.steps = 0
        self.interp_seconds = 0.0
        self.size_before = 0
        self.size_after = 0
        self.mispredictions = 0
        self.measured_events = 0
        self.events = 0
        self.fingerprint: tuple = ()
        self.root = -1


def _interp_seconds() -> float:
    from repro.obs import OBS

    return float(OBS.counter("artifacts.interpreter.seconds", 0.0))


def _get_artifacts(tracer: Tracer, result: PassResult, name: str, offset: int):
    """``get_artifacts`` with the interpreter time it spent inside
    recorded as a child ``interp.run`` span (read from the program's
    ``artifacts.interpreter.seconds`` counter)."""
    from repro.workloads import get_artifacts

    interp_before = _interp_seconds()
    with tracer.span("workloads.get_artifacts", benchmark=name) as span:
        artifacts = get_artifacts(name, scale=SCALE, seed_offset=offset)
    interp = _interp_seconds() - interp_before
    result.interp_seconds += interp
    result.events += len(artifacts.trace)
    if tracer.enabled and interp > 0:
        tracer.add(
            "interp.run", span.start, span.start + interp, span.index, benchmark=name
        )
    return artifacts


def _build_profile(tracer: Tracer, artifacts):
    from repro.profiling import ProfileData

    with tracer.span("profiling.build", benchmark=artifacts.name):
        profile = ProfileData.from_trace(artifacts.trace)
        profile.attach_path_tables(artifacts.path_tables)
    return profile


def _plan_and_apply(tracer: Tracer, program, profile, name: str):
    from repro.replication import ReplicationPlanner, apply_replication

    with tracer.span("replication.plan", benchmark=name):
        planner = ReplicationPlanner(program, profile, max_states=MAX_STATES)
    selections = [
        (plan.site, plan.best_option(MAX_STATES).scored.machine)
        for plan in planner.improvable_plans()
    ]
    with tracer.span("replication.apply", benchmark=name, selections=len(selections)):
        report = apply_replication(program, selections, profile)
    return planner, report


# -- replicate-fresh -------------------------------------------------------------


def replicate_pass(
    seed: int,
    pass_index: int,
    tracer: Tracer,
    checks: Checks,
    mutate: Optional[Callable] = None,
    clock: Optional[HostClock] = None,
) -> PassResult:
    """One pass of ``replicate-fresh``: every program on seed offsets
    this run has not used before, so ``get_artifacts`` misses.

    *mutate*, when given, is applied to each replicated program before
    it is run — the self-test uses it to prove the oracles can fail.
    With a *clock*, the pass is normalised for the host's speed
    program by program (:class:`harness.Segments`).
    """
    from repro.icache import CacheConfig, simulate_icache
    from repro.interp import run_program
    from repro.replication import measure_annotated
    from repro.workloads import clear_memory_cache, get_program, get_workload

    result = PassResult()
    before = counters()
    segments = Segments(clock)
    with tracer.span("pass", workload="replicate-fresh", index=pass_index):
        result.root = tracer.current()
        # No offset repeats, so the in-memory memo would only grow with
        # the number of passes (and peak RSS with the host's speed).
        clear_memory_cache()
        for name, (train, held) in zip(PROGRAMS, replicate_offsets(seed, pass_index)):
            program = get_program(name)
            workload = get_workload(name)
            artifacts = _get_artifacts(tracer, result, name, train)
            result.steps += artifacts.steps
            profile = _build_profile(tracer, artifacts)
            planner, report = _plan_and_apply(tracer, program, profile, name)
            replicated = report.program
            if mutate is not None:
                mutate(replicated)
            result.size_before += report.size_before
            result.size_after += report.size_after

            held_args, held_input = workload.seeded_args(SCALE, held)
            for label, variant in (("original", program), ("replicated", replicated)):
                run_started = time.perf_counter()
                with tracer.span("interp.run", benchmark=name, variant=label):
                    run = run_program(variant, held_args, held_input, 100_000_000)
                result.interp_seconds += time.perf_counter() - run_started
                result.steps += run.steps
                if label == "original":
                    reference = (run.value, list(run.output))
                else:
                    checks.check(
                        (run.value, list(run.output)) == reference,
                        f"{name}@{held}: replicated program's (value, output) "
                        f"differs from the original's on the held-out input",
                    )

            train_args, train_input = workload.seeded_args(SCALE, train)
            with tracer.span("replication.measure", benchmark=name):
                measured = measure_annotated(replicated, train_args, train_input)
            result.mispredictions += measured.mispredictions
            result.measured_events += measured.events
            bound = planner.profile_mispredictions()
            checks.check(
                measured.mispredictions <= bound,
                f"{name}@{train}: replicated program mispredicts "
                f"{measured.mispredictions} > profile's {bound} on its training input",
            )
            with tracer.span("icache.simulate", benchmark=name):
                simulate_icache(replicated, CacheConfig(), train_args, train_input)
            segments.cut()
    result.seconds, result.normalised = segments.seconds, segments.normalised
    result.counters = counter_delta(before, counters())
    return result


# -- analyze-warm ----------------------------------------------------------------


def fill_cache(
    seed: int, scale: int, per_program: int, clock: Optional[HostClock] = None
) -> Tuple[int, Segments]:
    """Run each program once per input into the (empty) artifact cache;
    returns the interpreter steps, which must repeat exactly, and the
    set-up's time, normalised input by input with a *clock*.

    This is ``analyze-warm``'s set-up; ``replicate-fresh`` runs it at
    scale 1 with one input per program, only to warm lazy state.
    """
    from repro.workloads import clear_memory_cache, get_artifacts, get_program

    segments = Segments(clock)
    get_program.cache_clear()
    clear_memory_cache()
    steps = 0
    for name, offset in analyze_inputs(seed, per_program):
        steps += get_artifacts(name, scale=scale, seed_offset=offset).steps
        segments.cut()
    clear_memory_cache()
    return steps, segments


def _table1_and_yeh_patt(profile) -> List:
    from repro.predictors import (
        CorrelationPredictor,
        LastDirection,
        LoopCorrelationPredictor,
        LoopPredictor,
        ProfilePredictor,
        SaturatingCounter,
        all_yeh_patt_variants,
        two_level_4k,
    )

    return [
        LastDirection(),
        SaturatingCounter(2),
        two_level_4k(),
        ProfilePredictor(profile),
        CorrelationPredictor(profile, 1),
        LoopPredictor(profile, 1),
        LoopPredictor(profile, 9),
        LoopCorrelationPredictor(profile),
        *all_yeh_patt_variants().values(),
    ]


#: Index of the profile predictor in :func:`_table1_and_yeh_patt`.
PROFILE_ROW = 3


def _cfg_analyses(program) -> int:
    """Every ``repro.cfg`` analysis of every function; returns loops."""
    from repro.cfg import CFG, DominatorTree, LivenessInfo, LoopForest, classify_branches

    loops = 0
    classify_branches(program)
    for function in program:
        cfg = CFG.from_function(function)
        forest = LoopForest(cfg, DominatorTree(cfg))
        LivenessInfo(function)
        loops += len(forest.loops)
    return loops


def _trace_counts(program, edges):
    """(block counts, edge counts) in ``estimate_program_cycles`` form,
    derived from a trace-based edge profile."""
    block_counts: Dict = {}
    edge_counts: Dict = {}
    for function in program:
        block_counts[(function.name, function.entry)] = 1
        for (source, target), count in edges[function.name].counts.items():
            edge_counts[(function.name, source, target)] = count
            key = (function.name, target)
            block_counts[key] = block_counts.get(key, 0) + count
    return block_counts, edge_counts


def analyze_pass(
    seed: int,
    pass_index: int,
    tracer: Tracer,
    checks: Checks,
    clock: Optional[HostClock] = None,
) -> PassResult:
    """One pass of ``analyze-warm``: reload every program's artifacts
    from disk and run the compiler-side layers; no interpreter runs.
    With a *clock*, the pass is normalised input by input."""
    from repro.ir import ValidationError, validate_program
    from repro.layout import edge_profile_from_trace, layout_program, rotate_program
    from repro.predictors import evaluate_many
    from repro.scheduling import estimate_program_cycles
    from repro.workloads import clear_memory_cache, get_program

    result = PassResult()
    fingerprint = []
    before = counters()
    segments = Segments(clock)
    with tracer.span("pass", workload="analyze-warm", index=pass_index):
        result.root = tracer.current()
        clear_memory_cache()
        for name, offset in analyze_inputs(seed):
            program = get_program(name)
            artifacts = _get_artifacts(tracer, result, name, offset)
            profile = _build_profile(tracer, artifacts)
            with tracer.span("predictors.evaluate", benchmark=name):
                evaluated = evaluate_many(_table1_and_yeh_patt(profile), artifacts.trace)
            planner, report = _plan_and_apply(tracer, program, profile, name)
            checks.check(
                evaluated[PROFILE_ROW].mispredictions == planner.profile_mispredictions(),
                f"{name}@{offset}: profile row {evaluated[PROFILE_ROW].mispredictions} "
                f"!= planner's {planner.profile_mispredictions()}",
            )
            replicated = report.program
            result.size_before += report.size_before
            result.size_after += report.size_after
            with tracer.span("cfg.analyze", benchmark=name):
                loops = _cfg_analyses(replicated)
            with tracer.span("layout.rotate", benchmark=name):
                rotate_program(replicated)
            with tracer.span("layout.edges", benchmark=name):
                edges = edge_profile_from_trace(replicated, artifacts.trace)
            with tracer.span("layout.layout", benchmark=name):
                layout_program(replicated, edges)
            try:
                validate_program(replicated)
                problem = ""
            except ValidationError as error:
                problem = str(error)
            checks.check(not problem, f"{name}@{offset}: laid-out program invalid: {problem}")
            block_counts, edge_counts = _trace_counts(replicated, edges)
            with tracer.span("scheduling.estimate", benchmark=name):
                cycles = estimate_program_cycles(replicated, block_counts, edge_counts)
            fingerprint.append(
                (
                    name,
                    tuple(r.mispredictions for r in evaluated),
                    report.size_after,
                    loops,
                    cycles,
                )
            )
            segments.cut()
    result.seconds, result.normalised = segments.seconds, segments.normalised
    result.counters = counter_delta(before, counters())
    result.fingerprint = tuple(fingerprint)
    checks.check(
        result.counters.get("artifacts.interpreter.runs", 0) == 0,
        f"analyze-warm pass {pass_index} ran the interpreter "
        f"{result.counters.get('artifacts.interpreter.runs', 0)} times",
    )
    return result


def prefix_oracle(seed: int, checks: Checks) -> None:
    """``evaluate_many`` equals the sequential ``evaluate`` reference on
    a prefix of each input's trace (run once, outside the timing)."""
    from repro.predictors import evaluate, evaluate_many
    from repro.workloads import get_artifacts

    events = analyze_prefix_events(seed)
    for name, offset in analyze_inputs(seed):
        artifacts = get_artifacts(name, scale=SCALE, seed_offset=offset)
        prefix = artifacts.trace.truncated(events)
        profile = _build_profile(Tracer(False), artifacts)
        batch = evaluate_many(_table1_and_yeh_patt(profile), prefix)
        reference = [evaluate(p, prefix) for p in _table1_and_yeh_patt(profile)]
        for got, want in zip(batch, reference):
            checks.check(
                got == want,
                f"{name}@{offset}: evaluate_many({want.predictor}) differs from "
                f"evaluate on a {events}-event prefix",
            )
