"""The repository benchmark: one command, three workloads.

    python3 perfbench/run.py --workload analyze-warm --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the program is imported from its
``src/`` directory.  ``--trace 0`` is the timed run and reports the
end-to-end metrics; ``--trace 1`` is the traced run and reports the
per-layer metrics, writing its spans as Chrome ``trace_event`` JSON
under ``.perfbench/out/``.  Human-readable lines go first; the last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.

Every run uses its own empty artifact cache (``REPRO_CACHE_DIR``) and
temporary directory under ``.perfbench/`` in the checkout, removed at
exit.  See ``perfbench/README.md`` for why each workload exists.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import tempfile
import time
from typing import Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from harness import (  # noqa: E402
    Checks,
    HostClock,
    Metrics,
    Tracer,
    cpu_ticks,
    median,
    peak_rss_mb,
    percentile,
    ratio,
    steal_share,
)

#: End-to-end metrics, reported by every workload with ``--trace 0``.
END_TO_END = (
    ("latency_p50_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
)

#: Per-layer metrics, reported by every workload with ``--trace 1``; a
#: layer a workload does not exercise reports 0.
PER_LAYER = (
    ("interp.run_s", "s"),
    ("interp.steps", "count"),
    ("interp.steps_per_s", "1/s"),
    ("workloads.get_artifacts_s", "s"),
    ("workloads.cache_hit_ratio", "ratio"),
    ("workloads.bytes_written", "bytes"),
    ("workloads.bytes_read", "bytes"),
    ("profiling.build_s", "s"),
    ("profiling.events", "count"),
    ("replication.plan_s", "s"),
    ("statemachines.candidates", "count"),
    ("statemachines.pruned_ratio", "ratio"),
    ("replication.options_kept_ratio", "ratio"),
    ("replication.apply_s", "s"),
    ("replication.size_factor", "ratio"),
    ("cfg.analyze_s", "s"),
    ("layout.rotate_s", "s"),
    ("layout.edges_s", "s"),
    ("layout.layout_s", "s"),
    ("scheduling.estimate_s", "s"),
    ("predictors.evaluate_s", "s"),
    ("predictors.events_per_s", "1/s"),
    ("replication.measure_s", "s"),
    ("replication.mispredict_ratio", "ratio"),
    ("icache.simulate_s", "s"),
    ("icache.miss_ratio", "ratio"),
    ("service.server_p50_ms", "ms"),
    ("service.server_p99_ms", "ms"),
    ("service.client_minus_server_ms", "ms"),
    ("service.warm_p50_ms", "ms"),
    ("service.cold_p50_ms", "ms"),
    ("service.lru_hit_ratio", "ratio"),
    ("service.coalesce_hit_ratio", "ratio"),
    ("service.proxied_share", "ratio"),
    ("service.rejected", "count"),
    ("serve.latency_p99_ms", "ms"),
    ("serve.max_rate_rps", "1/s"),
    ("loadgen.late_p99_ms", "ms"),
    ("supervisor.unclean_stops", "count"),
    ("bench.unattributed_share", "ratio"),
    ("bench.trace_overhead_ratio", "ratio"),
    ("bench.failed_share", "ratio"),
    ("bench.samples", "count"),
    ("bench.wall_latency_p50_ms", "ms"),
    ("bench.wall_setup_s", "s"),
    ("bench.host_probe_ms", "ms"),
    ("bench.steal_share", "ratio"),
)

#: Span names whose per-pass self time is a ``<span>_s`` metric.
TIMED_LAYERS = tuple(
    name[:-2] for name, unit in PER_LAYER if unit == "s" and not name.startswith("bench.")
)

#: Set-ups per run; ``setup_s`` is their median.
SETUPS = 3


class Context:
    """Where a run may write: a private work directory in the checkout."""

    def __init__(self, workload: str, seed: int, seconds: float, trace: bool) -> None:
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        base = os.path.join(ROOT, ".perfbench")
        self.out_dir = os.path.join(base, "out")
        # Short on purpose: the fleet's unix control sockets live below
        # it, and a socket path may not exceed 107 bytes.
        self.work_dir = os.path.join(base, str(os.getpid()))
        self._caches = 0
        self.clock: Optional[HostClock] = None
        self.setups: list = []
        self.wall_setups: list = []

    def open(self) -> None:
        os.makedirs(self.out_dir, exist_ok=True)
        shutil.rmtree(self.work_dir, ignore_errors=True)
        os.makedirs(self.work_dir)
        # The fleet's ready file and control sockets go through tempfile.
        os.environ["TMPDIR"] = self.work_dir
        tempfile.tempdir = None
        self.clock = HostClock()

    def close(self) -> None:
        shutil.rmtree(self.work_dir, ignore_errors=True)

    def fresh_cache(self) -> str:
        """A new, empty artifact cache directory, made the current one."""
        self._caches += 1
        path = os.path.join(self.work_dir, f"cache-{self._caches}")
        os.makedirs(path)
        os.environ["REPRO_CACHE_DIR"] = path
        return path

    def record_setup(self, wall: float, normalised: float) -> None:
        self.wall_setups.append(wall)
        self.setups.append(normalised)

    def trace_path(self) -> str:
        return os.path.join(self.out_dir, f"trace-{self.workload}-seed{self.seed}.json")


def _put_times(ctx: Context, metrics: Metrics, units: list, walls: list) -> None:
    """The end-to-end times: the median unit of work (*units*, seconds:
    a pass, or a serve-mix chunk's p50) and the median set-up, both
    normalised for the host's speed: by the host probe on the batch
    workloads (``harness.HostClock``), by the share of CPU time not
    stolen on serve-mix (``harness.steal_share``).  Their wall-clock
    medians (*walls*) go with the per-layer metrics."""
    metrics.put("latency_p50_ms", median(units) * 1e3, "ms", len(units))
    metrics.put("setup_s", median(ctx.setups), "s", len(ctx.setups))
    metrics.put("bench.wall_latency_p50_ms", median(walls) * 1e3, "ms", len(walls))
    metrics.put("bench.wall_setup_s", median(ctx.wall_setups), "s", len(ctx.wall_setups))


# -- batch workloads ---------------------------------------------------------------


def _layer_metrics(metrics: Metrics, per_pass: list) -> None:
    for layer in TIMED_LAYERS:
        values = [times.get(layer, 0.0) for times in per_pass]
        metrics.put(f"{layer}_s", median(values), "s", len(values))


def run_batch(ctx: Context, checks: Checks, metrics: Metrics, tracer: Tracer) -> None:
    import batch
    from inputs import ANALYZE_OFFSETS

    if ctx.workload == "replicate-fresh":
        setup = (1, 1)

        def one_pass(index, clock):
            return batch.replicate_pass(ctx.seed, index, tracer, checks, clock=clock)

    else:
        setup = (batch.SCALE, len(ANALYZE_OFFSETS))

        def one_pass(index, clock):
            return batch.analyze_pass(ctx.seed, index, tracer, checks, clock)

    # Set-up: build the programs and run them into an empty cache.
    # replicate-fresh only warms lazy state (its passes miss anyway);
    # analyze-warm's passes read what the last set-up wrote.
    steps = []
    for _ in range(SETUPS):
        ctx.fresh_cache()
        count, segments = batch.fill_cache(ctx.seed, *setup, ctx.clock)
        segments.cut()
        ctx.record_setup(segments.seconds, segments.normalised)
        steps.append(count)
    checks.check(
        len(set(steps)) == 1, f"set-up interpreter steps differ across set-ups: {steps}"
    )

    passes, traced = [], []
    started = time.perf_counter()
    index = 0
    minimum = 4 if ctx.trace else 3
    while index < minimum or time.perf_counter() - started < ctx.seconds:
        tracer.enabled = ctx.trace and index % 2 == 1
        # Untraced passes probe the host after each input; traced ones
        # keep their spans free of probes.
        result = one_pass(index, None if tracer.enabled else ctx.clock)
        (traced if tracer.enabled else passes).append(result)
        index += 1
    tracer.enabled = False

    if ctx.workload == "analyze-warm":
        first = passes[0]
        for result in passes[1:] + traced:
            checks.check(
                result.fingerprint == first.fingerprint
                and _repeatable(result.counters) == _repeatable(first.counters),
                "analyze-warm counts differ between passes of one seed",
            )
        batch.prefix_oracle(ctx.seed, checks)

    untimed = [r.seconds for r in passes]
    _put_times(ctx, metrics, [r.normalised for r in passes], untimed)
    metrics.put("peak_rss_mb", peak_rss_mb(), "MiB")
    if not ctx.trace:
        return

    everything = passes + traced
    first = passes[0]
    moved = first.counters
    per_pass = [tracer.self_times(r.root) for r in traced]
    _layer_metrics(metrics, per_pass)
    metrics.put("interp.steps", first.steps, "count")
    metrics.put(
        "interp.steps_per_s",
        median([ratio(r.steps, r.interp_seconds) for r in everything]),
        "1/s",
        len(everything),
    )
    hits = sum(r.counters.get("artifacts.cache.hits", 0) for r in everything)
    misses = sum(r.counters.get("artifacts.cache.misses", 0) for r in everything)
    metrics.put("workloads.cache_hit_ratio", ratio(hits, hits + misses), "ratio")
    metrics.put("workloads.bytes_written", moved.get("artifacts.cache.bytes_written", 0), "bytes")
    metrics.put("workloads.bytes_read", moved.get("artifacts.cache.bytes_read", 0), "bytes")
    metrics.put("profiling.events", first.events, "count")
    candidates = sum(moved.get(f"sm.{k}.candidates", 0) for k in ("intra", "loop_exit", "correlated"))
    pruned = sum(moved.get(f"sm.{k}.pruned", 0) for k in ("intra", "loop_exit"))
    searched = sum(moved.get(f"sm.{k}.candidates", 0) for k in ("intra", "loop_exit"))
    metrics.put("statemachines.candidates", candidates, "count")
    metrics.put("statemachines.pruned_ratio", ratio(pruned, searched), "ratio")
    metrics.put(
        "replication.options_kept_ratio",
        ratio(moved.get("replication.options_kept", 0), moved.get("replication.options_considered", 0)),
        "ratio",
    )
    metrics.put("replication.size_factor", ratio(first.size_after, first.size_before), "ratio")
    metrics.put(
        "predictors.events_per_s",
        median(
            [
                ratio(r.counters.get("engine.events", 0), times.get("predictors.evaluate", 0.0))
                for r, times in zip(traced, per_pass)
            ]
        ),
        "1/s",
        len(traced),
    )
    metrics.put(
        "replication.mispredict_ratio", ratio(first.mispredictions, first.measured_events), "ratio"
    )
    metrics.put(
        "icache.miss_ratio",
        ratio(moved.get("icache.misses", 0), moved.get("icache.accesses", 0)),
        "ratio",
    )
    unattributed = sum(times.get("unattributed", 0.0) for times in per_pass)
    metrics.put(
        "bench.unattributed_share", ratio(unattributed, sum(r.seconds for r in traced)), "ratio"
    )
    metrics.put(
        "bench.trace_overhead_ratio",
        ratio(median([r.seconds for r in traced]), median(untimed)),
        "ratio",
        len(traced),
    )
    metrics.put("bench.samples", len(everything), "count")


#: Counters that must repeat exactly from pass to pass on analyze-warm.
REPEATABLE = (
    "engine.events",
    "sm.intra.candidates",
    "sm.loop_exit.candidates",
    "sm.correlated.candidates",
    "replication.options_kept",
    "artifacts.cache.bytes_read",
)


def _repeatable(moved: dict) -> tuple:
    return tuple(moved.get(name, 0) for name in REPEATABLE)


# -- serve-mix ---------------------------------------------------------------------


def run_serve(ctx: Context, checks: Checks, metrics: Metrics, tracer: Tracer) -> None:
    import serve
    from inputs import warm_requests

    warm = warm_requests(ctx.seed, serve.SCALE, serve.MAX_STATES)
    unclean, fleet = 0, None
    try:
        for attempt in range(SETUPS):
            if fleet is not None:
                unclean += not fleet.stop()
                fleet = None
            cache = ctx.fresh_cache()
            ticks, started = cpu_ticks(), time.perf_counter()
            fleet = serve.Fleet(cache, os.path.join(ctx.work_dir, f"fleet-{attempt}.log"))
            serve.warm_up(fleet.port, warm, checks)
            wall = time.perf_counter() - started
            ctx.record_setup(wall, wall * (1.0 - steal_share(ticks, cpu_ticks())))

        middle_rate = serve.RATES[serve.MIDDLE]
        plan = [(rate, share, ctx.trace) for rate, share in zip(serve.RATES, serve.RATE_SHARES)]
        if ctx.trace:
            # An untraced pass at the middle rate to measure the
            # tracing's own cost against.
            plan = [(middle_rate, 0.2, False)] + [
                (rate, share * 0.8, on) for rate, share, on in plan
            ]
        steps, untraced_mid, index = [], None, 0
        for rate, share, traced in plan:
            seconds = ctx.seconds * share
            if rate == middle_rate:
                step, used = serve.run_chunks(
                    fleet.port, ctx.seed, index, rate, seconds, warm, checks
                )
            else:
                step, used = serve.run_step(fleet.port, ctx.seed, index, rate, seconds, warm, checks), 1
            index += used
            if traced:
                steps.append(step)
                _record_spans(tracer, step)
            elif ctx.trace:
                untraced_mid = step
            else:
                steps.append(step)
        rss = fleet.peak_rss_mb()
    finally:
        if fleet is not None:
            unclean += not fleet.stop()
    serve.sampled_oracle(steps, checks)

    middle = steps[serve.MIDDLE]
    _put_times(ctx, metrics, middle.chunk_units, middle.chunk_walls)
    metrics.put("peak_rss_mb", rss, "MiB")
    print(
        "  middle-rate chunks: p50 "
        + " ".join(f"{w * 1e3:.2f}" for w in middle.chunk_walls)
        + " ms, stolen "
        + " ".join(f"{share:.2f}" for share in middle.chunk_steal)
    )
    for step in steps:
        print(
            f"  rate {step.rate:6g}/s: {len(step.outcomes)} requests, p50 {step.p50:.2f} ms, "
            f"p99 {step.p99:.2f} ms, failed {step.failed}, backlog "
            f"{'grew' if step.backlog_grew() else 'steady'}, "
            f"{'meets' if step.meets_limit() else 'misses'} the {serve.LIMIT_MS:g} ms limit"
        )
    if not ctx.trace:
        return

    moved = serve.counter_moves(middle.before, middle.after)
    outcomes = middle.outcomes
    server_p50 = serve.server_quantile(middle.before, middle.after, 0.50) * 1e3
    metrics.put("service.server_p50_ms", server_p50, "ms", len(outcomes))
    metrics.put(
        "service.server_p99_ms",
        serve.server_quantile(middle.before, middle.after, 0.99) * 1e3,
        "ms",
        len(outcomes),
    )
    metrics.put(
        "service.client_minus_server_ms",
        median([o.service_ms for o in outcomes]) - server_p50,
        "ms",
        len(outcomes),
    )
    warm_ms = [o.latency_ms for o in outcomes if o.request.method == "POST" and not o.request.cold]
    cold_ms = [o.latency_ms for o in outcomes if o.request.cold]
    metrics.put("service.warm_p50_ms", median(warm_ms), "ms", len(warm_ms))
    metrics.put("service.cold_p50_ms", median(cold_ms), "ms", len(cold_ms))
    hits = sum(v for k, v in moved.items() if k.startswith("service.cache.") and k.endswith(".hits"))
    lookups = hits + sum(
        v for k, v in moved.items()
        if k.startswith("service.cache.") and k.endswith((".misses", ".coalesced"))
    )
    metrics.put("service.lru_hit_ratio", ratio(hits, lookups), "ratio")
    pairs = len(cold_ms) // 2
    metrics.put("service.coalesce_hit_ratio", ratio(moved.get("service.coalesce.hits", 0), pairs), "ratio", pairs)
    posts = sum(1 for o in outcomes if o.request.method == "POST")
    metrics.put("service.proxied_share", ratio(moved.get("service.shard.proxied", 0), posts), "ratio")
    rejected = sum(1 for step in steps for o in step.outcomes if o.status == 429)
    metrics.put("service.rejected", rejected, "count")
    metrics.put("serve.latency_p99_ms", middle.p99, "ms", len(middle.latencies))
    meeting = [step.rate for step in steps if step.meets_limit()]
    metrics.put("serve.max_rate_rps", max(meeting, default=0.0), "1/s", len(steps))
    late = [o.late * 1e3 for step in steps for o in step.outcomes]
    metrics.put("loadgen.late_p99_ms", percentile(late, 99), "ms", len(late))
    metrics.put("supervisor.unclean_stops", unclean, "count", SETUPS)
    client = sum(o.service_ms for o in outcomes)
    server = (middle.after.latency_sum - middle.before.latency_sum) * 1e3
    metrics.put("bench.unattributed_share", ratio(client - server, client), "ratio")
    metrics.put(
        "bench.trace_overhead_ratio", ratio(middle.p50, untraced_mid.p50), "ratio", len(outcomes)
    )
    metrics.put("bench.samples", sum(len(step.outcomes) for step in steps), "count")


def _record_spans(tracer: Tracer, step) -> None:
    """One root span per rate step; per request, the time it waited to
    be sent (``loadgen.wait``) and the HTTP call (``service.request``)."""
    outcomes = step.outcomes
    if not outcomes:
        return
    root = tracer.add("step", outcomes[0].due, max(o.done for o in outcomes), rate=step.rate)
    for o in outcomes:
        request = tracer.add(
            "request", o.due, o.done, root, tid=o.tid, path=o.request.path,
            status=o.status, cold=o.request.cold,
        )
        tracer.add("loadgen.wait", o.due, o.sent, request, tid=o.tid)
        tracer.add("service.request", o.sent, o.done, request, tid=o.tid)


# -- entry point -------------------------------------------------------------------

WORKLOADS = {
    "replicate-fresh": run_batch,
    "analyze-warm": run_batch,
    "serve-mix": run_serve,
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def run(workload: str, seed: int, seconds: float, trace: bool):
    """Run one workload; returns (checks, metrics)."""
    ctx = Context(workload, seed, seconds, trace)
    checks, metrics, tracer = Checks(), Metrics(), Tracer(False)
    ctx.open()
    try:
        ticks = cpu_ticks()
        WORKLOADS[workload](ctx, checks, metrics, tracer)
        metrics.put("bench.steal_share", steal_share(ticks, cpu_ticks()), "ratio")
        probes = ctx.clock.probes
        metrics.put("bench.host_probe_ms", median(probes) * 1e3, "ms", len(probes))
        if trace:
            spans = tracer.write_chrome(ctx.trace_path())
            print(f"  {spans} spans written to {os.path.relpath(ctx.trace_path(), ROOT)}")
    finally:
        ctx.close()
    return checks, metrics


def main(argv=None) -> int:
    options = parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print(f"perfbench: no program source at {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))
    print(f"perfbench {options.workload} seed={options.seed} seconds={options.seconds:g} trace={options.trace}")
    checks, metrics = run(options.workload, options.seed, options.seconds, bool(options.trace))
    if options.trace:
        metrics.put("bench.failed_share", checks.failed_share, "ratio", checks.attempted)
    reported = PER_LAYER if options.trace else END_TO_END
    for name, unit in reported:
        if name not in metrics.values:
            metrics.put(name, 0, unit)  # a layer this workload does not use
    for line in metrics.lines():
        print(line)
    print(f"  checks: {checks.attempted} attempted, {checks.failed} failed "
          f"(failed_share {checks.failed_share:.4g})")
    for message in checks.messages:
        print(f"  FAILED: {message}")
    names = [name for name, _ in reported]
    result = {
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": metrics.json_subset(names),
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
