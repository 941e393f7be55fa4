"""Self-tests of the benchmark: ``python3 -m pytest perfbench -q``.

They show that a seed maps to the same inputs every time, that every
printed name is well formed, that counts repeat exactly for a fixed
seed, and that the correctness checks can fail: a mutated replicated
program and a corrupted response body each raise ``failed_share``.
"""

from __future__ import annotations

import dataclasses
import json
import os
import shutil
import subprocess
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import batch  # noqa: E402
import inputs  # noqa: E402
import run  # noqa: E402
import serve  # noqa: E402
import harness  # noqa: E402
from harness import NAME_RE, Checks, Tracer  # noqa: E402


@pytest.fixture
def small(monkeypatch, tmp_path):
    """Batch passes at scale 1 into an empty private cache."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    monkeypatch.setattr(batch, "SCALE", 1)
    from repro.workloads import clear_memory_cache

    clear_memory_cache()
    yield
    clear_memory_cache()


def _all_inputs(seed: int):
    warm = inputs.warm_requests(seed, serve.SCALE, serve.MAX_STATES)
    return (
        [inputs.replicate_offsets(seed, p) for p in range(4)],
        inputs.analyze_inputs(seed),
        inputs.analyze_prefix_events(seed),
        warm,
        [
            inputs.serve_schedule(seed, i, rate, 2.0, warm, 0.05, 0.05, 1, 4)
            for i, rate in enumerate(serve.RATES)
        ],
    )


def test_a_seed_maps_to_the_same_inputs_every_time():
    assert _all_inputs(5) == _all_inputs(5)
    assert _all_inputs(5) != _all_inputs(6)


def test_replicate_fresh_never_reuses_an_offset_within_a_run():
    offsets = [o for p in range(50) for pair in inputs.replicate_offsets(9, p) for o in pair]
    per_program = len(inputs.PROGRAMS)
    assert len(set(offsets)) == len(offsets) // per_program


def test_input_generation_is_stable_across_processes():
    code = (
        "import sys; sys.path.insert(0, %r); import inputs; "
        "print(inputs.analyze_inputs(3), inputs.replicate_offsets(3, 2)[0])" % HERE
    )
    outputs = {
        subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
            check=True,
            env=dict(os.environ, PYTHONHASHSEED=str(hash_seed)),
        ).stdout
        for hash_seed in (1, 2)
    }
    assert len(outputs) == 1


def test_cold_pairs_are_fixed_in_number_and_come_in_pairs():
    warm = inputs.warm_requests(4, 1, 4)
    for seed in range(5):
        schedule = inputs.serve_schedule(seed, 0, 100.0, 4.0, warm, 0.01, 0.05, 1, 4)
        cold = [r for r in schedule if r.cold]
        assert len(cold) == 2 * 4
        assert all(cold[i] == cold[i + 1] for i in range(0, len(cold), 2))
        assert [r.due for r in schedule] == sorted(r.due for r in schedule)


def test_host_clock_scales_by_the_probes_around_a_unit(monkeypatch):
    probes = iter([0.2, 0.4, 0.1, 0.9, 0.5])
    monkeypatch.setattr(harness, "host_probe_s", lambda: next(probes))
    clock = harness.HostClock()
    # Probes 0.2 before and 0.4 after: 0.3 s per probe.
    assert clock.normalise(3.0) == pytest.approx(3.0 * harness.PROBE_REFERENCE_S / 0.3)
    # The next unit starts from the last probe: 0.4 and 0.1.
    assert clock.normalise(1.0) == pytest.approx(harness.PROBE_REFERENCE_S / 0.25)
    # start() drops what came before it: 0.9 and 0.5.
    clock.start()
    assert clock.normalise(1.0) == pytest.approx(harness.PROBE_REFERENCE_S / 0.7)
    assert clock.probes == [0.2, 0.4, 0.1, 0.9, 0.5]


def test_steal_share_is_stolen_over_busy_ticks():
    assert harness.steal_share((100, 10), (300, 60)) == pytest.approx(0.25)
    assert harness.steal_share((5, 1), (5, 1)) == 0.0
    busy, stolen = harness.cpu_ticks()
    assert busy >= stolen >= 0


def test_segments_leave_the_probes_out_of_the_time(monkeypatch):
    def slow_probe():
        time.sleep(0.05)
        return harness.PROBE_REFERENCE_S

    monkeypatch.setattr(harness, "host_probe_s", slow_probe)
    segments = harness.Segments(harness.HostClock())
    for _ in range(4):
        time.sleep(0.01)
        segments.cut()
    # Four 10 ms pieces and 0.25 s of probing (a start and four cuts).
    assert 0.04 <= segments.seconds < 0.1
    assert segments.normalised == pytest.approx(segments.seconds, rel=0.2)
    assert harness.Segments(None).normalised == 0.0


def test_every_name_fits_the_pattern():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as stream:
        spec = json.load(stream)
    names = [w["name"] for w in spec["workloads"]]
    names += [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    names += [name for name, _ in run.END_TO_END + run.PER_LAYER]
    names += list(run.WORKLOADS)
    assert all(NAME_RE.fullmatch(name) for name in names), names
    assert len(set(names)) < len(names)  # the two lists name the same metrics
    assert sorted(m["name"] for m in spec["end_to_end"]) == sorted(n for n, _ in run.END_TO_END)
    assert sorted(m["name"] for m in spec["per_layer"]) == sorted(n for n, _ in run.PER_LAYER)
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(run.WORKLOADS)


def test_self_time_subtracts_children_and_names_the_residual():
    tracer = Tracer(True)
    tracer.add("pass", 0.0, 10.0)
    tracer.add("replication.plan", 1.0, 4.0, 0)
    tracer.add("workloads.get_artifacts", 4.0, 9.0, 0)
    tracer.add("interp.run", 4.0, 8.0, 2)
    times = tracer.self_times(0)
    assert times == {
        "unattributed": 2.0,
        "replication.plan": 3.0,
        "workloads.get_artifacts": 1.0,
        "interp.run": 4.0,
    }
    assert [e["name"] for e in tracer.chrome_events()][0] == "pass"


def _count_fingerprint(result):
    moved = result.counters
    return (
        result.steps,
        result.events,
        result.size_before,
        result.size_after,
        result.mispredictions,
        moved.get("engine.events", 0),
        sum(moved.get(f"sm.{k}.candidates", 0) for k in ("intra", "loop_exit", "correlated")),
        moved.get("icache.misses", 0),
    )


def test_counts_repeat_exactly_for_a_fixed_seed(small, tmp_path, monkeypatch):
    from repro.workloads import clear_memory_cache

    first = batch.replicate_pass(4, 0, Tracer(False), Checks())
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "again"))
    clear_memory_cache()
    second = batch.replicate_pass(4, 0, Tracer(True), Checks())
    assert _count_fingerprint(first) == _count_fingerprint(second)
    assert first.counters.get("artifacts.cache.misses") == len(inputs.PROGRAMS)


def _break_first_branch(program):
    """Swap the targets of one branch so the program computes something
    else (the prediction bit is left as it was)."""
    for function in program:
        for block in function:
            branch = block.branch
            if branch is not None:
                block.terminator = dataclasses.replace(
                    branch, taken=branch.not_taken, not_taken=branch.taken
                )
                return


def test_a_mutated_replicated_program_raises_failed_share(small):
    clean = Checks()
    batch.replicate_pass(2, 0, Tracer(False), clean)
    broken = Checks()
    batch.replicate_pass(2, 1, Tracer(False), broken, mutate=_break_first_branch)
    assert clean.attempted and clean.failed == 0
    assert broken.failed_share > clean.failed_share


def test_analyze_pass_and_prefix_oracle_pass_on_a_small_input(small):
    checks = Checks()
    batch.fill_cache(1, batch.SCALE, len(inputs.ANALYZE_OFFSETS))
    first = batch.analyze_pass(1, 0, Tracer(False), checks)
    again = batch.analyze_pass(1, 1, Tracer(True), checks)
    batch.prefix_oracle(1, checks)
    assert checks.failed == 0, checks.messages
    assert first.fingerprint == again.fingerprint
    assert first.counters.get("artifacts.interpreter.runs", 0) == 0


def _served(request, status=200, data=None, code=None):
    outcome = serve.Outcome(request, 0.0)
    outcome.status = status
    if code is not None:
        outcome.body = json.dumps({"v": 1, "ok": False, "error": {"code": code}}).encode()
    else:
        outcome.body = json.dumps({"v": 1, "ok": True, "data": data}).encode()
    return outcome


def test_judge_accepts_only_correct_answers():
    plan = inputs.Request(0.0, "POST", "/plan", (("name", "compress"),), False)
    machine = inputs.Request(0.0, "POST", "/machine", (("name", "doduc"),), False)
    assert serve.judge(_served(plan, data={"x": 1}))[0]
    assert serve.judge(_served(machine, 404, code="no_improvable_branch"))[0]
    assert not serve.judge(_served(plan, 404, code="no_improvable_branch"))[0]
    assert not serve.judge(_served(plan, 429, code="overloaded"))[0]
    assert not serve.judge(_served(plan, 503, code="draining"))[0]
    broken = _served(plan, data={"x": 1})
    broken.body = b'{"v": 2, "ok": true, "data": {}}'
    assert not serve.judge(broken)[0]
    lost = serve.Outcome(plan, 0.0)
    lost.error = "ConnectionResetError"
    assert not serve.judge(lost)[0]


def test_a_corrupted_response_body_raises_failed_share(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    from repro.service.state import ServiceConfig, ServiceState

    warm = inputs.warm_requests(8, 1, 4)[:6]
    state = ServiceState(ServiceConfig(threads=1))
    try:
        outcomes = [_served(r, data=serve.library_answer(state, r)) for r in warm]
    finally:
        state.close()
    step = serve.Step(100.0, outcomes)

    clean = Checks()
    assert serve.sampled_oracle([step], clean) == len(warm)
    broken = Checks()

    def corrupt(body):
        return dict(body, benchmark="not-" + str(body.get("benchmark")))

    serve.sampled_oracle([step], broken, corrupt=corrupt)
    assert clean.failed == 0, clean.messages
    assert broken.failed_share > clean.failed_share


def test_server_quantile_reads_bucket_deltas():
    before, after = object.__new__(serve.Telemetry), object.__new__(serve.Telemetry)
    before.buckets = {0.001: 5.0, 0.01: 5.0}
    after.buckets = {0.001: 5.0, 0.002: 9.0, 0.01: 15.0}
    # 10 new samples: 4 in (0.001, 0.002], 6 in (0.002, 0.01].
    median = serve.server_quantile(before, after, 0.5)
    assert 0.002 < median <= 0.01


def test_the_benchmark_fails_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "analyze-warm",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
