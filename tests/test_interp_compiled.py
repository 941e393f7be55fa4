"""Differential oracle: the compiled engine against the reference Machine.

Every observable of a compiled run must *equal* the reference's — the
result, final memory, the serialised trace and aux artifacts, edge
counts, the block-entry stream — including after traps and at fuel
cut points.
"""

from __future__ import annotations

import dataclasses
import os
import subprocess
import sys

import hypothesis.strategies as st
import pytest
from hypothesis import HealthCheck, given, settings

from repro.icache import CacheConfig, InstructionCache, assign_addresses, simulate_icache
from repro.interp import FuelExhausted, Machine, TrapError
from repro.interp import compiled
from repro.interp.compiled import Execution
from repro.ir import BasicBlock, Function, Program, parse_program
from repro.obs import OBS
from repro.profiling import PatternTable, Trace, collect_path_tables
from repro.profiling.collect import execution_path_tables, execution_trace
from repro.profiling.tracefile import trace_to_bytes
from repro.replication import annotate_profile_predictions, measure_annotated
from repro.workloads import BENCHMARK_NAMES, get_profile, get_program, get_workload
from repro.workloads.artifacts import RunArtifacts, _aux_to_bytes
from repro.workloads.generators import random_program

HISTORY_BITS = 8
SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")
SEED_OFFSETS = (0, 5, 17)


def _outcome(run):
    try:
        result = run()
    except Exception as error:  # traps and faults are part of the contract
        return ("raised", type(error), str(error))
    return ("returned", result.value, list(result.output), result.steps, result.branches)


def _aux(trace, tables, steps):
    return _aux_to_bytes(RunArtifacts("w", 1, 0, HISTORY_BITS, trace, tables, steps))


def reference(program, args, input_values, max_steps):
    """Everything the reference Machine observes, through its callbacks."""
    trace = Trace()
    tables = {}
    blocks = []

    def on_branch(site, taken):
        trace.record(site, taken)
        table = tables.get(site)
        if table is None:
            table = tables[site] = PatternTable(HISTORY_BITS)
        table.add(machine.path_history, 1 if taken else 0)

    machine = Machine(
        program,
        input_values,
        max_steps,
        on_branch,
        track_history_bits=HISTORY_BITS,
        count_edges=True,
        on_block=lambda function, label: blocks.append((function, label)),
    )
    outcome = _outcome(lambda: machine.run(*args))
    steps = outcome[3] if outcome[0] == "returned" else 0
    return {
        "outcome": outcome,
        "output": list(machine.output),
        "memory": dict(machine.memory),
        "trace": trace_to_bytes(trace),
        "aux": _aux(trace, tables, steps),
        "edges": dict(machine.edge_counts),
        "blocks": blocks,
    }


def compiled_run(program, args, input_values, max_steps):
    """The same observables, rebuilt from a compiled run's columns."""
    execution = Execution(
        program,
        input_values,
        max_steps,
        history_bits=HISTORY_BITS,
        edges=True,
        blocks=True,
    )
    outcome = _outcome(lambda: execution.run(*args))
    steps = outcome[3] if outcome[0] == "returned" else 0
    trace = execution_trace(execution)
    return {
        "outcome": outcome,
        "output": list(execution.output),
        "memory": dict(execution.memory),
        "trace": trace_to_bytes(trace),
        "aux": _aux(trace, execution_path_tables(execution), steps),
        "edges": execution.edge_counts,
        "blocks": [execution.block_keys[i] for i in execution.block_stream],
    }


def assert_same(program, args=(), input_values=(), max_steps=50_000_000):
    expected = reference(program, args, input_values, max_steps)
    observed = compiled_run(program, args, input_values, max_steps)
    for field in expected:
        assert observed[field] == expected[field], field
    # The lighter recording modes compile separately; they must agree too.
    for recording in ({}, {"blocks": True}, {"edges": True}):
        execution = Execution(program, input_values, max_steps, **recording)
        assert _outcome(lambda: execution.run(*args)) == expected["outcome"], recording
        assert execution.output == expected["output"]
        assert execution.memory == expected["memory"]
    return expected


def _counter(name):
    return OBS.counter(name, 0)


# -- workloads -----------------------------------------------------------------


@pytest.mark.parametrize("name", BENCHMARK_NAMES)
@pytest.mark.parametrize("seed_offset", SEED_OFFSETS)
def test_workloads_match_reference(name, seed_offset):
    args, input_values = get_workload(name).seeded_args(1, seed_offset)
    expected = assert_same(get_program(name), args, input_values)
    assert expected["outcome"][0] == "returned"


@pytest.mark.parametrize("name", BENCHMARK_NAMES)
def test_fuel_cut_points_match_reference(name):
    program = get_program(name)
    args, input_values = get_workload(name).seeded_args(1, 0)
    steps = Machine(program, input_values).run(*args).steps
    for cut in (steps // 3, steps // 2, steps - 1):
        before = _counter("interp.fallbacks.fuel")
        expected = assert_same(program, args, input_values, max_steps=cut)
        assert expected["outcome"][:2] == ("raised", FuelExhausted)
        assert expected["outcome"][2] == f"exceeded {cut} steps"
        assert _counter("interp.fallbacks.fuel") > before


# -- random programs -----------------------------------------------------------


@given(st.integers(0, 10_000), st.integers(0, 3), st.integers(-50, 50))
@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_random_programs_match_reference(seed, helpers, argument):
    program = random_program(seed, helpers=helpers)
    expected = assert_same(program, [argument], max_steps=2_000_000)
    steps = expected["outcome"][3] if expected["outcome"][0] == "returned" else 0
    if steps > 2:
        assert_same(program, [argument], max_steps=steps // 2)


# -- traps -----------------------------------------------------------------------


TRAPS = {
    # In a branch arm: arms charge fuel without comparing it to the limit.
    "division by zero": (
        "func main(n) {\nentry:\n  br gt n, 0 ? go : stop\ngo:\n  out n\n"
        "  x = div n, 0\n  ret x\nstop:\n  ret n\n}"
    ),
    "modulo by zero": "func main(n) {\nentry:\n  out n\n  x = mod n, 0\n  ret x\n}",
    "input exhausted": "func main(n) {\nentry:\n  x = in\n  out x\n  y = in\n  ret y\n}",
    "call to unknown function 'ghost'": (
        "func main(n) {\nentry:\n  out n\n  x = call ghost(n)\n  ret x\n}"
    ),
    "bad arity calling 'two'": (
        "func two(a, b) {\nentry:\n  ret a\n}\n\n"
        "func main(n) {\nentry:\n  x = call two(n)\n  ret x\n}"
    ),
    "void return but caller expects a value in 'x'": (
        "func nothing(a) {\nentry:\n  store 100, a, 0\n  ret\n}\n\n"
        "func main(n) {\nentry:\n  x = call nothing(n)\n  ret x\n}"
    ),
    "alloc of negative size -3": (
        "func main(n) {\nentry:\n  p = alloc 4\n  store p, n, 1\n"
        "  q = alloc -3\n  ret q\n}"
    ),
}


@pytest.mark.parametrize("message", sorted(TRAPS))
def test_trap_messages_match_reference(message):
    program = parse_program(TRAPS[message])
    expected = assert_same(program, [7], [41])
    assert expected["outcome"] == ("raised", TrapError, message)
    # Every fuel limit, so each trap is also raced against fuel exhaustion.
    for max_steps in range(8):
        assert_same(program, [7], [41], max_steps)


def test_missing_terminator_traps_like_reference():
    program = parse_program(
        "func main(n) {\nentry:\n  br lt n, 3 ? a : b\na:\n  out 1\n  jump b\nb:\n  ret n\n}"
    )
    program.main_function().blocks["b"].terminator = None
    expected = assert_same(program, [1])
    assert expected["outcome"] == ("raised", TrapError, "block 'b' has no terminator")


def test_undefined_register_faults_like_reference():
    program = parse_program(
        "func main(n) {\nentry:\n  br lt n, 3 ? a : b\na:\n  y = add n, 1\n"
        "  jump b\nb:\n  out y\n  ret y\n}"
    )
    assert assert_same(program, [1])["outcome"][0] == "returned"
    assert assert_same(program, [5])["outcome"] == ("raised", KeyError, "'y'")


def test_deep_recursion_stays_off_the_host_stack():
    program = parse_program(
        "func sum(n) {\nentry:\n  br le n, 0 ? base : rec\nbase:\n  ret 0\n"
        "rec:\n  m = sub n, 1\n  s = call sum(m)\n  r = add s, n\n  ret r\n}\n\n"
        "func main(n) {\nentry:\n  x = call sum(n)\n  ret x\n}"
    )
    limit = sys.getrecursionlimit()
    assert assert_same(program, [limit * 5])["outcome"][1] == limit * 5 * (limit * 5 + 1) // 2


# -- the two fallbacks and the cache -----------------------------------------


def _big_program(diamonds: int) -> Program:
    lines = ["func main(n) {", "entry:", "  x = const 7", "  jump d0"]
    for j in range(diamonds):
        nxt = f"d{j + 1}" if j + 1 < diamonds else "done"
        lines += [
            f"d{j}:", f"  t = and x, {1 << (j % 5)}", f"  br eq t, 0 ? a{j} : b{j}",
            f"a{j}:", f"  x = add x, n", f"  jump {nxt}",
            f"b{j}:", f"  x = xor x, {j}", f"  jump {nxt}",
        ]
    lines += ["done:", "  out x", "  ret x", "}"]
    return parse_program("\n".join(lines))


def test_programs_over_the_budget_run_on_the_reference():
    program = _big_program(compiled.COMPILE_BUDGET // 5)
    assert program.size() > compiled.COMPILE_BUDGET
    before = _counter("interp.fallbacks.size")
    compiles = _counter("interp.compiles")
    assert_same(program, [3])
    assert _counter("interp.fallbacks.size") > before
    assert _counter("interp.compiles") == compiles


def test_cache_is_keyed_on_content():
    program = random_program(3, helpers=1)
    assert_same(program, [9])
    hits = _counter("interp.compile_cache_hits")
    assert_same(program.copy(), [9])  # a different object, the same text
    assert _counter("interp.compile_cache_hits") > hits

    # Mutate in place, as annotate/tail_duplicate do: swap one branch's
    # targets.  A cache keyed on the object would replay stale code.
    for function in program:
        for block in function:
            branch = block.branch
            if branch is not None:
                block.terminator = dataclasses.replace(
                    branch, taken=branch.not_taken, not_taken=branch.taken
                )
                break
    compiles = _counter("interp.compiles")
    expected = assert_same(program, [9])
    assert _counter("interp.compiles") > compiles
    assert expected == reference(program, [9], (), 50_000_000)


def test_generated_code_does_not_depend_on_hash_order():
    script = (
        "from repro.interp.compiled import _Tables, _ProgramGen\n"
        "from repro.workloads import BENCHMARK_NAMES, get_program\n"
        "import sys\n"
        "for name in BENCHMARK_NAMES:\n"
        "    p = get_program(name)\n"
        "    t = _Tables(p, (8, True, True))\n"
        "    sys.stdout.write(_ProgramGen(p, t, (8, True, True)).source())\n"
        "    sys.stdout.write(repr((t.sites.keys, t.blocks.keys, t.edges.keys)))\n"
    )
    outputs = set()
    for hash_seed in ("0", "4242"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
        outputs.add(
            subprocess.run(
                [sys.executable, "-c", script], env=env, check=True, capture_output=True
            ).stdout
        )
    assert len(outputs) == 1


def test_function_without_blocks_fails_like_reference():
    program = parse_program(
        "func main(n) {\nentry:\n  br lt n, 0 ? call : done\ncall:\n"
        "  x = call empty()\n  ret x\ndone:\n  ret n\n}"
    )
    program.add_function(Function("empty"))
    assert assert_same(program, [1])["outcome"][0] == "returned"
    assert assert_same(program, [-1])["outcome"][0] == "raised"
    program.functions["empty"].entry = "ghost"  # names no block
    assert assert_same(program, [1])["outcome"][0] == "returned"
    assert assert_same(program, [-1])["outcome"][:2] == ("raised", KeyError)
    program.functions["empty"].add_block(BasicBlock("only"))  # no terminator
    program.functions["empty"].entry = "only"
    assert assert_same(program, [-1])["outcome"][:2] == ("raised", TrapError)


@pytest.mark.parametrize("argument", range(-9, 10))
def test_division_by_constants_truncates_like_reference(argument):
    lines = ["func main(n) {", "entry:"]
    for divisor in (-7, -2, -1, 1, 3, 8):
        lines += [f"  q = div n, {divisor}", "  out q", f"  r = mod n, {divisor}", "  out r"]
    lines += ["  q = div 0, n", "  out q", "  ret q", "}"]
    assert_same(parse_program("\n".join(lines)), [argument])


# -- consumers rebuilt from the columns ----------------------------------------


def _reference_measurement(program, args, input_values):
    """``measure_annotated`` as a per-event callback on Machine."""
    predictions = {}
    for function in program:
        for block in function:
            if block.branch is not None:
                predict = block.branch.predict
                predictions[(function.name, block.label)] = True if predict is None else predict
    per_site = {}
    totals = [0, 0]

    def on_branch(site, taken):
        cell = per_site.setdefault(site, [0, 0])
        wrong = predictions[site] is not taken
        cell[0] += 1
        cell[1] += wrong
        totals[0] += 1
        totals[1] += wrong

    Machine(program, input_values, 100_000_000, on_branch).run(*args)
    return totals[0], totals[1], {site: tuple(cell) for site, cell in per_site.items()}


def _reference_icache(program, config, args, input_values):
    """``simulate_icache`` as a per-block callback on Machine."""
    addresses = assign_addresses(program)
    cache = InstructionCache(config)
    Machine(
        program,
        input_values,
        100_000_000,
        on_block=lambda function, label: cache.touch_range(*addresses[(function, label)]),
    ).run(*args)
    return cache.accesses, cache.misses


@pytest.mark.parametrize("name", BENCHMARK_NAMES)
def test_measurement_and_icache_match_reference(name):
    program = get_program(name).copy()
    args, input_values = get_workload(name).seeded_args(1, 3)
    annotate_profile_predictions(program, get_profile(name, 1))
    measured = measure_annotated(program, args, input_values)
    expected = _reference_measurement(program, args, input_values)
    assert (measured.events, measured.mispredictions, measured.per_site) == expected
    assert list(measured.per_site) == list(expected[2])  # first-execution order
    for config in (CacheConfig(), CacheConfig(lines=4, line_words=2)):
        result = simulate_icache(program, config, args, input_values)
        expected = _reference_icache(program, config, args, input_values)
        assert (result.accesses, result.misses) == expected


@pytest.mark.parametrize("bits", [0, 3, 40, 70])
def test_path_tables_at_any_history_depth_match_reference(bits):
    program = random_program(11, helpers=2)
    tables = {}

    def on_branch(site, taken):
        tables.setdefault(site, PatternTable(bits)).add(machine.path_history, int(taken))

    machine = Machine(program, (), 2_000_000, on_branch, track_history_bits=bits)
    machine.run(6)
    observed = collect_path_tables(program, [6], bits=bits, max_steps=2_000_000)
    assert list(observed) == list(tables)
    assert {s: list(t.counts.items()) for s, t in observed.items()} == {
        s: list(t.counts.items()) for s, t in tables.items()
    }


def test_deeply_nested_branches_stay_within_python_limits():
    # Each taken arm leads to a single-predecessor block, so inlining
    # alone would nest 130 levels deep (CPython allows 100).
    lines = ["func main(n) {", "entry:", "  x = const 0", "  jump b0"]
    for j in range(130):
        after = f"b{j + 1}" if j < 129 else "end"
        lines += [f"b{j}:", "  x = add x, 1", f"  br lt x, n ? {after} : leaf{j}",
                  f"leaf{j}:", f"  ret {j}"]
    lines += ["end:", "  ret x", "}"]
    program = parse_program("\n".join(lines))
    assert program.size() <= compiled.COMPILE_BUDGET
    for argument in (0, 50, 200):
        assert assert_same(program, [argument])["outcome"][0] == "returned"
