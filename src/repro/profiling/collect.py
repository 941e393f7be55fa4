"""Trace collection: run an instrumented program and record its branches.

This is the reproduction of the paper's tracing tool.  Where the paper
inserts trace code into the assembly source, the compiled engine
records every branch into an event column
(:class:`~repro.interp.compiled.Execution`) — the resulting event
stream (branch number + direction) is identical in content.  The
functions here turn those columns into a :class:`Trace` and into
path-history pattern tables.
"""

from __future__ import annotations

import sys
from array import array
from typing import Dict, Optional, Sequence, Tuple

from ..interp import RunResult
from ..ir import BranchSite, Program
from .columns import pack_bits
from .patterns import PatternTable
from .trace import PackedDirections, Trace

_LOW_BIT = bytes(byte & 1 for byte in range(256))


def _low_bits(codes) -> bytes:
    """Bit 0 of every code, one byte per code."""
    if isinstance(codes, array):
        low = 0 if sys.byteorder == "little" else codes.itemsize - 1
        return codes.tobytes()[low :: codes.itemsize].translate(_LOW_BIT)
    return bytes(code & 1 for code in codes)


def execution_trace(execution, max_events: Optional[int] = None) -> Trace:
    """The branch trace of a finished
    :class:`~repro.interp.compiled.Execution` (its first *max_events*
    events), sites interned in first-execution order exactly as
    ``Trace.record`` interns them."""
    if max_events is None or max_events >= len(execution.codes):
        codes, counts = execution.codes, execution.code_counts()
    else:
        codes = execution.codes[:max_events]
        counts = dict.fromkeys(codes)
    trace = Trace()
    trace_id = {code: trace.site_id(execution.site_of(code)) for code in counts}
    trace.site_ids = array("i", map(trace_id.__getitem__, codes))
    trace.directions = PackedDirections.from_packed(
        pack_bits(_low_bits(codes)), len(codes)
    )
    return trace


def execution_path_tables(execution) -> Dict[BranchSite, PatternTable]:
    """Per-site tables of a finished
    :class:`~repro.interp.compiled.Execution`, keyed by the frame-local
    history each event saw, sites and patterns in first-execution
    order."""
    tables: Dict[BranchSite, PatternTable] = {}
    shift = execution.site_shift
    for code, count in execution.code_counts().items():
        site = execution.site_of(code)
        table = tables.get(site)
        if table is None:
            table = tables[site] = PatternTable(execution.history_bits)
        entry = table.counts.get(code >> shift)
        if entry is None:
            entry = table.counts[code >> shift] = [0, 0]
        entry[code & 1] += count
    return tables


def trace_program(
    program: Program,
    args: Sequence[int] = (),
    input_values: Sequence[int] = (),
    max_steps: int = 100_000_000,
    max_branches: Optional[int] = None,
) -> Tuple[Trace, RunResult]:
    """Execute *program* and collect its branch trace.

    ``max_branches`` mirrors the paper's "we traced the whole program
    up to a maximum of 100 million branch instructions": tracing stops
    recording (but execution continues) after that many events.
    """
    from ..interp.compiled import execute

    execution = execute(program, args, input_values, max_steps)
    return execution_trace(execution, max_branches), execution.result


def collect_path_tables(
    program: Program,
    args: Sequence[int] = (),
    input_values: Sequence[int] = (),
    bits: int = 8,
    max_steps: int = 100_000_000,
) -> Dict[BranchSite, PatternTable]:
    """Per-branch pattern tables keyed by *frame-local path history*.

    The frame-local history (the outcomes of the last *bits*
    conditional branches executed in the same function activation) is
    exactly what CFG-path replication can encode into the program
    counter; raw global history additionally sees callee branches,
    which no intraprocedural transform can track.  The correlated-
    branch planner therefore trains on these tables.
    """
    from ..interp.compiled import execute

    execution = execute(program, args, input_values, max_steps, history_bits=bits)
    return execution_path_tables(execution)
