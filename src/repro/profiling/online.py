"""Streaming (online) profiling.

"A production version of the profiling tool will include the first part
of the analysis tool which transforms the trace data into the pattern
table.  This enables profiling with an unlimited number of branches."
(Section 3.)

:class:`OnlineProfiler` is that production version: it folds branch
events straight into the pattern tables as the program runs, so memory
is bounded by the number of *distinct* (branch, pattern) pairs — the
Table 2 fill rates show how small that is — instead of growing with
trace length.  The result is bit-for-bit identical to
``ProfileData.from_trace`` over the same events (property-tested).
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

from ..interp import RunResult
from ..ir import BranchSite, Program
from .patterns import PatternTable, ProfileData


class OnlineProfiler:
    """Builds :class:`ProfileData` one event at a time."""

    def __init__(self, local_bits: int = 9, global_bits: int = 8) -> None:
        self.data = ProfileData(local_bits, global_bits)
        self._local_hist: Dict[BranchSite, int] = {}
        self._local_mask = (1 << local_bits) - 1
        self._global_mask = (1 << global_bits) - 1
        self._ghist = 0
        self._totals: Dict[BranchSite, List[int]] = {}

    def record(self, site: BranchSite, taken: bool) -> None:
        """Fold one branch event into the tables."""
        bit = 1 if taken else 0
        data = self.data
        local = data.local.get(site)
        if local is None:
            local = data.local[site] = PatternTable(data.local_bits)
            data.global_tables[site] = PatternTable(data.global_bits)
            self._totals[site] = [0, 0]
            self._local_hist[site] = 0
        history = self._local_hist[site]
        local.add(history, bit)
        data.global_tables[site].add(self._ghist, bit)
        self._totals[site][bit] += 1
        self._local_hist[site] = ((history << 1) | bit) & self._local_mask
        self._ghist = ((self._ghist << 1) | bit) & self._global_mask
        data.events += 1

    def finish(self) -> ProfileData:
        """Finalise and return the profile."""
        self.data.totals = {
            site: (counts[0], counts[1]) for site, counts in self._totals.items()
        }
        return self.data


def profile_program(
    program: Program,
    args: Sequence[int] = (),
    input_values: Sequence[int] = (),
    local_bits: int = 9,
    global_bits: int = 8,
    max_steps: int = 100_000_000,
) -> Tuple[ProfileData, RunResult]:
    """One-pass profiling: run the program, return the profile.

    Unlike ``trace_program`` + ``ProfileData.from_trace`` this builds
    no :class:`Trace`: the events of the run's code column (4 bytes
    each) are folded into the tables one at a time.  A producer that
    feeds :class:`OnlineProfiler` as it goes profiles in memory bounded
    by the tables alone.
    """
    from ..interp.compiled import execute

    execution = execute(program, args, input_values, max_steps)
    profiler = OnlineProfiler(local_bits, global_bits)
    record = profiler.record
    for site, taken in execution.events():
        record(site, taken)
    return profiler.finish(), execution.result
