"""Measurement plumbing shared by every workload.

* :class:`Tracer` records a span around each call the benchmark makes
  into a layer of the program.  Spans live in memory and are written
  out once, as Chrome ``trace_event`` JSON, when the run ends.  A
  disabled tracer hands out one shared no-op span, so the timed
  (untraced) run pays a method call per layer call and nothing more.
* :class:`Checks` counts every correctness check attempted and failed;
  ``failed_share`` is ``failed / attempted``.
* :class:`Metrics` collects named metrics with units and the number of
  samples each timing rests on.
* :func:`counter_delta` reads the program's own observer counters
  (``OBS.counters()``) around a unit of work, so ratios are measured
  where the work happens.
* :class:`HostClock` and :class:`Segments` normalise batch times for
  the shared host's speed with a fixed probe; :func:`steal_share`
  gives the share of busy CPU time the hypervisor stole, which
  serve-mix times are scaled by.
"""

from __future__ import annotations

import json
import math
import re
import statistics
import time
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

#: Every metric and layer name printed by the benchmark matches this.
NAME_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]*")


class _NullSpan:
    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc_info) -> bool:
        return False


NULL_SPAN = _NullSpan()


class _Span:
    __slots__ = ("tracer", "name", "args", "start", "parent", "index")

    def __init__(self, tracer: "Tracer", name: str, args: dict) -> None:
        self.tracer = tracer
        self.name = name
        self.args = args

    def __enter__(self) -> "_Span":
        tracer = self.tracer
        self.parent = tracer._stack[-1] if tracer._stack else -1
        self.index = len(tracer.spans)
        tracer.spans.append(None)  # placeholder keeps start order
        tracer._stack.append(self.index)
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc_info) -> bool:
        end = time.perf_counter()
        tracer = self.tracer
        tracer._stack.pop()
        tracer.spans[self.index] = SpanRecord(
            self.name, self.start, end, self.parent, self.args
        )
        return False


class SpanRecord:
    """One finished span: name, start and end (perf_counter seconds),
    the index of its parent span (-1 for a root) and attributes."""

    __slots__ = ("name", "start", "end", "parent", "args")

    def __init__(
        self, name: str, start: float, end: float, parent: int, args: dict
    ) -> None:
        self.name = name
        self.start = start
        self.end = end
        self.parent = parent
        self.args = args

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """In-memory spans around the benchmark's calls into each layer.

    Single-threaded by design: the batch workloads call layers from one
    thread, and the service workload records one span per request from
    the load generator's result list after the fact (:meth:`add`).
    """

    def __init__(self, enabled: bool) -> None:
        self.enabled = enabled
        self.spans: List[Optional[SpanRecord]] = []
        self._stack: List[int] = []

    def span(self, name: str, **args):
        if not self.enabled:
            return NULL_SPAN
        return _Span(self, name, args)

    def add(
        self, name: str, start: float, end: float, parent: int = -1, **args
    ) -> int:
        """Record an already-timed span; returns its index."""
        self.spans.append(SpanRecord(name, start, end, parent, args))
        return len(self.spans) - 1

    def current(self) -> int:
        return self._stack[-1] if self._stack else -1

    # -- analysis ------------------------------------------------------------

    def self_times(self, root: int) -> Dict[str, float]:
        """Self time per span name inside the tree rooted at *root*.

        A span's self time is its duration minus the time its direct
        children cover.  The root's own self time is reported under
        ``unattributed``: time inside the unit of work that no layer
        span accounts for (the benchmark's glue and checks).
        """
        spans = self.spans
        children: Dict[int, List[int]] = {}
        for index in range(root + 1, len(spans)):
            record = spans[index]
            if record is None:
                continue
            children.setdefault(record.parent, []).append(index)
        totals: Dict[str, float] = {}
        stack = [root]
        while stack:
            index = stack.pop()
            record = spans[index]
            kids = children.get(index, [])
            covered = sum(spans[k].duration for k in kids)
            name = "unattributed" if index == root else record.name
            totals[name] = totals.get(name, 0.0) + record.duration - covered
            stack.extend(kids)
        return totals

    def chrome_events(self) -> List[dict]:
        """Complete ('X') events in microseconds from the first span."""
        records = [r for r in self.spans if r is not None]
        if not records:
            return []
        origin = min(r.start for r in records)
        events = []
        for index, record in enumerate(self.spans):
            if record is None:
                continue
            args = dict(record.args, span=index, parent=record.parent)
            events.append(
                {
                    "name": record.name,
                    "cat": record.name.split(".")[0],
                    "ph": "X",
                    "ts": round((record.start - origin) * 1e6, 3),
                    "dur": round(record.duration * 1e6, 3),
                    "pid": 1,
                    "tid": int(args.get("tid", 1)),
                    "args": args,
                }
            )
        return events

    def write_chrome(self, path: str) -> int:
        events = self.chrome_events()
        with open(path, "w", encoding="utf-8") as stream:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, stream)
        return len(events)


class Checks:
    """Correctness checks attempted and failed, with the first few
    failure messages kept for the report."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.messages: List[str] = []

    def check(self, ok: bool, message: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.messages) < 20:
                self.messages.append(message)
        return ok

    @property
    def failed_share(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0


class Metrics:
    """Named metrics in insertion order: value, unit and sample count."""

    def __init__(self) -> None:
        self.values: Dict[str, Tuple[float, str, Optional[int]]] = {}

    def put(self, name: str, value: float, unit: str, n: Optional[int] = None) -> None:
        if not NAME_RE.fullmatch(name):
            raise ValueError(f"bad metric name {name!r}")
        if isinstance(value, float) and not math.isfinite(value):
            raise ValueError(f"metric {name} is not finite: {value}")
        self.values[name] = (value, unit, n)

    def lines(self) -> List[str]:
        out = []
        for name, (value, unit, n) in self.values.items():
            shown = f"{value:.6g}" if isinstance(value, float) else str(value)
            suffix = f"  (n={n})" if n is not None else ""
            out.append(f"  {name:34s} {shown:>14s} {unit}{suffix}")
        return out

    def json_subset(self, names: Iterable[str]) -> dict:
        return {
            name: {"value": self.values[name][0], "unit": self.values[name][1]}
            for name in names
        }


# -- statistics ----------------------------------------------------------------


def median(values: Sequence[float]) -> float:
    return statistics.median(values) if values else 0.0


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (q in [0, 100]) of *values*."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


# -- program counters ------------------------------------------------------------


def counters() -> Dict[str, float]:
    from repro.obs import OBS

    return OBS.counters()


def counter_delta(before: Dict[str, float], after: Dict[str, float]) -> Dict[str, float]:
    """``after - before`` for every counter that moved."""
    delta = {}
    for name, value in after.items():
        moved = value - before.get(name, 0)
        if moved:
            delta[name] = moved
    return delta


#: Normalised times are wall times scaled to a host on which
#: :func:`host_probe_s` takes this long; a round figure, so normalised
#: and wall times read alike on a host of about that speed.
PROBE_REFERENCE_S = 0.02


class _ProbeNode:
    __slots__ = ("left", "right")

    def __init__(self, left: int, right: int) -> None:
        self.left = left
        self.right = right

    def total(self) -> int:
        return self.left + self.right


def _probe_dict() -> None:
    table = {}
    for key in range(35_000):
        table[key * 7919] = key
    total = 0
    for key in range(35_000):
        total += table[key * 7919]


def _probe_objects() -> None:
    nodes = [_ProbeNode(i, i + 1) for i in range(20_000)]
    total = 0
    for node in nodes:
        total += node.total()
    sorted(((i * 2654435761) % 1_000_003, i) for i in range(20_000))


#: The memory kernel's list, made once so that the probe adds a fixed
#: 7 MB to a run's peak RSS rather than a peak of its own mid-pass.
_CELLS: List[int] = []


def _probe_memory() -> None:
    import random

    if not _CELLS:
        _CELLS.extend(range(200_000))
    rng = random.Random(1)
    total = 0
    for _ in range(35_000):
        total += _CELLS[rng.randrange(200_000)]


def host_probe_s() -> float:
    """The host's speed right now: the geometric mean of the wall times
    of three fixed pure-Python kernels (dict fill and lookup; object
    allocation, method calls and a sort; random reads over a 200k-entry
    list of ints).  The program never runs them, so when they slow down
    the host slowed down (other tenants, memory contention), not the
    code under test.  All three take about 20 ms."""
    logs = 0.0
    for kernel in (_probe_dict, _probe_objects, _probe_memory):
        started = time.perf_counter()
        kernel()
        logs += math.log(time.perf_counter() - started)
    return math.exp(logs / 3)


class HostClock:
    """Normalises units of work for the host's speed.

    The host is probed when a unit of work starts (:meth:`start`) and
    after it ends (:meth:`normalise`), and the next unit starts from the
    last probe.  A unit's wall time is scaled by
    :data:`PROBE_REFERENCE_S` over the mean of the probes around it.
    On the shared box this was sized on, the host's speed moved by up
    to 2× within minutes and by ±20% from one analyze-warm pass to the
    next, more than any bound the benchmark may set; the probe follows
    most of that.  :class:`Segments` cuts a pass finer, at its inputs.
    """

    def __init__(self) -> None:
        self.probes: List[float] = []
        self._window: List[float] = []
        self.start()

    def _probe(self) -> None:
        probe = host_probe_s()
        self.probes.append(probe)
        self._window.append(probe)

    def start(self) -> None:
        """Probe the host as the next unit of work starts."""
        self._probe()
        self._window = self._window[-1:]

    def normalise(self, seconds: float) -> float:
        """Call right after a unit of work that took *seconds* of wall
        time; returns its time on the reference host."""
        self._probe()
        speed = sum(self._window) / len(self._window)
        self._window = self._window[-1:]
        return seconds * PROBE_REFERENCE_S / speed


class Segments:
    """Times a unit of work cut into pieces (a pass, at its inputs).

    Each :meth:`cut` ends a piece and normalises its wall time by the
    probes just before and after it, so a pass follows the host's speed
    from input to input.  The probes' own time is left out of
    :attr:`seconds` and :attr:`normalised`.  With no clock (a traced
    pass, whose spans must not hold probes) :meth:`cut` does nothing
    and :attr:`normalised` stays 0.
    """

    def __init__(self, clock: Optional[HostClock]) -> None:
        self.clock = clock
        self.normalised = 0.0
        self._paused = 0.0
        if clock is not None:
            clock.start()
        self._started = self._mark = time.perf_counter()

    def cut(self) -> None:
        if self.clock is None:
            return
        now = time.perf_counter()
        self.normalised += self.clock.normalise(now - self._mark)
        self._mark = time.perf_counter()
        self._paused += self._mark - now

    @property
    def seconds(self) -> float:
        """Wall seconds since the start, probes left out."""
        return time.perf_counter() - self._started - self._paused


def cpu_ticks() -> Tuple[int, int]:
    """(busy, stolen) clock ticks of all this machine's CPUs so far,
    from ``/proc/stat``; stolen ticks are those the hypervisor gave to
    another guest while a CPU of this one wanted to run.  (0, 0) where
    the file cannot be read."""
    try:
        with open("/proc/stat", "r", encoding="ascii") as stream:
            fields = [int(x) for x in stream.readline().split()[1:9]]
    except (OSError, ValueError):
        return 0, 0
    user, nice, system, _idle, _iowait, irq, softirq, steal = fields
    return user + nice + system + irq + softirq + steal, steal


def steal_share(before: Tuple[int, int], after: Tuple[int, int]) -> float:
    """Share of the busy time between two :func:`cpu_ticks` readings
    that the hypervisor took away."""
    return ratio(after[1] - before[1], after[0] - before[0])


def peak_rss_mb() -> float:
    """This process's peak resident set size, in MiB."""
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def process_peak_rss_mb(pid: int) -> float:
    """Peak resident set size (``VmHWM``) of a live process, in MiB;
    0 when the process is gone or unreadable."""
    try:
        with open(f"/proc/{pid}/status", "r", encoding="ascii") as stream:
            for line in stream:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except (OSError, ValueError, IndexError):
        return 0.0
    return 0.0
