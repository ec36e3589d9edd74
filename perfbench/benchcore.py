"""Measurement primitives shared by every workload of the benchmark.

* a host-speed **probe** and the arithmetic that scales a raw wall-clock
  interval to "reference-host" seconds;
* the **tail-percentile rule** (highest percentile with at least ten
  samples beyond it);
* a minimal in-memory **span tracer** with self-time accounting;
* summary **digests** and per-summary invariant checks;
* helpers for peak RSS, temporary directories and the result line.

Nothing here imports ``repro``: the module is loaded before the program
under test and must work in a checkout without it.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import resource
import shutil
import statistics
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

# ----------------------------------------------------------------------
# Host-speed probes
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Probe:
    """A fixed measurement of host speed that does not involve the program.

    ``measure()`` returns one probe duration in seconds; ``ref_s`` is its
    typical duration on the reference host (a 2-vCPU x86-64 VM, Python
    3.11), so scaled times read as seconds on that host.  Each probe is
    the fastest of a few repeats: the minimum discards repeats that an
    interrupt or a context switch stretched, so it follows the host's
    speed rather than scheduling noise.
    """

    name: str
    measure: Callable[[], float]
    ref_s: float


def _cpu_loop(n: int = 5000) -> float:
    t0 = time.perf_counter()
    acc = 0
    for i in range(n):
        acc = (acc * 31 + i) & 0xFFFF
    return time.perf_counter() - t0


def _cpu_probe() -> float:
    return min(_cpu_loop() for _ in range(5))


def _spawn_once(true_exe: str) -> float:
    t0 = time.perf_counter()
    pid = os.posix_spawn(true_exe, [true_exe], {})
    os.waitpid(pid, 0)
    return time.perf_counter() - t0


def _spawn_probe() -> float:
    true_exe = shutil.which("true")
    if true_exe is None:
        raise RuntimeError("the process-spawn probe needs a `true` executable on PATH")
    return min(_spawn_once(true_exe) for _ in range(3))


#: A pure-Python loop (about 2 ms in all): tracks the interpreter's speed.
CPU_PROBE = Probe("cpu-loop", _cpu_probe, 0.000500)
#: Spawning and reaping ``true`` (about 2.5 ms in all): tracks the host's
#: process-creation and kernel speed, which moves the multi-process
#: workloads about twice as much as it moves the CPU loop.
SPAWN_PROBE = Probe("process-spawn", _spawn_probe, 0.000800)


def probe() -> float:
    """One CPU-loop probe, in seconds."""
    return CPU_PROBE.measure()


def scale_factor(probe_before: float, probe_after: float,
                 ref_s: float = CPU_PROBE.ref_s) -> float:
    """Factor turning a raw interval into reference-host seconds.

    The host's speed during an interval is estimated by the mean of the
    probes taken right before and right after it; an interval measured
    while the probe ran twice as slow as its reference ``ref_s`` counts
    half.
    """
    mean = (probe_before + probe_after) / 2.0
    if mean <= 0:
        raise ValueError(f"probe durations must be positive, got {probe_before}, {probe_after}")
    return ref_s / mean


def scaled(raw_s: float, probe_before: float, probe_after: float,
           ref_s: float = CPU_PROBE.ref_s) -> float:
    """``raw_s`` expressed in reference-host seconds."""
    return raw_s * scale_factor(probe_before, probe_after, ref_s)


class ProbedClock:
    """Sequential interval timer with a probe between consecutive intervals.

    The probe taken after interval *i* is also the "before" probe of
    interval *i + 1*, so a sequential loop pays one probe per interval::

        clock = ProbedClock()
        for op in ops:
            with clock.interval() as iv:
                run(op)
            iv.raw_s, iv.scaled_s
    """

    def __init__(self, probe: Probe = CPU_PROBE) -> None:
        self.probe = probe
        self.last_probe = probe.measure()
        self.probes: List[float] = [self.last_probe]

    def interval(self) -> "_Interval":
        return _Interval(self)


class _Interval:
    def __init__(self, clock: ProbedClock) -> None:
        self._clock = clock
        self.raw_s = 0.0
        self.scaled_s = 0.0

    def __enter__(self) -> "_Interval":
        self._before = self._clock.last_probe
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, *_exc) -> None:
        self.raw_s = time.perf_counter() - self._t0
        clock = self._clock
        after = clock.probe.measure()
        clock.last_probe = after
        clock.probes.append(after)
        self.scaled_s = scaled(self.raw_s, self._before, after, clock.probe.ref_s)


# ----------------------------------------------------------------------
# Percentiles
# ----------------------------------------------------------------------
#: Candidate tail percentiles, lowest first.
TAIL_LADDER: Tuple[float, ...] = (50.0, 75.0, 90.0, 95.0, 99.0, 99.5, 99.9)
#: Samples that must lie strictly beyond a reported tail percentile.
TAIL_MIN_BEYOND = 10


def _rank(n: int, pct: float) -> int:
    # Rounded first so that e.g. 99.9 % of 10000 is rank 9990, not 9991.
    return max(1, math.ceil(round(pct * n / 100.0, 9)))


def nearest_rank(values: Sequence[float], pct: float) -> float:
    """Nearest-rank percentile: the smallest value with ``pct`` % at or below it."""
    if not values:
        raise ValueError("percentile of an empty sample")
    return sorted(values)[_rank(len(values), pct) - 1]


def samples_beyond(n: int, pct: float) -> int:
    """How many of ``n`` samples lie above the nearest-rank ``pct`` percentile."""
    return n - _rank(n, pct)


def tail_percentile(n: int) -> float:
    """The highest ladder percentile with at least ten samples beyond it.

    With fewer than twenty samples no tail qualifies and the median is
    reported as the tail.
    """
    best = TAIL_LADDER[0]
    for pct in TAIL_LADDER:
        if samples_beyond(n, pct) >= TAIL_MIN_BEYOND:
            best = pct
    return best


def latency_summary(latencies_s: Sequence[float]) -> Dict[str, float]:
    """Median and tail of a latency sample, in milliseconds."""
    n = len(latencies_s)
    pct = tail_percentile(n)
    return {
        "p50_ms": nearest_rank(latencies_s, 50.0) * 1000.0,
        "tail_ms": nearest_rank(latencies_s, pct) * 1000.0,
        "tail_pct": pct,
        "n": n,
        "beyond": samples_beyond(n, pct),
    }


def spread(values: Sequence[float]) -> float:
    """Inter-quartile distance as a share of the median (what ``--self-check`` reports)."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2 if q2 else 0.0


# ----------------------------------------------------------------------
# Spans
# ----------------------------------------------------------------------
@dataclass
class Span:
    name: str
    span_id: int
    parent_id: Optional[int]
    trace_id: str
    start: float
    end: float = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """In-memory spans around calls into the program's layers.

    Spans carry a trace id (one per op), a parent link and their raw
    start/end.  Each op's probe factor is kept per trace id and applied
    when layer timings are reported.  Nothing is written until
    :meth:`dump` at the end of the run.
    """

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.scales: Dict[str, float] = {}
        self._stack: List[Span] = []
        self._next_id = 1

    def span(self, name: str, trace_id: str) -> "_SpanCtx":
        return _SpanCtx(self, name, trace_id)

    def _open(self, name: str, trace_id: str) -> Span:
        parent = self._stack[-1].span_id if self._stack else None
        span = Span(name, self._next_id, parent, trace_id, time.perf_counter())
        self._next_id += 1
        self._stack.append(span)
        self.spans.append(span)
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack.pop()

    def add(self, name: str, trace_id: str, start: float, end: float,
            parent_id: Optional[int] = None) -> Span:
        """Record an interval measured elsewhere (e.g. by the daemon)."""
        span = Span(name, self._next_id, parent_id, trace_id, start, end)
        self._next_id += 1
        self.spans.append(span)
        return span

    def set_scale(self, trace_id: str, factor: float) -> None:
        self.scales[trace_id] = factor

    def by_name(self, name: str) -> List[Span]:
        return [s for s in self.spans if s.name == name]

    def scaled(self, span: Span) -> float:
        return span.duration * self.scales.get(span.trace_id, 1.0)

    def scaled_durations(self, name: str) -> List[float]:
        return [self.scaled(s) for s in self.by_name(name)]

    def dump(self, path: str) -> None:
        children: Dict[int, List[Span]] = {}
        for s in self.spans:
            if s.parent_id is not None:
                children.setdefault(s.parent_id, []).append(s)
        with open(path, "w", encoding="utf-8") as handle:
            for s in self.spans:
                handle.write(json.dumps({
                    "name": s.name, "span_id": s.span_id, "parent_id": s.parent_id,
                    "trace_id": s.trace_id, "start": s.start, "end": s.end,
                    "scale": self.scales.get(s.trace_id, 1.0),
                    "self": self_time(s, children.get(s.span_id, ())),
                }) + "\n")


class _SpanCtx:
    def __init__(self, tracer: Tracer, name: str, trace_id: str) -> None:
        self._tracer = tracer
        self._name = name
        self._trace_id = trace_id

    def __enter__(self) -> Span:
        self._span = self._tracer._open(self._name, self._trace_id)
        return self._span

    def __exit__(self, *_exc) -> None:
        self._tracer._close(self._span)


def paired_overhead_pct(pairs: Sequence[Tuple[Callable[[], object], Callable[[], object]]],
                        probe: Probe = CPU_PROBE) -> float:
    """How much slower each pair's variant runs than its base, in percent.

    ``pairs`` holds ``(base, variant)`` callables doing the same work with
    and without the feature under test (tracing, checkpoints).  The order
    alternates per pair so a drift in host speed favours neither side,
    and the median of the per-pair ratios keeps one stalled run from
    deciding the figure.
    """
    ratios = []
    clock = ProbedClock(probe)
    for k, (base, variant) in enumerate(pairs):
        timed = {}
        for is_variant in ((False, True) if k % 2 else (True, False)):
            with clock.interval() as iv:
                (variant if is_variant else base)()
            timed[is_variant] = iv.scaled_s
        ratios.append(timed[True] / timed[False])
    return 100.0 * (statistics.median(ratios) - 1.0)


def trace_overhead_pct(run_one: Callable[[Dict[str, object], Optional["Tracer"]], object],
                       ops: Sequence[Dict[str, object]], probe: Probe = CPU_PROBE) -> float:
    """Traced against untraced time of the same ops (``run_one(op, tracer)``)."""
    return paired_overhead_pct([
        (lambda op=op: run_one(op, None), lambda op=op: run_one(op, Tracer()))
        for op in ops
    ], probe)


def self_time(span: Span, children: Iterable[Span]) -> float:
    """``span``'s duration minus the part of it its ``children`` cover.

    Overlapping children (concurrent work) are merged first, and child
    intervals are clipped to the parent, so the result is never negative.
    """
    intervals = sorted(
        (max(c.start, span.start), min(c.end, span.end))
        for c in children
    )
    covered = 0.0
    cur_start = cur_end = None
    for start, end in intervals:
        if end <= start:
            continue
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                covered += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        covered += cur_end - cur_start
    return span.duration - covered


# ----------------------------------------------------------------------
# Output checks
# ----------------------------------------------------------------------
def digest(payload: object) -> str:
    """Short stable digest of a JSON-serialisable simulated result."""
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def combined_digest(digests: Sequence[str]) -> str:
    return hashlib.sha256("".join(digests).encode("ascii")).hexdigest()[:16]


def summary_errors(summary: Dict[str, object], expected_executions: int) -> List[str]:
    """Invariants every run summary must satisfy (empty list = sane).

    Every task of every application executes exactly once; a reused
    execution is one that needed no load; the simulated makespan can
    never beat the zero-latency ideal.
    """
    errors = []
    executions = summary.get("executions")
    reused = summary.get("reused")
    if executions != expected_executions:
        errors.append(f"executions {executions} != {expected_executions} tasks")
    if not isinstance(reused, int) or not 0 <= reused <= (executions or 0):
        errors.append(f"reused {reused} outside [0, executions]")
    if summary.get("makespan_us", -1) < summary.get("ideal_makespan_us", 0):
        errors.append("makespan below the zero-latency ideal")
    if summary.get("overhead_us", -1) < 0:
        errors.append("negative reconfiguration overhead")
    return errors


def record_errors(record: Dict[str, object]) -> List[str]:
    """Invariants of one sweep cell record (``PolicyRunRecord`` fields)."""
    errors = []
    if not 0.0 <= float(record["reuse_pct"]) <= 100.0:
        errors.append(f"reuse_pct {record['reuse_pct']} outside [0, 100]")
    if float(record["makespan_ms"]) < float(record["ideal_makespan_ms"]):
        errors.append("makespan below the zero-latency ideal")
    if float(record["overhead_ms"]) < 0:
        errors.append("negative reconfiguration overhead")
    return errors


@dataclass
class Tally:
    """Simulated outputs aggregated over every op of a run."""

    executions: int = 0
    reused: int = 0
    overhead_us: float = 0.0
    baseline_us: float = 0.0

    def add(self, executions: int, reused: int, overhead_us: float,
            latency_us: float) -> None:
        self.executions += executions
        self.reused += reused
        self.overhead_us += overhead_us
        self.baseline_us += executions * latency_us

    def add_summary(self, summary: Dict[str, object]) -> None:
        """One run summary (``SimulationResult.summary()``)."""
        self.add(int(summary["executions"]), int(summary["reused"]),
                 float(summary["overhead_us"]), float(summary["reconfig_latency_us"]))

    def add_record(self, record: Dict[str, object], n_tasks: int, latency_us: float) -> None:
        """One sweep cell record (``PolicyRunRecord``) of an ``n_tasks`` workload."""
        self.add(n_tasks, int(record["n_reuses"]), float(record["overhead_ms"]) * 1000.0,
                 latency_us)

    @property
    def reuse_pct(self) -> float:
        return 100.0 * self.reused / self.executions if self.executions else 0.0

    @property
    def overhead_pct(self) -> float:
        """Remaining reconfiguration overhead as a share of the no-reuse one."""
        return 100.0 * self.overhead_us / self.baseline_us if self.baseline_us else 0.0


@dataclass
class OpOutcome:
    """What one op produced: its latency and whether its output was right.

    ``end`` is the op's completion time (``perf_counter``) and
    ``executions`` the simulated task executions it reported.
    """

    index: int
    raw_s: float
    scaled_s: float
    digest: str = ""
    errors: List[str] = field(default_factory=list)
    executions: int = 0
    end: float = 0.0


Window = Tuple[int, int, float]  # (ops, executions, probe-scaled seconds)


def sequential_windows(outcomes: Sequence[OpOutcome], size: int) -> List[Window]:
    """Consecutive ops of a sequential loop in groups of ``size``.

    A window's time is the sum of its ops' scaled latencies, so the probes
    and checks run between ops are not counted.
    """
    return [
        (size, sum(o.executions for o in chunk), sum(o.scaled_s for o in chunk))
        for chunk in (outcomes[i:i + size] for i in range(0, len(outcomes) - size + 1, size))
    ]


def concurrent_windows(outcomes: Sequence[OpOutcome], size: int, start: float) -> List[Window]:
    """Completions of a concurrent loop, ``size`` at a time, in completion order.

    A window spans from the previous window's last completion (the phase
    ``start`` for the first) to its own last one, scaled by the mean probe
    factor of its ops.
    """
    done = sorted(outcomes, key=lambda o: o.end)
    windows: List[Window] = []
    prev = start
    for i in range(0, len(done) - size + 1, size):
        chunk = done[i:i + size]
        factor = statistics.mean(o.scaled_s / o.raw_s for o in chunk)
        windows.append((size, sum(o.executions for o in chunk), (chunk[-1].end - prev) * factor))
        prev = chunk[-1].end
    return windows


def window_rates(windows: Sequence[Window]) -> Tuple[float, float]:
    """Median ops and executions per scaled second over the windows.

    The median keeps one stalled window from moving the figure; every
    window holds the same op mix, so the windows are comparable.
    """
    return (statistics.median(ops / secs for ops, _e, secs in windows),
            statistics.median(execs / secs for _o, execs, secs in windows))


def design_stats(final: Dict[str, Dict[str, int]],
                 fetched: Optional[Dict[str, Dict[str, int]]]) -> Dict[str, Dict[str, int]]:
    """Cache counters of one op, as the program's own lookups saw them.

    A traced op fetches its design-time artifacts explicitly first
    (``fetched`` is the cache's ``stats_summary()`` right after), so the
    run then hits memory for them; those hits are the tracer's doing.
    The design-time kinds are therefore taken from ``fetched`` and only
    the run-record memo from the ``final`` counters.
    """
    if fetched is None:
        return final
    return dict(fetched, records=final["records"])


def digest_mismatches(outcomes: Sequence[OpOutcome], pinned: Sequence[str]) -> int:
    """Mark ops whose digest differs from the pinned one; return the count."""
    bad = 0
    for o in outcomes:
        if o.index < len(pinned) and o.digest != pinned[o.index]:
            o.errors.append(f"digest {o.digest} != pinned {pinned[o.index]}")
            bad += 1
    return bad


# ----------------------------------------------------------------------
# Process helpers
# ----------------------------------------------------------------------
def self_peak_rss_kb() -> float:
    """This process's peak resident set, in KiB (Linux reports KiB)."""
    return float(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)


def proc_status_kb(pid: int, field: str = "VmHWM") -> Optional[float]:
    """A live process's ``/proc/<pid>/status`` memory field, in KiB.

    ``VmHWM`` is the peak resident set, ``VmRSS`` the current one;
    ``None`` where the file is unreadable (the process is gone, or the
    platform has no ``/proc``).
    """
    try:
        with open(f"/proc/{pid}/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith(field + ":"):
                    return float(line.split()[1])
    except OSError:
        return None
    return None


def dir_size_kb(root: str) -> Tuple[int, float]:
    """``(file count, total KiB)`` of every regular file under ``root``."""
    files = 0
    total = 0
    for dirpath, _dirs, names in os.walk(root):
        for name in names:
            try:
                total += os.path.getsize(os.path.join(dirpath, name))
                files += 1
            except OSError:
                pass
    return files, total / 1024.0


def metric(value: float, unit: str) -> Dict[str, object]:
    return {"value": float(value), "unit": unit}
