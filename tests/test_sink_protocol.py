"""The one sink protocol: every sink is called through its hook table.

Object sinks (``on_event`` overrides) and field sinks (``scalar_hooks``
overrides) share a run; each event fans out to them in sink order, the
object sinks see exactly the events a JSONL capture of the run holds,
and the fan-out is rebound correctly after a checkpoint restore.
"""

import io

import pytest

from repro.artifacts.store import ArtifactStore
from repro.core.policy_spec import local_lfd_spec
from repro.exceptions import SimulationError
from repro.resilience import CrashSink, FaultError
from repro.session import Session, SessionHooks
from repro.sim.tracing import (
    EVENT_TYPES,
    SCALAR_HOOK_KEYS,
    AggregateTrace,
    FullTrace,
    JsonlTraceWriter,
    Skip,
    TraceSink,
    bind_hooks,
    read_trace_events,
    replay_events,
)
from repro.workloads.scenarios import make_scenario

SPEC = local_lfd_spec(1, skip_events=True)


@pytest.fixture(scope="module")
def workload():
    return make_scenario("paper-eval", length=25)


class _TaggedSink(TraceSink):
    """Object sink logging ``(tag, event)`` into a log shared across sinks."""

    def __init__(self, tag, log):
        self.tag = tag
        self.log = log
        self.events = []

    def on_event(self, event):
        self.events.append(event)
        self.log.append((self.tag, event))


class _Recording(TraceSink):
    def __init__(self):
        self.events = []

    def on_event(self, event):
        self.events.append(event)


class _Hooks(SessionHooks):
    def __init__(self, sinks):
        self.sinks = sinks

    def trace_sinks(self, cell):
        return self.sinks


def _run(workload, trace, sinks, **kwargs):
    session = Session(
        workload=workload, hooks=[_Hooks(sinks)], **kwargs.pop("session", {})
    )
    return session.run(SPEC, trace=trace, **kwargs)


@pytest.mark.parametrize("trace", ["full", "aggregate"])
def test_fan_out_follows_sink_order(workload, trace):
    log = []
    first, second = _TaggedSink("a", log), _TaggedSink("b", log)
    capture = io.StringIO()
    result = _run(workload, trace, [first, second, JsonlTraceWriter(capture)])

    assert [tag for tag, _ in log] == ["a", "b"] * len(first.events)
    assert all(a == b for (_, a), (_, b) in zip(log[0::2], log[1::2]))
    captured = list(read_trace_events(capture.getvalue().splitlines()))
    assert first.events == captured
    assert second.events == captured
    assert any(type(event) is Skip for event in captured)
    # The built-in primary saw the same stream through its _h_* bodies.
    (replayed,) = replay_events(captured, FullTrace())
    assert replayed.view().summary() == result.trace.summary()


def test_built_in_sinks_record_object_events(workload):
    recording = _Recording()
    result = _run(workload, "full", [recording])
    full, agg = FullTrace(), AggregateTrace()
    for event in recording.events:
        full.on_event(event)
        agg.on_event(event)
    assert full.view() == result.trace
    assert agg.summary() == result.trace.summary()


@pytest.mark.parametrize("sink", [FullTrace(), AggregateTrace()])
def test_built_in_sinks_reject_unknown_objects(sink):
    with pytest.raises(SimulationError, match="not a trace event"):
        sink.on_event(object())


def test_bind_hooks_merges_tables():
    log = []
    agg, tagged = AggregateTrace(), _TaggedSink("t", log)
    bound = bind_hooks([agg, tagged])
    assert list(bound) == [key for key, _ in SCALAR_HOOK_KEYS]
    bound["run_start"](0, 3, 4000, 2, 1)
    assert agg.n_rus == 3 and [type(e).__name__ for _, e in log] == ["RunStart"]
    # AggregateTrace ignores ReconfigEnd: only the object sink receives it.
    bound["reconfig_end"](5, 0, ("A", 1), 0, 0, 5)
    assert [type(e).__name__ for _, e in log] == ["RunStart", "ReconfigEnd"]
    assert bind_hooks([])["exec_start"] is None
    assert bind_hooks([FullTrace()])["exec_end"] is None
    assert len({cls for _, cls in SCALAR_HOOK_KEYS}) == len(EVENT_TYPES)


def test_crash_then_resume_with_object_sink_matches(workload, tmp_path):
    expected = _run(workload, "aggregate", [_Recording()]).trace.summary()
    session = {"store": ArtifactStore(tmp_path / "store")}
    CrashSink.arm()
    try:
        with pytest.raises(FaultError):
            _run(
                workload,
                "aggregate",
                [CrashSink(200), _Recording()],
                session=dict(session),
                checkpoint_every=16,
            )
        CrashSink.disarm()
        fresh = _Recording()
        resumed = _run(
            workload,
            "aggregate",
            [CrashSink(200), fresh],
            session=dict(session),
            checkpoint_every=16,
        )
    finally:
        CrashSink.arm()
    assert resumed.trace.summary() == expected
    # The run resumed: the checkpointed sinks replaced the fresh ones.
    assert fresh.events == []
