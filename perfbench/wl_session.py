"""``session-cold``: the library path of the paper's experiment.

Each op is a fresh :class:`repro.Session` running one fig. 9 policy line
on a workload nobody has seen (fresh scenario seed), so design time
(mobility tables, the zero-latency ideal) and the engine each do about
half of the work, and no backend or server is involved.
"""

from __future__ import annotations

import contextlib
import os
from typing import Dict, List

import benchcore as bc
import oplists
import setup_time

N_SETUP = 7
#: Nominal ops per reference-host second (sizes the fixed op list).
OPS_PER_S = 6.0


def policy_spec(key: str):
    from repro import lfd_spec, local_lfd_spec, lru_spec
    from repro.core.policy_spec import named_policy_spec

    if key == "LRU":
        return lru_spec()
    if key == "LFU":
        return named_policy_spec("lfu")
    if key == "LFD":
        return lfd_spec()
    window = int(key[4])
    return local_lfd_spec(window, skip_events=key.endswith("S"))


def n_ops(seconds: int) -> int:
    return oplists.op_count(seconds * OPS_PER_S, oplists.SESSION_BLOCK)


def _build(op):
    from repro import make_scenario

    return make_scenario(op["scenario"], length=op["length"], seed=op["seed"],
                         n_rus=op["n_rus"])


def run_op(op, store, spans=None, trace_id=""):
    """Execute one op; returns ``(summary, workload, cache stats)``.

    With ``spans``, each layer is called explicitly inside its own span;
    ``Session.run`` then finds the design artifacts in the session's
    memory tier instead of computing them, so the work is the same.  The
    design-time cache counters are then read right after those explicit
    calls, which resolve exactly as the run's own lookups would have.
    """
    from repro import Session

    def span(name):
        return spans.span(name, trace_id) if spans is not None else contextlib.nullcontext()

    spec = policy_spec(op["policy"])
    with span("workloads.build"):
        workload = _build(op)
    session = Session(workload=workload, trace=op["trace"],
                      store=store if op["checkpoint_every"] else None)
    fetched = None
    if spans is not None:
        with span("workloads.compile"):
            session.compiled()
        with span("design.ideal"):
            session.ideal_makespan_us(op["n_rus"], semantics=spec.make_semantics())
        if spec.skip_events:
            with span("design.mobility"):
                session.mobility_tables(op["n_rus"])
        fetched = session.cache.stats_summary()
    with span("session.run"):
        result = session.run(spec, checkpoint_every=op["checkpoint_every"])
    return result.summary(), workload, bc.design_stats(session.cache.stats_summary(), fetched)


def _op(op, store, tracer=None, trace_id="x"):
    """:func:`run_op`, under a root ``op`` span when traced."""
    if tracer is None:
        return run_op(op, store)
    with tracer.span("op", trace_id):
        return run_op(op, store, tracer, trace_id)


def _cross_check(op, summary, store) -> List[str]:
    """Re-run the op through the other trace mode; summaries must match."""
    other = dict(op, trace="full" if op["trace"] == "aggregate" else "aggregate",
                 checkpoint_every=0)
    again, _w, _c = run_op(other, store)
    return [] if again == summary else [f"cross-check: {again} != {summary}"]


def run(ctx) -> Dict[str, object]:
    from repro import ArtifactStore

    setup_s, setup_samples = setup_time.median_of(
        lambda _k: setup_time.fresh_import(ctx.env), N_SETUP)
    store = ArtifactStore(os.path.join(ctx.work, "store"))
    ops = oplists.session_cold_ops(ctx.seed, n_ops(ctx.seconds))
    tally = bc.Tally()
    outcomes: List[bc.OpOutcome] = []
    cache_stats: List[Dict] = []
    clock = bc.ProbedClock()
    for op in ops:
        trace_id = f"op{op['index']}"
        with clock.interval() as iv:
            summary, workload, stats = _op(op, store, ctx.tracer, trace_id)
        if ctx.tracer is not None:
            ctx.tracer.set_scale(trace_id, iv.scaled_s / iv.raw_s)
        cache_stats.append(stats)
        outcome = bc.OpOutcome(op["index"], iv.raw_s, iv.scaled_s, bc.digest(summary),
                               executions=int(summary["executions"]))
        outcome.errors += bc.summary_errors(summary, workload.n_tasks)
        if op["index"] % 10 == 0:
            outcome.errors += _cross_check(op, summary, store)
        tally.add_summary(summary)
        outcomes.append(outcome)
    out = {
        "outcomes": outcomes,
        "tally": tally,
        "setup_s": setup_s,
        "setup_samples": setup_samples,
        "peak_rss_mb": bc.self_peak_rss_kb() / 1024.0,
        "windows": bc.sequential_windows(outcomes, oplists.SESSION_BLOCK),
        "phase_raw_s": sum(o.raw_s for o in outcomes),
        "probes": clock.probes,
    }
    if ctx.tracer is not None:
        out["layers"] = _layers(ctx, ops, store, cache_stats)
    return out


def _layers(ctx, ops, store, cache_stats) -> Dict[str, float]:
    """Per-layer numbers only this workload's loop produces."""
    from layers import cache_layers

    spans = ctx.tracer
    op_total = sum(spans.scaled_durations("op"))
    design = sum(spans.scaled_durations("design.ideal")) + sum(
        spans.scaled_durations("design.mobility"))
    layers = {
        "design.share_pct": 100.0 * design / op_total,
        "design.ideal_calls": float(sum(c["ideal"]["computations"] for c in cache_stats)),
        "trace.overhead_pct": bc.trace_overhead_pct(
            lambda op, tracer: _op(op, store, tracer), ops[:16]),
        "store.kb_written": bc.dir_size_kb(store.root)[1],
    }
    layers.update(cache_layers(cache_stats))
    return layers
