"""``sweep-pool``: the ``repro fig9* --jobs 2`` path.

Each op is a fresh :class:`repro.Session` running a fig. 9a/b/c spec set
over several RU counts with ``parallel=2``, so process-pool spin-up,
pickling and chunk dispatch dominate.  All ops share one persistent
artifact store over a small set of workloads, primed before timing, so
design time comes from the disk tier.  A slice of ops runs on the
work-stealing backend instead of the process pool.
"""

from __future__ import annotations

import contextlib
import dataclasses
import multiprocessing
import os
from typing import Dict, List

import benchcore as bc
import oplists
import setup_time

N_SETUP = 5
PARALLEL = 2
#: Nominal ops per reference-host second (sizes the fixed op list).
OPS_PER_S = 6.4


def n_ops(seconds: int) -> int:
    return oplists.op_count(seconds * OPS_PER_S, oplists.SWEEP_BLOCK)


def figure_specs(figure: str):
    from repro import fig9a_specs, fig9b_specs, fig9c_specs

    return {"fig9a": fig9a_specs, "fig9b": fig9b_specs, "fig9c": fig9c_specs}[figure]()


def build(op):
    from repro import make_scenario

    return make_scenario(op["scenario"], length=op["length"], seed=op["seed"])


def _fetch_design(session, specs, ru_counts) -> None:
    """Every distinct design-time artifact a sweep of ``specs`` needs,
    deduplicated on the coordinates the artifact cache keys on."""
    from repro.artifacts.keys import ideal_semantics_fingerprint

    semantics = {ideal_semantics_fingerprint(s.make_semantics()): s.make_semantics()
                 for s in specs}
    session.compiled()
    for n_rus in ru_counts:
        for sem in semantics.values():
            session.ideal_makespan_us(n_rus, semantics=sem)
        if any(spec.skip_events for spec in specs):
            session.mobility_tables(n_rus)


def prime(store, workloads) -> None:
    """Put every design-time artifact the ops need on disk (untimed)."""
    from repro import Session

    for w in workloads:
        with Session(workload=build(w), store=store) as session:
            for figure in ("fig9a", "fig9b", "fig9c"):
                _fetch_design(session, figure_specs(figure), oplists.SWEEP_RUS)


def run_op(op, store, spans=None, trace_id=""):
    """One fresh-session sweep; returns ``(records, workload, largest
    worker peak RSS in KiB, cache stats)``.

    With ``spans``, design time is fetched explicitly inside its own span
    first (one lookup per distinct artifact, as the sweep's plan does);
    the sweep then finds it in the session's memory tier.
    """
    from repro import Session

    def span(name):
        return spans.span(name, trace_id) if spans is not None else contextlib.nullcontext()

    specs = figure_specs(op["figure"])
    workload = build(op)
    fetched = None
    with Session(workload=workload, store=store, backend=op["backend"]) as session:
        if spans is not None:
            with span("design.artifacts"):
                _fetch_design(session, specs, op["rus"])
            fetched = session.cache.stats_summary()
        with span("session.sweep"):
            sweep = session.sweep(specs, ru_counts=op["rus"], parallel=PARALLEL,
                                  trace="aggregate")
        workers = [bc.proc_status_kb(p.pid) for p in multiprocessing.active_children()]
        stats = bc.design_stats(session.cache.stats_summary(), fetched)
    records = [dataclasses.asdict(r) for r in sweep.records]
    return records, workload, max([w for w in workers if w] or [0.0]), stats


def _op(op, store, tracer=None, trace_id="x"):
    """:func:`run_op`, under a root ``op`` span when traced."""
    if tracer is None:
        return run_op(op, store)
    with tracer.span("op", trace_id):
        return run_op(op, store, tracer, trace_id)


def _cross_check(op, records) -> List[str]:
    """Recompute one cell inline in this process; it must match the pool's."""
    from repro import Session
    from repro.metrics.summary import PolicyRunRecord

    specs = figure_specs(op["figure"])
    k = op["index"] % len(records)
    spec = specs[k % len(specs)]
    n_rus = op["rus"][k // len(specs)]
    with Session(workload=build(op), trace="aggregate") as session:
        local = dataclasses.asdict(
            PolicyRunRecord.from_result(spec.label, n_rus, session.run(spec, n_rus=n_rus)))
    return [] if local == records[k] else [f"cross-check cell {k}: {local} != {records[k]}"]


def run(ctx) -> Dict[str, object]:
    from repro import ArtifactStore

    setup_s, setup_samples = setup_time.median_of(
        lambda _k: setup_time.fresh_pool(ctx.env), N_SETUP)
    store = ArtifactStore(os.path.join(ctx.work, "store"))
    prime(store, oplists.sweep_workloads(ctx.seed))
    ops = oplists.sweep_pool_ops(ctx.seed, n_ops(ctx.seconds))
    tally = bc.Tally()
    outcomes: List[bc.OpOutcome] = []
    cache_stats: List[Dict] = []
    worker_rss = 0.0
    # Each op forks a pool: process creation, not the interpreter, is what
    # host slowdowns move most here, so the spawn probe scales it.
    clock = bc.ProbedClock(bc.SPAWN_PROBE)
    for op in ops:
        trace_id = f"op{op['index']}"
        with clock.interval() as iv:
            records, workload, rss, stats = _op(op, store, ctx.tracer, trace_id)
        if ctx.tracer is not None:
            ctx.tracer.set_scale(trace_id, iv.scaled_s / iv.raw_s)
        cache_stats.append(stats)
        worker_rss = max(worker_rss, rss)
        outcome = bc.OpOutcome(op["index"], iv.raw_s, iv.scaled_s, bc.digest(records),
                               executions=workload.n_tasks * len(records))
        for record in records:
            outcome.errors += bc.record_errors(record)
            tally.add_record(record, workload.n_tasks, workload.reconfig_latency)
        if op["index"] % 8 == 0:
            outcome.errors += _cross_check(op, records)
        outcomes.append(outcome)
    out = {
        "outcomes": outcomes,
        "tally": tally,
        "setup_s": setup_s,
        "setup_samples": setup_samples,
        "peak_rss_mb": (bc.self_peak_rss_kb() + worker_rss) / 1024.0,
        "windows": bc.sequential_windows(outcomes, oplists.SWEEP_BLOCK),
        "phase_raw_s": sum(o.raw_s for o in outcomes),
        "probes": clock.probes,
    }
    if ctx.tracer is not None:
        out["layers"] = _layers(ctx, ops, store, cache_stats)
    return out


def _layers(ctx, ops, store, cache_stats) -> Dict[str, float]:
    from layers import cache_layers

    spans = ctx.tracer
    op_total = sum(spans.scaled_durations("op"))
    design = sum(spans.scaled_durations("design.artifacts"))
    layers = {
        "design.share_pct": 100.0 * design / op_total,
        "design.ideal_calls": float(sum(c["ideal"]["computations"] for c in cache_stats)),
        "trace.overhead_pct": bc.trace_overhead_pct(
            lambda op, tracer: _op(op, store, tracer), ops[:16], bc.SPAWN_PROBE),
        "store.kb_written": bc.dir_size_kb(store.root)[1],
    }
    layers.update(cache_layers(cache_stats))
    return layers
