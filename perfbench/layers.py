"""The layer suite of the traced run: each layer called directly.

Every per-layer metric is either produced by the workload's own traced
op loop (cache and store hit rates, design-time share, daemon and client
numbers on ``daemon-mixed``, the tracing overhead) or measured here, by
calling the layer's public functions on fixed inputs: the canonical
paper-eval workload (500 apps, seed 2011), independent of ``--seed`` so
that exact counts repeat across runs and commits.

Timings are medians of a few repeats, probe-scaled like every timing of
the benchmark except ``setup_s``.
"""

from __future__ import annotations

import cProfile
import json
import os
import pickle
import pstats
import statistics
import subprocess
import sys
import tracemalloc
from typing import Callable, Dict, List, Set

import benchcore as bc

_STARTUP = """
import json, sys, time
n0 = len(sys.modules); t0 = time.perf_counter()
import repro
n1 = len(sys.modules); t1 = time.perf_counter()
import repro.cli
n2 = len(sys.modules); t2 = time.perf_counter()
print(json.dumps({"repro_s": t1 - t0, "cli_s": t2 - t1, "repro_mods": n1 - n0, "cli_mods": n2 - n0}))
"""


def timed(fn: Callable[[], object], repeats: int = 3) -> float:
    """Median probe-scaled seconds of ``fn()`` over ``repeats`` calls."""
    clock = bc.ProbedClock()
    samples = []
    for _ in range(repeats):
        with clock.interval() as iv:
            fn()
        samples.append(iv.scaled_s)
    return statistics.median(samples)


def startup(env) -> Dict[str, float]:
    """Import cost of the package root and the CLI in fresh interpreters."""
    runs = [
        json.loads(subprocess.run([sys.executable, "-c", _STARTUP], env=env, check=True,
                                  capture_output=True, text=True, timeout=60).stdout)
        for _ in range(3)
    ]
    return {
        "startup.import_repro_s": statistics.median(r["repro_s"] for r in runs),
        "startup.import_cli_s": statistics.median(r["cli_s"] for r in runs),
        "startup.modules_loaded": float(runs[0]["cli_mods"]),
    }


def cache_layers(cache_stats: List[Dict]) -> Dict[str, float]:
    """Memory-tier hit rates, and the share of memory misses the disk tier
    served, summed over the ``stats_summary()`` of every cache of a run."""
    def hit_pct(kind: str) -> float:
        hits = sum(c[kind]["memory_hits"] for c in cache_stats)
        lookups = hits + sum(c[kind]["misses"] for c in cache_stats)
        return 100.0 * hits / lookups if lookups else 0.0

    design_kinds = ("ideal", "mobility", "compiled")
    disk = sum(c[k]["disk_hits"] for c in cache_stats for k in design_kinds)
    misses = sum(c[k]["misses"] for c in cache_stats for k in design_kinds)
    return {
        "cache.ideal_hit_pct": hit_pct("ideal"),
        "cache.mobility_hit_pct": hit_pct("mobility"),
        "cache.compiled_hit_pct": hit_pct("compiled"),
        "cache.record_hit_pct": hit_pct("records"),
        "store.disk_hit_pct": 100.0 * disk / misses if misses else 0.0,
    }


def _canonical():
    from repro import make_scenario

    return make_scenario("paper-eval")


def _skip_spec():
    from repro import local_lfd_spec

    return local_lfd_spec(1, skip_events=True)


def workloads_and_design(w) -> Dict[str, float]:
    from repro import ideal_makespan
    from repro.core.mobility import MobilityCalculator
    from repro.workloads.compiled import CompiledWorkload

    compiled = CompiledWorkload.compile(w.apps)

    def mobility():
        MobilityCalculator(n_rus=w.n_rus, reconfig_latency=w.reconfig_latency
                           ).compute_tables(w.distinct_graphs())

    return {
        "workloads.build_ms": 1000.0 * timed(_canonical, 5),
        "workloads.compile_ms": 1000.0 * timed(lambda: CompiledWorkload.compile(w.apps), 5),
        "design.ideal_ms": 1000.0 * timed(
            lambda: ideal_makespan(w.apps, w.n_rus, compiled=compiled)),
        "design.mobility_ms": 1000.0 * timed(mobility),
    }


def design_share(w) -> Dict[str, float]:
    """Design-time share of one cold ``Session.run`` (Local LFD (1) + Skip)."""
    from repro import Session

    spec = _skip_spec()
    design = total = 0.0
    for _ in range(3):
        session = Session(workload=w, trace="aggregate")
        tracer = bc.Tracer()
        with tracer.span("op", "x"):
            session.compiled()
            with tracer.span("design", "x"):
                session.ideal_makespan_us(w.n_rus, semantics=spec.make_semantics())
                session.mobility_tables(w.n_rus)
            session.run(spec)
        design += tracer.by_name("design")[0].duration
        total += tracer.by_name("op")[0].duration
    return {"design.share_pct": 100.0 * design / total}


def engine(w) -> Dict[str, float]:
    """``run_simulation`` with every design-time artifact precomputed."""
    from repro import Session, run_simulation

    spec = _skip_spec()
    session = Session(workload=w, trace="aggregate")
    compiled = session.compiled()
    ideal = session.ideal_makespan_us(w.n_rus, semantics=spec.make_semantics())
    tables = session.mobility_tables(w.n_rus)

    def run(trace="aggregate"):
        return run_simulation(
            w.apps, n_rus=w.n_rus, reconfig_latency=w.reconfig_latency,
            advisor=spec.make_advisor(), semantics=spec.make_semantics(),
            mobility_tables=tables, ideal_makespan_us=ideal, trace=trace,
            compiled=compiled)

    executions = run().trace.n_executions
    run_s = timed(run, 5)
    full_s = timed(lambda: run("full"), 5)
    profiler = cProfile.Profile()
    profiler.runcall(run)
    calls = pstats.Stats(profiler).total_calls
    tracemalloc.start()
    try:
        run()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return {
        "engine.run_ms": 1000.0 * run_s,
        "engine.execs_per_s": executions / run_s,
        "engine.calls_per_exec": calls / executions,
        "engine.peak_alloc_kb": peak / 1024.0,
        "engine.full_trace_x": full_s / run_s,
    }


def session_layer(w) -> Dict[str, float]:
    from repro import Session, fig9c_specs

    spec = _skip_spec()
    session = Session(workload=w, trace="aggregate")
    session.run(spec)
    plan = session.plan(fig9c_specs(), ru_counts=(4, 6, 8, 10))
    return {
        "session.warm_run_ms": 1000.0 * timed(lambda: session.run(spec)),
        "session.plan_ms": 1000.0 * timed(
            lambda: session.plan(fig9c_specs(), ru_counts=(4, 6, 8, 10)), 5),
        "session.plan_nodes": float(len(plan.nodes)),
    }


def checkpoint_layer(w, work: str) -> Dict[str, float]:
    """The same run with and without ``checkpoint_every``."""
    from repro import ArtifactStore, Session
    from oplists import CHECKPOINT_EVERY

    class CountingStore(ArtifactStore):
        writes = 0
        kb = 0.0

        def put(self, kind, key, entry):
            path = super().put(kind, key, entry)
            if kind == "checkpoint":
                CountingStore.writes += 1
                CountingStore.kb += os.path.getsize(path) / 1024.0
            return path

    spec = _skip_spec()
    session = Session(workload=w, trace="aggregate",
                      store=CountingStore(os.path.join(work, "ckpt-store")))
    session.run(spec)
    runs = 8
    overhead = bc.paired_overhead_pct(
        [(lambda: session.run(spec),
          lambda: session.run(spec, checkpoint_every=CHECKPOINT_EVERY))] * runs)
    return {
        "checkpoint.count": CountingStore.writes / runs,
        "checkpoint.kb": CountingStore.kb / CountingStore.writes if CountingStore.writes else 0.0,
        "checkpoint.overhead_pct": overhead,
    }


def _noop() -> int:
    return os.getpid()


def backend_layer(work: str) -> Dict[str, float]:
    from concurrent.futures import ProcessPoolExecutor

    from repro import ArtifactStore, Session, fig9a_specs, make_scenario
    from repro.backends.pool import ProcessPoolBackend, _init_worker
    from repro.workloads.compiled import CompiledWorkload

    w = make_scenario("paper-eval", length=100)
    compiled = CompiledWorkload.compile(w.apps)
    specs = fig9a_specs()
    rus = (4, 6, 8)
    cells = len(specs) * len(rus)

    def spin_up():
        pool = ProcessPoolExecutor(max_workers=2, initializer=_init_worker,
                                   initargs=(tuple(w.apps), compiled))
        try:
            for future in [pool.submit(_noop) for _ in range(2)]:
                future.result()
        finally:
            pool.shutdown()

    backend = ProcessPoolBackend(workers=2)
    try:
        pooled = Session(workload=w, backend=backend, record_reuse=False, trace="aggregate")
        pooled.sweep(specs, ru_counts=rus, parallel=2)
        pool_s = timed(lambda: pooled.sweep(specs, ru_counts=rus, parallel=2))
    finally:
        backend.close()
    inline = Session(workload=w, record_reuse=False, trace="aggregate")
    inline_s = timed(lambda: inline.sweep(specs, ru_counts=rus, parallel=1))
    store = ArtifactStore(os.path.join(work, "stealing-store"))
    with Session(workload=w, store=store, backend="work-stealing", record_reuse=False,
                 trace="aggregate") as stealing:
        stealing_s = timed(lambda: stealing.sweep(specs, ru_counts=rus, parallel=2), 2)
    session = Session(workload=w)
    mobility = session.mobility_tables(4)
    cell = (_skip_spec(), 4, w.reconfig_latency, mobility,
            session.ideal_makespan_us(4), "aggregate", None)
    return {
        "backend.pool_spinup_ms": 1000.0 * timed(spin_up),
        "backend.cells_per_s": cells / pool_s,
        "backend.pool_speedup_x": inline_s / pool_s,
        "backend.initargs_kb": len(pickle.dumps((tuple(w.apps), compiled))) / 1024.0,
        "backend.cell_pickle_kb": len(pickle.dumps([cell])) / 1024.0,
        "backend.stealing.cells_per_s": cells / stealing_s,
        "backend.stealing.store_files": float(bc.dir_size_kb(store.root)[0]),
    }


def layer_suite(ctx, skip: Set[str]) -> Dict[str, float]:
    """Every per-layer metric the workload's loop did not produce."""
    w = _canonical()
    out: Dict[str, float] = {}
    out.update(startup(ctx.env))
    out.update(workloads_and_design(w))
    out.update(engine(w))
    out.update(session_layer(w))
    out.update(checkpoint_layer(w, ctx.work))
    out.update(backend_layer(ctx.work))
    if "design.share_pct" not in skip:
        out.update(design_share(w))
    if "daemon.exec_ms" not in skip:
        # A short daemon-mixed loop, for workloads that do not drive the daemon.
        import wl_daemon

        for name, value in wl_daemon.run_layers_only(ctx, n_ops=40).items():
            out.setdefault(name, value)
    return {name: value for name, value in out.items() if name not in skip}
