"""Command-line interface: ``repro`` / ``repro-experiments`` / ``python -m repro``.

Regenerates any paper artifact from the terminal::

    repro fig2
    repro fig9a --length 500 --jobs 4
    repro table1
    repro all --length 200 --no-ablation

and exposes the declarative :class:`~repro.session.Session` engine::

    repro scenarios                          # discoverable workload registry
    repro sweep --panel fig9b --scenario bursty --rus 4 6 8 --jobs 4
    repro run --scenario huge-stream --length 5000 --trace-mode aggregate
    repro run --policy lru --trace-out events.jsonl

Every artifact command prints the same rows/series the paper reports, with
the paper's values alongside for comparison.  ``--trace-mode aggregate``
streams runs through the O(1) aggregate sink (same numbers, flat memory);
``--trace-out`` writes the full event log as JSONL for offline analysis.

Design-time artifacts (mobility tables, zero-latency ideals) can persist
across invocations through the on-disk store::

    repro cache warm --scenario paper-eval --rus 4 5 6     # pay once
    repro sweep --panel fig9b --store ~/.cache/repro/artifacts
    repro cache stats
    repro cache clear

``--store DIR`` attaches the store to the ``run``, ``sweep``, ``serve``,
``fig9a``/``fig9b``/``fig9c`` and ``ablation`` commands; the ``cache``
subcommands default to ``$REPRO_CACHE_DIR`` (else
``~/.cache/repro/artifacts``).

Sweeps can also fan out over a pluggable execution backend (see
``docs/backends.md``) — including a store-coordinated work-stealing
queue that any number of ``repro worker`` daemons, on any host sharing
the store directory, pull cells from::

    repro worker --store /mnt/shared/artifacts &        # on each host
    repro sweep --panel fig9b --backend work-stealing \
        --store /mnt/shared/artifacts

The simulation service (see ``docs/service.md``)::

    repro serve --port 8765 --workers 8 --store ~/.cache/repro/artifacts
    repro submit --scenario bursty --policy local-lfd --window 2
    repro submit --sweep --policies local-lfd lru --rus 4 6 8
    repro submit --scenario quick --stream > events.jsonl
    repro jobs                       # list every job on the daemon
    repro jobs j000001-deadbeef      # one job's status/progress
    repro jobs j000001-deadbeef --cancel
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import List, Optional

from repro.core.policies.registry import available_policies
from repro.core.policy_spec import named_policy_spec
from repro.exceptions import ReproError
from repro.hw import (
    available_device_presets,
    make_device,
    parse_latency_model,
)
from repro.experiments import ablation as ablation_mod
from repro.experiments import fig9, hybrid_speedup, motivational, report, table1, table2
from repro.session import Session, SessionHooks
from repro.workloads.scenarios import (
    PAPER_SEQUENCE_LENGTH,
    available_scenarios,
    make_scenario,
    scenario_info,
)

COMMANDS = (
    "fig1",
    "fig2",
    "fig3",
    "fig7",
    "fig9a",
    "fig9b",
    "fig9c",
    "table1",
    "table2",
    "hybrid",
    "ablation",
    "sensitivity",
    "run",
    "sweep",
    "scenarios",
    "cache",
    "serve",
    "submit",
    "jobs",
    "worker",
    "all",
)

#: Subcommands of ``repro cache``.
CACHE_ACTIONS = ("stats", "clear", "warm")

#: Commands that honour ``--store`` (others reject it rather than
#: silently running without the disk tier).
STORE_COMMANDS = (
    "run",
    "sweep",
    "cache",
    "serve",
    "ablation",
    "fig9a",
    "fig9b",
    "fig9c",
    "worker",
)

#: Commands that honour ``--backend`` (sweep execution backend).
BACKEND_COMMANDS = ("sweep", "serve", "ablation", "fig9a", "fig9b", "fig9c")

#: Commands whose positional ``subcommand`` slot is meaningful
#: (``cache stats|clear|warm``, ``jobs <id>``).
SUBCOMMAND_COMMANDS = ("cache", "jobs")

#: Named spec sets the ``sweep`` command can run.
SWEEP_PANELS = {
    "fig9a": (fig9.fig9a_specs, "reuse_pct", "% reuse vs number of RUs"),
    "fig9b": (fig9.fig9b_specs, "reuse_pct", "% reuse vs number of RUs (skip events)"),
    "fig9c": (
        fig9.fig9c_specs,
        "remaining_overhead_pct",
        "% remaining reconfiguration overhead",
    ),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-experiments",
        description=(
            "Regenerate the tables and figures of 'A Replacement Technique "
            "to Maximize Task Reuse in Reconfigurable Systems' (2011)."
        ),
    )
    parser.add_argument("command", choices=COMMANDS, help="artifact to regenerate")
    parser.add_argument(
        "subcommand",
        nargs="?",
        default=None,
        help=(
            "action for the 'cache' command (stats | clear | warm) or a "
            "job id for the 'jobs' command"
        ),
    )
    parser.add_argument(
        "--store",
        metavar="DIR",
        default=None,
        help=(
            "persistent design-time artifact store directory; attaches a "
            "disk tier to the session cache so mobility tables and ideal "
            "makespans survive the process (default for 'cache': "
            "$REPRO_CACHE_DIR or ~/.cache/repro/artifacts)"
        ),
    )
    parser.add_argument(
        "--backend",
        choices=("inline", "process-pool", "work-stealing"),
        default=None,
        help=(
            "sweep execution backend for sweep/serve/fig9*/ablation: "
            "'inline' (serial), 'process-pool' (local processes) or "
            "'work-stealing' (store-coordinated queue; requires --store; "
            "see docs/backends.md)"
        ),
    )
    parser.add_argument(
        "--length",
        type=int,
        default=PAPER_SEQUENCE_LENGTH,
        help="number of applications in the evaluation sequence (default: 500)",
    )
    parser.add_argument(
        "--seed", type=int, default=None, help="workload seed (default: paper seed)"
    )
    parser.add_argument(
        "--scenario",
        choices=available_scenarios(),
        default="paper-eval",
        help="workload scenario for fig9*/ablation (default: paper-eval)",
    )
    parser.add_argument(
        "--rus",
        type=int,
        nargs="+",
        default=list(fig9.PAPER_RU_COUNTS),
        help="RU counts to sweep (default: 4..10)",
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        metavar="N",
        help="worker processes for fig9*/sweep cells (default: 1 = sequential)",
    )
    parser.add_argument(
        "--batch-size",
        type=int,
        default=None,
        metavar="K",
        help=(
            "sweep cells executed per worker submission (sweep/serve/"
            "fig9*/ablation) or leased per queue pull ('worker'); "
            "amortises per-cell process overhead, results are byte-"
            "identical for any K (default: 1)"
        ),
    )
    parser.add_argument(
        "--panel",
        choices=sorted(SWEEP_PANELS),
        default="fig9a",
        help="spec set for the sweep command (default: fig9a)",
    )
    parser.add_argument(
        "--no-ablation",
        action="store_true",
        help="skip the ablation section of the 'all' report",
    )
    parser.add_argument(
        "--no-timing",
        action="store_true",
        help="skip the timing section of the 'all' report",
    )
    parser.add_argument(
        "--export-csv",
        metavar="PATH",
        default=None,
        help="also write the fig9a/fig9b/fig9c sweep as CSV to PATH",
    )
    parser.add_argument(
        "--seeds",
        type=int,
        nargs="+",
        default=[1, 2, 3, 4, 5],
        help="seeds for the sensitivity command",
    )
    parser.add_argument(
        "--trace-mode",
        choices=("full", "aggregate"),
        default="full",
        help=(
            "what each simulation retains: 'full' record lists or "
            "'aggregate' O(1) counters (identical numbers, flat memory — "
            "use for very long workloads; default: full)"
        ),
    )
    parser.add_argument(
        "--trace-out",
        metavar="PATH",
        default=None,
        help=(
            "stream the event log as JSONL to PATH ('run' command only; "
            "implies aggregate in-memory counters)"
        ),
    )
    parser.add_argument(
        "--policy",
        choices=available_policies(),
        default="local-lfd",
        help="replacement policy for the 'run' command (default: local-lfd)",
    )
    parser.add_argument(
        "--controllers",
        type=int,
        default=None,
        metavar="N",
        help=(
            "parallel reconfiguration controllers for the 'run' command; "
            "forwarded to scenarios with a 'controllers' knob (e.g. "
            "multi-controller), otherwise overrides the device model"
        ),
    )
    parser.add_argument(
        "--latency-model",
        metavar="SPEC",
        default=None,
        help=(
            "reconfiguration latency model for the 'run' command: "
            "'fixed:<us>' or 'per-kb:<us_per_kb>[+<base_us>]' "
            "(bitstream-size-proportional)"
        ),
    )
    parser.add_argument(
        "--device",
        choices=available_device_presets(),
        default=None,
        help=(
            "device preset for the 'run' command (overrides the "
            "scenario's device; see docs/device-model.md)"
        ),
    )
    parser.add_argument(
        "--window",
        type=int,
        default=1,
        metavar="W",
        help="Dynamic-List lookahead window for the 'run' command (default: 1)",
    )
    parser.add_argument(
        "--skip-events",
        action="store_true",
        help="enable the skip-event feature for the 'run' command",
    )
    parser.add_argument(
        "--oracle",
        action="store_true",
        help="provide the clairvoyant reference string for the 'run' command",
    )
    parser.add_argument(
        "--profile",
        nargs="?",
        const="-",
        default=None,
        metavar="FILE",
        help=(
            "run the 'run' command under cProfile and print the top-25 "
            "cumulative functions; with FILE, additionally dump the raw "
            "stats there (pstats format, e.g. for snakeviz)"
        ),
    )
    parser.add_argument(
        "--host",
        default="127.0.0.1",
        help="daemon address for serve/submit/jobs (default: 127.0.0.1)",
    )
    parser.add_argument(
        "--port",
        type=int,
        default=8765,
        help="daemon port for serve/submit/jobs (default: 8765; serve: 0 = ephemeral)",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=None,
        metavar="N",
        help="simulation worker threads for the 'serve' command (default: 4)",
    )
    parser.add_argument(
        "--quota-rate",
        type=float,
        default=None,
        metavar="R",
        help=(
            "per-client submissions/second for the 'serve' command "
            "(default: 100; 0 disables quotas)"
        ),
    )
    parser.add_argument(
        "--quota-burst",
        type=int,
        default=None,
        metavar="B",
        help="per-client burst capacity for the 'serve' command (default: 500)",
    )
    parser.add_argument(
        "--client-id",
        default=None,
        help="quota identity sent as X-Repro-Client (submit/jobs commands)",
    )
    parser.add_argument(
        "--events",
        action="store_true",
        help="record a live event stream for the submitted job ('submit' only)",
    )
    parser.add_argument(
        "--stream",
        action="store_true",
        help=(
            "stream the submitted job's JSONL events to stdout as they "
            "happen (implies --events; 'submit' only)"
        ),
    )
    parser.add_argument(
        "--no-wait",
        action="store_true",
        help="print the job id and return without waiting ('submit' only)",
    )
    parser.add_argument(
        "--sweep",
        action="store_true",
        help="submit a sweep job (policies x --rus) instead of a single run",
    )
    parser.add_argument(
        "--policies",
        nargs="+",
        choices=available_policies(),
        default=None,
        metavar="POLICY",
        help="policy axis for 'submit --sweep' (default: --policy)",
    )
    parser.add_argument(
        "--cancel",
        action="store_true",
        help="request cancellation of the given job ('jobs ID --cancel')",
    )
    parser.add_argument(
        "--timeout",
        type=float,
        default=600.0,
        metavar="SECONDS",
        help="how long 'submit' waits for the job to finish (default: 600)",
    )
    parser.add_argument(
        "--json",
        action="store_true",
        help=(
            "machine-readable JSON output (cache stats, submit, jobs "
            "commands)"
        ),
    )
    parser.add_argument(
        "--sweep-id",
        default=None,
        metavar="ID",
        help=(
            "serve only this published sweep queue ('worker' command; "
            "default: steal from every active sweep in the store)"
        ),
    )
    parser.add_argument(
        "--ttl",
        type=float,
        default=None,
        metavar="SECONDS",
        help="lease TTL a worker stamps on claimed cells (default: 30)",
    )
    parser.add_argument(
        "--max-idle",
        type=float,
        default=None,
        metavar="SECONDS",
        help=(
            "exit after this long with no claimable work ('worker' "
            "command; default: run until interrupted)"
        ),
    )
    parser.add_argument(
        "--once",
        action="store_true",
        help="drain currently-available work and exit ('worker' command)",
    )
    parser.add_argument(
        "--checkpoint",
        type=int,
        default=None,
        metavar="N",
        help=(
            "write a resumable engine snapshot to the store every N "
            "events ('run' command; requires --store; re-running the "
            "same command after a crash resumes from the snapshot)"
        ),
    )
    return parser


def _store_from_args(args: argparse.Namespace, default: bool = False):
    """Resolve ``--store`` into an :class:`ArtifactStore` (or ``None``).

    With ``default=True`` (the ``cache`` command) a missing ``--store``
    falls back to the default root instead of disabling the store.
    """
    from repro.artifacts import ArtifactStore, default_store_root

    if args.store is not None:
        return ArtifactStore(args.store)
    if default:
        return ArtifactStore(default_store_root())
    return None


def _workload(args: argparse.Namespace):
    info = scenario_info(args.scenario)
    kwargs = {"length": args.length}
    if args.seed is not None:
        kwargs["seed"] = args.seed
    if getattr(args, "controllers", None) is not None:
        kwargs["controllers"] = args.controllers
    # Only forward knobs the factory actually has (round-robin takes no
    # seed, most scenarios take no controller count).
    kwargs = {k: v for k, v in kwargs.items() if k in info.parameters}
    return make_scenario(args.scenario, **kwargs)


class _ProgressHook(SessionHooks):
    """Prints one status line per completed sweep cell to stderr."""

    def on_sweep_progress(self, done: int, total: int) -> None:
        print(f"\r  [{done}/{total}] cells done", end="", file=sys.stderr, flush=True)
        if done == total:
            print(file=sys.stderr)


def _run_single(args: argparse.Namespace) -> int:
    """The ``run`` subcommand: one policy, one scenario, one trace mode."""
    spec = named_policy_spec(
        args.policy,
        window=args.window,
        oracle=args.oracle,
        skip_events=args.skip_events,
    )
    label = spec.label
    # --trace-out is unambiguously a path (or '-' for stdout): wrap real
    # paths in Path so the mode-vs-path typo heuristic never rejects
    # e.g. 'trace.log'.
    if args.trace_out == "-":
        trace_mode: object = "-"
    elif args.trace_out:
        trace_mode = Path(args.trace_out)
    else:
        trace_mode = args.trace_mode
    # With events going to stdout, the human-readable summary moves to
    # stderr so the JSONL stream stays machine-parseable.
    out = sys.stderr if args.trace_out == "-" else sys.stdout
    n_rus = None
    if args.rus != list(fig9.PAPER_RU_COUNTS):  # user passed --rus
        if len(args.rus) != 1:
            print(
                "error: 'run' executes one device; give a single --rus value",
                file=sys.stderr,
            )
            return 2
        n_rus = args.rus[0]
    workload = _workload(args)
    preset = make_device(args.device) if args.device else None
    session = Session(
        device=preset,
        workload=workload,
        trace=trace_mode,
        store=_store_from_args(args),
    )
    # Hardware overrides on top of the session device: --controllers (when
    # the scenario factory did not already consume it) and --latency-model.
    model = session.device
    factory_params = scenario_info(args.scenario).parameters
    if args.controllers is not None and "controllers" not in factory_params:
        model = model.with_controllers(args.controllers)
    if args.latency_model is not None:
        model = model.with_latency_model(parse_latency_model(args.latency_model))
    device_override = model if model != session.device else None
    if args.profile is not None:
        import cProfile
        import pstats

        profiler = cProfile.Profile()
        profiler.enable()
        result = session.run(
            spec,
            n_rus=n_rus,
            device=device_override,
            checkpoint_every=args.checkpoint or 0,
        )
        profiler.disable()
    else:
        result = session.run(
            spec,
            n_rus=n_rus,
            device=device_override,
            checkpoint_every=args.checkpoint or 0,
        )
    if n_rus is not None:
        model = model.with_n_rus(n_rus)
    print(f"{label} on {session.workload.name!r} ({model.describe()}):", file=out)
    for key, value in result.summary().items():
        print(f"  {key:>24}: {value}", file=out)
    if args.trace_out:
        target = "stdout" if args.trace_out == "-" else args.trace_out
        print(f"(event log streamed to {target})", file=out)
    if args.profile is not None:
        stats = pstats.Stats(profiler)
        if args.profile != "-":
            stats.dump_stats(args.profile)
            print(f"(profile stats dumped to {args.profile})")
        print("top 25 functions by cumulative time:")
        stats.sort_stats("cumulative").print_stats(25)
    return 0


def _run_sweep(args: argparse.Namespace) -> int:
    """The ``sweep`` subcommand: one Session.sweep over a spec panel."""
    specs_factory, metric, header = SWEEP_PANELS[args.panel]
    session = Session(
        workload=_workload(args),
        hooks=(_ProgressHook(),),
        trace=args.trace_mode,
        store=_store_from_args(args),
        backend=args.backend,
    )
    sweep = session.sweep(
        specs_factory(),
        ru_counts=tuple(args.rus),
        title=f"sweep — {args.panel} on {session.workload.name!r}",
        parallel=args.jobs,
        batch_size=args.batch_size,
    )
    print(sweep.render_table(metric, header))
    mob, ideal = session.cache.mobility_stats, session.cache.ideal_stats
    print(
        f"(design-time cache: {mob.computations} mobility computations, "
        f"{ideal.computations} ideal makespans; "
        f"disk tier hits: {mob.disk_hits + ideal.disk_hits}; jobs={args.jobs})"
    )
    if args.export_csv:
        from repro.experiments.export import save_text, sweep_to_csv

        save_text(sweep_to_csv(sweep), args.export_csv)
        print(f"(CSV written to {args.export_csv})")
    return 0


def _run_cache(args: argparse.Namespace) -> int:
    """The ``cache`` subcommands: inspect/clear/warm the artifact store."""
    action = args.subcommand or "stats"
    if action not in CACHE_ACTIONS:
        print(
            f"error: unknown cache action {action!r}; "
            f"expected one of {', '.join(CACHE_ACTIONS)}",
            file=sys.stderr,
        )
        return 2
    store = _store_from_args(args, default=True)
    if action == "stats":
        info = store.describe()
        if args.json:
            import json

            print(json.dumps(info, indent=2, sort_keys=True))
            return 0
        print(f"artifact store: {info['root']} (layout {info['layout']})")
        for kind, count in info["entries"].items():
            print(f"  {kind:>10}: {count} entries")
        print(f"  {'total':>10}: {info['total_entries']} entries, "
              f"{info['size_bytes']} bytes")
        return 0
    if action == "clear":
        removed = store.clear()
        print(f"removed {removed} entries from {store.root}")
        return 0
    # warm: pay the design-time phase for a scenario once, into the store.
    session = Session(workload=_workload(args), store=store)
    session.cache.warm(session.workload, tuple(args.rus))
    cache = session.cache
    mob, ideal, comp = cache.mobility_stats, cache.ideal_stats, cache.compiled_stats
    print(
        f"warmed {session.workload.name!r} at RUs {tuple(args.rus)}: "
        f"{mob.computations} mobility computations, {ideal.computations} ideal "
        f"makespans, {comp.computations} workload compilations; "
        f"{mob.disk_hits + ideal.disk_hits + comp.disk_hits} already on disk "
        f"({store.root})"
    )
    return 0


def _run_serve(args: argparse.Namespace) -> int:
    """The ``serve`` command: run the simulation-as-a-service daemon."""
    import asyncio
    import signal

    from repro.server import ReproServer

    server = ReproServer(
        host=args.host,
        port=args.port,
        store=_store_from_args(args),
        workers=args.workers if args.workers is not None else 4,
        quota_rate=args.quota_rate if args.quota_rate is not None else 100.0,
        quota_burst=args.quota_burst if args.quota_burst is not None else 500,
        backend=args.backend,
        batch_size=args.batch_size if args.batch_size is not None else 1,
    )

    async def _main() -> None:
        await server.start()
        where = server.store.root if server.store is not None else "memory-only"
        print(
            f"repro serve listening on http://{server.host}:{server.port} "
            f"({server.workers} workers, store: {where})",
            file=sys.stderr,
            flush=True,
        )
        stop = asyncio.Event()
        loop = asyncio.get_running_loop()
        # Explicit handlers (not the interpreter default): a daemon
        # backgrounded by a non-interactive shell inherits SIGINT as
        # SIG_IGN, which Python preserves — `kill -INT` would otherwise
        # never reach us.  SIGTERM gets the same graceful path.
        for sig in (signal.SIGINT, signal.SIGTERM):
            try:
                loop.add_signal_handler(sig, stop.set)
            except (NotImplementedError, RuntimeError, ValueError):
                pass  # platform without loop signal support
        try:
            await stop.wait()
        except asyncio.CancelledError:
            pass
        finally:
            await server.stop()

    try:
        asyncio.run(_main())
    except KeyboardInterrupt:
        pass
    print("repro serve: shut down", file=sys.stderr)
    return 0


def _run_worker(args: argparse.Namespace) -> int:
    """The ``worker`` command: steal sweep cells from a shared store.

    Point ``--store`` at the same directory a ``work-stealing`` sweep
    coordinator uses (any host sharing the filesystem) and this process
    pulls cells from every published queue until interrupted, drained
    (``--once``) or idle for ``--max-idle`` seconds.
    """
    from repro.backends import run_worker

    store = _store_from_args(args, default=True)
    print(
        f"repro worker stealing from {store.root}"
        + (f" (sweep {args.sweep_id})" if args.sweep_id else " (all sweeps)"),
        file=sys.stderr,
        flush=True,
    )
    kwargs = {"once": args.once, "max_idle_s": args.max_idle}
    if args.ttl is not None:
        kwargs["lease_ttl"] = args.ttl
    if args.batch_size is not None:
        kwargs["batch_size"] = args.batch_size
    try:
        stats = run_worker(store, args.sweep_id, **kwargs)
    except KeyboardInterrupt:
        print("repro worker: interrupted", file=sys.stderr)
        return 0
    print(
        f"repro worker: {stats['completed']} cells completed, "
        f"{stats['failed']} failed across {stats['sweeps']} sweep(s)",
        file=sys.stderr,
    )
    return 0


def _submit_spec(args: argparse.Namespace) -> dict:
    """Build the job-spec payload the daemon expects from CLI flags."""
    info = scenario_info(args.scenario)
    kwargs = {"length": args.length}
    if args.seed is not None:
        kwargs["seed"] = args.seed
    kwargs = {k: v for k, v in kwargs.items() if k in info.parameters}
    spec: dict = {
        "scenario": args.scenario,
        "scenario_kwargs": kwargs,
        "window": args.window,
        "oracle": args.oracle,
        "skip_events": args.skip_events,
    }
    if args.sweep:
        spec["kind"] = "sweep"
        spec["policies"] = args.policies or [args.policy]
        spec["rus"] = list(args.rus)
    else:
        spec["kind"] = "run"
        spec["policy"] = args.policy
        if args.events or args.stream:
            spec["events"] = True
        if args.rus != list(fig9.PAPER_RU_COUNTS):  # user passed --rus
            if len(args.rus) != 1:
                raise SystemExit(
                    "error: a run job uses one device; give a single --rus "
                    "value (or --sweep)"
                )
            spec["n_rus"] = args.rus[0]
    return spec


def _run_submit(args: argparse.Namespace) -> int:
    """The ``submit`` command: send a job to a running daemon."""
    import json

    from repro.client import RemoteJobError, ReproClient

    spec = _submit_spec(args)
    client = ReproClient(args.host, args.port, client_id=args.client_id)
    try:
        job_id = client.submit(spec)
        if args.no_wait:
            print(job_id)
            return 0
        print(f"submitted {job_id}", file=sys.stderr)
        if args.stream:
            out = sys.stdout.buffer
            for line in client.stream_lines(job_id):
                out.write(line)
            out.flush()
        status = client.wait(job_id, timeout=args.timeout)
        if status["state"] != "done":
            print(
                f"job {job_id} {status['state']}: "
                f"{status.get('error', 'no result')}",
                file=sys.stderr,
            )
            return 1
        result = client.result(job_id)
        out_file = sys.stderr if args.stream else sys.stdout
        if args.json:
            print(json.dumps(result, indent=2, sort_keys=True), file=out_file)
        elif result["kind"] == "run":
            print(f"{result['policy']} (remote {args.scenario}):", file=out_file)
            for key, value in result["summary"].items():
                print(f"  {key:>24}: {value}", file=out_file)
        else:
            for record in result["records"]:
                print(
                    f"  {record['policy_label']:<24} RUs={record['n_rus']:<3} "
                    f"reuse={record['reuse_pct']:6.2f}%  "
                    f"makespan={record['makespan_ms']:.1f}ms",
                    file=out_file,
                )
        return 0
    except RemoteJobError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        client.close()


def _run_jobs(args: argparse.Namespace) -> int:
    """The ``jobs`` command: list jobs, inspect one, or cancel one."""
    import json

    from repro.client import RemoteJobError, ReproClient

    client = ReproClient(args.host, args.port, client_id=args.client_id)
    try:
        if args.subcommand is None:
            jobs = client.jobs()
            if args.json:
                print(json.dumps(jobs, indent=2, sort_keys=True))
                return 0
            if not jobs:
                print("(no jobs)")
                return 0
            for job in jobs:
                progress = job["progress"]
                print(
                    f"  {job['id']}  {job['state']:<9} {job['kind']:<5} "
                    f"{job['scenario']:<16} "
                    f"[{progress['done']}/{progress['total']}]"
                )
            return 0
        status = (
            client.cancel(args.subcommand)
            if args.cancel
            else client.status(args.subcommand)
        )
        if args.json:
            print(json.dumps(status, indent=2, sort_keys=True))
        else:
            for key, value in status.items():
                print(f"  {key:>18}: {value}")
        return 0
    except RemoteJobError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        client.close()


def main(argv: Optional[List[str]] = None) -> int:
    try:
        return _dispatch(build_parser().parse_args(argv))
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # Downstream pipe closed early (e.g. `repro run --trace-out - |
        # head`): the Unix convention is silent success.  Point stdout
        # at /dev/null so the interpreter's exit-time flush stays quiet.
        import os

        try:
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        except OSError:
            pass
        return 0


def _dispatch(args: argparse.Namespace) -> int:
    command = args.command

    if args.subcommand is not None and command not in SUBCOMMAND_COMMANDS:
        print(
            f"error: unexpected argument {args.subcommand!r} after "
            f"{command!r} (only {', '.join(SUBCOMMAND_COMMANDS)} take one)",
            file=sys.stderr,
        )
        return 2
    if args.store is not None and command not in STORE_COMMANDS:
        print(
            f"error: --store is not supported by {command!r} "
            f"(supported: {', '.join(STORE_COMMANDS)})",
            file=sys.stderr,
        )
        return 2
    for flag, value, allowed in (
        ("--device", args.device, ("run",)),
        ("--latency-model", args.latency_model, ("run",)),
        ("--controllers", args.controllers, ("run",)),
        ("--profile", args.profile, ("run",)),
        ("--workers", args.workers, ("serve",)),
        ("--quota-rate", args.quota_rate, ("serve",)),
        ("--quota-burst", args.quota_burst, ("serve",)),
        ("--client-id", args.client_id, ("submit", "jobs")),
        ("--events", args.events or None, ("submit",)),
        ("--stream", args.stream or None, ("submit",)),
        ("--no-wait", args.no_wait or None, ("submit",)),
        ("--sweep", args.sweep or None, ("submit",)),
        ("--policies", args.policies, ("submit",)),
        ("--cancel", args.cancel or None, ("jobs",)),
        ("--json", args.json or None, ("cache", "submit", "jobs")),
        ("--backend", args.backend, BACKEND_COMMANDS),
        ("--batch-size", args.batch_size, BACKEND_COMMANDS + ("worker",)),
        ("--sweep-id", args.sweep_id, ("worker",)),
        ("--ttl", args.ttl, ("worker",)),
        ("--max-idle", args.max_idle, ("worker",)),
        ("--once", args.once or None, ("worker",)),
        ("--checkpoint", args.checkpoint, ("run",)),
    ):
        if value is not None and command not in allowed:
            names = "/".join(f"'{name}'" for name in allowed)
            plural = "commands" if len(allowed) > 1 else "command"
            print(
                f"error: {flag} is only supported by the {names} {plural}",
                file=sys.stderr,
            )
            return 2

    if command == "fig1":
        from repro.core.dynamic_list import replay_fig1

        for i, snapshot in enumerate(replay_fig1()):
            print(f"Fig. 1({chr(ord('a') + i)}): DL = {snapshot}")
        return 0
    if command == "fig2":
        print(motivational.render_fig2_report())
        return 0
    if command == "fig3":
        print(motivational.render_fig3_report())
        return 0
    if command == "fig7":
        print(motivational.render_fig7_report())
        return 0
    if command in ("fig9a", "fig9b", "fig9c"):
        runner = {"fig9a": fig9.run_fig9a, "fig9b": fig9.run_fig9b, "fig9c": fig9.run_fig9c}[command]
        renderer = {
            "fig9a": fig9.render_fig9a,
            "fig9b": fig9.render_fig9b,
            "fig9c": fig9.render_fig9c,
        }[command]
        sweep = runner(
            _workload(args),
            tuple(args.rus),
            parallel=args.jobs,
            trace=args.trace_mode,
            store=_store_from_args(args),
            backend=args.backend,
            batch_size=args.batch_size,
        )
        print(renderer(sweep))
        if args.export_csv:
            from repro.experiments.export import save_text, sweep_to_csv

            save_text(sweep_to_csv(sweep), args.export_csv)
            print(f"(CSV written to {args.export_csv})")
        return 0
    if command == "run":
        return _run_single(args)
    if command == "sweep":
        return _run_sweep(args)
    if command == "cache":
        return _run_cache(args)
    if command == "serve":
        return _run_serve(args)
    if command == "submit":
        return _run_submit(args)
    if command == "jobs":
        return _run_jobs(args)
    if command == "worker":
        return _run_worker(args)
    if command == "scenarios":
        from repro.util.tables import TextTable

        table = TextTable(
            ["scenario", "factory kwargs (defaults)", "description"],
            title="Registered workload scenarios",
        )
        for name in available_scenarios():
            info = scenario_info(name)
            table.add_row([info.name, info.signature(), info.description])
        print(table.render())
        return 0
    if command == "table1":
        print(table1.render_table1())
        return 0
    if command == "table2":
        print(table2.render_table2())
        return 0
    if command == "hybrid":
        print(hybrid_speedup.render_hybrid_speedup())
        return 0
    if command == "ablation":
        print(
            ablation_mod.render_all_ablations(
                store=_store_from_args(args),
                backend=args.backend,
                batch_size=args.batch_size,
            )
        )
        return 0
    if command == "sensitivity":
        from repro.experiments.sensitivity import render_sensitivity, run_sensitivity

        sensitivity_report = run_sensitivity(
            seeds=tuple(args.seeds),
            length=min(args.length, 150),
            ru_counts=tuple(args.rus) if args.rus else (4, 6, 8, 10),
            parallel=args.jobs,
        )
        print(render_sensitivity(sensitivity_report))
        return 0
    if command == "all":
        print(
            report.run_full_report(
                workload=_workload(args),
                ru_counts=tuple(args.rus),
                include_ablation=not args.no_ablation,
                include_timing=not args.no_timing,
            )
        )
        return 0
    raise AssertionError(f"unhandled command {command!r}")  # pragma: no cover


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
