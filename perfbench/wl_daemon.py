"""``daemon-mixed``: the service path.

``repro serve --workers 2 --quota-rate 0 --store <tmp>`` runs in its own
process.  One asyncio thread drives it as a closed loop over one
keep-alive connection (a caller that waits for its result, like
``repro submit``): the next job is sent only when the previous one is
done.  A closed loop is used because an open loop near capacity, on a
host whose speed swings, turns host noise into queueing blow-ups.  One
connection, because with two jobs in flight their overlap (the two
worker threads and the event loop share one GIL) depended on timing:
under CPU contention the per-class medians of two clients spread up to
17 % between runs, those of one client 5 %.

The job mix has four parts: small run jobs on a hot set primed before
timing; run jobs on fresh seeds (cold design time under the daemon's
per-workload lock); repeated small sweep jobs; and ``events: true`` runs
whose JSONL stream the client reads to the end.
"""

from __future__ import annotations

import asyncio
import hashlib
import json
import os
import statistics
import time
from typing import Dict, List, Optional, Tuple

import benchcore as bc
import oplists
import setup_time

N_SETUP = 7
CLIENTS = 1
#: Nominal jobs per reference-host second (sizes the fixed op list).
OPS_PER_S = 26.0
#: One op in this many is re-run locally and compared with the daemon.
CROSS_CHECK_EVERY = 10
#: Completions per throughput window (five blocks of the job mix).
WINDOW = 5 * oplists.DAEMON_BLOCK
#: Loopback HTTP, a thread pool and a second process: like sweep-pool,
#: this path tracked the process-spawn probe better than the CPU loop.
PROBE = bc.SPAWN_PROBE


def n_ops(seconds: int) -> int:
    return oplists.op_count(seconds * OPS_PER_S, oplists.DAEMON_BLOCK)


def _counting_client(host: str, port: int):
    """An :class:`AsyncReproClient` that counts its requests and retries."""
    from repro.client import AsyncReproClient

    class CountingClient(AsyncReproClient):
        def __init__(self) -> None:
            super().__init__(host, port, client_id="perfbench")
            self.requests = 0
            self.retries = 0
            self.rejected = 0
            self.retry = _CountingPolicy(self.retry, self)

        async def _request(self, method, path, payload=None):
            self.requests += 1
            status, decoded = await super()._request(method, path, payload)
            if status in (429, 503):
                self.rejected += 1
            return status, decoded

    return CountingClient()


class _CountingPolicy:
    """Wraps a ``RetryPolicy`` so every scheduled retry is counted."""

    def __init__(self, policy, owner) -> None:
        self._policy = policy
        self._owner = owner

    def schedule(self, *args, **kwargs):
        return _CountingSchedule(self._policy.schedule(*args, **kwargs), self._owner)


class _CountingSchedule:
    def __init__(self, schedule, owner) -> None:
        self._schedule = schedule
        self._owner = owner

    def next_pause(self, *args, **kwargs):
        pause = self._schedule.next_pause(*args, **kwargs)
        if pause is not None:
            self._owner.retries += 1
        return pause


async def read_stream(host: str, port: int, job_id: str) -> bytes:
    """``GET /jobs/{id}/events`` read to the end (chunked JSONL)."""
    from repro.client import ReproClientError

    reader, writer = await asyncio.open_connection(host, port)
    try:
        writer.write(f"GET /jobs/{job_id}/events HTTP/1.1\r\nHost: {host}\r\n"
                     f"X-Repro-Client: perfbench\r\n\r\n".encode("latin-1"))
        await writer.drain()
        status = (await reader.readuntil(b"\n")).split()[1]
        if status != b"200":
            raise ReproClientError(f"event stream answered {status.decode()}")
        while (await reader.readuntil(b"\n")).strip():
            pass
        body = bytearray()
        while True:
            size = int((await reader.readuntil(b"\n")).strip(), 16)
            if size == 0:
                break
            body += await reader.readexactly(size)
            await reader.readexactly(2)
        return bytes(body)
    finally:
        writer.close()
        await writer.wait_closed()


def _stream_errors(stream: bytes, summary: Dict[str, object]) -> List[str]:
    lines = stream.splitlines()
    execs = sum(1 for line in lines if line.startswith(b'{"event":"ExecEnd"'))
    errors = []
    if execs != summary["executions"]:
        errors.append(f"stream has {execs} ExecEnd events, summary {summary['executions']}")
    if not lines or not lines[-1].startswith(b'{"event":"RunEnd"'):
        errors.append("stream does not end with RunEnd")
    return errors


class _Loop:
    """The closed-loop generator: CLIENTS coroutines over one op list."""

    def __init__(self, host: str, port: int, ops, tracer) -> None:
        self.host = host
        self.port = port
        self.ops = ops
        self.tracer = tracer
        self.next = 0
        self.outcomes: List[Optional[bc.OpOutcome]] = [None] * len(ops)
        self.results: List[Optional[Dict]] = [None] * len(ops)
        self.probes: List[float] = []
        self.clients = []
        self.stream_bytes = 0
        self.stream_s = 0.0
        # Daemon timestamps are wall-clock; spans use perf_counter.
        self.wall_offset = time.time() - time.perf_counter()

    async def client_loop(self) -> None:
        client = _counting_client(self.host, self.port)
        self.clients.append(client)
        before = PROBE.measure()
        self.probes.append(before)
        try:
            while self.next < len(self.ops):
                op = self.ops[self.next]
                self.next += 1
                outcome, result = await self.one_op(client, op)
                after = PROBE.measure()
                self.probes.append(after)
                outcome.scaled_s = bc.scaled(outcome.raw_s, before, after, PROBE.ref_s)
                if self.tracer is not None:
                    self.tracer.set_scale(f"op{op['index']}", outcome.scaled_s / outcome.raw_s)
                before = after
                self.outcomes[op["index"]] = outcome
                self.results[op["index"]] = result
        finally:
            await client.close()

    async def one_op(self, client, op):
        from repro.client import ReproClientError

        index = op["index"]
        job = op["job"]
        trace_id = f"op{index}"
        tr = self.tracer
        retries_before = client.retries
        errors: List[str] = []
        result = status = None
        stream = b""
        t0 = time.perf_counter()
        try:
            job_id = await client.submit(job)
            t_submitted = time.perf_counter()
            status = await client.wait(job_id)
            t_waited = time.perf_counter()
            if status["state"] != "done":
                errors.append(f"job ended {status['state']}: {status.get('error')}")
            else:
                result = await client.result(job_id)
            t_result = time.perf_counter()
            if job.get("events"):
                # Streams own their connection: release the keep-alive one
                # first so the loop never holds more than CLIENTS sockets.
                await client.close()
                client.requests += 1
                stream = await read_stream(self.host, self.port, job_id)
                self.stream_bytes += len(stream)
                self.stream_s += time.perf_counter() - t_result
        except (ReproClientError, OSError, asyncio.IncompleteReadError, ValueError) as exc:
            errors.append(f"{type(exc).__name__}: {exc}")
        t1 = time.perf_counter()
        if client.retries != retries_before:
            errors.append(f"{client.retries - retries_before} retried request(s)")
        payload = {"result": result}
        if job.get("events"):
            payload["stream_sha256"] = hashlib.sha256(stream).hexdigest()
            if result is not None:
                errors += _stream_errors(stream, result["summary"])
        if result is not None and result["kind"] == "sweep":
            for record in result["records"]:
                errors += bc.record_errors(record)
        if tr is not None and not errors:
            root = tr.add("op", trace_id, t0, t1)
            tr.add("client.submit", trace_id, t0, t_submitted, root.span_id)
            tr.add("client.wait", trace_id, t_submitted, t_waited, root.span_id)
            tr.add("client.result", trace_id, t_waited, t_result, root.span_id)
            if job.get("events"):
                tr.add("client.stream", trace_id, t_result, t1, root.span_id)
            # The daemon sets a job's state before its ``finished`` stamp,
            # so a status read in between lacks it: no daemon spans then.
            stamps = [status.get(k) for k in ("submitted", "started", "finished")]
            if None not in stamps:
                submitted, started, finished = (t - self.wall_offset for t in stamps)
                job_span = tr.add("daemon.job", trace_id, submitted, finished, root.span_id)
                tr.add("daemon.queue", trace_id, submitted, started, job_span.span_id)
                tr.add("daemon.exec", trace_id, started, finished, job_span.span_id)
        outcome = bc.OpOutcome(index, t1 - t0, 0.0, bc.digest(payload), errors, end=t1)
        return outcome, result


def _local_result(job) -> Dict[str, object]:
    """The same job spec run through a local :class:`repro.Session`."""
    import dataclasses

    from repro import Session
    from repro.server.jobs import parse_job_spec

    spec = parse_job_spec(job)
    with Session(workload=spec.scenario, trace="aggregate",
                 **dict(spec.scenario_kwargs)) as session:
        if spec.kind == "run":
            specs = spec.policy_specs()
            return {"kind": "run", "policy": specs[0].label,
                    "summary": session.run(specs[0], n_rus=spec.n_rus).summary()}
        sweep = session.sweep(spec.policy_specs(), ru_counts=spec.rus)
        return {"kind": "sweep", "ru_counts": list(spec.rus),
                "records": [dataclasses.asdict(r) for r in sweep.records]}


async def _warm_up(host: str, port: int, jobs) -> None:
    client = _counting_client(host, port)
    try:
        for job in jobs:
            job_id = await client.submit(job)
            await client.wait(job_id)
    finally:
        await client.close()


async def _measure(loop: _Loop) -> Tuple[float, float]:
    """Run the closed loop; returns its start (``perf_counter``) and length."""
    t0 = time.perf_counter()
    await asyncio.gather(*(loop.client_loop() for _ in range(CLIENTS)))
    return t0, time.perf_counter() - t0


def _drive(ctx, ops, tracer) -> Dict[str, object]:
    """Spawn a daemon, prime its hot set, run ``ops`` through the closed
    loop and stop it again."""
    store = os.path.join(ctx.work, "store")
    proc, port = setup_time.spawn_daemon(ctx.env, store, os.path.join(ctx.work, "serve.log"))
    try:
        setup_time.wait_healthy(port)
        asyncio.run(_warm_up("127.0.0.1", port, oplists.warmup_jobs(ctx.seed)))
        rss_before = bc.proc_status_kb(proc.pid, "VmRSS") or 0.0
        loop = _Loop("127.0.0.1", port, ops, tracer)
        phase_start, phase_raw = asyncio.run(_measure(loop))
        peak_kb = bc.proc_status_kb(proc.pid) or 0.0
        rss_per_job = ((bc.proc_status_kb(proc.pid, "VmRSS") or 0.0) - rss_before) / len(ops)
        layers = None
        if tracer is not None:
            overhead = bc.trace_overhead_pct(
                lambda op, t: asyncio.run(_one_shot("127.0.0.1", port, op, t)),
                [op for op in ops if op["part"] == "hot-run"][:24], PROBE)
            layers = daemon_layers(loop, _health(port), rss_per_job)
            layers["trace.overhead_pct"] = overhead
            layers["store.kb_written"] = bc.dir_size_kb(store)[1]
    finally:
        setup_time.stop_daemon(proc)
    return {"loop": loop, "phase_start": phase_start, "phase_raw": phase_raw,
            "peak_kb": peak_kb, "layers": layers}


async def _one_shot(host: str, port: int, op, tracer) -> None:
    loop = _Loop(host, port, [dict(op, index=0)], tracer)
    await loop.client_loop()


def run(ctx) -> Dict[str, object]:
    from repro import make_scenario

    setup_s, setup_samples = setup_time.median_of(
        lambda k: setup_time.fresh_daemon(ctx.env, ctx.work, k), N_SETUP)
    ops = oplists.daemon_mixed_ops(ctx.seed, n_ops(ctx.seconds))
    driven = _drive(ctx, ops, ctx.tracer)
    loop = driven["loop"]
    tally = bc.Tally()
    workloads: Dict[str, object] = {}
    for op, outcome, result in zip(ops, loop.outcomes, loop.results):
        if result is None:
            continue
        job = op["job"]
        key = json.dumps([job["scenario"], job["scenario_kwargs"]], sort_keys=True)
        if key not in workloads:
            workloads[key] = make_scenario(job["scenario"], **job["scenario_kwargs"])
        workload = workloads[key]
        if result["kind"] == "run":
            outcome.errors += bc.summary_errors(result["summary"], workload.n_tasks)
            tally.add_summary(result["summary"])
            outcome.executions = workload.n_tasks
        else:
            outcome.executions = workload.n_tasks * len(result["records"])
            for record in result["records"]:
                tally.add_record(record, workload.n_tasks, workload.reconfig_latency)
        if op["index"] % CROSS_CHECK_EVERY == 0 and _local_result(job) != result:
            outcome.errors.append("daemon result differs from a local Session run")
    out = {
        "outcomes": loop.outcomes,
        "tally": tally,
        "setup_s": setup_s,
        "setup_samples": setup_samples,
        "peak_rss_mb": driven["peak_kb"] / 1024.0,
        "windows": bc.concurrent_windows(loop.outcomes, WINDOW, driven["phase_start"]),
        "phase_raw_s": driven["phase_raw"],
        "probes": loop.probes,
    }
    if ctx.tracer is not None:
        out["layers"] = driven["layers"]
    return out


def run_layers_only(ctx, n_ops: int) -> Dict[str, float]:
    """Daemon and client layer numbers from a short traced loop."""
    ops = oplists.daemon_mixed_ops(ctx.seed, n_ops)
    return _drive(ctx, ops, bc.Tracer())["layers"]


def _health(port: int) -> Dict[str, object]:
    import json
    import urllib.request

    with urllib.request.urlopen(f"http://127.0.0.1:{port}/healthz", timeout=10) as response:
        return json.loads(response.read())


def daemon_layers(loop: _Loop, health: Dict, rss_kb_per_job: float) -> Dict[str, float]:
    """Per-layer numbers of the service path, from client-side spans and
    the daemon's own job timestamps."""

    from layers import cache_layers

    tr = loop.tracer

    def med_ms(name: str) -> float:
        values = tr.scaled_durations(name)
        return statistics.median(values) * 1000.0 if values else 0.0

    jobs = {s.trace_id: s for s in tr.by_name("daemon.job")}
    streamed = {s.trace_id for s in tr.by_name("client.stream")}
    # Derived: the round trip minus the daemon's own job interval stands
    # in for HTTP parse/encode time until the program records spans.
    outside = [
        (op.duration - jobs[op.trace_id].duration) * tr.scales.get(op.trace_id, 1.0)
        for op in tr.by_name("op")
        if op.trace_id in jobs and op.trace_id not in streamed
    ]
    clients = loop.clients
    n = len(loop.ops)
    cache = health["cache"]
    layers = {
        "daemon.queue_wait_ms": med_ms("daemon.queue"),
        "daemon.exec_ms": med_ms("daemon.exec"),
        "daemon.submit_ms": med_ms("client.submit"),
        "daemon.result_ms": med_ms("client.result"),
        "daemon.outside_job_ms": statistics.median(outside) * 1000.0 if outside else 0.0,
        "daemon.stream_mb_per_s": (loop.stream_bytes / 1e6) / loop.stream_s if loop.stream_s else 0.0,
        "daemon.rss_kb_per_job": rss_kb_per_job,
        "daemon.shed": float(sum(c.rejected for c in clients)),
        "client.requests_per_op": sum(c.requests for c in clients) / n,
        "client.retries": float(sum(c.retries for c in clients)),
    }
    layers.update(cache_layers([cache]))
    layers["design.ideal_calls"] = float(cache["ideal"]["computations"])
    return layers
