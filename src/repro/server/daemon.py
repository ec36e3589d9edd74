"""The ``repro serve`` daemon: an asyncio simulation-as-a-service server.

One :class:`ReproServer` multiplexes many concurrent clients over a
persistent worker pool:

* the asyncio loop owns all sockets — request parsing, routing, status
  long-polls and live event streams are non-blocking;
* simulations run on a ``ThreadPoolExecutor`` of ``workers`` threads,
  each job through its own :class:`~repro.session.Session` over **one
  shared** :class:`~repro.session.ArtifactCache` (optionally disk-backed
  by ``store=``), so compiled workloads, mobility tables and ideal
  makespans are computed once and reused by every subsequent job — the
  compile-once path that makes thousands of small jobs cheap;
* a per-workload design-time lock prevents a thundering herd of
  identical cold jobs from compiling the same workload in parallel.

Endpoints (see ``docs/service.md`` for the full protocol):

========  ======================  =========================================
method    path                    purpose
========  ======================  =========================================
GET       ``/healthz``            liveness + job/cache/store/quota counters
POST      ``/jobs``               submit a job spec (201 / 400 / 429)
GET       ``/jobs``               list all jobs
GET       ``/jobs/{id}``          status + progress (``?wait=SECONDS``
                                  long-polls until terminal)
GET       ``/jobs/{id}/result``   result payload (409 until done)
DELETE    ``/jobs/{id}``          request cancellation
GET       ``/jobs/{id}/events``   live chunked JSONL event stream
                                  (``?from=N`` replays from line N)
========  ======================  =========================================
"""

from __future__ import annotations

import asyncio
import dataclasses
import math
import threading
import time
import uuid
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import Dict, Optional, Tuple, Union

from repro.artifacts.keys import workload_content_key
from repro.artifacts.store import ArtifactStore
from repro.exceptions import ExperimentError
from repro.server.http import (
    LAST_CHUNK,
    ProtocolError,
    Request,
    chunk,
    json_response,
    read_request,
    stream_head,
)
from repro.server.jobs import (
    ChannelWriter,
    Job,
    JobCancelled,
    JobSpecError,
    JobState,
    TokenBucket,
    parse_job_spec,
)
from repro.session import ArtifactCache, Session, SessionHooks
from repro.sim.tracing import SCALAR_HOOK_KEYS, JsonlTraceWriter, TraceSink
from repro.workloads.scenarios import make_scenario


class _CancelSink(TraceSink):
    """Aborts an in-flight simulation once its job was cancelled.

    Attached to every job's event stream; checking a ``threading.Event``
    every 256 events keeps the cost invisible while bounding the
    cancellation latency to a fraction of a millisecond of simulation.
    Every event kind maps to one field-taking tick, so no event objects
    are built for it.
    """

    def __init__(self, job: Job) -> None:
        self._job = job
        self._countdown = 256

    def scalar_hooks(self):
        return {key: self._tick for key, _ in SCALAR_HOOK_KEYS}

    def _tick(self, *_fields) -> None:
        self._countdown -= 1
        if self._countdown <= 0:
            self._countdown = 256
            if self._job.cancel_event.is_set():
                raise JobCancelled(f"job {self._job.id} cancelled")


class _JobHooks(SessionHooks):
    """Bridges one job's Session lifecycle into the job record.

    Progress lands in ``job.progress_done`` (read by ``GET /jobs/{id}``),
    cancellation is honoured at every cell boundary, and — for
    event-streaming runs — a :class:`JsonlTraceWriter` over the job's
    :class:`~repro.server.jobs.EventChannel` broadcasts the trace live in
    the exact JSONL wire format.
    """

    def __init__(self, job: Job) -> None:
        self._job = job

    def _check_cancel(self) -> None:
        if self._job.cancel_event.is_set():
            raise JobCancelled(f"job {self._job.id} cancelled")

    def on_run_start(self, cell) -> None:
        self._check_cancel()

    def on_run_end(self, cell, record) -> None:
        self._job.progress_done += 1

    def on_sweep_progress(self, done: int, total: int) -> None:
        self._job.progress_done = done
        self._check_cancel()

    def trace_sinks(self, cell):
        sinks = [_CancelSink(self._job)]
        if self._job.channel is not None:
            sinks.append(JsonlTraceWriter(ChannelWriter(self._job.channel)))
        return sinks


class ReproServer:
    """The daemon: job intake, worker pool, lifecycle and event streaming.

    Parameters
    ----------
    host, port:
        Listen address; ``port=0`` picks an ephemeral port (read the
        bound one from ``self.port`` after :meth:`start`).
    store:
        Optional persistent artifact store (directory path or
        :class:`ArtifactStore`) backing the shared cache, so design-time
        artifacts survive daemon restarts and are shared with CLI runs.
    workers:
        Simulation worker threads.  Concurrency beyond this queues —
        submissions are accepted immediately and run in order.
    quota_rate, quota_burst:
        Per-client token bucket: sustained submissions/second and burst
        capacity.  ``quota_rate=0`` disables quotas.  Clients identify
        via the ``X-Repro-Client`` header (else their peer address).
    max_pending:
        Hard backlog cap across all clients; submissions beyond it are
        shed with 503 + ``Retry-After`` regardless of quota state (a full
        backlog is server overload, not client misbehaviour — clients
        retry it, unlike their own 429s).
    retry_base_s:
        First requeue delay for jobs submitted with ``max_attempts > 1``;
        doubles per failed attempt (capped at 30 s).
    faults:
        Optional :class:`~repro.resilience.faults.FaultPlan`; exposes
        ``daemon.job.fail`` (an attempt raises mid-execution) and
        ``daemon.stream.drop`` (an event stream's connection dies
        mid-flight, exercising client ``?from=N`` reconnects).
    backend:
        Sweep execution backend name passed to every job's
        :class:`~repro.session.Session` (``"inline"``,
        ``"process-pool"`` or ``"work-stealing"``; see
        ``docs/backends.md``).  ``None`` keeps the session default.
        ``"work-stealing"`` requires ``store``.
    batch_size:
        Cells per worker submission for every job's sweep (the
        :class:`~repro.session.Session` ``batch_size``; byte-identical
        results for any value).  Matters for process-based backends;
        the default inline backend already shares one warm context.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 8765,
        *,
        store: Union[ArtifactStore, str, Path, None] = None,
        workers: int = 4,
        quota_rate: float = 100.0,
        quota_burst: int = 500,
        max_pending: int = 10_000,
        retry_base_s: float = 0.5,
        faults=None,
        backend: Optional[str] = None,
        batch_size: int = 1,
    ) -> None:
        self.host = host
        self.port = port
        self.retry_base_s = float(retry_base_s)
        self.faults = faults
        if store is not None and not isinstance(store, ArtifactStore):
            store = ArtifactStore(store)
        self.store = store
        self.cache = ArtifactCache(store=store)
        if backend == "work-stealing" and store is None:
            raise ExperimentError(
                "backend='work-stealing' requires a persistent --store"
            )
        self.backend = backend
        self.batch_size = max(1, int(batch_size))
        self.workers = max(1, int(workers))
        self.quota_rate = float(quota_rate)
        self.quota_burst = int(quota_burst)
        self.max_pending = int(max_pending)
        self.jobs: Dict[str, Job] = {}
        self._executor = ThreadPoolExecutor(
            max_workers=self.workers, thread_name_prefix="repro-job"
        )
        self._buckets: Dict[str, TokenBucket] = {}
        self._workloads: Dict[Tuple, Tuple] = {}
        self._workload_lock = threading.Lock()
        self._design_locks: Dict[str, threading.Lock] = {}
        self._locks_guard = threading.Lock()
        self._seq = 0
        self._n_pending = 0
        self._t0 = time.time()
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._server: Optional[asyncio.AbstractServer] = None
        self._connections: set = set()
        self._retry_timers: set = set()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> None:
        """Bind the listening socket (resolves ``port=0``)."""
        self._loop = asyncio.get_running_loop()
        self._t0 = time.time()
        self._server = await asyncio.start_server(
            self._handle_client, self.host, self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]

    async def serve_forever(self) -> None:
        assert self._server is not None, "start() first"
        await self._server.serve_forever()

    async def stop(self) -> None:
        """Stop accepting, cancel queued jobs, drain running ones."""
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        # Nudge lingering keep-alive connections to EOF so their handler
        # tasks finish cleanly before the loop shuts down.
        for writer in list(self._connections):
            try:
                writer.close()
            except (ConnectionError, OSError):
                pass
        # Pending retry backoffs die with the server; their jobs fall
        # through to the terminal-cancel sweep below.
        for timer in list(self._retry_timers):
            timer.cancel()
        self._retry_timers.clear()
        for job in self.jobs.values():
            if job.state not in JobState.TERMINAL:
                job.cancel_event.set()
        loop = asyncio.get_running_loop()
        await loop.run_in_executor(
            None, lambda: self._executor.shutdown(wait=True, cancel_futures=True)
        )
        # Queued jobs whose futures were cancelled never reached _execute.
        for job in self.jobs.values():
            if job.state not in JobState.TERMINAL:
                job.finish(JobState.CANCELLED)

    # ------------------------------------------------------------------
    # Connection handling
    # ------------------------------------------------------------------
    async def _handle_client(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        peer = writer.get_extra_info("peername")
        peer_host = peer[0] if isinstance(peer, tuple) else "local"
        self._connections.add(writer)
        try:
            while True:
                try:
                    request = await read_request(reader)
                except ProtocolError as exc:
                    writer.write(
                        json_response(
                            exc.status, {"error": str(exc)}, keep_alive=False
                        )
                    )
                    await writer.drain()
                    break
                if request is None:
                    break
                client = request.headers.get("x-repro-client") or peer_host
                job = self._stream_target(request)
                if job is not None:
                    await self._stream_events(request, writer, job)
                    break  # streams own the connection; close after
                writer.write(await self._respond(request, client))
                await writer.drain()
                if not request.keep_alive:
                    break
        except (ConnectionError, asyncio.IncompleteReadError, TimeoutError):
            pass  # client went away mid-exchange
        except asyncio.CancelledError:
            pass  # loop shutting down; exit the handler quietly
        finally:
            self._connections.discard(writer)
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError, asyncio.CancelledError):
                pass

    async def _respond(self, request: Request, client: str) -> bytes:
        try:
            return await self._route(request, client)
        except ProtocolError as exc:
            return json_response(exc.status, {"error": str(exc)})
        except JobSpecError as exc:
            return json_response(400, {"error": str(exc)})
        except Exception as exc:  # never kill the connection loop
            return json_response(500, {"error": f"{type(exc).__name__}: {exc}"})

    async def _route(self, request: Request, client: str) -> bytes:
        parts = [p for p in request.path.split("/") if p]
        if request.path == "/healthz":
            if request.method != "GET":
                return json_response(405, {"error": "healthz is GET-only"})
            return json_response(200, self.health())
        if parts[:1] == ["jobs"]:
            if len(parts) == 1:
                if request.method == "POST":
                    return self._submit(request, client)
                if request.method == "GET":
                    return json_response(
                        200,
                        {"jobs": [j.status_dict() for j in self.jobs.values()]},
                    )
                return json_response(405, {"error": "jobs is GET/POST-only"})
            job = self.jobs.get(parts[1])
            if job is None:
                return json_response(404, {"error": f"unknown job {parts[1]!r}"})
            if len(parts) == 2:
                if request.method == "GET":
                    return await self._status(request, job)
                if request.method == "DELETE":
                    return self._cancel(job)
                return json_response(405, {"error": "job is GET/DELETE-only"})
            if len(parts) == 3 and request.method == "GET":
                if parts[2] == "result":
                    return self._result(job)
                if parts[2] == "events":
                    # Valid streams are intercepted by _stream_target;
                    # reaching here means events were not recorded.
                    return json_response(
                        409,
                        {
                            "error": (
                                f"job {job.id!r} has no event stream "
                                "(submit with \"events\": true)"
                            )
                        },
                    )
        return json_response(
            404, {"error": f"no route for {request.method} {request.path}"}
        )

    # ------------------------------------------------------------------
    # Handlers
    # ------------------------------------------------------------------
    def health(self) -> Dict[str, object]:
        by_state: Dict[str, int] = {
            JobState.QUEUED: 0,
            JobState.RUNNING: 0,
            JobState.DONE: 0,
            JobState.FAILED: 0,
            JobState.CANCELLED: 0,
            JobState.DEAD: 0,
        }
        for job in self.jobs.values():
            by_state[job.state] = by_state.get(job.state, 0) + 1
        payload: Dict[str, object] = {
            "status": "ok",
            "uptime_s": round(time.time() - self._t0, 3),
            "workers": self.workers,
            "jobs": dict(by_state, total=len(self.jobs)),
            "cache": self.cache.stats_summary(),
            "quota": {
                "rate_per_s": self.quota_rate,
                "burst": self.quota_burst,
                "clients": len(self._buckets),
                "max_pending": self.max_pending,
            },
        }
        payload["store"] = self.store.describe() if self.store is not None else None
        if self.store is not None:
            payload["external_workers"] = self._worker_summary()
        return payload

    def _worker_summary(self) -> Dict[str, object]:
        """Liveness beacons of ``repro worker`` daemons sharing the store."""
        from repro.backends.worker import read_heartbeats

        now = time.time()
        beats = read_heartbeats(self.store)
        return {
            "count": len(beats),
            "workers": {
                worker: {
                    "state": beat.get("state"),
                    "sweep": beat.get("sweep"),
                    "completed": beat.get("completed"),
                    "failed": beat.get("failed"),
                    "age_s": round(now - float(beat.get("time", now)), 3),
                }
                for worker, beat in sorted(beats.items())
            },
        }

    def _bucket(self, client: str) -> TokenBucket:
        bucket = self._buckets.get(client)
        if bucket is None:
            bucket = self._buckets[client] = TokenBucket(
                self.quota_rate, self.quota_burst
            )
        return bucket

    def _submit(self, request: Request, client: str) -> bytes:
        allowed, retry_after = self._bucket(client).try_acquire()
        if not allowed:
            return json_response(
                429,
                {
                    "error": f"quota exceeded for client {client!r}",
                    "retry_after": round(retry_after, 3),
                },
                extra_headers=[("Retry-After", str(max(1, math.ceil(retry_after))))],
            )
        if self._n_pending >= self.max_pending:
            # Load shedding: a full backlog is *our* overload, not the
            # client's misbehaviour, so answer 503 (retryable — the
            # client's RetryPolicy honours the hint) rather than 429.
            return json_response(
                503,
                {
                    "error": f"job backlog full ({self.max_pending} pending)",
                    "retry_after": 1.0,
                },
                extra_headers=[("Retry-After", "1")],
            )
        spec = parse_job_spec(request.json())
        self._seq += 1
        job_id = f"j{self._seq:06d}-{uuid.uuid4().hex[:8]}"
        job = Job(job_id, spec, client, self._loop)
        self.jobs[job_id] = job
        self._n_pending += 1
        future = self._loop.run_in_executor(self._executor, self._execute, job)
        future.add_done_callback(lambda f: self._reap(job, f))
        return json_response(201, job.status_dict())

    def _reap(self, job: Job, future) -> None:
        """Backstop for failures outside _execute's own try/except."""
        if future.cancelled():
            return  # stop() marks the job cancelled
        exc = future.exception()
        if exc is not None and job.state not in JobState.TERMINAL:
            job.finish(JobState.FAILED, error=f"{type(exc).__name__}: {exc}")

    async def _status(self, request: Request, job: Job) -> bytes:
        wait = request.param("wait")
        if wait is not None:
            try:
                seconds = min(60.0, max(0.0, float(wait)))
            except ValueError:
                raise ProtocolError(f"bad wait value {wait!r}") from None
            await job.wait_terminal(seconds)
        return json_response(200, job.status_dict())

    def _cancel(self, job: Job) -> bytes:
        if job.state not in JobState.TERMINAL:
            job.cancel_event.set()
        return json_response(200, job.status_dict())

    def _result(self, job: Job) -> bytes:
        if job.state == JobState.DONE:
            return json_response(
                200, {"id": job.id, "state": job.state, "result": job.result}
            )
        payload = {
            "error": f"job {job.id!r} is {job.state}, no result available",
            "status": job.status_dict(),
        }
        return json_response(409, payload)

    def _stream_target(self, request: Request) -> Optional[Job]:
        parts = [p for p in request.path.split("/") if p]
        if (
            request.method == "GET"
            and len(parts) == 3
            and parts[0] == "jobs"
            and parts[2] == "events"
        ):
            job = self.jobs.get(parts[1])
            if job is not None and job.channel is not None:
                return job
        return None

    async def _stream_events(
        self, request: Request, writer: asyncio.StreamWriter, job: Job
    ) -> None:
        """Chunked live JSONL: buffered lines first, then follow the run."""
        try:
            start = max(0, int(request.param("from", "0")))
        except ValueError:
            writer.write(
                json_response(
                    400,
                    {"error": f"bad from value {request.param('from')!r}"},
                    keep_alive=False,
                )
            )
            await writer.drain()
            return
        channel = job.channel
        writer.write(stream_head())
        n = start
        while True:
            lines = channel.lines
            if n < len(lines):
                batch = "".join(lines[n:])
                n = len(lines)
                writer.write(chunk(batch.encode("utf-8")))
                await writer.drain()
                if self.faults is not None and self.faults.should_fire(
                    "daemon.stream.drop"
                ):
                    # Abrupt close with no terminating chunk: the client
                    # sees a truncated stream and reconnects with ?from=N.
                    writer.close()
                    return
                continue
            if channel.closed:
                break
            await channel.wait_beyond(n)
        writer.write(LAST_CHUNK)
        await writer.drain()

    # ------------------------------------------------------------------
    # Job execution (worker threads)
    # ------------------------------------------------------------------
    def _workload_for(self, spec):
        key = (spec.scenario, spec.scenario_kwargs)
        with self._workload_lock:
            entry = self._workloads.get(key)
            if entry is None:
                workload = make_scenario(spec.scenario, **dict(spec.scenario_kwargs))
                entry = (workload, workload_content_key(workload))
                self._workloads[key] = entry
        return entry

    def _design_lock(self, content_key: str) -> threading.Lock:
        with self._locks_guard:
            return self._design_locks.setdefault(content_key, threading.Lock())

    def _execute(self, job: Job) -> None:
        self._n_pending -= 1
        if job.cancel_event.is_set():
            job.finish(JobState.CANCELLED)
            return
        job.state = JobState.RUNNING
        job.started = time.time()
        job.attempts += 1
        job.error = None  # a retried attempt starts with a clean slate
        try:
            if self.faults is not None and self.faults.should_fire("daemon.job.fail"):
                raise ExperimentError(
                    f"injected: attempt {job.attempts} of job {job.id} failed"
                )
            workload, content_key = self._workload_for(job.spec)
            specs = job.spec.policy_specs()
            session = Session(
                workload=workload,
                cache=self.cache,
                hooks=(_JobHooks(job),),
                backend=self.backend,
                batch_size=self.batch_size,
            )
            if job.spec.kind == "sweep":
                ru_axis: Tuple[int, ...] = job.spec.rus
            else:
                ru_axis = (job.spec.n_rus or session.device.n_rus,)
            # Design-time phase under the per-workload lock: the first
            # cold job pays it once; concurrent identical jobs wait a
            # beat and then hit the shared cache instead of recomputing.
            with self._design_lock(content_key):
                session.compiled()
                for policy_spec in specs:
                    for n_rus in ru_axis:
                        session.ideal_makespan_us(
                            n_rus=n_rus, semantics=policy_spec.make_semantics()
                        )
                        if policy_spec.skip_events:
                            session.mobility_tables(n_rus=n_rus)
            if job.spec.kind == "run":
                result = session.run(
                    specs[0], n_rus=job.spec.n_rus, trace="aggregate"
                )
                job.result = {
                    "kind": "run",
                    "policy": specs[0].label,
                    "summary": result.summary(),
                }
            else:
                sweep = session.sweep(
                    specs, ru_counts=job.spec.rus, trace="aggregate"
                )
                job.result = {
                    "kind": "sweep",
                    "ru_counts": list(job.spec.rus),
                    "records": [dataclasses.asdict(r) for r in sweep.records],
                }
            job.finish(JobState.DONE)
        except JobCancelled:
            job.finish(JobState.CANCELLED)
        except Exception as exc:
            self._attempt_failed(job, exc)

    def _attempt_failed(self, job: Job, exc: Exception) -> None:
        """One attempt died: requeue with backoff, or go terminal.

        Jobs keep their legacy semantics unless they opted in: with the
        default ``max_attempts=1`` the first failure is terminal FAILED,
        exactly as before.  Multi-attempt jobs record the failure chain,
        wait ``retry_base_s × 2^(attempt-1)`` and requeue — until the
        attempt budget or the job's wall-clock ``deadline_s`` runs out,
        at which point they park in the terminal DEAD state.
        """
        error = f"{type(exc).__name__}: {exc}"
        job.failures.append(
            {"attempt": job.attempts, "error": error, "time": time.time()}
        )
        spec = job.spec
        out_of_time = (
            spec.deadline_s is not None
            and time.time() - job.submitted >= spec.deadline_s
        )
        if job.attempts >= spec.max_attempts or out_of_time:
            terminal = JobState.DEAD if spec.max_attempts > 1 else JobState.FAILED
            if out_of_time and job.attempts < spec.max_attempts:
                error = f"deadline {spec.deadline_s}s exceeded; last error: {error}"
            job.finish(terminal, error=error)
            return
        pause = min(30.0, self.retry_base_s * (2.0 ** (job.attempts - 1)))
        job.state = JobState.QUEUED
        job.error = error
        job.progress_done = 0
        self._n_pending += 1

        def _requeue() -> None:
            self._retry_timers.discard(timer)
            try:
                future = self._loop.run_in_executor(self._executor, self._execute, job)
                future.add_done_callback(lambda f: self._reap(job, f))
            except RuntimeError:
                # Executor/loop already shut down; stop() finishes the job.
                pass

        def _fire() -> None:
            try:
                self._loop.call_soon_threadsafe(_requeue)
            except RuntimeError:
                pass  # loop closed between the backoff and the firing

        timer = threading.Timer(pause, _fire)
        timer.daemon = True
        self._retry_timers.add(timer)
        timer.start()


class ServerThread:
    """A :class:`ReproServer` on a background thread with its own loop.

    The embedding used by tests, the stress benchmark and anything that
    wants a live daemon inside an otherwise synchronous program::

        with ServerThread(workers=2, quota_rate=0) as srv:
            client = ReproClient(srv.host, srv.port)
            ...

    ``port`` defaults to 0 (ephemeral) so parallel test runs never
    collide.
    """

    def __init__(self, **server_kwargs) -> None:
        server_kwargs.setdefault("port", 0)
        self._kwargs = server_kwargs
        self.server: Optional[ReproServer] = None
        self.error: Optional[BaseException] = None
        self._thread: Optional[threading.Thread] = None
        self._started = threading.Event()
        self._stop_event: Optional[asyncio.Event] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None

    @property
    def host(self) -> str:
        return self.server.host

    @property
    def port(self) -> int:
        return self.server.port

    def start(self) -> Tuple[str, int]:
        self._thread = threading.Thread(
            target=self._run, name="repro-serve", daemon=True
        )
        self._thread.start()
        if not self._started.wait(timeout=30):
            raise RuntimeError("repro serve thread failed to start in 30s")
        if self.error is not None:
            raise RuntimeError(f"repro serve thread failed: {self.error}")
        return self.server.host, self.server.port

    def _run(self) -> None:
        try:
            asyncio.run(self._main())
        except BaseException as exc:  # surface startup/teardown failures
            self.error = exc
            self._started.set()

    async def _main(self) -> None:
        self.server = ReproServer(**self._kwargs)
        self._loop = asyncio.get_running_loop()
        self._stop_event = asyncio.Event()
        await self.server.start()
        self._started.set()
        await self._stop_event.wait()
        await self.server.stop()

    def stop(self) -> None:
        if self._loop is not None and self._stop_event is not None:
            self._loop.call_soon_threadsafe(self._stop_event.set)
        if self._thread is not None:
            self._thread.join(timeout=60)

    def __enter__(self) -> "ServerThread":
        self.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()
