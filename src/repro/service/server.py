"""The mining service: an asyncio HTTP control plane over `repro.mine`.

One long-running process owns one :class:`GraphDatabase` and mines it
on behalf of many tenants.  Clients speak plain HTTP/1.1 and JSON —
the body of ``POST /v1/jobs`` *is* ``MiningRequest.to_json()``, the
body of ``GET /v1/jobs/<id>/result`` *is*
``MiningResultEnvelope.to_dict()`` — so the typed request/result API
of :mod:`repro.core.api` is the wire format, not a parallel schema.

Endpoints (all under ``/v1``):

========  =============================  =======================================
method    path                           meaning
========  =============================  =======================================
POST      /v1/jobs                       submit a MiningRequest (``X-Clan-Tenant``
                                         header names the tenant); returns the job id
GET       /v1/jobs                       list jobs (``?tenant=`` filters)
GET       /v1/jobs/<id>                  one job's status
POST      /v1/jobs/<id>/cancel           cancel: dequeue if queued, else
                                         cooperatively stop the running session
GET       /v1/jobs/<id>/result           the result envelope; 404 until finished
                                         unless ``?wait=1`` long-polls
GET       /v1/jobs/<id>/trace            live session events as JSONL; the
                                         stream ends (EOF) when the job finishes
GET       /v1/jobs/<id>/events           the same stream as Server-Sent Events,
                                         terminated by an ``event: done`` frame
POST      /v1/sweeps                     fan a threshold sweep out into one job
                                         per ``min_sup``, all sharing the cache
GET       /v1/stats                      queue depths, tenants, cache counters
GET       /v1/healthz                    liveness
========  =============================  =======================================

Scheduling is two-level: a :class:`FairJobQueue` round-robins between
tenants, and at most ``max_concurrency`` jobs mine at once in a thread
pool (mining holds the GIL only between C-level set operations, and
``processes>1`` requests fork their own workers anyway).  Each job runs
a :class:`MiningSession` with the request's budget — or the service's
``default_budget`` SLO when the request has none — an event sink that
feeds the job's watchers, and the one :class:`SharedCache` all tenants
share, persisted to ``clan-cache.json`` in the state directory.

Every job transition is persisted to ``jobs/<id>.json``, every finished
root to ``checkpoints/<id>.json``; a server that crashes (or is
:meth:`killed <MiningService.kill>`) and restarts re-enqueues its
unfinished jobs and resumes them from their checkpoints, re-mining only
the roots that had not completed.  Because result envelopes are
canonical over request + patterns only (statistics live outside the
canonical section), a resumed job's result is byte-identical to an
uninterrupted one.

The server is stdlib-only: ``asyncio.start_server`` plus a small
HTTP/1.1 reader/writer.  Responses close the connection (``Connection:
close``), which is also what lets the streaming endpoints signal
completion by EOF.
"""

from __future__ import annotations

import asyncio
import dataclasses
import json
import threading
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, Union
from urllib.parse import parse_qs, urlsplit

from ..core.api import MiningRequest, MiningResultEnvelope
from ..core.session import (
    EventSink,
    MiningBudget,
    MiningEvent,
    MiningSession,
    RootFinished,
    event_to_dict,
)
from ..exceptions import FormatError, MiningError, ReproError
from ..graphdb.database import GraphDatabase
from ..io.runlog import (
    load_or_create_cache,
    open_checkpoint,
    open_envelope,
    save_cache,
    save_checkpoint,
    save_envelope,
)
from .jobs import MiningJob, SharedCache
from .queue import FairJobQueue
from .tenants import DEFAULT_TENANT, TenantBook

_PROTOCOL = "HTTP/1.1"
_REASONS = {
    200: "OK",
    202: "Accepted",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    409: "Conflict",
}


class _JobSink(EventSink):
    """Bridges a mining thread's session events into the event loop.

    Every event is posted to the loop thread for the job's watchers; a
    flushed batch of search events is one post and one wake-up.  Every
    :class:`RootFinished` additionally snapshots the session's
    checkpoint to disk *from the mining thread* (the completed-roots
    map is updated before the heartbeat is emitted, so the snapshot is
    consistent), which is what makes a hard kill resumable.  The
    session publishes heartbeats one at a time through :meth:`emit`;
    batches carry only the engine's search events.
    """

    def __init__(self, service: "MiningService", job: MiningJob) -> None:
        self._service = service
        self._job = job

    def emit(self, event: MiningEvent) -> None:
        service, job = self._service, self._job
        if isinstance(event, RootFinished) and job.session is not None:
            # Under the lock :meth:`MiningService.kill` takes: no save
            # is in flight once a kill returns, and none starts after.
            with service._checkpoint_lock:
                if not service._killed:
                    save_checkpoint(
                        job.session.checkpoint(),
                        service._checkpoint_path(job.job_id),
                    )
        service._post(service._publish_events, job, [event_to_dict(event)])

    def emit_batch(self, events: Sequence[MiningEvent]) -> None:
        payloads = [event_to_dict(event) for event in events]
        self._service._post(self._service._publish_events, self._job, payloads)


class MiningService:
    """A multi-tenant mining server over one graph database.

    Parameters
    ----------
    database:
        The :class:`GraphDatabase` every job mines.
    state_dir:
        Directory for the durable control-plane state: job records,
        result envelopes, per-job checkpoints, and the shared
        ``clan-cache.json``.  Point a new server at an old directory
        to recover its jobs.
    host, port:
        Bind address; ``port=0`` picks a free port (see
        :attr:`address` after :meth:`start`).
    max_concurrency:
        How many jobs mine at once; queued jobs wait fairly.
    default_budget:
        Optional :class:`MiningBudget` applied as the per-job SLO for
        requests that do not carry their own budget.
    """

    def __init__(
        self,
        database: GraphDatabase,
        state_dir: Union[str, Path],
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        max_concurrency: int = 2,
        default_budget: Optional[MiningBudget] = None,
        storage_root: Optional[Union[str, Path]] = None,
    ) -> None:
        if max_concurrency < 1:
            raise MiningError(
                f"max_concurrency must be >= 1, got {max_concurrency}"
            )
        self.database = database
        #: When set, jobs may carry an ``X-Clan-Database`` storage URI
        #: naming a SQLite store inside this directory; the job then
        #: mines that store instead of :attr:`database`.
        self.storage_root = Path(storage_root) if storage_root is not None else None
        self.state_dir = Path(state_dir)
        self.host = host
        self.port = port
        self.max_concurrency = max_concurrency
        self.default_budget = default_budget

        self.tenants = TenantBook()
        self.cache: SharedCache = SharedCache()
        #: Job ids in the order the scheduler started them (the
        #: fairness tests read this).
        self.execution_order: List[str] = []

        self._jobs: Dict[str, MiningJob] = {}
        self._queue = FairJobQueue()
        self._signals: Dict[str, asyncio.Event] = {}
        self._cancel_requested: set = set()
        self._seq = 0
        self._slots = max_concurrency
        self._killed = False
        self._stopping = False
        self._cache_io_lock = threading.Lock()
        self._checkpoint_lock = threading.Lock()
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._server: Optional[asyncio.AbstractServer] = None
        self._scheduler_task: Optional[asyncio.Task] = None
        self._kick: Optional[asyncio.Event] = None
        self._pool: Optional[ThreadPoolExecutor] = None
        self._thread: Optional[threading.Thread] = None

    # ------------------------------------------------------------------
    # State directory layout
    # ------------------------------------------------------------------
    def _jobs_dir(self) -> Path:
        return self.state_dir / "jobs"

    def _job_path(self, job_id: str) -> Path:
        return self._jobs_dir() / f"{job_id}.json"

    def _result_path(self, job_id: str) -> Path:
        return self.state_dir / "results" / f"{job_id}.json"

    def _checkpoint_path(self, job_id: str) -> Path:
        return self.state_dir / "checkpoints" / f"{job_id}.json"

    def _persist_job(self, job: MiningJob) -> None:
        path = self._job_path(job.job_id)
        with open(path, "w", encoding="utf-8") as stream:
            json.dump(job.to_dict(), stream, indent=1)
            stream.write("\n")

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> Tuple[str, int]:
        """Bind the server, recover persisted jobs, start scheduling."""
        self._loop = asyncio.get_running_loop()
        self._kick = asyncio.Event()
        self._pool = ThreadPoolExecutor(
            max_workers=self.max_concurrency, thread_name_prefix="clan-job"
        )
        for sub in ("jobs", "results", "checkpoints"):
            (self.state_dir / sub).mkdir(parents=True, exist_ok=True)
        self.cache = SharedCache.wrap(load_or_create_cache(self.state_dir))
        self._recover_jobs()
        self._server = await asyncio.start_server(
            self._handle_client, host=self.host, port=self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]
        self._scheduler_task = self._loop.create_task(self._scheduler())
        return self.host, self.port

    @property
    def address(self) -> Tuple[str, int]:
        return self.host, self.port

    def _recover_jobs(self) -> None:
        """Re-read job records; re-enqueue unfinished ones for resume."""
        for path in sorted(self._jobs_dir().glob("*.json")):
            with open(path, "r", encoding="utf-8") as stream:
                try:
                    job = MiningJob.from_dict(json.load(stream))
                except (MiningError, KeyError, TypeError, ValueError) as exc:
                    raise FormatError(f"bad job record {path.name}: {exc}") from exc
            self._jobs[job.job_id] = job
            tenant = self.tenants.get(job.tenant)
            tenant.submitted += 1
            if job.state == "done":
                tenant.completed += 1
            elif job.state == "failed":
                tenant.failed += 1
            elif job.state == "cancelled":
                tenant.cancelled += 1
            else:
                job.state = "queued"
                self._persist_job(job)
                self._queue.push(job.tenant, job.job_id)
            tail = job.job_id.rsplit("-", 1)[-1]
            if tail.isdigit():
                self._seq = max(self._seq, int(tail))

    async def stop(self) -> None:
        """Graceful shutdown: stop accepting, stop scheduling."""
        self._stopping = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        if self._scheduler_task is not None:
            self._scheduler_task.cancel()
            try:
                await self._scheduler_task
            except asyncio.CancelledError:
                pass
        if self._pool is not None:
            self._pool.shutdown(wait=False)

    def kill(self) -> None:
        """Hard stop, simulating a crash (call from the loop thread).

        Running sessions are cancelled so their threads wind down, but
        nothing further is persisted: job records keep their last
        on-disk state (``running``/``queued``) and results are not
        written — exactly what a power loss would leave behind.  A new
        service on the same ``state_dir`` recovers and resumes.
        """
        with self._checkpoint_lock:
            self._killed = True
        self._stopping = True
        for job in self._jobs.values():
            if job.session is not None and not job.finished:
                job.session.cancel()
        if self._server is not None:
            self._server.close()
        if self._scheduler_task is not None:
            self._scheduler_task.cancel()
        if self._pool is not None:
            self._pool.shutdown(wait=False)

    # ------------------------------------------------------------------
    # Background-thread harness (tests and `clan serve`)
    # ------------------------------------------------------------------
    def start_in_thread(self) -> Tuple[str, int]:
        """Run the service's event loop in a daemon thread."""
        ready = threading.Event()
        failure: List[BaseException] = []

        def runner() -> None:
            loop = asyncio.new_event_loop()
            asyncio.set_event_loop(loop)
            try:
                loop.run_until_complete(self.start())
            except BaseException as exc:  # pragma: no cover - startup bugs
                failure.append(exc)
                ready.set()
                loop.close()
                return
            ready.set()
            try:
                loop.run_forever()
            finally:
                loop.close()

        self._thread = threading.Thread(
            target=runner, name="clan-serve", daemon=True
        )
        self._thread.start()
        ready.wait()
        if failure:
            raise failure[0]
        return self.address

    def stop_in_thread(self, timeout: float = 10.0) -> None:
        """Gracefully stop a :meth:`start_in_thread` service (idempotent)."""
        loop = self._loop
        if loop is None or self._thread is None or not loop.is_running():
            return
        asyncio.run_coroutine_threadsafe(self.stop(), loop).result(timeout)
        loop.call_soon_threadsafe(loop.stop)
        self._thread.join(timeout)

    def kill_in_thread(self, timeout: float = 10.0) -> None:
        """Hard-kill a :meth:`start_in_thread` service (crash drill)."""
        loop = self._loop
        if loop is None or self._thread is None:
            return

        def _do() -> None:
            self.kill()
            loop.stop()

        loop.call_soon_threadsafe(_do)
        self._thread.join(timeout)

    async def run_forever(
        self, announce: Optional[Callable[[str, int], None]] = None
    ) -> None:
        """`clan serve`: start and serve until cancelled.

        ``announce(host, port)`` is called once the socket is bound —
        the CLI prints the listening address with it.
        """
        host, port = await self.start()
        if announce is not None:
            announce(host, port)
        assert self._server is not None
        async with self._server:
            await self._server.serve_forever()

    # ------------------------------------------------------------------
    # Scheduling and job execution
    # ------------------------------------------------------------------
    def _post(self, callback: Callable, *args: Any) -> None:
        """Schedule a callback on the loop thread (from any thread)."""
        loop = self._loop
        if loop is None or loop.is_closed():
            return
        try:
            loop.call_soon_threadsafe(callback, *args)
        except RuntimeError:  # loop shut down under us (kill)
            pass

    def _kick_scheduler(self) -> None:
        if self._kick is not None:
            self._kick.set()

    async def _scheduler(self) -> None:
        assert self._kick is not None
        while not self._stopping:
            while self._slots > 0 and len(self._queue):
                popped = self._queue.pop_next()
                if popped is None:
                    break
                _tenant, job_id = popped
                job = self._jobs[job_id]
                self._slots -= 1
                self._start_job(job)
            self._kick.clear()
            await self._kick.wait()

    def _start_job(self, job: MiningJob) -> None:
        job.state = "running"
        self._persist_job(job)
        self.execution_order.append(job.job_id)
        self._wake(job.job_id)
        assert self._loop is not None and self._pool is not None
        self._loop.run_in_executor(self._pool, self._run_job_thread, job)

    def _resolve_database(self, job: MiningJob) -> GraphDatabase:
        """The database a job mines: the default, or its storage URI."""
        if not job.database_uri:
            return self.database
        if self.storage_root is None:
            raise MiningError(
                "this service has no storage root; jobs cannot name a database"
            )
        from ..graphdb import open_source

        root = self.storage_root.resolve()
        path = (root / job.database_uri).resolve()
        if root != path and root not in path.parents:
            raise MiningError(
                f"database uri {job.database_uri!r} escapes the storage root"
            )
        return GraphDatabase(source=open_source(path))

    def _run_job_thread(self, job: MiningJob) -> None:
        """Mine one job (worker thread; all blocking I/O lives here)."""
        state, error = "done", None
        try:
            resume_from = None
            checkpoint_path = self._checkpoint_path(job.job_id)
            if checkpoint_path.exists():
                resume_from = open_checkpoint(checkpoint_path)
            session = MiningSession.from_request(
                self._resolve_database(job),
                job.request,
                sinks=(_JobSink(self, job),),
                resume_from=resume_from,
                cache=self.cache,
                budget=job.request.budget or self.default_budget,
            )
            job.session = session
            if job.job_id in self._cancel_requested:
                session.cancel()
            result = session.run()
            if self._killed:
                return
            envelope = MiningResultEnvelope.from_result(job.request, result)
            save_envelope(envelope, self._result_path(job.job_id))
            if job.request.use_cache:
                with self._cache_io_lock:
                    save_cache(self.cache, self.state_dir)
            if job.job_id in self._cancel_requested:
                state = "cancelled"
        except ReproError as exc:
            state, error = "failed", str(exc)
        except Exception as exc:  # pragma: no cover - defensive
            state, error = "failed", f"{type(exc).__name__}: {exc}"
        if self._killed:
            return
        self._post(self._finish_job, job, state, error)

    def _finish_job(
        self,
        job: MiningJob,
        state: str,
        error: Optional[str],
        release_slot: bool = True,
    ) -> None:
        job.state = state
        job.error = error
        self._persist_job(job)
        tenant = self.tenants.get(job.tenant)
        if state == "done":
            tenant.completed += 1
        elif state == "failed":
            tenant.failed += 1
        elif state == "cancelled":
            tenant.cancelled += 1
        if release_slot:
            self._slots += 1
        self._wake(job.job_id)
        self._kick_scheduler()

    # ------------------------------------------------------------------
    # Event watching
    # ------------------------------------------------------------------
    def _signal(self, job_id: str) -> asyncio.Event:
        signal = self._signals.get(job_id)
        if signal is None:
            signal = asyncio.Event()
            self._signals[job_id] = signal
        return signal

    def _wake(self, job_id: str) -> None:
        signal = self._signals.pop(job_id, None)
        if signal is not None:
            signal.set()

    def _publish_events(self, job: MiningJob, payloads: List[Dict[str, Any]]) -> None:
        job.events.extend(payloads)
        self._wake(job.job_id)

    async def _each_job_event(self, job: MiningJob, emit) -> None:
        """Drive ``emit(payload)`` for every event until the job ends."""
        index = 0
        while True:
            signal = self._signal(job.job_id)
            while index < len(job.events):
                await emit(job.events[index])
                index += 1
            if job.finished:
                return
            await signal.wait()

    # ------------------------------------------------------------------
    # HTTP plumbing
    # ------------------------------------------------------------------
    async def _handle_client(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            request_line = await reader.readline()
            parts = request_line.decode("ascii", "replace").split()
            if len(parts) < 2:
                return
            method, target = parts[0].upper(), parts[1]
            headers: Dict[str, str] = {}
            while True:
                line = await reader.readline()
                if line in (b"\r\n", b"\n", b""):
                    break
                name, _, value = line.decode("latin-1").partition(":")
                headers[name.strip().lower()] = value.strip()
            body = b""
            length = int(headers.get("content-length", "0") or "0")
            if length:
                body = await reader.readexactly(length)
            await self._dispatch(method, target, headers, body, writer)
        except (ConnectionError, asyncio.IncompleteReadError):
            pass
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, RuntimeError):
                pass

    @staticmethod
    async def _respond(
        writer: asyncio.StreamWriter,
        status: int,
        payload: Dict[str, Any],
        content_type: str = "application/json",
    ) -> None:
        body = (json.dumps(payload, sort_keys=True) + "\n").encode("utf-8")
        head = (
            f"{_PROTOCOL} {status} {_REASONS.get(status, 'Unknown')}\r\n"
            f"Content-Type: {content_type}\r\n"
            f"Content-Length: {len(body)}\r\n"
            "Connection: close\r\n\r\n"
        ).encode("ascii")
        writer.write(head + body)
        await writer.drain()

    @staticmethod
    async def _start_stream(
        writer: asyncio.StreamWriter, content_type: str
    ) -> None:
        head = (
            f"{_PROTOCOL} 200 OK\r\n"
            f"Content-Type: {content_type}\r\n"
            "Cache-Control: no-store\r\n"
            "Connection: close\r\n\r\n"
        ).encode("ascii")
        writer.write(head)
        await writer.drain()

    async def _dispatch(
        self,
        method: str,
        target: str,
        headers: Dict[str, str],
        body: bytes,
        writer: asyncio.StreamWriter,
    ) -> None:
        split = urlsplit(target)
        path = split.path.rstrip("/") or "/"
        query = {
            key: values[-1] for key, values in parse_qs(split.query).items()
        }
        parts = [part for part in path.split("/") if part]
        try:
            if parts == ["v1", "healthz"] and method == "GET":
                await self._respond(
                    writer, 200, {"status": "ok", "jobs": len(self._jobs)}
                )
            elif parts == ["v1", "stats"] and method == "GET":
                await self._respond(writer, 200, self.stats())
            elif parts == ["v1", "jobs"] and method == "POST":
                await self._handle_submit(headers, body, writer)
            elif parts == ["v1", "sweeps"] and method == "POST":
                await self._handle_sweep(headers, body, writer)
            elif parts == ["v1", "jobs"] and method == "GET":
                tenant = query.get("tenant")
                jobs = [
                    job.status()
                    for job in self._jobs.values()
                    if tenant is None or job.tenant == tenant
                ]
                await self._respond(writer, 200, {"jobs": jobs})
            elif len(parts) >= 3 and parts[:2] == ["v1", "jobs"]:
                await self._dispatch_job(method, parts[2:], query, writer)
            else:
                await self._respond(
                    writer, 404, {"error": f"no such endpoint: {method} {path}"}
                )
        except (MiningError, FormatError, ValueError) as exc:
            await self._respond(writer, 400, {"error": str(exc)})

    async def _dispatch_job(
        self,
        method: str,
        parts: List[str],
        query: Dict[str, str],
        writer: asyncio.StreamWriter,
    ) -> None:
        job = self._jobs.get(parts[0])
        if job is None:
            await self._respond(
                writer, 404, {"error": f"no such job: {parts[0]}"}
            )
            return
        rest = parts[1:]
        if not rest and method == "GET":
            await self._respond(writer, 200, job.status())
        elif rest == ["cancel"] and method == "POST":
            await self._handle_cancel(job, writer)
        elif rest == ["result"] and method == "GET":
            await self._handle_result(job, query, writer)
        elif rest == ["trace"] and method == "GET":
            await self._start_stream(writer, "application/x-ndjson")

            async def emit_jsonl(payload: Dict[str, Any]) -> None:
                writer.write((json.dumps(payload) + "\n").encode("utf-8"))
                await writer.drain()

            await self._each_job_event(job, emit_jsonl)
        elif rest == ["events"] and method == "GET":
            await self._start_stream(writer, "text/event-stream")

            async def emit_sse(payload: Dict[str, Any]) -> None:
                writer.write(
                    f"data: {json.dumps(payload)}\n\n".encode("utf-8")
                )
                await writer.drain()

            await self._each_job_event(job, emit_sse)
            writer.write(
                f"event: done\ndata: {json.dumps(job.status())}\n\n".encode("utf-8")
            )
            await writer.drain()
        else:
            await self._respond(
                writer,
                405,
                {"error": f"unsupported: {method} on job {'/'.join(rest)}"},
            )

    # ------------------------------------------------------------------
    # Endpoint bodies
    # ------------------------------------------------------------------
    def submit(
        self,
        request: MiningRequest,
        tenant: str = DEFAULT_TENANT,
        database_uri: Optional[str] = None,
    ) -> MiningJob:
        """Register and enqueue a job (loop thread; HTTP POST body)."""
        if self._stopping:
            raise MiningError("service is shutting down")
        if database_uri and self.storage_root is None:
            raise MiningError(
                "this service has no storage root; jobs cannot name a database"
            )
        self._seq += 1
        job = MiningJob(
            job_id=f"job-{self._seq:06d}",
            tenant=tenant,
            request=request,
            database_uri=database_uri or None,
        )
        self._jobs[job.job_id] = job
        self.tenants.get(tenant).submitted += 1
        self._persist_job(job)
        self._queue.push(tenant, job.job_id)
        self._kick_scheduler()
        return job

    async def _handle_submit(
        self, headers: Dict[str, str], body: bytes, writer: asyncio.StreamWriter
    ) -> None:
        tenant = headers.get("x-clan-tenant", DEFAULT_TENANT).strip() or DEFAULT_TENANT
        # The request body is the exact MiningRequest wire format, so
        # the storage URI rides a header rather than a payload key.
        database_uri = headers.get("x-clan-database", "").strip() or None
        request = MiningRequest.from_json(body.decode("utf-8"))
        job = self.submit(request, tenant, database_uri=database_uri)
        await self._respond(writer, 202, job.status())

    async def _handle_sweep(
        self, headers: Dict[str, str], body: bytes, writer: asyncio.StreamWriter
    ) -> None:
        """Fan one sweep out into a job per threshold.

        Body: ``{"min_sups": [...], "request": <mining-request dict>}``.
        The jobs share the service cache, so after the lowest threshold
        mines, the cache's per-root entries answer the rest (and any
        tenant's later repeats) without searching.
        """
        tenant = headers.get("x-clan-tenant", DEFAULT_TENANT).strip() or DEFAULT_TENANT
        payload = json.loads(body.decode("utf-8"))
        thresholds = payload.get("min_sups")
        if not isinstance(thresholds, list) or not thresholds:
            raise MiningError("sweep body requires a non-empty 'min_sups' list")
        template = MiningRequest.from_dict(payload["request"])
        jobs = [
            self.submit(
                dataclasses.replace(template, min_sup=min_sup), tenant
            )
            for min_sup in thresholds
        ]
        await self._respond(
            writer, 202, {"jobs": [job.status() for job in jobs]}
        )

    async def _handle_cancel(
        self, job: MiningJob, writer: asyncio.StreamWriter
    ) -> None:
        if job.finished:
            await self._respond(writer, 409, job.status())
            return
        if job.state == "queued" and self._queue.remove(job.tenant, job.job_id):
            self._finish_job(
                job, "cancelled", "cancelled while queued", release_slot=False
            )
        else:
            self._cancel_requested.add(job.job_id)
            if job.session is not None:
                job.session.cancel()
        await self._respond(writer, 202, job.status())

    async def _handle_result(
        self, job: MiningJob, query: Dict[str, str], writer: asyncio.StreamWriter
    ) -> None:
        if not job.finished and query.get("wait"):
            timeout = float(query.get("timeout", "300"))
            try:
                await asyncio.wait_for(self._wait_finished(job), timeout)
            except asyncio.TimeoutError:
                pass
        if not job.finished:
            await self._respond(
                writer, 404, {"error": f"job {job.job_id} is {job.state}"}
            )
            return
        result_path = self._result_path(job.job_id)
        if not result_path.exists():
            await self._respond(
                writer,
                404,
                {"error": f"job {job.job_id} is {job.state}: {job.error}"},
            )
            return
        envelope = open_envelope(result_path)
        payload = envelope.to_dict()
        payload["job"] = job.status()
        await self._respond(writer, 200, payload)

    async def _wait_finished(self, job: MiningJob) -> None:
        while not job.finished:
            await self._signal(job.job_id).wait()

    def stats(self) -> Dict[str, Any]:
        states: Dict[str, int] = {}
        for job in self._jobs.values():
            states[job.state] = states.get(job.state, 0) + 1
        return {
            "jobs": states,
            "queued": self._queue.depth_by_tenant(),
            "tenants": self.tenants.snapshot(),
            "max_concurrency": self.max_concurrency,
            "cache": {
                "entries": len(self.cache),
                "hits": self.cache.hits,
                "misses": self.cache.misses,
                "stores": self.cache.stores,
            },
        }
