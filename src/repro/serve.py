"""Analysis as a service: a long-lived RunSpec execution daemon.

``repro serve`` turns the spec engine into a shared resource.  Clients
POST :class:`~repro.spec.RunSpec` JSON to a versioned HTTP/1.1 wire API
and the daemon executes each distinct spec exactly once -- identical
submissions, whether in flight or already completed, dedupe by
``spec.digest()`` and share one result.  All runs execute through a
single long-lived :class:`~repro.api.EngineSession`: one warm result
cache, one crash-safe journal, one pool of warm worker processes.

The server is dependency-free: the HTTP layer is a small hand-rolled
parser over :mod:`asyncio` streams (stdlib only), good for the subset
of HTTP/1.1 the wire API needs.

Wire API (all under ``/v1``; see ``docs/serving.md``):

``POST /v1/runs``
    Body is RunSpec JSON.  201 + ``{"id", "status"}`` on first
    submission; 200 + the existing id when the spec dedupes onto an
    in-flight or completed run; 400 with an ``error/v1`` body on a
    malformed spec; 429 with ``admission.*`` codes when the client hit
    its in-flight limit or the global queue is full.
``GET /v1/runs/{id}``
    Status document; once finished it embeds the run's untouched
    ``result/v1`` envelope under ``"result"``.
``GET /v1/runs/{id}/events``
    ND-JSON stream of ``event/v1`` documents: the run's history so far
    replayed, then live events until the terminal ``done``/``failed``.
``GET /v1/healthz`` / ``GET /v1/metrics``
    Liveness and the server's own metrics registry (queue depth, dedup
    hits, per-client counters).

Scheduling is FIFO per client with round-robin across clients, so one
chatty client cannot starve the rest.  Specs execute one at a time on
a dedicated executor thread (the engine's span tracer is
process-global; metrics are scoped per run); intra-run parallelism
comes from the session's worker pool.  SIGTERM drains: admission closes, accepted runs finish,
the journal and pool shut down cleanly, and the process exits 0 --
resubmitting after a restart dedupes onto the journaled results.
"""

from __future__ import annotations

import argparse
import asyncio
import functools
import json
import signal
import sys
import threading
import uuid
from collections import OrderedDict, deque
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Awaitable, Dict, List, Optional, Set, Tuple

from repro.api import EngineSession, run_spec
from repro.errors import AdmissionError, ReproError, RequestError, RequestTimeout
from repro.obs.metrics import Metrics
from repro.spec import EngineOptions, RunSpec

#: Schema tag of the server's ND-JSON progress events.
EVENT_SCHEMA = "event/v1"

#: Default journal the serve engine checkpoints into (resume=True, so
#: a restarted server replays completed experiments instead of
#: re-simulating them).
DEFAULT_SERVE_JOURNAL = "serve_journal.jsonl"

#: Fallback client identity when a request carries no X-Repro-Client
#: header and the peer address is unavailable.
ANONYMOUS_CLIENT = "anonymous"

_MAX_BODY_BYTES = 8 * 1024 * 1024
_MAX_HEADER_BYTES = 64 * 1024

#: Seconds a connection has to deliver its whole request, head and body.
_READ_TIMEOUT = 30.0


async def _within(read: Awaitable[bytes], deadline: float, what: str) -> bytes:
    """Await one read of a request; past ``deadline`` (loop time) it is
    a :class:`RequestTimeout` naming ``what``.
    """
    remaining = deadline - asyncio.get_running_loop().time()
    try:
        return await asyncio.wait_for(read, remaining)
    except asyncio.TimeoutError:
        raise RequestTimeout(
            f"no complete {what} within {_READ_TIMEOUT:g}s"
        ) from None


async def _head_line(
    reader: asyncio.StreamReader, what: str, deadline: float
) -> bytes:
    """One line of a request head; a line past the reader's limit is a
    :class:`RequestError` naming ``what``.
    """
    async def line() -> bytes:
        try:
            return await reader.readline()
        except ValueError:
            # readline() turns LimitOverrunError into ValueError.
            raise RequestError(
                f"{what} exceeds {_MAX_HEADER_BYTES} bytes"
            ) from None

    return await _within(line(), deadline, what)


class RunState:
    """One deduped run: its spec, lifecycle, events, and final envelope."""

    __slots__ = (
        "id",
        "spec",
        "client",
        "status",
        "events",
        "result",
        "error",
        "changed",
    )

    def __init__(self, run_id: str, spec: RunSpec, client: str) -> None:
        self.id = run_id
        self.spec = spec
        self.client = client
        #: queued -> running -> done | failed
        self.status = "queued"
        self.events: List[Dict[str, Any]] = []
        self.result: Optional[Dict[str, Any]] = None
        self.error: Optional[Dict[str, Any]] = None
        self.changed: "asyncio.Event" = asyncio.Event()

    @property
    def finished(self) -> bool:
        return self.status in ("done", "failed")

    def add_event(self, kind: str, **fields: Any) -> Dict[str, Any]:
        event = {
            "schema": EVENT_SCHEMA,
            "run": self.id,
            "seq": len(self.events),
            "type": kind,
        }
        event.update(fields)
        self.events.append(event)
        self.changed.set()
        self.changed = asyncio.Event()
        return event

    def status_doc(self, served_by: Optional[str]) -> Dict[str, Any]:
        doc: Dict[str, Any] = {
            "id": self.id,
            "status": self.status,
            "served_by": served_by,
            "events": len(self.events),
            "result": self.result,
        }
        if self.error is not None:
            doc["error"] = self.error
        return doc


class AnalysisServer:
    """The asyncio daemon behind ``repro serve``.

    Args:
        options: Engine options every served run executes under; the
            *submitted* spec's engine section is deliberately ignored
            (clients describe what to compute, the operator decides
            how).  Resolved once into one shared
            :class:`~repro.api.EngineSession`.
        host/port: Bind address; port 0 picks a free port (see
            :attr:`port` after :meth:`start`).
        instance_id: The ``served_by`` stamp for manifests and status
            documents (default: a fresh ``serve-<hex>`` id).
        max_inflight: Per-client ceiling on unfinished (queued or
            running) runs; exceeding it is a 429 ``admission.client``.
        max_queue: Global ceiling on queued runs; exceeding it is a
            429 ``admission.queue``.
        autostart: Start the executor worker with the server.  Tests
            pass False to fill queues deterministically and then call
            :meth:`start_worker`.
        drain_grace: Seconds the drained server keeps answering
            requests before closing, so clients polling an
            accepted run can still collect its final status (their
            poll interval is well under the default 2s).
    """

    def __init__(
        self,
        options: Optional[EngineOptions] = None,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        instance_id: Optional[str] = None,
        max_inflight: int = 4,
        max_queue: int = 32,
        autostart: bool = True,
        drain_grace: float = 2.0,
    ) -> None:
        self.options = options if options is not None else EngineOptions()
        self.host = host
        self.port = port
        self.instance_id = (
            instance_id
            if instance_id is not None
            else f"serve-{uuid.uuid4().hex[:12]}"
        )
        self.max_inflight = int(max_inflight)
        self.max_queue = int(max_queue)
        self.autostart = autostart
        self.drain_grace = float(drain_grace)

        self.metrics = Metrics()
        self.session: Optional[EngineSession] = None
        self._runs: Dict[str, RunState] = {}
        # client -> FIFO of queued RunStates; OrderedDict doubles as the
        # round-robin rotation (move_to_end after each grant).
        self._queues: "OrderedDict[str, deque]" = OrderedDict()
        self._queued = 0
        self._work = asyncio.Event()
        self._draining = False
        self._server: Optional[asyncio.AbstractServer] = None
        self._worker_task: Optional[asyncio.Task] = None
        self._handlers: Set[asyncio.Task] = set()
        self._executor: Optional[ThreadPoolExecutor] = None
        self._drained = asyncio.Event()

    # -- lifecycle ----------------------------------------------------------

    async def start(self) -> None:
        """Bind the socket, resolve the engine, start serving."""
        self.session = EngineSession.resolve(
            self.options, served_by=self.instance_id
        )
        # One thread: the engine's span TRACER is process-global, so
        # specs must not execute concurrently.  (Metrics are not: each
        # run counts into a registry of its own.)
        self._executor = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="repro-serve"
        )
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port,
            limit=_MAX_HEADER_BYTES,
        )
        self.port = self._server.sockets[0].getsockname()[1]
        if self.autostart:
            self.start_worker()

    def start_worker(self) -> None:
        """Start the executor worker (idempotent; loop must be running)."""
        if self._worker_task is None:
            self._worker_task = asyncio.get_running_loop().create_task(
                self._worker()
            )

    def drain(self) -> None:
        """Stop admitting runs; the worker exits once queues are empty."""
        self._draining = True
        self._work.set()
        if self._worker_task is None:
            self._drained.set()

    async def stop(self) -> None:
        """Drain, wait for accepted work, and release every resource."""
        self.drain()
        await self._drained.wait()
        if self._worker_task is not None:
            await self._worker_task
        if self.drain_grace > 0:
            # Accepted runs just finished; their submitters are still
            # polling.  Linger so the final status GET lands.
            await asyncio.sleep(self.drain_grace)
        if self._server is not None:
            self._server.close()
        # A connection still open (an idle or stalled client) would
        # leave its handler pending on a closed loop, and on Python
        # 3.12+ keep wait_closed() waiting for it.
        handlers = list(self._handlers)
        for handler in handlers:
            handler.cancel()
        await asyncio.gather(*handlers, return_exceptions=True)
        if self._server is not None:
            await self._server.wait_closed()
        if self._executor is not None:
            self._executor.shutdown(wait=True)
        if self.session is not None:
            self.session.close()

    async def serve_until_signalled(self) -> None:
        """Run until SIGTERM/SIGINT, then drain and stop (exit 0 path)."""
        loop = asyncio.get_running_loop()
        stop_requested = asyncio.Event()
        for signum in (signal.SIGTERM, signal.SIGINT):
            try:
                loop.add_signal_handler(signum, stop_requested.set)
            except (NotImplementedError, RuntimeError):
                pass
        await self.start()
        print(
            f"repro serve: {self.instance_id} listening on "
            f"http://{self.host}:{self.port} "
            f"(jobs={self.session.jobs}, cache="
            f"{self.session.cache.root if self.session.cache else 'off'}, "
            f"journal={self.session.journal.path if self.session.journal else 'off'})",
            flush=True,
        )
        await stop_requested.wait()
        print("repro serve: draining...", flush=True)
        await self.stop()
        print("repro serve: drained, bye", flush=True)

    # -- admission & scheduling ---------------------------------------------

    def _inflight(self, client: str) -> int:
        return sum(
            1
            for state in self._runs.values()
            if state.client == client and not state.finished
        )

    def submit(self, spec: RunSpec, client: str) -> Tuple[RunState, bool]:
        """Admit one spec for a client.

        Returns ``(state, created)`` -- ``created`` False means the
        spec deduped onto an existing (in-flight or completed) run.

        Raises:
            AdmissionError: Draining, client over its in-flight limit,
                or global queue full.
        """
        run_id = spec.digest()
        existing = self._runs.get(run_id)
        if existing is not None:
            self.metrics.inc("serve.dedup_hits")
            self.metrics.inc(f"serve.client.{client}.dedup_hits")
            return existing, False
        if self._draining:
            raise AdmissionError(
                "server is draining; resubmit after restart",
                code="admission.draining",
            )
        if self._inflight(client) >= self.max_inflight:
            raise AdmissionError(
                f"client {client!r} has {self.max_inflight} runs in "
                "flight; wait for one to finish",
                code="admission.client",
                retry_after=1,
            )
        if self._queued >= self.max_queue:
            raise AdmissionError(
                f"queue full ({self.max_queue} runs waiting)",
                code="admission.queue",
                retry_after=5,
            )
        state = RunState(run_id, spec, client)
        self._runs[run_id] = state
        self._queues.setdefault(client, deque()).append(state)
        self._queued += 1
        self.metrics.inc("serve.submitted")
        self.metrics.inc(f"serve.client.{client}.submitted")
        self.metrics.gauge("serve.queue_depth", self._queued)
        state.add_event("queued", client=client)
        self._work.set()
        return state, True

    def _next_state(self) -> Optional[RunState]:
        """Round-robin over clients, FIFO within each client's queue."""
        for client in list(self._queues):
            queue = self._queues[client]
            if queue:
                state = queue.popleft()
                self._queues.move_to_end(client)
                if not queue:
                    del self._queues[client]
                self._queued -= 1
                self.metrics.gauge("serve.queue_depth", self._queued)
                return state
        return None

    async def _worker(self) -> None:
        loop = asyncio.get_running_loop()
        while True:
            state = self._next_state()
            if state is None:
                if self._draining:
                    break
                self._work.clear()
                await self._work.wait()
                continue
            state.status = "running"
            self.metrics.gauge("serve.running", 1)
            state.add_event("started", served_by=self.instance_id)

            def _log(message: str, _state: "RunState" = state) -> None:
                # Called from the executor thread; hop back onto the
                # loop before touching the event list.
                loop.call_soon_threadsafe(
                    functools.partial(
                        _state.add_event, "log", message=message
                    )
                )

            try:
                run = await loop.run_in_executor(
                    self._executor,
                    lambda: run_spec(
                        state.spec,
                        engine=self.session,
                        echo=lambda message: _log(message),
                    ),
                )
            except ReproError as error:
                state.error = error.to_dict()
                state.status = "failed"
                self.metrics.inc("serve.failed")
                state.add_event("failed", error=state.error)
            except Exception as error:  # engine bug: fail the run, not the server
                state.error = {
                    "schema": "error/v1",
                    "error": "engine.failed",
                    "message": f"{type(error).__name__}: {error}",
                }
                state.status = "failed"
                self.metrics.inc("serve.failed")
                state.add_event("failed", error=state.error)
            else:
                state.result = run.to_dict()
                state.status = "done" if run.ok else "failed"
                self.metrics.inc(
                    "serve.completed" if run.ok else "serve.failed"
                )
                manifest = state.result.get("manifest") or {}
                state.add_event(
                    "manifest",
                    manifest={
                        "spec_digest": manifest.get("spec_digest"),
                        "config_digest": manifest.get("config_digest"),
                        "served_by": manifest.get("served_by"),
                        "experiments": [
                            {
                                "id": entry.get("id"),
                                "result_digest": entry.get("result_digest"),
                            }
                            for entry in manifest.get("experiments", [])
                        ],
                    },
                )
                state.add_event(
                    "metrics",
                    metrics=state.result.get("metrics", {}).get(
                        "counters", {}
                    ),
                )
                state.add_event("done", ok=run.ok)
            self.metrics.gauge("serve.running", 0)
        self._drained.set()

    # -- HTTP layer ---------------------------------------------------------

    async def _handle_connection(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> None:
        handler = asyncio.current_task()
        self._handlers.add(handler)
        try:
            try:
                request = await self._read_request(reader)
            except RequestError as error:
                self.metrics.inc("serve.rejected")
                await self._send_json(writer, error.http_status, error.to_dict())
                return
            if request is None:
                return
            method, path, headers, body = request
            self.metrics.inc("serve.requests")
            client = headers.get("x-repro-client")
            if not client:
                peer = writer.get_extra_info("peername")
                client = peer[0] if peer else ANONYMOUS_CLIENT
            await self._route(method, path, headers, body, client, writer)
        except (ConnectionError, asyncio.IncompleteReadError):
            pass
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass
            self._handlers.discard(handler)

    async def _read_request(
        self, reader: asyncio.StreamReader
    ) -> Optional[Tuple[str, str, Dict[str, str], bytes]]:
        deadline = asyncio.get_running_loop().time() + _READ_TIMEOUT
        try:
            request_line = await _head_line(reader, "request line", deadline)
        except ConnectionError:
            return None
        if not request_line:
            return None
        text = request_line.decode("latin-1").strip()
        parts = text.split()
        if len(parts) != 3:
            raise RequestError(
                f"request line {text[:80]!r} is not 'METHOD PATH VERSION'"
            )
        method, path, _version = parts
        headers: Dict[str, str] = {}
        total = 0
        while True:
            line = await _head_line(reader, "header line", deadline)
            total += len(line)
            if total > _MAX_HEADER_BYTES:
                raise RequestError(
                    f"request headers exceed {_MAX_HEADER_BYTES} bytes"
                )
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        raw = headers.get("content-length", "0") or "0"
        if not (raw.isascii() and raw.isdigit()):
            raise RequestError(
                f"Content-Length: {raw!r} is not a non-negative integer"
            )
        # Strip leading zeros before int(): past 4,300 digits it raises.
        digits = raw.lstrip("0") or "0"
        if len(digits) > len(str(_MAX_BODY_BYTES)) or int(digits) > _MAX_BODY_BYTES:
            raise RequestError(
                f"Content-Length: {raw[:20]} exceeds {_MAX_BODY_BYTES} bytes"
            )
        length = int(digits)
        body = (
            await _within(reader.readexactly(length), deadline, "request body")
            if length
            else b""
        )
        return method, path, headers, body

    async def _route(
        self,
        method: str,
        path: str,
        headers: Dict[str, str],
        body: bytes,
        client: str,
        writer: asyncio.StreamWriter,
    ) -> None:
        if method == "POST" and path == "/v1/runs":
            await self._post_run(body, client, writer)
        elif method == "GET" and path == "/v1/healthz":
            await self._send_json(
                writer,
                200,
                {
                    "ok": True,
                    "served_by": self.instance_id,
                    "draining": self._draining,
                },
            )
        elif method == "GET" and path == "/v1/metrics":
            snapshot = self.metrics.snapshot()
            snapshot["schema"] = "metrics/v1"
            snapshot["served_by"] = self.instance_id
            await self._send_json(writer, 200, snapshot)
        elif method == "GET" and path.startswith("/v1/runs/"):
            rest = path[len("/v1/runs/"):]
            if rest.endswith("/events"):
                await self._stream_events(rest[: -len("/events")].rstrip("/"), writer)
            else:
                await self._get_run(rest, writer)
        else:
            await self._send_json(
                writer,
                404,
                {
                    "schema": "error/v1",
                    "error": "http.not_found",
                    "message": f"no route for {method} {path}",
                },
            )

    async def _post_run(
        self, body: bytes, client: str, writer: asyncio.StreamWriter
    ) -> None:
        try:
            spec = RunSpec.from_json(body.decode("utf-8") or "null")
            state, created = self.submit(spec, client)
        except ReproError as error:
            self.metrics.inc("serve.rejected")
            await self._send_json(writer, error.http_status, error.to_dict())
            return
        except (ValueError, UnicodeDecodeError) as error:
            self.metrics.inc("serve.rejected")
            await self._send_json(
                writer,
                400,
                {
                    "schema": "error/v1",
                    "error": "spec.invalid",
                    "message": str(error),
                },
            )
            return
        await self._send_json(
            writer,
            201 if created else 200,
            {
                "id": state.id,
                "status": state.status,
                "deduped": not created,
                "served_by": self.instance_id,
            },
        )

    async def _get_run(
        self, run_id: str, writer: asyncio.StreamWriter
    ) -> None:
        state = self._runs.get(run_id)
        if state is None:
            await self._send_json(
                writer,
                404,
                {
                    "schema": "error/v1",
                    "error": "run.unknown",
                    "message": f"no run {run_id!r} on this server",
                },
            )
            return
        await self._send_json(writer, 200, state.status_doc(self.instance_id))

    async def _stream_events(
        self, run_id: str, writer: asyncio.StreamWriter
    ) -> None:
        state = self._runs.get(run_id)
        if state is None:
            await self._send_json(
                writer,
                404,
                {
                    "schema": "error/v1",
                    "error": "run.unknown",
                    "message": f"no run {run_id!r} on this server",
                },
            )
            return
        # Chunked, not read-until-EOF: forked pool workers inherit this
        # connection's fd, so the client would never see EOF while any
        # worker lives.  The terminating 0-chunk ends the stream at the
        # protocol level instead.
        writer.write(
            b"HTTP/1.1 200 OK\r\n"
            b"Content-Type: application/x-ndjson\r\n"
            b"Transfer-Encoding: chunked\r\n"
            b"Connection: close\r\n\r\n"
        )
        sent = 0
        while True:
            changed = state.changed
            while sent < len(state.events):
                line = json.dumps(
                    state.events[sent], sort_keys=True
                ).encode("utf-8") + b"\n"
                writer.write(
                    f"{len(line):x}\r\n".encode("latin-1") + line + b"\r\n"
                )
                sent += 1
            await writer.drain()
            if state.finished and sent >= len(state.events):
                break
            await changed.wait()
        writer.write(b"0\r\n\r\n")
        await writer.drain()

    async def _send_json(
        self,
        writer: asyncio.StreamWriter,
        status: int,
        payload: Dict[str, Any],
        extra_headers: Tuple[Tuple[str, str], ...] = (),
    ) -> None:
        reasons = {
            200: "OK",
            201: "Created",
            400: "Bad Request",
            404: "Not Found",
            408: "Request Timeout",
            429: "Too Many Requests",
            500: "Internal Server Error",
        }
        body = json.dumps(payload, sort_keys=True, indent=2).encode("utf-8")
        head = [
            f"HTTP/1.1 {status} {reasons.get(status, 'Unknown')}",
            "Content-Type: application/json",
            f"Content-Length: {len(body)}",
            "Connection: close",
        ]
        retry_after = payload.get("retry_after")
        if status == 429 and retry_after is not None:
            head.append(f"Retry-After: {retry_after}")
        for name, value in extra_headers:
            head.append(f"{name}: {value}")
        writer.write(
            ("\r\n".join(head) + "\r\n\r\n").encode("latin-1") + body
        )
        await writer.drain()


class ServerThread:
    """Run an :class:`AnalysisServer` on a background event loop.

    The in-process form the tests (and embedding applications) use:
    ``start()`` blocks until the socket is bound and returns the base
    URL; ``stop()`` drains and joins.
    """

    def __init__(self, server: AnalysisServer) -> None:
        self.server = server
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._thread = None

    def start(self, timeout: float = 30.0) -> str:
        started = threading.Event()
        failure: List[BaseException] = []

        def _run() -> None:
            loop = asyncio.new_event_loop()
            asyncio.set_event_loop(loop)
            self._loop = loop
            try:
                loop.run_until_complete(self.server.start())
            except BaseException as error:  # surface bind errors to start()
                failure.append(error)
                started.set()
                return
            started.set()
            loop.run_forever()
            loop.run_until_complete(self.server.stop())
            loop.close()

        self._thread = threading.Thread(
            target=_run, name="repro-serve-loop", daemon=True
        )
        self._thread.start()
        if not started.wait(timeout):
            raise RuntimeError("server did not start in time")
        if failure:
            raise failure[0]
        return self.url

    @property
    def url(self) -> str:
        return f"http://{self.server.host}:{self.server.port}"

    def call_soon(self, callback, *args) -> None:
        """Schedule a callback on the server loop (thread-safe)."""
        assert self._loop is not None
        self._loop.call_soon_threadsafe(callback, *args)

    def stop(self, timeout: float = 60.0) -> None:
        if self._loop is None:
            return
        self._loop.call_soon_threadsafe(self.server.drain)
        self._loop.call_soon_threadsafe(self._loop.stop)
        self._thread.join(timeout)


def main(argv: Optional[List[str]] = None) -> int:
    """``repro serve``: run the daemon until SIGTERM/SIGINT."""
    parser = argparse.ArgumentParser(
        prog="repro serve",
        description=(
            "Serve RunSpec execution over HTTP: POST specs to "
            "/v1/runs, poll /v1/runs/{id}, stream /v1/runs/{id}/events."
            "  Identical specs dedupe onto one execution; all runs "
            "share one warm cache, journal and worker pool."
        ),
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=8023)
    parser.add_argument(
        "--jobs", type=int, default=None,
        help="worker processes per run (default: REPRO_JOBS or CPUs)",
    )
    parser.add_argument(
        "--cache-dir", default=None,
        help="result cache root (default: REPRO_CACHE_DIR or .repro-cache)",
    )
    parser.add_argument(
        "--no-cache", action="store_true", help="disable the result cache"
    )
    parser.add_argument(
        "--journal", default=DEFAULT_SERVE_JOURNAL,
        help=(
            "crash-safe journal path (empty value to disable; default "
            f"{DEFAULT_SERVE_JOURNAL}, resumed on restart)"
        ),
    )
    parser.add_argument(
        "--instance-id", default=None,
        help="served_by stamp (default: a fresh serve-<hex> id)",
    )
    parser.add_argument(
        "--max-inflight", type=int, default=4,
        help="per-client unfinished-run ceiling (429 beyond it)",
    )
    parser.add_argument(
        "--max-queue", type=int, default=32,
        help="global queued-run ceiling (429 beyond it)",
    )
    parser.add_argument(
        "--drain-grace", type=float, default=2.0,
        help=(
            "seconds a drained server keeps answering polls before "
            "closing (default 2)"
        ),
    )
    args = parser.parse_args(argv)

    try:
        options = EngineOptions.from_env(
            jobs=args.jobs,
            cache=not args.no_cache,
            cache_dir=args.cache_dir,
            journal=args.journal or None,
            resume=bool(args.journal),
        )
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return error.exit_code
    server = AnalysisServer(
        options,
        host=args.host,
        port=args.port,
        instance_id=args.instance_id,
        max_inflight=args.max_inflight,
        max_queue=args.max_queue,
        drain_grace=args.drain_grace,
    )
    try:
        asyncio.run(server.serve_until_signalled())
    except OSError as error:
        print(f"error: cannot bind {args.host}:{args.port}: {error}",
              file=sys.stderr)
        return 1
    return 0


__all__ = [
    "ANONYMOUS_CLIENT",
    "AnalysisServer",
    "DEFAULT_SERVE_JOURNAL",
    "EVENT_SCHEMA",
    "RunState",
    "ServerThread",
    "main",
]


if __name__ == "__main__":
    sys.exit(main())
