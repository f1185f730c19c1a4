"""The serve tier's HTTP skeleton: one server, two roles.

:class:`HttpService` is the whole server every role shares — listener,
port file, ``serve_forever`` with SIGTERM/SIGINT drain, the threaded
harness behind :class:`ServiceHandle`, the connection loop with its one
error-to-status mapping, the shared route table, the bounded job table
and the uptime part of ``/healthz``.  Two roles subclass it and supply
only what differs — boot and teardown, the submit and admin handlers,
the body of the health report and their metrics text:

* :class:`~repro.serve.app.ServeApp` — a single worker shard (or the
  whole service when unsharded);
* :class:`~repro.serve.router.ShardRouter` — the consistent-hash front
  end of a sharded fleet, which additionally *originates* requests to
  its shards through :func:`proxy_request`.

The dialect is deliberately minimal — ``Connection: close`` per
request, explicit ``Content-Length``, no chunked encoding — because
every peer (the stdlib client, the router, curl) speaks it and the
serve tier's requests are small JSON bodies.
"""

from __future__ import annotations

import asyncio
import json
import os
import signal
import sys
import threading
import time
from collections import OrderedDict
from typing import Any, Dict, List, Mapping, NamedTuple, Optional, Tuple
from urllib.parse import parse_qs, urlsplit

from repro.resilience.faults import FaultPlan, active_plan, arm
from repro.serve.cache import ResultCache
from repro.serve.jobs import JobSpecError
from repro.serve.metrics import Metrics
from repro.serve.queue import Job, QueueFull

#: Reason phrases for every status the serve tier answers with.
REASONS = {
    200: "OK",
    202: "Accepted",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    408: "Request Timeout",
    409: "Conflict",
    413: "Payload Too Large",
    429: "Too Many Requests",
    500: "Internal Server Error",
    502: "Bad Gateway",
    503: "Service Unavailable",
    504: "Gateway Timeout",
}

#: Query-flag spellings accepted as true.
TRUE_VALUES = ("1", "on", "true", "yes")

#: How long :meth:`HttpService.start_in_thread` waits for boot (a router
#: waits on every shard's port; an app may replay a long journal).
STARTUP_TIMEOUT_S = 120.0
#: How long :meth:`ServiceHandle.stop` waits for the drained thread.
STOP_TIMEOUT_S = 60.0

#: ``(status, headers, payload)`` as :func:`write_response` sends it.
Response = Tuple[int, Dict[str, str], Any]


class Request(NamedTuple):
    """One parsed request."""

    method: str
    path: str
    query: Dict[str, str]
    body: bytes


class ProtocolError(Exception):
    """A request the HTTP layer could not parse."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status


def flag(query: Mapping[str, str], name: str) -> bool:
    """Whether query parameter ``name`` is a truthy flag."""
    return query.get(name, "").lower() in TRUE_VALUES


def json_body(body: bytes) -> Any:
    """Decode a JSON request body (empty means ``{}``); 400 otherwise."""
    try:
        return json.loads(body.decode("utf-8") or "{}")
    except (UnicodeDecodeError, json.JSONDecodeError) as error:
        raise ProtocolError(400, f"request body is not JSON: {error}")


async def read_headers(reader: asyncio.StreamReader) -> Dict[str, str]:
    """Read header lines up to the blank line; names are lower-cased.

    A line longer than the reader's limit raises ``ValueError`` (how
    ``StreamReader.readline`` reports the overrun).
    """
    headers: Dict[str, str] = {}
    while True:
        line = await reader.readline()
        if line in (b"\r\n", b"\n", b""):
            return headers
        name, _sep, value = line.decode("latin-1").partition(":")
        headers[name.strip().lower()] = value.strip()


async def read_request(
    reader: asyncio.StreamReader, max_body_bytes: int
) -> Optional[Request]:
    """Parse one request.

    Returns ``None`` when the peer closes before a whole request arrived
    (nothing to answer); raises :class:`ProtocolError` on malformed or
    oversized input.
    """
    try:
        request_line = await reader.readline()
        if not request_line.strip():
            return None
        parts = request_line.decode("latin-1").split()
        if len(parts) != 3:
            raise ProtocolError(400, "malformed request line")
        headers = await read_headers(reader)
    except ConnectionError:
        return None
    except ValueError:
        raise ProtocolError(400, "request line or header too long")
    method, target, _version = parts
    length = headers.get("content-length", "0") or "0"
    if not (length.isascii() and length.isdigit()):
        raise ProtocolError(400, f"invalid Content-Length {length!r}")
    if int(length) > max_body_bytes:
        raise ProtocolError(413, "request body too large")
    try:
        body = await reader.readexactly(int(length))
    except (asyncio.IncompleteReadError, ConnectionError):
        return None
    split = urlsplit(target)
    query = {
        key: values[-1] for key, values in parse_qs(split.query).items()
    }
    return Request(method.upper(), split.path, query, body)


async def write_response(
    writer: asyncio.StreamWriter,
    status: int,
    headers: Dict[str, str],
    payload: Any,
) -> None:
    """Serialise and send one response; swallows client disconnects.

    ``payload`` is JSON-encoded unless it is a string marked raw
    (``X-Raw-Body`` header, consumed here) or typed ``text/*`` — the
    raw path is what keeps cached result bytes byte-identical on the
    wire.
    """
    headers = dict(headers)
    if isinstance(payload, str) and (
        headers.pop("X-Raw-Body", None)
        or headers.get("Content-Type", "").startswith("text/")
    ):
        body = payload.encode("utf-8")
        content_type = headers.pop("Content-Type", "text/plain; charset=utf-8")
    elif isinstance(payload, bytes):
        body = payload
        content_type = headers.pop("Content-Type", "application/json")
    else:
        body = (json.dumps(payload, sort_keys=True) + "\n").encode("utf-8")
        content_type = "application/json"
    reason = REASONS.get(status, "Unknown")
    lines = [
        f"HTTP/1.1 {status} {reason}",
        f"Content-Type: {content_type}",
        f"Content-Length: {len(body)}",
        "Connection: close",
    ]
    for name, value in headers.items():
        lines.append(f"{name}: {value}")
    head = ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1")
    try:
        writer.write(head + body)
        await writer.drain()
    except (ConnectionError, BrokenPipeError):  # pragma: no cover
        pass


async def close_stream(writer: asyncio.StreamWriter) -> None:
    """Close a connection, ignoring a peer that already went away."""
    writer.close()
    try:
        await writer.wait_closed()
    except (ConnectionError, BrokenPipeError):  # pragma: no cover
        pass


async def proxy_request(
    host: str,
    port: int,
    method: str,
    target: str,
    body: bytes = b"",
    timeout_s: float = 120.0,
) -> Tuple[int, Dict[str, str], bytes]:
    """Send one request to a peer and read the full response.

    The router's forwarding path: opens a fresh connection (the serve
    dialect is one request per connection), writes the request verbatim,
    reads status line + headers + ``Content-Length`` body.  Raises
    ``OSError``/``asyncio.TimeoutError`` on transport failure — callers
    translate those into failover or 502/504.
    """

    async def _roundtrip() -> Tuple[int, Dict[str, str], bytes]:
        reader, writer = await asyncio.open_connection(host, port)
        try:
            lines = [
                f"{method} {target} HTTP/1.1",
                f"Host: {host}:{port}",
                f"Content-Length: {len(body)}",
                "Connection: close",
            ]
            writer.write(("\r\n".join(lines) + "\r\n\r\n").encode("latin-1"))
            if body:
                writer.write(body)
            await writer.drain()

            status_line = await reader.readline()
            parts = status_line.decode("latin-1").split(None, 2)
            if len(parts) < 2 or not parts[1].isdigit():
                raise ConnectionError(
                    f"malformed status line from {host}:{port}: {status_line!r}"
                )
            status = int(parts[1])
            response_headers = await read_headers(reader)
            length = response_headers.get("content-length")
            if length is not None:
                payload = await reader.readexactly(int(length))
            else:  # pragma: no cover - peers always send Content-Length
                payload = await reader.read()
            return status, response_headers, payload
        finally:
            await close_stream(writer)

    return await asyncio.wait_for(_roundtrip(), timeout=timeout_s)


class HttpService:
    """The server skeleton both serve roles share.

    A role names its config dataclass in :attr:`config_class` (which
    must carry ``host``, ``port``, ``port_file``, ``max_body_bytes``,
    ``cache_entries``, ``job_history``, ``faults`` and ``fault_seed``),
    implements :meth:`_handle_submit`, and overrides whichever of the
    other role hooks below it needs.
    """

    config_class: Any = None

    def __init__(self, config: Any = None, **overrides) -> None:
        if config is None:
            config = self.config_class(**overrides)
        elif overrides:
            raise ValueError(
                f"pass either a {self.config_class.__name__} or keyword overrides"
            )
        self.config = config
        self.metrics = Metrics()
        #: Results by content address (the app's L1, the router's L2).
        self.cache = ResultCache(config.cache_entries, metrics=self.metrics)
        #: Jobs this process answers ``GET /v1/jobs/<id>`` for, oldest
        #: first, bounded by ``config.job_history``.
        self.jobs: "OrderedDict[str, Job]" = OrderedDict()
        self.fault_plan: Optional[FaultPlan] = None
        if config.faults:
            self.fault_plan = FaultPlan.parse(config.faults, seed=config.fault_seed)
        self.draining = False
        self.started_monotonic: Optional[float] = None
        self._server: Optional[asyncio.base_events.Server] = None
        self._stop_event: Optional[asyncio.Event] = None
        self._thread_loop: Optional[asyncio.AbstractEventLoop] = None
        self._drain_on_stop = True
        self._announce = sys.stderr
        self.metrics.describe("http_requests", "HTTP requests, by method/route/status.")
        self.metrics.gauge("draining", lambda: 1 if self.draining else 0)
        self.metrics.gauge("cache_entries", lambda: len(self.cache))

    # ------------------------------------------------------------------
    # role hooks
    # ------------------------------------------------------------------
    async def _boot(self) -> None:
        """Role start-up, before the listener binds."""

    async def _teardown(self, drain: bool) -> None:
        """Role shutdown, while the listener still answers (503s)."""

    async def _handle_submit(
        self, algorithm: str, request: Request, parsed: Any
    ) -> Response:
        """Answer a submission; ``parsed`` is its decoded JSON body."""
        raise NotImplementedError

    async def _route_admin(self, request: Request) -> Tuple[str, Response]:
        """The role's admin routes; anything else is a 404."""
        message = f"no route for {request.method} {request.path}"
        return "-", (404, {}, {"error": message})

    async def _find_job(
        self, request: Request, job_id: str, sub: str
    ) -> Optional[Response]:
        """Answer for a job this process does not hold, or ``None``."""
        return None

    def _describe_job(self, job: Job) -> Dict[str, Any]:
        """The ``job`` field of a response about a job held here."""
        return job.describe()

    def _health_report(self) -> Dict[str, Any]:
        """Role fields of ``/healthz`` beside ``status`` and uptime."""
        return {}

    def _own_metrics(self) -> str:
        """This process's exposition (also the final drain snapshot)."""
        return self.metrics.render()

    async def _exposition(self) -> str:
        """The ``GET /metrics`` body."""
        return self._own_metrics()

    def _ready_lines(self) -> List[str]:
        """What ``serve_forever`` announces once the listener is up."""
        return [f"serving on {self.url}"]

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> None:
        """Arm faults, boot the role, bind the listener, write the port file."""
        if self.fault_plan is not None:
            arm(self.fault_plan)
        await self._boot()
        self._server = await asyncio.start_server(
            self._handle_connection, self.config.host, self.config.port
        )
        self.started_monotonic = time.monotonic()
        if self.config.port_file:
            self._write_port_file(self.config.port_file)

    def _write_port_file(self, path: str) -> None:
        """Atomic temp-file + rename, so a reader never sees half a port."""
        directory = os.path.dirname(path)
        if directory:
            os.makedirs(directory, exist_ok=True)
        temp_path = f"{path}.tmp"
        with open(temp_path, "w", encoding="utf-8") as handle:
            handle.write(f"{self.port}\n")
        os.replace(temp_path, path)

    @property
    def port(self) -> int:
        """The bound port (resolves ``port=0`` to the ephemeral choice)."""
        if self._server is None:
            return self.config.port
        return self._server.sockets[0].getsockname()[1]

    @property
    def url(self) -> str:
        return f"http://{self.config.host}:{self.port}"

    async def shutdown(self, drain: bool = True) -> None:
        """Stop serving; with ``drain``, finish all accepted work first."""
        self.draining = True
        await self._teardown(drain)
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        if self.fault_plan is not None and active_plan() is self.fault_plan:
            arm(None)
        if self._announce is not None:
            # The final snapshot an operator sees after SIGTERM.
            print(self._own_metrics(), file=self._announce, end="")
            print("drained and stopped", file=self._announce, flush=True)

    def serve_forever(
        self, announce=sys.stderr, install_signals: bool = True
    ) -> int:
        """Blocking entry point of ``repro-hls serve``.

        SIGTERM/SIGINT trigger a graceful drain: stop admitting (503),
        finish in-flight work, flush metrics, exit 0.
        """
        self._announce = announce
        return asyncio.run(self._serve_forever(install_signals))

    async def _serve_forever(self, install_signals: bool) -> int:
        self._stop_event = asyncio.Event()
        await self.start()
        if install_signals:
            loop = asyncio.get_running_loop()
            for signum in (signal.SIGTERM, signal.SIGINT):
                try:
                    loop.add_signal_handler(signum, self.request_stop)
                except (NotImplementedError, RuntimeError):  # pragma: no cover
                    pass  # non-Unix platform or nested loop
        if self._announce is not None:
            for line in self._ready_lines():
                print(line, file=self._announce, flush=True)
        await self._stop_event.wait()
        await self.shutdown(drain=self._drain_on_stop)
        return 0

    def request_stop(self, drain: bool = True) -> None:
        """Ask the serving loop to drain and exit (signal-handler safe)."""
        self.draining = True
        self._drain_on_stop = drain
        if self._stop_event is not None:
            self._stop_event.set()

    # -- threaded harness (tests, docs, benchmarks) --------------------
    def start_in_thread(self) -> "ServiceHandle":
        """Run this service on a dedicated event-loop thread.

        The embedded-server harness used by the test suite, the runnable
        documentation examples and the benchmarks.  Raises
        ``RuntimeError`` when boot fails or outlasts
        :data:`STARTUP_TIMEOUT_S`; a boot that finishes late then stops
        by itself instead of serving with no handle.
        """
        ready = threading.Event()
        failure: Dict[str, BaseException] = {}

        def _runner() -> None:
            try:
                asyncio.run(self._thread_main(ready))
            except BaseException as error:  # pragma: no cover - startup bugs
                failure["error"] = error
                ready.set()

        name = type(self).__name__
        thread = threading.Thread(target=_runner, name=name, daemon=True)
        thread.start()
        if not ready.wait(timeout=STARTUP_TIMEOUT_S):
            ServiceHandle(self, thread).stop(drain=False, timeout=0)
            raise RuntimeError(f"{name} did not start within {STARTUP_TIMEOUT_S:g}s")
        if "error" in failure:
            raise RuntimeError(f"{name} failed to start") from failure["error"]
        return ServiceHandle(self, thread)

    async def _thread_main(self, ready: threading.Event) -> None:
        self._announce = None
        self._stop_event = asyncio.Event()
        self._thread_loop = asyncio.get_running_loop()
        await self.start()
        ready.set()
        await self._stop_event.wait()
        await self.shutdown(drain=self._drain_on_stop)

    # ------------------------------------------------------------------
    # HTTP layer
    # ------------------------------------------------------------------
    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        method = route = "-"
        status = 500
        try:
            try:
                request = await read_request(reader, self.config.max_body_bytes)
                if request is None:
                    return
                method = request.method
                route, (status, headers, payload) = await self._route(request)
            except ProtocolError as error:
                status, headers, payload = error.status, {}, {"error": str(error)}
            except JobSpecError as error:
                status, headers, payload = 400, {}, {"error": str(error)}
            except QueueFull as error:
                status = 429
                headers = {"Retry-After": f"{error.retry_after:g}"}
                payload = {
                    "error": "queue full",
                    "queue_depth": error.depth,
                    "queue_size": error.maxsize,
                    "retry_after": error.retry_after,
                }
            except Exception as error:  # pragma: no cover - defensive
                status, headers, payload = (
                    500,
                    {},
                    {"error": f"{type(error).__name__}: {error}"},
                )
            await write_response(writer, status, headers, payload)
        finally:
            self.metrics.incr(
                "http_requests", method=method, route=route, status=str(status)
            )
            await close_stream(writer)

    async def _route(self, request: Request) -> Tuple[str, Response]:
        method, path = request.method, request.path
        if path in ("/v1/schedule", "/v1/synth"):
            if method != "POST":
                return path, (405, {}, {"error": "POST required"})
            if self.draining:
                return path, (503, {}, {"error": "draining; not accepting new work"})
            algorithm = "mfs" if path == "/v1/schedule" else "mfsa"
            parsed = json_body(request.body)
            return path, await self._handle_submit(algorithm, request, parsed)
        if path.startswith("/v1/jobs/"):
            if method != "GET":
                return "/v1/jobs", (405, {}, {"error": "GET required"})
            job_id, _sep, sub = path[len("/v1/jobs/"):].partition("/")
            response = self._local_job(job_id, sub)
            if response is None:
                response = await self._find_job(request, job_id, sub)
            if response is None:
                response = 404, {}, {"error": f"unknown job {job_id!r}"}
            return "/v1/jobs", response
        if path == "/healthz":
            return path, (200, {}, self._health())
        if path == "/metrics":
            return path, (
                200,
                {"Content-Type": "text/plain; version=0.0.4; charset=utf-8"},
                await self._exposition(),
            )
        return await self._route_admin(request)

    def _remember(self, job: Job) -> None:
        """Add ``job`` to the bounded job table, evicting the oldest."""
        self.jobs[job.id] = job
        while len(self.jobs) > self.config.job_history:
            self.jobs.popitem(last=False)

    def _local_job(self, job_id: str, sub: str) -> Optional[Response]:
        """``GET /v1/jobs/<id>[/result]`` from the job table, if held."""
        job = self.jobs.get(job_id)
        if job is None:
            return None
        text = job.response_text
        if sub == "result":
            if text is None:
                return 404, {}, {"error": f"job {job_id} has no result yet"}
            # Raw stored bytes: cold and cached responses are comparable
            # byte for byte on this endpoint.
            return 200, {"X-Raw-Body": "1"}, text
        if sub:
            return 404, {}, {"error": f"unknown job subresource {sub!r}"}
        response: Dict[str, Any] = {"job": self._describe_job(job)}
        if text is not None:
            response["result"] = json.loads(text)
        return 200, {}, response

    def _health(self) -> Dict[str, Any]:
        uptime = (
            time.monotonic() - self.started_monotonic
            if self.started_monotonic is not None
            else 0.0
        )
        report = {
            "status": "draining" if self.draining else "ok",
            "cache_entries": len(self.cache),
            "uptime_seconds": round(uptime, 3),
        }
        report.update(self._health_report())
        return report


class ServiceHandle:
    """Control handle for a :meth:`HttpService.start_in_thread` instance."""

    def __init__(self, service: HttpService, thread: threading.Thread) -> None:
        self.service = service
        self._thread = thread

    @property
    def url(self) -> str:
        return self.service.url

    @property
    def port(self) -> int:
        return self.service.port

    def stop(self, drain: bool = True, timeout: float = STOP_TIMEOUT_S) -> None:
        """Drain (optionally) and stop the service thread."""
        loop = self.service._thread_loop
        if loop is not None and self._thread.is_alive():
            loop.call_soon_threadsafe(self.service.request_stop, drain)
        self._thread.join(timeout=timeout)

    def __enter__(self) -> "ServiceHandle":
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()
