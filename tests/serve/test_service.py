"""Service-level tests: HTTP API, concurrency, backpressure, determinism.

Each test boots a real :class:`~repro.serve.app.ServeApp` on an
ephemeral port (event loop on a daemon thread) and talks to it over
actual sockets through :class:`~repro.serve.client.Client`.  Slow-job
scenarios pin the executor to the serial backend and wrap
``execute_spec`` with a sleep, so timing is controlled without touching
process pools.  Behaviours of the shared HTTP skeleton (routing errors,
malformed requests, drain, ``/healthz``) are checked on both roles —
the app and a 1-shard :class:`~repro.serve.router.ShardRouter`.
"""

from __future__ import annotations

import asyncio
import http.client
import json
import socket
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager

import pytest

import repro.serve.batcher as batcher_module
import repro.serve.httpcore as httpcore
from repro.dfg.graph import DFG
from repro.dfg.parser import parse_behavior
from repro.io.jsonio import dfg_to_json
from repro.serve import Backpressure, Client, ServeApp, ServiceError
from repro.serve.jobs import execute_spec
from tests.serve.roles import ROLES, every_role, running

SRC = """input a b c d
t1 = a + b
t2 = t1 * c
x = t2 - d
output x
"""

SRC2 = """input a b c
x = a + b * c
output x
"""

SRC3 = """input a b
s = a - b
x = s * 3
output x
"""


@contextmanager
def service(**config):
    config.setdefault("port", 0)
    config.setdefault("backend", "serial")
    app = ServeApp(**config)
    handle = app.start_in_thread()
    try:
        yield app, Client(handle.url)
    finally:
        handle.stop()


@pytest.fixture(scope="module")
def roles():
    """Both roles, shared by the read-only role-contract tests."""
    with every_role() as services:
        yield services


@contextmanager
def slow_execution(monkeypatch, delay_s):
    """Make every (serial-backend) execution take at least ``delay_s``."""

    def slow(spec):
        time.sleep(delay_s)
        return execute_spec(spec)

    monkeypatch.setattr(batcher_module, "execute_spec", slow)
    yield


def _wait_until(predicate, timeout=5.0, poll=0.01):
    deadline = time.monotonic() + timeout
    while not predicate():
        if time.monotonic() > deadline:
            raise AssertionError("condition not reached in time")
        time.sleep(poll)


class TestCacheAndDeterminism:
    def test_cold_then_cached_byte_identical(self):
        with service() as (app, client):
            first = client.schedule(source=SRC, cs=6, wait=True)
            second = client.schedule(source=SRC, cs=6, wait=True)
            assert first["job"]["cache"] == "miss"
            assert second["job"]["cache"] == "hit"
            raw_first = client.result_text(first["job"]["id"])
            raw_second = client.result_text(second["job"]["id"])
            assert raw_first == raw_second  # literal byte identity
            assert app.cache.hits == 1

    def test_served_result_matches_oneshot_cli_path(self):
        from repro.core.mfsa import MFSAScheduler
        from repro.dfg.analysis import TimingModel
        from repro.dfg.ops import standard_operation_set
        from repro.dfg.parser import parse_behavior
        from repro.io.jsonio import synthesis_to_json
        from repro.library.ncr import datapath_library

        dfg = parse_behavior(SRC, name="det")
        timing = TimingModel(ops=standard_operation_set(mul_latency=1))
        oneshot = json.loads(
            synthesis_to_json(
                MFSAScheduler(dfg, timing, datapath_library(), cs=6).run()
            )
        )
        with service() as (_app, client):
            out = client.synth(source=SRC, name="det", cs=6, wait=True)
        assert out["result"]["result"] == oneshot

    def test_isomorphic_designs_share_the_cache_entry(self):
        renamed = SRC.replace("t1", "u9").replace("t2", "u8")
        with service() as (app, client):
            client.schedule(source=SRC, cs=6, wait=True)
            out = client.schedule(source=renamed, cs=6, wait=True)
            assert out["job"]["cache"] == "hit"
            assert len(app.cache) == 1

    def test_verify_and_trace_round_trip(self):
        with service() as (_app, client):
            out = client.synth(
                source=SRC2, cs=4, wait=True, verify=True, trace=True
            )
            assert out["result"]["verified"] is True
            assert out["result"]["checks_run"]
            assert out["result"]["trace_jsonl"].count("\n") > 5


class TestSingleFlight:
    def test_identical_concurrent_submissions_run_once(self):
        # A long coalescing window holds the leader in the batcher while
        # the other submissions arrive and attach as followers.
        with service(batch_wait_ms=300.0, max_batch=8) as (app, client):

            def submit(_index):
                return client.schedule(source=SRC, cs=6, wait=True)

            with ThreadPoolExecutor(max_workers=5) as pool:
                results = list(pool.map(submit, range(5)))

            assert app.metrics.counter_value("jobs_executed") == 1
            assert app.metrics.counter_value("singleflight_followers") == 4
            caches = sorted(r["job"]["cache"] for r in results)
            assert caches == ["follower"] * 4 + ["miss"]
            raw = {
                client.result_text(r["job"]["id"]) for r in results
            }
            assert len(raw) == 1  # byte-identical across all five

    def test_different_jobs_are_not_coalesced(self):
        with service(batch_wait_ms=100.0) as (app, client):
            with ThreadPoolExecutor(max_workers=2) as pool:
                futures = [
                    pool.submit(
                        client.schedule, source=SRC, cs=6, wait=True
                    ),
                    pool.submit(
                        client.schedule, source=SRC3, cs=4, wait=True
                    ),
                ]
                results = [f.result() for f in futures]
            assert all(r["result"]["ok"] for r in results)
            assert app.metrics.counter_value("jobs_executed") == 2


class TestBackpressure:
    def test_queue_full_returns_429_with_retry_after(self, monkeypatch):
        with slow_execution(monkeypatch, 0.4):
            with service(
                queue_size=1, max_batch=1, batch_wait_ms=0.0, retry_after_s=2.5
            ) as (app, client):
                first = client.schedule(source=SRC, cs=6, wait=False)
                # Wait until the batcher has pulled the first job so the
                # single queue slot is empty again.
                _wait_until(lambda: app.queue.depth() == 0)
                client.schedule(source=SRC2, cs=4, wait=False)
                with pytest.raises(Backpressure) as exc:
                    client.schedule(source=SRC3, cs=4, wait=False)
                assert exc.value.status == 429
                assert exc.value.retry_after == 2.5
                assert exc.value.payload["queue_size"] == 1
                assert app.metrics.counter_value("backpressure") == 1
                # The shed job left no residue; accepted work completes.
                done = client.wait_for(first["job"]["id"], timeout=10)
                assert done["job"]["status"] == "done"

    def test_draining_rejects_new_work_with_503(self):
        for role in ROLES:
            with running(role) as (server, client):
                client.schedule(source=SRC, cs=6, wait=True)
                server.draining = True
                try:
                    with pytest.raises(ServiceError) as exc:
                        client.schedule(source=SRC, cs=6, wait=True)
                    assert exc.value.status == 503, role
                    # Status endpoints stay reachable while draining.
                    assert client.healthz()["status"] == "draining", role
                finally:
                    server.draining = False


class TestTimeouts:
    def test_running_timeout_discards_late_result(self, monkeypatch):
        with slow_execution(monkeypatch, 0.5):
            with service(batch_wait_ms=0.0) as (app, client):
                with pytest.raises(ServiceError) as exc:
                    client.schedule(
                        source=SRC, cs=6, wait=True, timeout=0.05
                    )
                assert exc.value.status == 504
                job_id = exc.value.payload["job"]["id"]
                assert exc.value.payload["job"]["status"] == "timeout"
                # The batch still completes; the late result is discarded
                # for the job but harvested into the cache — no orphaned
                # pool work, no stuck batcher.
                _wait_until(
                    lambda: app.metrics.counter_value("jobs_executed") == 1
                )
                _wait_until(lambda: not app.batcher.busy)
                assert client.job(job_id)["job"]["status"] == "timeout"
                assert (
                    app.metrics.counter_value("jobs", status="timeout") == 1
                )
                # Same spec resubmitted: the harvested result serves it
                # from cache instantly (no second execution).
                out = client.schedule(source=SRC, cs=6, wait=True)
                assert out["job"]["cache"] == "hit"
                assert app.metrics.counter_value("jobs_executed") == 1

    def test_queued_timeout_is_never_executed(self, monkeypatch):
        with slow_execution(monkeypatch, 0.4):
            with service(
                queue_size=4, max_batch=1, batch_wait_ms=0.0
            ) as (app, client):
                blocker = client.schedule(source=SRC, cs=6, wait=False)
                _wait_until(lambda: app.queue.depth() == 0)
                with pytest.raises(ServiceError) as exc:
                    client.schedule(
                        source=SRC2, cs=4, wait=True, timeout=0.05
                    )
                assert exc.value.status == 504
                client.wait_for(blocker["job"]["id"], timeout=10)
                _wait_until(lambda: not app.batcher.busy)
                # Only the blocker ever reached the executor.
                assert app.metrics.counter_value("jobs_executed") == 1


class TestHttpSurface:
    def _raw(self, client, method, path, body=b"", headers=None):
        connection = http.client.HTTPConnection(
            client.host, client.port, timeout=10
        )
        try:
            connection.request(method, path, body=body, headers=headers or {})
            response = connection.getresponse()
            return response.status, response.read()
        finally:
            connection.close()

    def test_bad_json_is_400(self, roles):
        for role, (_service, client) in roles.items():
            status, body = self._raw(
                client, "POST", "/v1/schedule?wait=1", b"{nope"
            )
            assert status == 400, role
            assert b"not JSON" in body

    def test_unknown_route_is_404(self, roles):
        for role, (_service, client) in roles.items():
            status, _body = self._raw(client, "GET", "/v2/nothing")
            assert status == 404, role

    def test_wrong_method_is_405(self, roles):
        for role, (_service, client) in roles.items():
            status, _body = self._raw(client, "GET", "/v1/schedule")
            assert status == 405, role

    @pytest.mark.parametrize("role", ROLES)
    @pytest.mark.parametrize(
        "raw, status_line",
        [
            pytest.param(
                b"POST /v1/schedule HTTP/1.1\r\nContent-Length: abc\r\n\r\n{}",
                b"HTTP/1.1 400 Bad Request",
                id="length-not-a-number",
            ),
            pytest.param(
                b"POST /v1/schedule HTTP/1.1\r\nContent-Length: -5\r\n\r\n{}",
                b"HTTP/1.1 400 Bad Request",
                id="length-negative",
            ),
            pytest.param(
                b"GET /healthz HTTP/1.1\r\nX-Big: "
                + b"a" * 70000
                + b"\r\n\r\n",
                b"HTTP/1.1 400 Bad Request",
                id="header-line-over-64k",
            ),
            pytest.param(
                b"GET /" + b"a" * 70000 + b" HTTP/1.1\r\n\r\n",
                b"HTTP/1.1 400 Bad Request",
                id="request-line-over-64k",
            ),
            pytest.param(
                b"POST /v1/schedule HTTP/1.1\r\nContent-Length: 100\r\n\r\n{}",
                b"",
                id="body-shorter-than-length",
            ),
        ],
    )
    def test_malformed_request_is_400_or_a_clean_close(
        self, roles, role, raw, status_line
    ):
        """Never a 500: bad framing is the client's fault (400), and a
        body cut short by a close is a bare close (no response)."""
        _service, client = roles[role]
        address = (client.host, client.port)
        with socket.create_connection(address, timeout=10) as sock:
            sock.sendall(raw)
            sock.shutdown(socket.SHUT_WR)
            reply = b"".join(iter(lambda: sock.recv(65536), b""))
        assert reply.split(b"\r\n", 1)[0] == status_line

    @pytest.mark.parametrize("role", ROLES)
    @pytest.mark.parametrize(
        "params",
        [
            {"style": 0},
            {"cs": 2.7},
            {"cs": True},
            {"cs": 1e400},
            {"latency_l": 2.5},
            {"latency_l": True},
            {"mul_latency": 1.5},
            {"mul_latency": True},
            {"seed": 0.5},
            {"seed": False},
            {"clock_ns": 0},
            {"clock_ns": True},
            {"clock_ns": 5},
        ],
        ids=lambda params: ",".join(f"{k}={v}" for k, v in params.items()),
    )
    def test_coerced_parameter_is_400(self, roles, role, params):
        """A parameter that would have to be truncated or coerced into
        range is the client's error, not a silently different job."""
        _service, client = roles[role]
        body = json.dumps({"source": SRC, **params}).encode()
        status, reply = self._raw(client, "POST", "/v1/schedule?wait=1", body)
        assert status == 400, reply
        assert list(params)[0].encode() in reply

    @pytest.mark.parametrize("role", ROLES)
    def test_hit_decodes_the_design_once(self, roles, role, monkeypatch):
        """Admission decodes the design once and keys the cache from
        that graph: a hit builds exactly one DFG."""
        _service, client = roles[role]
        dfg = json.loads(dfg_to_json(parse_behavior(SRC2, name="once")))
        client.schedule(dfg=dfg, cs=5, wait=True)
        built = []
        original = DFG.__init__

        def counting(self, *args, **kwargs):
            built.append(1)
            original(self, *args, **kwargs)

        monkeypatch.setattr(DFG, "__init__", counting)
        reply = client.schedule(dfg=dfg, cs=5, wait=True)
        monkeypatch.undo()
        assert reply["job"]["cache"] == "hit"
        assert len(built) == 1

    def test_unknown_job_is_404(self):
        with service() as (_app, client):
            with pytest.raises(ServiceError) as exc:
                client.job("j99999-deadbeef")
            assert exc.value.status == 404

    def test_failed_job_is_500_with_payload(self):
        with service() as (_app, client):
            with pytest.raises(ServiceError) as exc:
                client.schedule(source=SRC, cs=1, wait=True)
            assert exc.value.status == 500
            assert exc.value.payload["job"]["status"] == "failed"
            assert exc.value.payload["result"]["ok"] is False

    def test_metrics_exposition_is_scrapeable(self):
        with service() as (_app, client):
            client.schedule(source=SRC, cs=6, wait=True)
            client.schedule(source=SRC, cs=6, wait=True)
            text = client.metrics_text()
            assert "# TYPE repro_serve_jobs_total counter" in text
            assert 'repro_serve_jobs_total{status="done"} 2' in text
            assert "repro_serve_cache_hits_total 1" in text
            assert "repro_serve_queue_depth 0" in text
            assert "repro_serve_batch_size_count" in text
            assert "repro_perf_counter_total" in text

    def test_healthz_reports_shape(self, roles):
        for role, (_service, client) in roles.items():
            health = client.healthz()
            assert health["status"] == "ok", role
            assert "uptime_seconds" in health, role
        assert roles["app"][1].healthz()["queue_depth"] == 0
        assert roles["router"][1].healthz()["role"] == "router"


class TestThreadHarness:
    def test_boot_outlasting_the_startup_timeout_raises(self, monkeypatch):
        monkeypatch.setattr(httpcore, "STARTUP_TIMEOUT_S", 0.2)
        booting = []

        class SlowBoot(ServeApp):
            async def _boot(self):
                booting.append(threading.current_thread())
                await asyncio.sleep(1.0)
                await super()._boot()

        app = SlowBoot(port=0, backend="serial")
        with pytest.raises(RuntimeError, match="did not start within"):
            app.start_in_thread()
        # The late boot stops by itself instead of serving with no handle.
        booting[0].join(timeout=10)
        assert not booting[0].is_alive()
        assert app.draining


class TestAdminCacheEndpoints:
    """The cache-transfer surface the router's reshard handoff and
    replica writes ride on: index, entry, export, import."""

    def test_index_entry_export_import_roundtrip(self):
        with service() as (app, client):
            out = client.schedule(source=SRC, cs=6, wait=True)
            key = out["job"]["key"]
            fingerprint = out["job"]["fingerprint"]

            index = client._request("GET", "/admin/cache/index")[2]
            assert index["total"] == 1
            assert index["entries"] == [{"key": key, "tag": fingerprint}]

            status, _headers, text = client._request(
                "GET", "/admin/cache/entry", query={"key": key}, raw=True
            )
            assert status == 200
            assert json.loads(text)["ok"] is True

            exported = client._request(
                "POST", "/admin/cache/export",
                body={"keys": [key, "missing"]},
            )[2]
            assert len(exported["entries"]) == 1
            entry = exported["entries"][0]
            assert entry["key"] == key and entry["tag"] == fingerprint
            assert entry["text"] == text

            # A fresh service warmed purely by import answers a hit.
            with service() as (_twin, twin_client):
                imported = twin_client._request(
                    "POST", "/admin/cache/import",
                    body={"entries": exported["entries"]},
                )[2]
                assert imported == {"imported": 1}
                again = twin_client.schedule(source=SRC, cs=6, wait=True)
                assert again["job"]["cache"] == "hit"
                assert twin_client.result_text(again["job"]["id"]) == text

    def test_entry_validation(self):
        with service() as (_app, client):
            status = client._request("GET", "/admin/cache/entry")[0]
            assert status == 400
            status = client._request(
                "GET", "/admin/cache/entry", query={"key": "nope"}
            )[0]
            assert status == 404
            status = client._request(
                "POST", "/admin/cache/export", body={"keys": "not-a-list"}
            )[0]
            assert status == 400
            status = client._request("POST", "/admin/cache/index")[0]
            assert status == 405
