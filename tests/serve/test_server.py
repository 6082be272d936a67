"""Integration tests of the analysis service over real sockets.

Each test class boots an :class:`~repro.serve.app.AnalysisServer` on an
ephemeral port (``port=0``) with a background event loop; clients are
plain :mod:`http.client` connections and raw sockets, exercising the
exact wire behaviour browsers and curl see.
"""

import http.client
import json
import socket
import threading
import time

import pytest

from repro.apps.hdiff import LOCAL_VIEW_SIZES, hdiff_program
from repro.serve.app import AnalysisServer
from repro.tool.session import Session


@pytest.fixture()
def server():
    srv = AnalysisServer(Session(hdiff_program), port=0).start_background()
    yield srv
    srv.stop()


def get(server, path, headers=None):
    conn = http.client.HTTPConnection("127.0.0.1", server.port, timeout=30)
    try:
        conn.request("GET", path, headers=headers or {})
        resp = conn.getresponse()
        return resp.status, dict(resp.getheaders()), resp.read()
    finally:
        conn.close()


class TestEndpoints:
    def test_index_lists_endpoints(self, server):
        status, _, body = get(server, "/")
        payload = json.loads(body)
        assert status == 200
        assert payload["program"] == "hdiff_program"
        assert "GET /v1/local/view" in payload["endpoints"]

    def test_healthz(self, server):
        status, _, body = get(server, "/v1/healthz")
        assert status == 200
        assert json.loads(body)["status"] == "ok"

    def test_unknown_endpoint_404(self, server):
        status, _, body = get(server, "/v1/unknown")
        assert status == 404
        assert "no such endpoint" in json.loads(body)["error"]

    def test_wrong_method_405(self, server):
        conn = http.client.HTTPConnection("127.0.0.1", server.port, timeout=30)
        try:
            conn.request("POST", "/v1/healthz", body=b"{}")
            assert conn.getresponse().status == 405
        finally:
            conn.close()

    def test_missing_symbols_400(self, server):
        status, _, body = get(server, "/v1/local/view")
        assert status == 400
        assert "symbol" in json.loads(body)["error"]

    def test_local_view_matches_session_products(self, server):
        """The served JSON is the session's own local.point product."""
        query = "&".join(f"{k}={v}" for k, v in LOCAL_VIEW_SIZES.items())
        status, _, body = get(server, f"/v1/local/view?{query}&capacity=4")
        assert status == 200
        served = json.loads(body)

        golden_run = Session(hdiff_program).sweep(
            [LOCAL_VIEW_SIZES], capacity_lines=4, on_error="record"
        )
        golden = golden_run.outcomes[0].to_dict()
        assert served["params"] == golden["params"]
        assert served["total_accesses"] == golden["total_accesses"]
        assert served["total_misses"] == golden["total_misses"]
        assert served["total_moved_bytes"] == golden["total_moved_bytes"]
        assert served["containers"] == golden["containers"]
        assert served["cache_model"] == {"line_size": 64, "capacity_lines": 4}

    def test_global_heatmap_matches_session_totals(self, server):
        env = {"I": 16, "J": 16, "K": 4}
        query = "&".join(f"{k}={v}" for k, v in env.items())
        status, headers, body = get(
            server, f"/v1/global/heatmap?{query}&format=json"
        )
        assert status == 200
        served = json.loads(body)

        gv = Session(hdiff_program).global_view()
        assert served["total_movement_bytes"] == gv.total_movement(env)
        assert served["total_ops"] == gv.total_ops(env)
        assert served["edges"]  # per-edge rows present
        assert all("bytes" in edge for edge in served["edges"])

    def test_global_heatmap_svg(self, server):
        status, headers, body = get(server, "/v1/global/heatmap?I=8&J=8&K=2")
        assert status == 200
        assert headers["Content-Type"] == "image/svg+xml"
        assert body.startswith(b"<svg")

    def test_metrics_endpoint_exports_registry(self, server):
        get(server, "/v1/local/view?I=4&J=4&K=2")
        status, _, body = get(server, "/v1/metrics")
        payload = json.loads(body)
        assert status == 200
        assert payload["counters"]["serve.v1.local.view.requests"] == 1
        assert "pass.local.point.runs" in payload["counters"]
        assert "serve.v1.local.view.seconds" in payload["histograms"]
        assert "simulation_cache" in payload

    def test_metrics_simulation_cache_reports_the_session_store(self, server):
        get(server, "/v1/local/view?I=4&J=4&K=2")
        _, _, body = get(server, "/v1/metrics")
        reported = json.loads(body)["simulation_cache"]
        assert reported == server.session.cache_info()
        assert reported["entries"] > 0 and reported["misses"] > 0


class TestETag:
    def test_revalidation_round_trip(self, server):
        path = "/v1/local/view?I=4&J=4&K=2"
        status, headers, body = get(server, path)
        assert status == 200
        etag = headers["ETag"]
        assert etag.startswith('"') and etag.endswith('"')

        status, headers2, body2 = get(server, path, {"If-None-Match": etag})
        assert status == 304
        assert body2 == b""
        assert headers2["ETag"] == etag
        assert server.metrics.counter("serve.etag_304").value == 1

    def test_304_skips_evaluation_entirely(self, server):
        path = "/v1/local/view?I=4&J=4&K=2"
        _, headers, _ = get(server, path)
        runs_before = server.metrics.counter("pass.local.point.runs").value
        led_before = server.metrics.counter("serve.coalesce.led").value
        status, _, _ = get(server, path, {"If-None-Match": headers["ETag"]})
        assert status == 304
        assert server.metrics.counter("pass.local.point.runs").value == runs_before
        assert server.metrics.counter("serve.coalesce.led").value == led_before

    def test_distinct_requests_get_distinct_etags(self, server):
        _, h1, _ = get(server, "/v1/local/view?I=4&J=4&K=2")
        _, h2, _ = get(server, "/v1/local/view?I=4&J=4&K=3")
        _, h3, _ = get(server, "/v1/local/view?I=4&J=4&K=2&capacity=8")
        assert h1["ETag"] != h2["ETag"]
        assert h1["ETag"] != h3["ETag"]

    def test_stale_etag_gets_fresh_body(self, server):
        path = "/v1/local/view?I=4&J=4&K=2"
        status, _, body = get(server, path, {"If-None-Match": '"stale"'})
        assert status == 200
        assert json.loads(body)["params"] == {"I": 4, "J": 4, "K": 2}


class TestCoalescing:
    CLIENTS = 8

    def test_identical_burst_costs_one_evaluation(self, server):
        """N identical concurrent requests -> exactly one pipeline run."""
        metrics = server.metrics
        original = server.session.sweep

        def gated_sweep(*args, **kwargs):
            # Hold the leader's evaluation open until every other client
            # has joined the in-flight entry, making the overlap (and
            # therefore the counters below) deterministic.
            deadline = time.time() + 10
            joined = metrics.counter("serve.coalesce.joined")
            while joined.value < self.CLIENTS - 1 and time.time() < deadline:
                time.sleep(0.01)
            return original(*args, **kwargs)

        server.session.sweep = gated_sweep
        path = "/v1/local/view?I=4&J=4&K=2"
        results = []

        def client():
            results.append(get(server, path))

        threads = [
            threading.Thread(target=client) for _ in range(self.CLIENTS)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)

        bodies = {body for _, _, body in results}
        assert len(results) == self.CLIENTS
        assert all(status == 200 for status, _, _ in results)
        assert len(bodies) == 1  # every client got the identical product
        assert metrics.counter("pass.local.point.runs").value == 1
        assert metrics.counter("serve.coalesce.led").value == 1
        assert metrics.counter("serve.coalesce.joined").value == self.CLIENTS - 1

    def test_different_params_do_not_coalesce(self, server):
        get(server, "/v1/local/view?I=4&J=4&K=2")
        get(server, "/v1/local/view?I=4&J=4&K=3")
        assert server.metrics.counter("serve.coalesce.led").value == 2
        assert server.metrics.counter("serve.coalesce.joined").value == 0


class TestDisconnect:
    def test_client_disconnect_cancels_and_pool_stays_healthy(self, server):
        """Dropping the only client cancels its token; the server keeps
        serving afterwards."""
        started = threading.Event()
        release = threading.Event()
        tokens = []
        original = server.session.sweep

        def slow_sweep(*args, **kwargs):
            tokens.append(kwargs.get("cancel"))
            started.set()
            release.wait(10)
            return original(*args, **kwargs)

        server.session.sweep = slow_sweep

        raw = socket.create_connection(("127.0.0.1", server.port), timeout=10)
        raw.sendall(
            b"GET /v1/local/view?I=4&J=4&K=2 HTTP/1.1\r\n"
            b"Host: x\r\n\r\n"
        )
        assert started.wait(10), "evaluation never started"
        raw.close()  # client walks away mid-evaluation

        deadline = time.time() + 10
        while (
            server.metrics.counter("serve.disconnects").value == 0
            and time.time() < deadline
        ):
            time.sleep(0.01)
        assert server.metrics.counter("serve.disconnects").value == 1
        assert tokens[0] is not None and tokens[0].cancelled
        assert "disconnected" in tokens[0].reason
        release.set()

        # The worker pool and session survived: a fresh request works.
        server.session.sweep = original
        status, _, body = get(server, "/v1/local/view?I=4&J=4&K=2")
        assert status == 200
        assert json.loads(body)["params"] == {"I": 4, "J": 4, "K": 2}


class TestSweepStreaming:
    def test_sweep_streams_ndjson_progress(self, server):
        conn = http.client.HTTPConnection(
            "127.0.0.1", server.port, timeout=60
        )
        payload = json.dumps(
            {"grid": {"I": [2, 4], "J": [4], "K": [2]}, "capacity": 4}
        )
        conn.request(
            "POST",
            "/v1/sweep",
            body=payload,
            headers={"Content-Type": "application/json"},
        )
        resp = conn.getresponse()
        assert resp.status == 200
        assert resp.getheader("Content-Type") == "application/x-ndjson"
        events = [
            json.loads(line) for line in resp.read().decode().splitlines()
        ]
        conn.close()
        assert events[0]["event"] == "start"
        points = [e for e in events if e["event"] == "point"]
        assert [p["index"] for p in points] == [0, 1]
        assert all(p["status"] == "ok" for p in points)
        assert {tuple(sorted(p["params"].items())) for p in points} == {
            (("I", 2), ("J", 4), ("K", 2)),
            (("I", 4), ("J", 4), ("K", 2)),
        }
        end = events[-1]
        assert end["event"] == "end"
        assert end["points"] == 2 and end["failed"] == 0
        assert end["seconds"] > 0

    def test_sweep_cached_points_still_stream(self, server):
        """A re-posted grid serves from cache but streams every point."""
        payload = json.dumps({"grid": {"I": [2], "J": [2], "K": [2]}})
        for _ in range(2):
            conn = http.client.HTTPConnection(
                "127.0.0.1", server.port, timeout=60
            )
            conn.request("POST", "/v1/sweep", body=payload)
            resp = conn.getresponse()
            events = [
                json.loads(line) for line in resp.read().decode().splitlines()
            ]
            conn.close()
            assert sum(1 for e in events if e["event"] == "point") == 1
        assert server.metrics.counter("pass.local.point.runs").value == 1

    def test_sweep_bad_grid_is_400(self, server):
        conn = http.client.HTTPConnection("127.0.0.1", server.port, timeout=30)
        conn.request("POST", "/v1/sweep", body=json.dumps({"grid": {"I": []}}))
        resp = conn.getresponse()
        assert resp.status == 400
        conn.close()

    def test_oversized_grid_is_rejected(self, server):
        conn = http.client.HTTPConnection("127.0.0.1", server.port, timeout=30)
        body = json.dumps(
            {"grid": {"I": list(range(200)), "J": list(range(200))}}
        )
        conn.request("POST", "/v1/sweep", body=body)
        resp = conn.getresponse()
        assert resp.status == 422
        assert b"max 10000" in resp.read()
        conn.close()
