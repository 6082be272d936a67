"""Tests of the benchmark's own logic (no server, no program needed).

Run with ``python -m pytest perfbench -q`` from the repository root.
"""

import http.server
import json
import random
import subprocess
import threading
from pathlib import Path

import pytest

import loadgen
import procs
from layers import SpanLog, summarize
from loadgen import Request, Result
from stats import (
    coverage,
    percentile,
    self_time,
    supported,
    tail_percentile,
    union_length,
)


# -- percentiles and the "ten samples beyond" rule ---------------------------
def test_percentile_interpolates():
    values = list(range(1, 101))
    assert percentile(values, 50) == pytest.approx(50.5)
    assert percentile(values, 0) == 1
    assert percentile(values, 100) == 100


@pytest.mark.parametrize(
    "n,q,ok", [(1000, 99, True), (999, 99, False), (200, 95, True), (199, 95, False), (100, 90, True)]
)
def test_tail_needs_ten_samples_beyond(n, q, ok):
    assert supported(n, q) is ok
    values = [float(i) for i in range(n)]
    if ok:
        assert tail_percentile(values, q) == percentile(values, q)
    else:
        with pytest.raises(ValueError):
            tail_percentile(values, q)


# -- seeded inputs -------------------------------------------------------------
def test_schedule_is_a_function_of_the_seed():
    points, envs = loadgen.hot_set(7)
    assert (points, envs) == loadgen.hot_set(7)
    assert len(points) == 16 and len(envs) == 4
    a = loadgen.revisit_schedule(7, 80.0, 5.0, points, envs)
    b = loadgen.revisit_schedule(7, 80.0, 5.0, points, envs)
    c = loadgen.revisit_schedule(8, 80.0, 5.0, points, envs)
    assert a == b and a != c
    offsets = [t for t, _ in a]
    assert offsets == sorted(offsets) and offsets[-1] < 5.0
    assert sum(1 for _, r in a if r.kind == "metrics") == 4
    shares = [r.revalidate for _, r in a if r.kind != "metrics"]
    assert 0.2 < sum(shares) / len(shares) < 0.45


def test_poisson_rate():
    times = loadgen.poisson_times(random.Random(1), 100.0, 20.0)
    assert len(times) == 2000 and times == sorted(times) and 0 <= times[0] and times[-1] < 20.0
    gaps = [b - a for a, b in zip(times, times[1:])]
    assert abs(sum(gaps) / len(gaps) - 0.01) < 0.001  # exponential gaps, mean 1/rate


# -- response checks ---------------------------------------------------------
def _view_body(params, misses=3):
    containers = {
        "a": {"hits": 5, "cold": misses, "capacity": 0, "conflict": 0, "misses": misses,
              "moved_bytes": misses * loadgen.LINE_SIZE},
    }
    return json.dumps({
        "params": params, "total_accesses": 5 + misses, "total_misses": misses,
        "total_moved_bytes": misses * loadgen.LINE_SIZE, "seconds": 0.01,
        "containers": containers,
    }).encode()


def test_valid_view_passes_and_is_recorded():
    params = {"I": 4, "J": 4, "K": 3}
    request = loadgen.view_request(params)
    refs = {}
    error, payload = loadgen.check(request, 200, {"etag": '"x"'}, _view_body(params), refs)
    assert error is None and payload["params"] == params
    assert request.path in refs


def test_corrupted_view_body_fails():
    params = {"I": 4, "J": 4, "K": 3}
    request = loadgen.view_request(params)
    body = json.loads(_view_body(params))
    body["total_misses"] += 1
    error, _ = loadgen.check(request, 200, {"etag": '"x"'}, json.dumps(body).encode(), {})
    assert error is not None
    error, _ = loadgen.check(request, 200, {"etag": '"x"'}, b"{not json", {})
    assert error is not None


def test_body_differing_from_an_earlier_answer_fails():
    params = {"I": 4, "J": 4, "K": 3}
    request = loadgen.view_request(params)
    refs = {}
    loadgen.check(request, 200, {"etag": '"x"'}, _view_body(params, misses=3), refs)
    error, _ = loadgen.check(request, 200, {"etag": '"x"'}, _view_body(params, misses=4), refs)
    assert error is not None
    # the evaluation time alone may differ
    body = json.loads(_view_body(params, misses=3))
    body["seconds"] = 9.0
    error, _ = loadgen.check(request, 200, {"etag": '"x"'}, json.dumps(body).encode(), refs)
    assert error is None


@pytest.mark.parametrize("containers", [
    {"a": {"hits": 5, "capacity": 0, "conflict": 0, "misses": 3, "moved_bytes": 192}},
    [{"hits": 5, "misses": 3}],
    {"a": None},
])
def test_malformed_view_body_fails_without_raising(containers):
    params = {"I": 4, "J": 4, "K": 3}
    body = json.loads(_view_body(params))
    body["containers"] = containers

    class Answering:
        def get(self, request, refs):
            return 200, {"etag": '"x"'}, json.dumps(body).encode()

    status, error, _ = loadgen.exchange(Answering(), loadgen.view_request(params), {})
    assert status == 200 and error.startswith("malformed body")


def test_open_loop_counts_every_malformed_answer():
    """A body that makes a check raise fails its request; the sending
    thread carries on, so every scheduled request has a result."""
    params = {"I": 4, "J": 4, "K": 3}
    body = json.loads(_view_body(params))
    del body["containers"]["a"]["cold"]
    payload = json.dumps(body).encode()

    class Handler(http.server.BaseHTTPRequestHandler):
        protocol_version = "HTTP/1.1"

        def do_GET(self):
            self.send_response(200)
            self.send_header("ETag", '"x"')
            self.send_header("Content-Length", str(len(payload)))
            self.end_headers()
            self.wfile.write(payload)

        def log_message(self, *args):
            pass

    server = http.server.ThreadingHTTPServer(("127.0.0.1", 0), Handler)
    thread = threading.Thread(target=server.serve_forever)
    thread.start()
    try:
        schedule = [(0.01 * i, loadgen.view_request(params)) for i in range(6)]
        results = loadgen.run_open_loop(server.server_address[1], schedule, {})
    finally:
        server.shutdown()
        server.server_close()
        thread.join()
    assert len(results) == 6
    assert all(r.error and r.error.startswith("malformed body") for r in results)


def test_only_the_overlay_symptom_is_excused():
    svg = loadgen.heatmap_request({"I": 64, "J": 64, "K": 16}, "svg")
    json_map = loadgen.heatmap_request({"I": 64, "J": 64, "K": 16}, "json")
    refs = {svg.path: ('"x"', "a"), json_map.path: ('"x"', "a")}
    body = b"<svg>other</svg>"
    error, _ = loadgen.check(svg, 200, {"etag": '"x"', "content-type": "image/svg+xml"}, body, refs)
    assert loadgen.is_overlay_defect(Result(svg, 0, 0, 0, 0, 200, error))
    # another ETag, a failed status or a changed JSON heatmap all count
    error, _ = loadgen.check(svg, 200, {"etag": '"y"', "content-type": "image/svg+xml"}, body, refs)
    assert error and not loadgen.is_overlay_defect(Result(svg, 0, 0, 0, 0, 200, error))
    error, _ = loadgen.check(svg, 500, {}, b"{}", refs)
    assert error and not loadgen.is_overlay_defect(Result(svg, 0, 0, 0, 0, 500, error))
    doc = json.dumps({"edges": [], "total_movement_bytes": 1}).encode()
    error, _ = loadgen.check(json_map, 200, {"etag": '"x"'}, doc, refs)
    assert error and not loadgen.is_overlay_defect(Result(json_map, 0, 0, 0, 0, 200, error))


def test_refused_and_failed_statuses_fail():
    request = loadgen.view_request({"I": 4, "J": 4, "K": 3})
    for status in (429, 500, 503, 504):
        error, _ = loadgen.check(request, status, {}, b'{"error": "x"}', {})
        assert error is not None


def test_revalidation_semantics():
    request = loadgen.view_request({"I": 4, "J": 4, "K": 3}, revalidate=True)
    refs = {request.path: ('"x"', "digest")}
    assert loadgen.check(request, 304, {"etag": '"x"'}, b"", refs)[0] is None
    assert loadgen.check(request, 304, {"etag": '"y"'}, b"", refs)[0] is not None
    assert loadgen.check(request, 200, {"etag": '"x"'}, b"{}", refs)[0] is not None


# -- self time and coverage ---------------------------------------------------
def test_self_time_subtracts_covered_child_time():
    assert self_time((0.0, 10.0), [(1.0, 3.0), (2.0, 4.0), (8.0, 12.0)]) == pytest.approx(5.0)
    assert self_time((0.0, 10.0), []) == 10.0
    assert union_length([(0, 1), (0.5, 2), (3, 4)]) == pytest.approx(3.0)
    assert coverage([(0, 10)], [(1, 3), (5, 6), (20, 30)]) == pytest.approx(0.3)


def test_summarize_nested_spans():
    log = SpanLog()
    # passes.run [0, 10] with children passes.key [1, 3] and [4, 5]
    log.records = [
        ["passes.run", 0.0, 10.0, None],
        ["passes.key", 1.0, 3.0, 0],
        ["passes.key", 4.0, 5.0, 0],
    ]
    figures = summarize(log, [(0.0, 20.0)])
    assert figures["passes.run_ms"] == pytest.approx(7000.0)
    assert figures["passes.key_ms"] == pytest.approx(1500.0)
    assert figures["passes.key.calls"] == 2
    assert figures["viz.render.calls"] == 0
    assert figures["trace.coverage"] == pytest.approx(0.5)


# -- isolation -----------------------------------------------------------------
def test_reap_session_finds_a_reparented_grandchild():
    # The shell exits at once; its background child is reparented away
    # from this process but stays in the shell's session.
    proc = subprocess.Popen(
        ["sh", "-c", "sleep 30 >/dev/null & echo $!"], stdout=subprocess.PIPE, text=True,
        start_new_session=True,
    )
    grandchild = int(proc.stdout.readline())
    proc.wait()
    proc.stdout.close()
    assert grandchild not in procs.children()
    assert procs.reap_session(proc.pid, grace=0.2) == [grandchild]
    assert procs.reap_session(proc.pid, grace=2.0) == []


# -- load bookkeeping ---------------------------------------------------------
def _single_server(rate: float, service: float, seconds: float, seed: int) -> list[Result]:
    """Poisson arrivals to one FIFO server with a fixed service time."""
    free = 0.0
    out = []
    for t in loadgen.poisson_times(random.Random(seed), rate, seconds):
        start = max(t, free)
        free = start + service
        out.append(Result(Request("view", "/p"), t, t, start, free, 200, None))
    return out


def test_backlog_grows_only_past_capacity():
    service = 0.005  # saturates at 200/s
    light = _single_server(50.0, service, 4.0, 1)
    overloaded = _single_server(260.0, service, 4.0, 1)
    assert loadgen.outstanding_max(light) <= 5
    assert loadgen.outstanding_max(overloaded) > 50
    assert max(r.latency for r in overloaded) > 10 * max(r.latency for r in light)


def test_generator_lag_is_separate_from_queueing():
    # due at 1.0, the connection was busy until 1.5 (queueing, not lag),
    # sent at 1.502: 2 ms of generator lag
    result = Result(Request("view", "/p"), 1.0, 1.5, 1.502, 1.6, 200, None)
    assert result.lag == pytest.approx(0.002)
    assert result.latency == pytest.approx(0.6)
    assert loadgen.lag_p99_ms([result]) == pytest.approx(2.0)


# -- the benchmark definition -------------------------------------------------
def test_benchmark_definition_keys():
    spec = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    assert set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    names = [m["name"] for m in spec["end_to_end"]]
    assert "setup_s" in names and len(names) == len(set(names))
    assert all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"])
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])
