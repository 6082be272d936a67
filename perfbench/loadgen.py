"""Seeded open-loop load generator and response checks for ``repro serve``.

One process, at most two threads, one keep-alive connection per thread.
Requests carry a *scheduled* send time drawn from a seeded Poisson
process; latency runs from that scheduled time, so a stall is charged
to every request that had to wait behind it.  The generator's own lag —
how late it sent a request that a free connection could have sent on
time — is reported separately, and a run whose generator fell behind
is invalid.
"""

from __future__ import annotations

import contextlib
import hashlib
import http.client
import json
import random
import re
import threading
import time
from dataclasses import dataclass, field
from typing import Iterator

from stats import percentile

#: Local-view cache model used by every view request: four 64-byte
#: lines, small enough that capacity misses occur at the sizes served.
LINE_SIZE = 64
CAPACITY = 4

#: Generator lag beyond which a run measures the client, not the server.
MAX_LAG_P99_MS = 10.0


@dataclass
class Request:
    kind: str  # "view" | "heatmap" | "metrics" | "healthz"
    path: str
    revalidate: bool = False
    params: dict = field(default_factory=dict)


@dataclass
class Result:
    request: Request
    due: float
    take: float
    sent: float
    done: float
    status: int
    error: str | None
    payload: dict | None = None

    @property
    def latency(self) -> float:
        return self.done - self.due

    @property
    def lag(self) -> float:
        return self.sent - max(self.due, self.take)


def view_request(params: dict, revalidate: bool = False) -> Request:
    query = "&".join(f"{k}={params[k]}" for k in sorted(params))
    return Request(
        "view",
        f"/v1/local/view?{query}&capacity={CAPACITY}&line_size={LINE_SIZE}",
        revalidate,
        dict(params),
    )


def heatmap_request(env: dict, fmt: str, revalidate: bool = False) -> Request:
    query = "&".join(f"{k}={env[k]}" for k in sorted(env))
    return Request("heatmap", f"/v1/global/heatmap?{query}&format={fmt}", revalidate, dict(env))


# -- inputs ------------------------------------------------------------------
def hot_set(seed: int) -> tuple[list[dict], list[dict]]:
    """16 local-view points and 4 global-heatmap envs, from *seed*."""
    rng = random.Random(seed)
    points: list[dict] = []
    while len(points) < 16:
        point = {"I": rng.randint(4, 16), "J": rng.randint(4, 12), "K": rng.randint(3, 6)}
        if point not in points:
            points.append(point)
    envs: list[dict] = []
    while len(envs) < 4:
        env = {"I": rng.randint(64, 1024), "J": rng.randint(64, 1024), "K": rng.randint(16, 128)}
        if env not in envs:
            envs.append(env)
    return points, envs


def warm_requests(points: list[dict], envs: list[dict]) -> list[Request]:
    return [view_request(p) for p in points] + [
        heatmap_request(env, fmt) for env in envs for fmt in ("svg", "json")
    ]


def poisson_times(rng: random.Random, rate: float, seconds: float) -> list[float]:
    """Arrival offsets of a Poisson process of *rate* over *seconds*,
    conditioned on its expected count ``round(rate * seconds)``: the
    arrivals are then independent and uniform over the interval, and
    every run has the same number of samples."""
    return sorted(rng.uniform(0.0, seconds) for _ in range(round(rate * seconds)))


def revisit_requests(seed: int, points: list[dict], envs: list[dict]) -> Iterator[Request]:
    """Endless seeded mix over the hot set: 70% local views, 30% global
    heatmaps (SVG or JSON); about a third revalidate with ``If-None-Match``."""
    rng = random.Random(seed)
    while True:
        revalidate = rng.random() < 1 / 3
        if rng.random() < 0.7:
            yield view_request(rng.choice(points), revalidate)
        else:
            yield heatmap_request(rng.choice(envs), rng.choice(("svg", "json")), revalidate)


def revisit_schedule(
    seed: int, rate: float, seconds: float, points: list[dict], envs: list[dict]
) -> list[tuple[float, Request]]:
    """Poisson arrivals of :func:`revisit_requests`, plus one metrics
    scrape a second."""
    requests = revisit_requests(seed, points, envs)
    schedule = [(t, next(requests)) for t in poisson_times(random.Random(seed), rate, seconds)]
    schedule += [
        (float(s), Request("metrics", "/v1/metrics")) for s in range(1, int(seconds) + 1)
        if s < seconds
    ]
    schedule.sort(key=lambda item: item[0])
    return schedule


# -- checks ------------------------------------------------------------------
ETAG_DIFFERS = "ETag differs from an earlier response"
BODY_DIFFERS = "body differs from an earlier response under the same ETag"


def digest(request: Request, body: bytes) -> str:
    """Content digest of a response body.

    Ignores a view's ``seconds`` (its evaluation time) and the node
    ``uid=`` numbers in SVG tooltips: those count graph nodes built in
    the process, so two servers render the same graph with different
    numbers under the same ETag (README.md, "Known defects").
    """
    if request.kind == "view":
        payload = json.loads(body)
        payload.pop("seconds", None)
        body = json.dumps(payload, sort_keys=True).encode()
    elif body.lstrip().startswith(b"<"):
        body = re.sub(rb"uid=\d+", b"uid=", body)
    return hashlib.sha256(body).hexdigest()


def check_view_payload(payload: dict, params: dict) -> str | None:
    """Schema and internal consistency of one local-view body."""
    for key in ("params", "total_accesses", "total_misses", "total_moved_bytes", "containers"):
        if key not in payload:
            return f"missing {key}"
    if payload["params"] != params:
        return f"params {payload['params']} != {params}"
    containers = payload["containers"].values()
    misses = sum(c["misses"] for c in containers)
    moved = sum(c["moved_bytes"] for c in containers)
    accesses = sum(c["hits"] + c["misses"] for c in containers)
    if misses != payload["total_misses"] or moved != payload["total_moved_bytes"]:
        return "totals disagree with containers"
    if accesses != payload["total_accesses"]:
        return "hits + misses != accesses"
    for c in containers:
        if c["misses"] != c["cold"] + c["capacity"] + c["conflict"]:
            return "miss kinds do not add up"
        if c["moved_bytes"] != c["misses"] * LINE_SIZE:
            return "moved bytes != misses x line size"
    return None


def check(request: Request, status: int, headers: dict, body: bytes, refs: dict) -> tuple[str | None, dict | None]:
    """(error or None, parsed view payload or None) for one response.

    *refs* maps a path to ``(etag, digest)`` seen for it before; a path
    seen for the first time is recorded there.
    """
    if request.kind in ("metrics", "healthz"):
        if status != 200:
            return f"status {status}", None
        try:
            json.loads(body)
        except ValueError:
            return "body is not JSON", None
        return None, None
    etag = headers.get("etag")
    ref = refs.get(request.path)
    if request.revalidate:
        if status != 304:
            return f"revalidation got status {status}", None
        if ref is None or etag != ref[0] or body:
            return "304 with wrong ETag or a body", None
        return None, None
    if status != 200:
        return f"status {status}", None
    if not etag:
        return "no ETag", None
    payload = None
    try:
        if request.kind == "view":
            payload = json.loads(body)
            error = check_view_payload(payload, request.params)
            if error:
                return error, None
        elif headers.get("content-type", "").startswith("image/svg"):
            if b"<svg" not in body[:512]:
                return "SVG body without <svg>", None
        else:
            doc = json.loads(body)
            if not isinstance(doc.get("edges"), list) or "total_movement_bytes" not in doc:
                return "heatmap JSON without edges/totals", None
    except ValueError:
        return "body is not JSON", None
    seen = (etag, digest(request, body))
    if ref is None:
        refs[request.path] = seen
    elif ref[0] != etag:
        return ETAG_DIFFERS, None
    elif ref[1] != seen[1]:
        return BODY_DIFFERS, None
    return None, payload


def is_overlay_defect(result: Result) -> bool:
    """Whether *result* failed only by the known restart defect (README.md,
    "Known defects"): a heatmap SVG answered 200 under the ETag of an
    earlier answer, with other content."""
    return (
        result.request.kind == "heatmap"
        and result.request.path.endswith("format=svg")
        and result.status == 200
        and result.error == BODY_DIFFERS
    )


# -- client ------------------------------------------------------------------
class Client:
    """One keep-alive HTTP connection."""

    def __init__(self, port: int, timeout: float = 60.0):
        self.port = port
        self.timeout = timeout
        self.conn: http.client.HTTPConnection | None = None

    def request(self, method: str, path: str, headers: dict | None = None, body: bytes | None = None):
        """(status, lower-cased headers, body).  A dropped connection
        raises: the server keeps idle connections open, so a drop is a
        failure of the request, not something to retry."""
        if self.conn is None:
            self.conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=self.timeout)
        self.conn.request(method, path, body=body, headers=headers or {})
        resp = self.conn.getresponse()
        data = resp.read()
        result = resp.status, {k.lower(): v for k, v in resp.getheaders()}, data
        if resp.will_close:
            self.close()
        return result

    def get(self, request: Request, refs: dict):
        headers = {}
        if request.revalidate:
            headers["If-None-Match"] = refs[request.path][0] if request.path in refs else '"none"'
        return self.request("GET", request.path, headers)

    def close(self) -> None:
        if self.conn is not None:
            self.conn.close()
            self.conn = None


def exchange(
    client: Client, request: Request, refs: dict, lock: threading.Lock | None = None
) -> tuple[int, str | None, dict | None]:
    """Send *request* and check the answer: (status, error, view payload).

    A dropped connection, or a body so malformed that a check raises,
    is this request's error: it never escapes to kill the sending thread.
    """
    try:
        status, headers, body = client.get(request, refs)
    except (OSError, http.client.HTTPException) as exc:
        client.close()
        return 0, f"{type(exc).__name__}: {exc}", None
    with lock or contextlib.nullcontext():
        try:
            error, payload = check(request, status, headers, body, refs)
        except Exception as exc:  # noqa: BLE001 - any malformed body fails
            error, payload = f"malformed body: {type(exc).__name__}: {exc}", None
    return status, error, payload


def run_requests(client: Client, requests: list[Request], refs: dict) -> list[Result]:
    """Send *requests* back to back on one connection (warm-up, restart)."""
    out = []
    for request in requests:
        start = time.perf_counter()
        status, error, payload = exchange(client, request, refs)
        done = time.perf_counter()
        out.append(Result(request, start, start, start, done, status, error, payload))
    return out


def run_open_loop(
    port: int, schedule: list[tuple[float, Request]], refs: dict, connections: int = 2
) -> list[Result]:
    """Send each request at its scheduled offset over *connections*.

    A request whose time has come while every connection is busy waits
    for the first free one; that wait counts in its latency.
    """
    results: list[Result | None] = [None] * len(schedule)
    lock = threading.Lock()
    cursor = [0]
    start = time.perf_counter() + 0.02

    def worker() -> None:
        client = Client(port)
        try:
            while True:
                with lock:
                    index = cursor[0]
                    cursor[0] += 1
                if index >= len(schedule):
                    return
                offset, request = schedule[index]
                due = start + offset
                take = time.perf_counter()
                if take < due:
                    time.sleep(due - take)
                sent = time.perf_counter()
                status, error, payload = exchange(client, request, refs, lock)
                results[index] = Result(
                    request, due, take, sent, time.perf_counter(), status, error, payload
                )
        finally:
            client.close()

    threads = [threading.Thread(target=worker) for _ in range(connections)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    unsent = results.count(None)
    if unsent:
        raise RuntimeError(f"open loop lost {unsent} of {len(schedule)} requests")
    return results


def run_closed_loop(
    port: int, requests: Iterator[Request], seconds: float, refs: dict, connections: int = 2
) -> tuple[list[Result], float]:
    """Each connection sends its next request as soon as the last returns.

    Returns the results and the wall time they took.
    """
    results: list[Result] = []
    lock = threading.Lock()
    start = time.perf_counter()
    stop_at = start + seconds

    def worker() -> None:
        client = Client(port)
        try:
            while time.perf_counter() < stop_at:
                with lock:
                    request = next(requests)
                sent = time.perf_counter()
                status, error, payload = exchange(client, request, refs, lock)
                with lock:
                    results.append(
                        Result(request, sent, sent, sent, time.perf_counter(), status, error, payload)
                    )
        finally:
            client.close()

    threads = [threading.Thread(target=worker) for _ in range(connections)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return results, time.perf_counter() - start


def outstanding_max(results: list[Result]) -> int:
    """Most requests due but not yet answered at any one time."""
    events = sorted(
        [(r.due, 1) for r in results] + [(r.done, -1) for r in results],
        key=lambda e: (e[0], e[1]),
    )
    depth = peak = 0
    for _, delta in events:
        depth += delta
        peak = max(peak, depth)
    return peak


def lag_p99_ms(results: list[Result]) -> float:
    return percentile([r.lag for r in results], 99) * 1e3
